"""``python -m gestemo``: the command line, as the ``gestemo`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

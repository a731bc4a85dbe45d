"""Benchmark command for the gestemo pipeline.

Run one workload (prints one JSON result as the last line of stdout):

    python3 perfbench/run.py --workload desk32 --seed 1 --seconds 30 --trace 0

With ``--trace 1`` the same run is traced and reports the per-layer
metrics instead of the end-to-end ones.  Compare two sets of result files:

    python3 perfbench/run.py --compare DIR_A DIR_B

The program is imported from ``src/`` of the checkout this file sits in;
without it the command exits 2 and prints no result.
"""

import os
import sys
import time

_T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on the two-core reference box a second thread made the
# event branch slower and only the frame branch faster, and a single thread
# is less exposed to whatever else runs on the machine.  numpy reads these
# when it loads, so they are set before any import of it.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _set_blas_threads() -> int:
    n = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n


def _import_program():
    """Import gestemo from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gestemo", "__init__.py")):
        raise ImportError(f"no gestemo package under {SRC}")
    sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import gestemo
    if os.path.dirname(os.path.dirname(os.path.abspath(gestemo.__file__))) != SRC:
        raise ImportError(f"gestemo was imported from {gestemo.__file__}, not {SRC}")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="desk32 or davis346")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="run length the repeated phases are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(ROOT, ".perfbench", "results"),
                        help="directory for the result and spans files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result files")
    ns = parser.parse_args(argv)
    if ns.compare is None and ns.workload is None:
        parser.error("--workload is required unless --compare is given")

    threads = _set_blas_threads()
    try:
        _import_program()
        from perfbench import compare, runner
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    if ns.compare:
        return compare.main(ns.compare[0], ns.compare[1],
                            os.path.join(ROOT, "BENCHMARK.json"))
    import_s = time.perf_counter() - _T_START
    return runner.main(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.results,
                       root=ROOT, import_s=import_s, blas_threads=threads)


if __name__ == "__main__":
    sys.exit(main())

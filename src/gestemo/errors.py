"""Exception types raised across the toolkit, the one table of valid
option values, and the memory budget a declared size is held to.

The command line maps each exception to an exit code: GestemoError,
ParseError included, to 2 (data error) and DivergedLossError to 3
(training divergence).  A bad option value given on the command line is a
usage error (exit 1); the same value read from a checkpoint is a data error.
"""

import dataclasses
import math
import numbers
import os


class GestemoError(Exception):
    """Base class for all toolkit errors."""


class ParseError(GestemoError):
    """Malformed file content.  Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class DivergedLossError(GestemoError):
    """Training loss became non-finite."""


#: valid range of each numeric option, as (type, test, wording); a value of
#: another type, a bool, or NaN fails
RANGES = {
    "k": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "downsample": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "epochs": (numbers.Integral, lambda v: v >= 0, ">= 0"),
    "batch_size": (numbers.Integral, lambda v: v >= 0, ">= 0 (0 means full batch)"),
    "hidden": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "head_mid": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "frame_limit": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "seed": (numbers.Integral, lambda v: v >= 0, ">= 0"),
    "duration_us": (numbers.Integral, lambda v: v >= 0, ">= 0"),
    "bin_width": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "per_class": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "min_events": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "max_events": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "min_frames": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "max_frames": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "feature_dim": (numbers.Integral, lambda v: v >= 1, ">= 1"),
    "lr": (numbers.Real, lambda v: 0 < v < math.inf, "finite and > 0"),
    "lam": (numbers.Real, lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "dropout": (numbers.Real, lambda v: 0 <= v < 1, "in [0, 1)"),
    "train_fraction": (numbers.Real, lambda v: 0 < v < 1, "in (0, 1)"),
    "surrogate_width": (numbers.Real, lambda v: 0 < v < math.inf, "finite and > 0"),
    "lif_beta": (numbers.Real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "lif_theta": (numbers.Real, lambda v: 0 < v < math.inf, "finite and > 0"),
}

#: allowed values of each string option
CHOICES = {
    "scale_mode": ("none", "clip01", "divide_by_max"),
    "branch": ("snn_only", "video_only", "fused"),
    "mode": ("joint", "separate"),
    "target": ("emotion", "gesture"),
    "lif_reset": ("to_zero", "subtract_theta"),
    "split": ("train", "test"),
    "spike_fn": ("binary", "relaxed"),
}


#: characters of a rejected value, or of a bad field of a data file, quoted
#: in an error message
QUOTE_MAX = 40


def _shown(value) -> str:
    """repr of value, cut to its first QUOTE_MAX characters."""
    text = repr(value)
    return text if len(text) <= QUOTE_MAX else text[:QUOTE_MAX] + "..."


def check_option(key: str, value) -> None:
    """Raise GestemoError("<key> must be ..., got ...") unless value is valid
    for the option key; an integer option must also fit int64."""
    if key in CHOICES:
        if not isinstance(value, str) or value not in CHOICES[key]:
            raise GestemoError(f"{key} must be one of {', '.join(CHOICES[key])}, "
                               f"got {_shown(value)}")
        return
    kind, ok, wording = RANGES[key]
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise GestemoError(f"{key} must be {wording}, got {_shown(value)}")
    if kind is numbers.Integral and value >= 1 << 63:
        # integer options become int64 sizes, seeds and counts in numpy
        raise GestemoError(f"{key} must be below 2**63, got {_shown(value)}")


def physical_memory() -> int:
    """Bytes of physical memory: the budget a declared size is held to."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_keys(d: dict, cls) -> dict:
    """d, once checked to name every field of the dataclass cls."""
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in d]
    if missing:
        raise GestemoError(f"missing keys {', '.join(missing)}")
    return d

"""Compress an event stream into K dense spike planes by fixed event count.

Events are split in time order into K contiguous groups; the first
(L mod K) groups take ceil(L/K) events, the rest floor(L/K), so group sizes
never differ by more than one and trailing groups are all-zero when K > L.
Each group is histogrammed per pixel and per polarity, giving a
(K, 2, H, W) int64 array of counts (channel 0 = negative polarity,
channel 1 = positive).  The total count always equals the source event
count exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import GestemoError, check_option, physical_memory
from .events import EventStream, Geometry


def group_sizes(n_events: int, k: int) -> np.ndarray:
    """Group sizes for splitting n_events into k ordered groups; the
    remainder is front-loaded."""
    base, extra = divmod(n_events, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def _check_k_fits(k: int, geometry: Geometry, factor: int = 1) -> None:
    """Refuse a k whose int64 count planes over geometry, binned factor x
    factor, would exceed physical memory.  A geometry too large for even
    one step's planes is the file's fault, not k's, and is left to the
    allocation, unless k's own arrays (16 bytes a step) do not fit either."""
    h, w = -(-geometry.height // factor), -(-geometry.width // factor)
    step, memory = 8 * 2 * h * w, physical_memory()
    if memory < k * step and (step <= memory or memory < 16 * k):
        raise GestemoError(f"k {k} needs {k * step} bytes of {w}x{h} count "
                           f"planes, more than the {memory} bytes of physical memory")


def dense_spike_planes(stream: EventStream, k: int,
                       factor: int = 1) -> np.ndarray:
    """Count-based compression of a stream into (K, 2, H', W') int64
    planes, H' and W' being H and W over factor, rounded up.

    factor > 1 bins each event straight into its factor x factor pixel
    block, which equals downsample_planes(dense_spike_planes(stream, k),
    factor) without building the full-resolution planes.
    """
    check_option("k", k)
    check_option("downsample", factor)
    _check_k_fits(k, stream.geometry, factor)
    n = len(stream)
    if n == 0:
        raise GestemoError("cannot encode an empty stream")
    g = stream.geometry
    h, w = -(-g.height // factor), -(-g.width // factor)
    sizes = group_sizes(n, k)
    group = np.repeat(np.arange(k, dtype=np.int64), sizes)
    flat = ((group * 2 + stream.p) * h + stream.y // factor) * w + stream.x // factor
    counts = np.bincount(flat, minlength=k * 2 * h * w)
    return counts.reshape(k, 2, h, w).astype(np.int64, copy=False)


def downsample_planes(planes: np.ndarray, factor: int) -> np.ndarray:
    """Block-sum spatial pooling; pads H and W with zeros up to a multiple
    of factor, so the total count is conserved exactly."""
    check_option("downsample", factor)
    if factor == 1:
        return planes
    k, _, h, w = planes.shape
    hp = -h % factor
    wp = -w % factor
    if hp or wp:
        planes = np.pad(planes, ((0, 0), (0, 0), (0, hp), (0, wp)))
    nh, nw = (h + hp) // factor, (w + wp) // factor
    return planes.reshape(k, 2, nh, factor, nw, factor).sum(axis=(3, 5))


def scale_planes(planes: np.ndarray, mode: str = "clip01") -> np.ndarray:
    """Condition integer counts into network input.

    none          raw counts as float64
    clip01        uint8 1 wherever a count is positive, else 0 (binary
                  spike planes, one byte per cell)
    divide_by_max counts / global max as float64 (all zeros stay zero)
    """
    check_option("scale_mode", mode)
    if mode == "none":
        return planes.astype(np.float64)
    if mode == "clip01":
        return (planes > 0).astype(np.uint8)
    m = planes.max()
    if m == 0:
        return np.zeros_like(planes, dtype=np.float64)
    return planes / float(m)

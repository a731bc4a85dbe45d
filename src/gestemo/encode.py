"""Compress an event stream into K dense spike planes by fixed event count.

Events are split in time order into K contiguous groups; the first
(L mod K) groups take ceil(L/K) events, the rest floor(L/K), so group sizes
never differ by more than one and trailing groups are all-zero when K > L.
Each group is histogrammed per pixel and per polarity, giving a
K x 2 x H x W non-negative count tensor (channel 0 = negative polarity,
channel 1 = positive).  The total count always equals the source event
count exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GestemoError, check_option
from .events import EventStream, Geometry


@dataclass(frozen=True)
class DenseSpikePlanes:
    """K planes of per-pixel, per-polarity event counts."""

    k: int
    geometry: Geometry
    counts: np.ndarray  # (K, 2, H, W) int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        expected = (self.k, 2, self.geometry.height, self.geometry.width)
        if c.shape != expected:
            raise GestemoError(f"counts shape {c.shape} != {expected}")
        if np.any(c < 0):
            raise GestemoError("plane counts must be non-negative")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def per_plane_totals(self) -> np.ndarray:
        return self.counts.sum(axis=(1, 2, 3))


def group_sizes(n_events: int, k: int) -> np.ndarray:
    """Group sizes for splitting n_events into k ordered groups; the
    remainder is front-loaded."""
    base, extra = divmod(n_events, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def dense_spike_planes(stream: EventStream, k: int,
                       factor: int = 1) -> DenseSpikePlanes:
    """Count-based compression of a stream into K planes.

    factor > 1 bins each event straight into its factor x factor pixel
    block, which equals downsample_planes(dense_spike_planes(stream, k),
    factor) without building the full-resolution planes.
    """
    check_option("k", k)
    check_option("downsample", factor)
    n = len(stream)
    if n == 0:
        raise GestemoError("cannot encode an empty stream")
    g = stream.geometry
    h, w = -(-g.height // factor), -(-g.width // factor)
    sizes = group_sizes(n, k)
    group = np.repeat(np.arange(k, dtype=np.int64), sizes)
    flat = ((group * 2 + stream.p) * h + stream.y // factor) * w + stream.x // factor
    counts = np.bincount(flat, minlength=k * 2 * h * w)
    counts = counts.reshape(k, 2, h, w).astype(np.int64)
    return DenseSpikePlanes(k=k, geometry=Geometry(w, h), counts=counts)


def downsample_planes(planes: DenseSpikePlanes, factor: int) -> DenseSpikePlanes:
    """Block-sum spatial pooling; pads H and W with zeros up to a multiple
    of factor, so the total count is conserved exactly."""
    check_option("downsample", factor)
    if factor == 1:
        return planes
    c = planes.counts
    k, _, h, w = c.shape
    hp = -h % factor
    wp = -w % factor
    if hp or wp:
        c = np.pad(c, ((0, 0), (0, 0), (0, hp), (0, wp)))
    nh, nw = (h + hp) // factor, (w + wp) // factor
    pooled = c.reshape(k, 2, nh, factor, nw, factor).sum(axis=(3, 5))
    return DenseSpikePlanes(k=k, geometry=Geometry(nw, nh), counts=pooled)


def scale_planes(planes: DenseSpikePlanes, mode: str = "clip01") -> np.ndarray:
    """Condition integer counts into network input.

    none          raw counts as float64
    clip01        uint8 1 wherever a count is positive, else 0 (binary
                  spike planes, one byte per cell)
    divide_by_max counts / global max as float64 (all zeros stay zero)
    """
    check_option("scale_mode", mode)
    c = planes.counts
    if mode == "none":
        return c.astype(np.float64)
    if mode == "clip01":
        return (c > 0).astype(np.uint8)
    m = c.max()
    if m == 0:
        return np.zeros_like(c, dtype=np.float64)
    return c / float(m)

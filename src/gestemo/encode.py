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

from .dataio import _read_text
from .errors import GestemoError, ParseError, check_option
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


def write_planes_file(planes: DenseSpikePlanes, path) -> None:
    """Plane file: header ``K,W,H`` then one line of H*W integers per
    polarity plane, K*2 lines in (k, polarity) order."""
    g = planes.geometry
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{planes.k},{g.width},{g.height}\n")
        flat = planes.counts.reshape(planes.k * 2, g.height * g.width)
        for row in flat:
            f.write(" ".join(str(v) for v in row) + "\n")


def read_planes_file(path) -> DenseSpikePlanes:
    header, body = _read_text(path)
    header = header.strip()
    try:
        k, w, h = (int(v) for v in header.split(","))
    except ValueError:
        raise ParseError(f"{path}: bad planes header {header!r}", line=1)
    if min(k, w, h) < 1:
        raise ParseError(f"{path}:1: K, W and H must be >= 1, got {header!r}",
                         line=1)
    rows = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        try:
            row = [int(v) for v in line.split()]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer value", line=lineno)
        if len(row) != h * w:
            raise ParseError(f"{path}:{lineno}: expected {h * w} values, "
                             f"got {len(row)}", line=lineno)
        rows.append(row)
    if len(rows) != k * 2:
        raise ParseError(f"{path}: expected {k * 2} plane rows, got {len(rows)}")
    counts = np.asarray(rows, dtype=np.int64).reshape(k, 2, h, w)
    return DenseSpikePlanes(k=k, geometry=Geometry(w, h), counts=counts)

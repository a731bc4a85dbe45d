"""Dataset statistics: frame-count histogram, class counts (zeros
included), per-class event-time sums, and per-class, per-polarity box
summaries of event counts.

summarize is the one analysis path.  It takes samples one at a time,
reduces each to a few numbers and computes every analysis from those, so
dataset_stats and the stats command read each sample's files once and
hold one sample in memory.  Results are a pure function of the samples, so
reruns on the same data are identical.  Quartiles use linear interpolation
between order statistics and outliers follow the standard 1.5*IQR box rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dataio import SplitManifest, load_sample
from .errors import GestemoError, check_option
from .events import GestureClass, SampleRecord

MICROS_PER_SECOND = 1_000_000.0

#: frame-histogram bin width, in frames
DEFAULT_BIN_WIDTH = 100


@dataclass(frozen=True)
class FiveNumber:
    """min/Q1/median/Q3/max plus the values outside the 1.5*IQR fences."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: Tuple[float, ...]

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "FiveNumber":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise GestemoError("five-number summary of an empty sequence")
        q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        out = tuple(float(x) for x in np.sort(v[(v < lo) | (v > hi)]))
        return cls(float(v.min()), float(q1), float(med), float(q3),
                   float(v.max()), out)

    def to_dict(self) -> dict:
        return {
            "min": self.minimum, "q1": self.q1, "median": self.median,
            "q3": self.q3, "max": self.maximum,
            "outliers": list(self.outliers),
        }


@dataclass(frozen=True)
class ClassStats:
    """Per-class rollup: sample count, summed event time, and positive and
    negative per-sample event-count box summaries."""

    gesture: str
    count: int
    time_sum_s: float
    positive: Optional[FiveNumber]
    negative: Optional[FiveNumber]

    def to_dict(self) -> dict:
        return {
            "gesture": self.gesture,
            "count": self.count,
            "time_sum_s": self.time_sum_s,
            "positive": self.positive.to_dict() if self.positive else None,
            "negative": self.negative.to_dict() if self.negative else None,
        }


@dataclass(frozen=True)
class DatasetSummary:
    """Every analysis of one set of loaded samples."""

    n_samples: int
    frame_histogram: Dict[str, List[int]]
    class_counts: Dict[str, int]
    event_time_sum_s: Dict[str, float]
    polarity_boxes: Dict[str, ClassStats]

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "frame_histogram": self.frame_histogram,
            "class_counts": self.class_counts,
            "event_time_sum_s": self.event_time_sum_s,
            "polarity_boxes": {k: v.to_dict()
                               for k, v in self.polarity_boxes.items()},
        }


def summarize(samples: Iterable[SampleRecord],
              bin_width: int = DEFAULT_BIN_WIDTH) -> DatasetSummary:
    """All analyses in one pass over samples.  Each sample is reduced to a
    few numbers as it arrives, so a generator that loads samples one at a
    time keeps only one sample's events in memory.  The frame histogram
    covers the samples that carry features.  A bin_width below 1 raises
    GestemoError before any sample is read."""
    check_option("bin_width", bin_width)
    facts = [_facts(s) for s in samples]
    counts, times, boxes = _per_class(facts)
    return DatasetSummary(
        n_samples=len(facts),
        frame_histogram=_length_histogram(
            [f.n_frames for f in facts if f.n_frames is not None], bin_width),
        class_counts=counts,
        event_time_sum_s=times,
        polarity_boxes=boxes,
    )


def dataset_stats(manifest: SplitManifest,
                  bin_width: int = DEFAULT_BIN_WIDTH) -> dict:
    """One JSON-ready document bundling every analysis; each sample is read
    once.  Raises GestemoError when an entry has no feature file."""
    for e in manifest.entries:
        if e.features is None:
            raise GestemoError(f"sample {e.id!r} has no feature file")
    return summarize((load_sample(manifest, e.id) for e in manifest.entries),
                     bin_width).to_dict()


@dataclass(frozen=True)
class _Facts:
    """What the analyses need of one sample."""

    id: str
    gesture: GestureClass
    n_frames: Optional[int]      # None without features
    duration_s: Optional[float]  # None for an empty stream
    n_pos: int
    n_neg: int


def _facts(sample: SampleRecord) -> _Facts:
    stream = sample.events
    return _Facts(
        id=sample.id, gesture=sample.gesture,
        n_frames=None if sample.features is None else len(sample.features),
        duration_s=(stream.duration_us() / MICROS_PER_SECOND
                    if len(stream) else None),
        n_pos=int((stream.p == 1).sum()), n_neg=int((stream.p == 0).sum()))


def _length_histogram(lengths: Sequence[int], bin_width: int) -> Dict[str, List[int]]:
    if not lengths:
        return {"bin_edges": [], "counts": []}
    n_bins = max(lengths) // bin_width + 1
    counts = np.bincount(np.asarray(lengths) // bin_width, minlength=n_bins)
    edges = [i * bin_width for i in range(n_bins + 1)]
    return {"bin_edges": edges, "counts": counts.tolist()}


def _per_class(facts: Sequence[_Facts]) -> Tuple[Dict[str, int], Dict[str, float],
                                                 Dict[str, ClassStats]]:
    """Class counts and event-time sums over every class (zeros included),
    and polarity box summaries of the classes present, in one pass."""
    counts = {g.value: 0 for g in GestureClass}
    times = {g.value: 0.0 for g in GestureClass}
    pos: Dict[str, List[int]] = {}
    neg: Dict[str, List[int]] = {}
    for f in facts:
        g = f.gesture.value
        counts[g] += 1
        if f.duration_s is None:
            warnings.warn(f"sample {f.id!r}: empty event stream skipped")
        else:
            times[g] += f.duration_s
        pos.setdefault(g, []).append(f.n_pos)
        neg.setdefault(g, []).append(f.n_neg)
    boxes = {g: ClassStats(gesture=g, count=counts[g], time_sum_s=times[g],
                           positive=FiveNumber.from_values(pos[g]),
                           negative=FiveNumber.from_values(neg[g]))
             for g in counts if g in pos}
    return counts, times, boxes


# -- CSV emitters (one per analysis) ----------------------------------------------

def frame_histogram_csv(hist: Dict[str, List[int]]) -> List[str]:
    lines = ["bin_start,bin_end,count"]
    edges, counts = hist["bin_edges"], hist["counts"]
    for i, c in enumerate(counts):
        lines.append(f"{edges[i]},{edges[i + 1]},{c}")
    return lines


def class_counts_csv(counts: Dict[str, int]) -> List[str]:
    return ["class,count"] + [f"{k},{v}" for k, v in counts.items()]


def time_sum_csv(sums: Dict[str, float]) -> List[str]:
    return ["class,seconds"] + [f"{k},{v:.6f}" for k, v in sums.items()]


def polarity_box_csv(stats: Dict[str, ClassStats]) -> List[str]:
    lines = ["class,polarity,min,q1,median,q3,max,n_outliers"]
    for g, cs in stats.items():
        for pol, fn in (("positive", cs.positive), ("negative", cs.negative)):
            lines.append(f"{g},{pol},{fn.minimum:.6f},{fn.q1:.6f},"
                         f"{fn.median:.6f},{fn.q3:.6f},{fn.maximum:.6f},"
                         f"{len(fn.outliers)}")
    return lines

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
from .errors import GestemoError
from .events import GestureClass, SampleRecord

MICROS_PER_SECOND = 1_000_000.0


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


def summarize(samples: Iterable[SampleRecord], bin_width: int = 100) -> DatasetSummary:
    """All analyses in one pass over samples.  Each sample is reduced to a
    few numbers as it arrives, so a generator that loads samples one at a
    time keeps only one sample's events in memory.  The frame histogram
    covers the samples that carry features."""
    facts = [_facts(s) for s in samples]
    return DatasetSummary(
        n_samples=len(facts),
        frame_histogram=_length_histogram(
            [f.n_frames for f in facts if f.n_frames is not None], bin_width),
        class_counts=_class_counts(facts),
        event_time_sum_s=_time_sums(facts),
        polarity_boxes=_polarity_boxes(facts),
    )


def dataset_stats(manifest: SplitManifest, bin_width: int = 100) -> dict:
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
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    if not lengths:
        return {"bin_edges": [], "counts": []}
    n_bins = max(lengths) // bin_width + 1
    counts = np.bincount(np.asarray(lengths) // bin_width, minlength=n_bins)
    edges = [i * bin_width for i in range(n_bins + 1)]
    return {"bin_edges": edges, "counts": counts.tolist()}


def _class_counts(facts: Sequence[_Facts]) -> Dict[str, int]:
    counts = {g.value: 0 for g in GestureClass}
    for f in facts:
        counts[f.gesture.value] += 1
    return counts


def _time_sums(facts: Sequence[_Facts]) -> Dict[str, float]:
    sums = {g.value: 0.0 for g in GestureClass}
    for f in facts:
        if f.duration_s is None:
            warnings.warn(f"sample {f.id!r}: empty event stream skipped")
            continue
        sums[f.gesture.value] += f.duration_s
    return sums


def _polarity_boxes(facts: Sequence[_Facts]) -> Dict[str, ClassStats]:
    per_class: Dict[str, dict] = {}
    for f in facts:
        d = per_class.setdefault(f.gesture.value,
                                 {"count": 0, "time": 0.0, "pos": [], "neg": []})
        d["count"] += 1
        if f.duration_s is not None:
            d["time"] += f.duration_s
        d["pos"].append(f.n_pos)
        d["neg"].append(f.n_neg)
    out: Dict[str, ClassStats] = {}
    for g in GestureClass:
        d = per_class.get(g.value)
        if d is None:
            continue
        out[g.value] = ClassStats(
            gesture=g.value,
            count=d["count"],
            time_sum_s=d["time"],
            positive=FiveNumber.from_values(d["pos"]),
            negative=FiveNumber.from_values(d["neg"]),
        )
    return out


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

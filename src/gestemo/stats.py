"""Dataset statistics: frame-count histogram, class counts (zeros
included), per-class event-time sums, and per-class, per-polarity box
summaries of event counts.

summarize is the one analysis path and its dict is the one stats
document: what stats.json holds, and what write_stats turns into the
stats files.  It takes samples one at a time and reduces each to a few
numbers as it arrives, so dataset_stats and the stats command read each
sample's files once and hold one sample in memory.  Results are a pure
function of the samples, so reruns on the same data are identical.
Quartiles use linear interpolation between order statistics and outliers
follow the standard 1.5*IQR box rule.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .dataio import SplitManifest, load_sample
from .errors import GestemoError, check_option
from .events import GestureClass, SampleRecord

MICROS_PER_SECOND = 1_000_000.0

#: frame-histogram bin width, in frames
DEFAULT_BIN_WIDTH = 100


def five_number(values: Sequence[float]) -> dict:
    """The box of values: min, q1, median, q3 and max, plus the sorted
    values outside the 1.5*IQR fences as outliers."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise GestemoError("five-number summary of an empty sequence")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return {"min": float(v.min()), "q1": float(q1), "median": float(med),
            "q3": float(q3), "max": float(v.max()),
            "outliers": [float(x) for x in np.sort(v[(v < lo) | (v > hi)])]}


def summarize(samples: Iterable[SampleRecord],
              bin_width: int = DEFAULT_BIN_WIDTH) -> dict:
    """The stats document of samples, in one pass: n_samples,
    frame_histogram (bin_edges and counts, over the samples that carry
    features), class_counts and event_time_sum_s (every class, zeros
    included), and polarity_boxes (per class present: gesture, count,
    time_sum_s and the positive and negative event-count boxes).  A
    generator that loads samples one at a time keeps only one sample's
    events in memory.  A bin_width below 1 raises GestemoError before any
    sample is read."""
    check_option("bin_width", bin_width)
    counts = {g.value: 0 for g in GestureClass}
    times = {g.value: 0.0 for g in GestureClass}
    frames: List[int] = []
    pos: Dict[str, List[int]] = {}
    neg: Dict[str, List[int]] = {}
    for sample in samples:
        g, stream = sample.gesture.value, sample.events
        counts[g] += 1
        if len(stream):
            times[g] += stream.duration_us() / MICROS_PER_SECOND
        else:
            warnings.warn(f"sample {sample.id!r}: empty event stream adds no "
                          "recording time; still counted in the class counts "
                          "and polarity boxes")
        if sample.features is not None:
            frames.append(len(sample.features))
        pos.setdefault(g, []).append(int((stream.p == 1).sum()))
        neg.setdefault(g, []).append(int((stream.p == 0).sum()))
    return {
        "n_samples": sum(counts.values()),
        "frame_histogram": _length_histogram(frames, bin_width),
        "class_counts": counts,
        "event_time_sum_s": times,
        "polarity_boxes": {
            g: {"gesture": g, "count": counts[g], "time_sum_s": times[g],
                "positive": five_number(pos[g]), "negative": five_number(neg[g])}
            for g in counts if g in pos},
    }


def dataset_stats(manifest: SplitManifest,
                  bin_width: int = DEFAULT_BIN_WIDTH) -> dict:
    """summarize over every sample of manifest; each sample is read once.
    Raises GestemoError when an entry has no feature file."""
    for e in manifest.entries:
        if e.features is None:
            raise GestemoError(f"sample {e.id!r} has no feature file")
    return summarize((load_sample(manifest, e.id) for e in manifest.entries),
                     bin_width)


def _length_histogram(lengths: Sequence[int], bin_width: int) -> Dict[str, List[int]]:
    if not lengths:
        return {"bin_edges": [], "counts": []}
    n_bins = max(lengths) // bin_width + 1
    counts = np.bincount(np.asarray(lengths) // bin_width, minlength=n_bins)
    edges = [i * bin_width for i in range(n_bins + 1)]
    return {"bin_edges": edges, "counts": counts.tolist()}


def write_stats(doc: dict, out: str) -> None:
    """Write the stats files of doc, a document as summarize returns it,
    into the directory out: stats.json, then one CSV per analysis with its
    rows in doc's order."""
    edges, boxes = doc["frame_histogram"]["bin_edges"], doc["polarity_boxes"]
    files = {
        "stats.json": [json.dumps(doc, indent=2, sort_keys=True)],
        "frame_hist.csv": ["bin_start,bin_end,count"] + [
            f"{lo},{hi},{c}" for lo, hi, c
            in zip(edges, edges[1:], doc["frame_histogram"]["counts"])],
        "class_counts.csv": ["class,count"] + [
            f"{g},{n}" for g, n in doc["class_counts"].items()],
        "time_sum.csv": ["class,seconds"] + [
            f"{g},{s:.6f}" for g, s in doc["event_time_sum_s"].items()],
        "polarity_box.csv": ["class,polarity,min,q1,median,q3,max,n_outliers"] + [
            f"{g},{pol},{b['min']:.6f},{b['q1']:.6f},{b['median']:.6f},"
            f"{b['q3']:.6f},{b['max']:.6f},{len(b['outliers'])}"
            for g, box in boxes.items()
            for pol, b in (("positive", box["positive"]), ("negative", box["negative"]))],
    }
    os.makedirs(out, exist_ok=True)
    for name, lines in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

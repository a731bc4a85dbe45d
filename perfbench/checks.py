"""Correctness checks on every phase's output.

Each check compares a program output against the benchmark's own
computation from its generated arrays, or against a property the method
guarantees; none compares against a stored copy of earlier output.  A
check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

import numpy as np


class CheckFailed(Exception):
    """A phase produced a wrong output."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def stream_equals(stream, t, x, y, p, geometry) -> None:
    """The parsed stream holds exactly the generated arrays."""
    _require((stream.geometry.width, stream.geometry.height) == geometry,
             f"geometry {stream.geometry} != {geometry}")
    for name, got, want in (("t", stream.t, t), ("x", stream.x, x),
                            ("y", stream.y, y), ("p", stream.p, p)):
        _require(np.array_equal(np.asarray(got), np.asarray(want)),
                 f"parsed {name} differs from the generated array")


def tag_indices(tags: np.ndarray, times: np.ndarray, idx: np.ndarray) -> None:
    """Indices are in bounds and non-decreasing, out-of-range tags clamp to
    the ends, and each index lies no farther from its tag than the farther
    of the tag's two neighbouring event times."""
    tags = np.asarray(tags, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    n = times.size
    _require(idx.shape == tags.shape, f"{idx.size} indices for {tags.size} tags")
    _require(bool(np.all((idx >= 0) & (idx < n))), "tag index outside [0, N)")
    _require(bool(np.all(np.diff(idx) >= 0)), "tag indices decrease")
    for tag, i in zip(tags.tolist(), idx.tolist()):
        if tag < times[0]:
            _require(i == 0, f"tag {tag} before the stream maps to {i}, not 0")
        elif tag > times[-1]:
            _require(i == n - 1, f"tag {tag} after the stream maps to {i}, not {n - 1}")
        else:
            left = int(np.searchsorted(times, tag, side="right")) - 1
            right = int(np.searchsorted(times, tag, side="left"))
            bound = max(tag - int(times[left]), int(times[right]) - tag)
            _require(abs(int(times[i]) - tag) <= bound,
                     f"tag {tag} maps to time {int(times[i])}, more than {bound} away")


def segments_cover(segment_lengths: Sequence[int], n_events: int) -> None:
    _require(sum(segment_lengths) == n_events,
             f"segment lengths sum to {sum(segment_lengths)}, recording has {n_events}")


def dataset_stats(doc: Mapping, expected: Mapping) -> None:
    """Class counts, per-class time sums and per-polarity count summaries in
    a stats document equal the sums the benchmark computed itself.

    expected: {"class_counts": {g: n}, "time_sum_s": {g: s},
               "polarity": {g: {"positive": [...], "negative": [...]}}}
    """
    _require(doc["n_samples"] == sum(expected["class_counts"].values()),
             f"n_samples {doc['n_samples']} != {sum(expected['class_counts'].values())}")
    for g, n in expected["class_counts"].items():
        _require(doc["class_counts"].get(g) == n,
                 f"class {g}: count {doc['class_counts'].get(g)} != {n}")
    for g, s in expected["time_sum_s"].items():
        got = doc["event_time_sum_s"].get(g)
        _require(got is not None and math.isclose(got, s, rel_tol=1e-12, abs_tol=1e-9),
                 f"class {g}: time sum {got} != {s}")
    for g, pols in expected["polarity"].items():
        box = doc["polarity_boxes"].get(g)
        _require(box is not None, f"class {g}: no polarity summary")
        for pol, counts in pols.items():
            v = np.asarray(counts, dtype=np.float64)
            q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
            want = {"min": v.min(), "q1": q1, "median": med, "q3": q3, "max": v.max()}
            for key, val in want.items():
                _require(math.isclose(box[pol][key], float(val), rel_tol=1e-12),
                         f"class {g} {pol} {key}: {box[pol][key]} != {float(val)}")


def histogram_planes(t_len: int, x, y, p, k: int, width: int, height: int,
                     downsample: int) -> np.ndarray:
    """The benchmark's own encoding of one segment: K count groups with the
    remainder front-loaded, an np.add.at histogram per group, block-sum
    pooling with zero padding, then binary spikes."""
    base, extra = divmod(t_len, k)
    group = np.repeat(np.arange(k), [base + (1 if i < extra else 0) for i in range(k)])
    counts = np.zeros((k, 2, height, width), dtype=np.int64)
    np.add.at(counts, (group, np.asarray(p), np.asarray(y), np.asarray(x)), 1)
    f = downsample
    h2, w2 = -(-height // f), -(-width // f)
    padded = np.zeros((k, 2, h2 * f, w2 * f), dtype=np.int64)
    padded[:, :, :height, :width] = counts
    pooled = padded.reshape(k, 2, h2, f, w2, f).sum(axis=(3, 5))
    return (pooled > 0).astype(np.float64)


def planes_equal(planes: np.ndarray, expected: np.ndarray, sample: str) -> None:
    _require(planes.shape == expected.shape,
             f"sample {sample}: planes shape {planes.shape} != {expected.shape}")
    _require(np.array_equal(planes, expected),
             f"sample {sample}: planes differ from the histogram of its segment")


def loss_history(history: Sequence[Mapping], epochs: int, branch: str,
                 decreasing: bool = True) -> None:
    """One finite loss per epoch and, when decreasing, the last below the
    first."""
    losses = [h["loss"] for h in history]
    _require(len(losses) == epochs, f"{branch}: {len(losses)} epochs logged, {epochs} run")
    _require(all(math.isfinite(v) for v in losses), f"{branch}: non-finite epoch loss")
    _require(not decreasing or losses[-1] < losses[0],
             f"{branch}: last epoch loss {losses[-1]} not below first {losses[0]}")


def report_matches_scores(report, scores: np.ndarray, labels: np.ndarray,
                          num_classes: int) -> None:
    """Accuracy and weighted recall match a confusion matrix recomputed
    from the returned scores."""
    pred = np.argmax(scores, axis=1)
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labels, pred), 1)
    total = cm.sum()
    acc = np.trace(cm) / total
    support = cm.sum(axis=1)
    recall = np.divide(np.diag(cm), support, out=np.zeros(num_classes),
                       where=support > 0)
    wrecall = float((support / total * recall).sum())
    _require(np.array_equal(np.asarray(report.confusion), cm),
             "confusion matrix differs from the one recomputed from scores")
    _require(abs(report.accuracy - acc) <= 1e-12,
             f"accuracy {report.accuracy} != {acc} from scores")
    _require(abs(report.weighted_recall - wrecall) <= 1e-12,
             f"weighted recall {report.weighted_recall} != {wrecall} from scores")


def fused_scores(scores: np.ndarray, s_dg: np.ndarray, logits: np.ndarray,
                 lam: float) -> None:
    """Fused scores equal s_dg + lam * logits computed branch by branch."""
    want = s_dg + lam * logits
    _require(scores.shape == want.shape, f"fused shape {scores.shape} != {want.shape}")
    err = float(np.max(np.abs(scores - want)))
    _require(err <= 1e-12, f"fused scores differ from s + lam*logits by {err:.3g}")


def checkpoint_roundtrip(saved: Dict[str, np.ndarray], loaded: Dict[str, np.ndarray],
                         first_bytes: bytes, second_bytes: bytes) -> None:
    """Every tensor comes back bit for bit, and saving the loaded checkpoint
    again writes the same bytes."""
    _require(sorted(saved) == sorted(loaded),
             f"checkpoint tensors {sorted(loaded)} != {sorted(saved)}")
    for name, arr in saved.items():
        got = loaded[name]
        _require(got.shape == arr.shape and got.dtype == arr.dtype
                 and got.tobytes() == arr.tobytes(),
                 f"checkpoint tensor {name} does not round-trip bit for bit")
    _require(first_bytes == second_bytes, "re-saving the loaded checkpoint changes its bytes")

"""Workload definitions and the seeded inputs each run starts from.

A workload is a set of annotated recordings on disk: one event CSV, one
per-frame feature file and one annotation JSON per recording.  Each
recording holds a fixed number of gesture bursts (ok / no / victory in a
seeded order, equally many of each) separated by quiet gaps with no
events.  The annotation lists the tag timestamps that mark every burst's
onset and offset, plus one tag before the first event and one after the
last, which alignment must clamp to the ends of the stream.

Inputs are written with the benchmark's own writers, not the program's,
so set-up time does not move with the program's file code and the parse
check compares the program's reader against an independent writer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from gestemo.events import (PATTERN_OF_GESTURE, Geometry, GestureClass, StreamSpec,
                            synth_stream)
from gestemo.synth import synth_features

GESTURES = (GestureClass.OK, GestureClass.NO, GestureClass.VICTORY)

# Settings both workloads share with the acceptance gate.
K = 12
BATCH_SIZE = 8
THETA = 0.4
LR = 1e-3
LAM = 1.0
FEATURE_DIM = 16
#: set-up is repeated this many times and its median reported
SETUP_REPS = 3
#: the run length each workload's round count is set for
REF_SECONDS = 45


@dataclass(frozen=True)
class Workload:
    """Sizes of one round of a workload, and how many rounds a run of
    REF_SECONDS makes; the round count scales with ``--seconds``."""

    name: str
    width: int
    height: int
    recordings: int
    bursts_per_recording: int         # a multiple of len(GESTURES)
    events_per_burst: Tuple[int, int]  # inclusive range
    burst_us: int
    gap_us: int
    # Offset tags that fall inside the following quiet gap, in ms after the
    # burst's last event.  The multiset is fixed and only its placement is
    # seeded, so alignment does the same total work on every seed.
    gap_tag_ms: Tuple[float, ...]
    frames_per_burst: Tuple[int, int]
    train_per_class: int
    downsample: int
    snn_epochs: int
    video_epochs: int
    eval_passes: int
    rounds: int
    # Times a round prepares its dataset: once before training, then again
    # after evaluation, after the frame branch and after the event branch in
    # turn, so a short data path is sampled across the whole round.
    prep_passes: int

    def scaled(self, seconds: float) -> "Workload":
        """The same rounds, as many as a run of ``seconds`` holds."""
        return replace(self, rounds=max(1, round(self.rounds * seconds / REF_SECONDS)))

    @property
    def n_samples(self) -> int:
        return self.recordings * self.bursts_per_recording


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # The acceptance-gate dataset: 90 clips of ~1k events, 60/30 split.
        # 64x64 recordings pooled 2x give the gate's 32x32 network input,
        # so the downsample layer is entered on both workloads.
        Workload(
            name="desk32", width=64, height=64, recordings=10,
            bursts_per_recording=9, events_per_burst=(800, 1200),
            burst_us=100_000, gap_us=50_000, gap_tag_ms=(),
            frames_per_burst=(30, 90), train_per_class=20, downsample=2,
            snn_epochs=3, video_epochs=15, eval_passes=5, rounds=2,
            prep_passes=4),
        # Full-resolution recordings of ~1e5 events, planes pooled 4x.
        Workload(
            name="davis346", width=346, height=260, recordings=2,
            bursts_per_recording=9, events_per_burst=(10_000, 12_000),
            burst_us=1_000_000, gap_us=100_000, gap_tag_ms=(3.0, 8.0, 15.0, 25.0),
            frames_per_burst=(30, 90), train_per_class=4, downsample=4,
            snn_epochs=2, video_epochs=30, eval_passes=4, rounds=2,
            prep_passes=2),
    )
}


# -- generated inputs -------------------------------------------------------------

@dataclass
class Recording:
    """One generated recording and the truth the checks compare against."""

    name: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    features: np.ndarray                   # (frames, D)
    tags: np.ndarray                       # strictly increasing
    gestures: List[GestureClass]
    frames: List[Tuple[int, int]]          # per burst, [start, stop) rows

    @property
    def events_path(self) -> str:
        return f"{self.name}.csv"

    @property
    def features_path(self) -> str:
        return f"{self.name}.features.txt"

    @property
    def annotation_path(self) -> str:
        return f"{self.name}.json"


@dataclass
class Inputs:
    workload: Workload
    root: str
    recordings: List[Recording] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return sum(len(r.t) for r in self.recordings)


def generate(w: Workload, seed: int, round_index: int = 0) -> List[Recording]:
    """Seeded recordings for one round of workload w; the same seed and
    round give the same arrays."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, round_index]))
    geometry = Geometry(w.width, w.height)
    per_class = w.bursts_per_recording // len(GESTURES)
    n_gap_tags = len(w.gap_tag_ms)
    # which bursts get an in-gap offset tag, and with which distance; never
    # a recording's last burst, whose offset tag would clamp to the end
    bpr = w.bursts_per_recording
    candidates = [r * bpr + b for r in range(w.recordings) for b in range(bpr - 1)]
    slots = rng.choice(candidates, size=n_gap_tags, replace=False)
    gap_ms = dict(zip(slots.tolist(), rng.permutation(np.asarray(w.gap_tag_ms))))
    recs = []
    burst_index = 0
    for r in range(w.recordings):
        order = rng.permutation(np.repeat(np.arange(len(GESTURES)), per_class))
        ts, xs, ys, ps, feats, tags, frames = [], [], [], [], [], [], []
        start = w.gap_us
        frame = 0
        gestures = []
        for b, gi in enumerate(order):
            g = GESTURES[int(gi)]
            gestures.append(g)
            n = int(rng.integers(w.events_per_burst[0], w.events_per_burst[1] + 1))
            s = synth_stream(StreamSpec(geometry, w.burst_us, n,
                                        pattern=PATTERN_OF_GESTURE[g]),
                             seed=int(rng.integers(2 ** 31)))
            t = s.t + start
            ts.append(t); xs.append(s.x); ys.append(s.y); ps.append(s.p)
            tags.append(int(t[0]) + 1)
            if burst_index in gap_ms:
                tags.append(int(t[-1]) + int(round(gap_ms[burst_index] * 1000)))
            else:
                tags.append(int(t[-1]) + 1)
            nf = int(rng.integers(w.frames_per_burst[0], w.frames_per_burst[1] + 1))
            feats.append(synth_features(g, nf, FEATURE_DIM, rng).vectors)
            frames.append((frame, frame + nf))
            frame += nf
            start = int(t[-1]) + w.gap_us
            burst_index += 1
        t = np.concatenate(ts)
        all_tags = [int(t[0]) - 1 - w.gap_us // 2, *tags, int(t[-1]) + w.gap_us // 2]
        recs.append(Recording(
            name=f"rec{r:02d}", t=t, x=np.concatenate(xs), y=np.concatenate(ys),
            p=np.concatenate(ps), features=np.concatenate(feats),
            tags=np.asarray(all_tags, dtype=np.int64), gestures=gestures,
            frames=frames))
    return recs


def write_inputs(w: Workload, recs: List[Recording], root: str) -> Inputs:
    """Write every recording's three files under root."""
    os.makedirs(root, exist_ok=True)
    for r in recs:
        with open(os.path.join(root, r.events_path), "w", encoding="utf-8") as f:
            f.write(f"t,x,y,p geometry={w.width}x{w.height}\n")
            f.write("\n".join(f"{a},{b},{c},{d}" for a, b, c, d in zip(
                r.t.tolist(), r.x.tolist(), r.y.tolist(), r.p.tolist())))
            f.write("\n")
        with open(os.path.join(root, r.features_path), "w", encoding="utf-8") as f:
            f.write(f"D={FEATURE_DIM}\n")
            for row in r.features.tolist():
                f.write(" ".join(repr(v) for v in row) + "\n")
        with open(os.path.join(root, r.annotation_path), "w", encoding="utf-8") as f:
            json.dump({"tags": r.tags.tolist(),
                       "gestures": [g.value for g in r.gestures],
                       "frames": [list(fr) for fr in r.frames]}, f)
    return Inputs(w, root, recs)

"""One run of a workload through the whole user path.

recordings on disk -> parse -> align and cut into gesture segments ->
write a dataset with a manifest -> the stats command -> load and encode ->
train the event branch -> train the frame branch -> save a fused
checkpoint -> load it and evaluate, as many passes as the run asks for.

Every phase is timed on its own; the checks on its output run after it,
outside the timed part and with the tracer paused.  Program functions are
called through their modules, so a tracer that rebinds them sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from gestemo import align, checkpoint, cli, dataio, fusion, snn, training
from gestemo.events import GestureClass

from . import checks
from .checks import CheckFailed
from .workloads import (BATCH_SIZE, FEATURE_DIM, GESTURES, K, LAM, LR, SETUP_REPS,
                        THETA, Inputs, Workload, generate, write_inputs)

NUM_CLASSES = 3
LIF = snn.LifConfig(theta=THETA)


@dataclass
class Ops:
    """Operations attempted and the checks that failed on them."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, what: str, fn: Callable, *args, count: int = 1):
        self.attempted += count
        try:
            return fn(*args)
        except CheckFailed as e:
            self.failed += count
            self.failures.append(f"{what}: {e}")
            return None


@dataclass
class Prepared:
    """What one preparation produced, kept for the checks."""

    streams: list
    features: list
    cuts: List[np.ndarray]
    segment_lengths: List[List[int]]
    samples: List[Tuple[str, int, int, str]]   # (id, recording, burst, split)
    stats_doc: dict
    train: training.TrainData
    test: training.TrainData


# -- set-up -------------------------------------------------------------------------

def setup(w: Workload, seed: int, root: str) -> Tuple[List[Inputs], float]:
    """Generate and write every round's inputs, then warm up; returns the
    inputs and the median set-up time over SETUP_REPS repetitions."""
    times = []
    rounds: List[Inputs] = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rounds = [write_inputs(w, generate(w, seed, i),
                               os.path.join(root, "inputs", f"round{i}"))
                  for i in range(w.rounds)]
        _warm_up(w, seed)
        times.append(time.perf_counter() - t0)
    return rounds, statistics.median(times)


def _warm_up(w: Workload, seed: int) -> None:
    """One fused training step and one evaluation on three random samples
    of the workload's shapes, so lazy library set-up is not timed."""
    h, wd = -(-w.height // w.downsample), -(-w.width // w.downsample)
    rng = np.random.default_rng(seed)
    planes = (rng.random((3, K, 2, h, wd)) < 0.05).astype(np.float64)
    feats = rng.normal(size=(3, 100, FEATURE_DIM))
    data = training.TrainData(planes, feats, np.arange(3))
    arch = snn.default_architecture(NUM_CLASSES, h, wd)
    model = training.init_model(arch, FEATURE_DIM, seed=seed)
    training.train(data, model, arch, LIF, training.TrainConfig(epochs=1, batch_size=3))
    training.evaluate(data, model, arch, LIF)


# -- timed phases ---------------------------------------------------------------------

def prepare(inputs: Inputs, out_dir: str) -> Prepared:
    """Parse, align, cut, write the dataset, run the stats command, then
    load and encode both splits."""
    w = inputs.workload
    os.makedirs(os.path.join(out_dir, "events"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    entries, streams, features, all_cuts, seg_lengths, samples = [], [], [], [], [], []
    seen = {g: 0 for g in GestureClass}
    for ri, rec in enumerate(inputs.recordings):
        stream = dataio.read_events_file(os.path.join(inputs.root, rec.events_path))
        feats = dataio.read_feature_file(os.path.join(inputs.root, rec.features_path))
        with open(os.path.join(inputs.root, rec.annotation_path), encoding="utf-8") as f:
            ann = json.load(f)
        cuts = align.split_indices(np.asarray(ann["tags"], dtype=np.int64), stream.t)
        segments = align.segment_events(stream, cuts)
        for b, (gesture, (f0, f1)) in enumerate(zip(ann["gestures"], ann["frames"])):
            g = GestureClass(gesture)
            split = "train" if seen[g] < w.train_per_class else "test"
            seen[g] += 1
            sid = f"{rec.name}-b{b:02d}"
            ev_rel = os.path.join("events", f"{sid}.csv")
            ft_rel = os.path.join("features", f"{sid}.txt")
            dataio.write_events_file(segments[2 + 2 * b], os.path.join(out_dir, ev_rel))
            dataio.write_feature_file(
                dataio.FrameFeatureSequence(feats.dim, feats.vectors[f0:f1]),
                os.path.join(out_dir, ft_rel))
            entries.append(dataio.ManifestEntry(id=sid, gesture=g, events=ev_rel,
                                                split=split, features=ft_rel))
            samples.append((sid, ri, b, split))
        streams.append(stream)
        features.append(feats)
        all_cuts.append(cuts)
        seg_lengths.append([len(s) for s in segments])
    manifest_path = os.path.join(out_dir, "manifest.json")
    dataio.write_manifest(dataio.SplitManifest(root=out_dir, entries=entries),
                          manifest_path)
    stats_dir = os.path.join(out_dir, "stats")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["stats", manifest_path, "--out", stats_dir])
    if code != 0:
        raise RuntimeError(f"stats command exited {code}")
    with open(os.path.join(stats_dir, "stats.json"), encoding="utf-8") as f:
        stats_doc = json.load(f)
    manifest = dataio.read_manifest(manifest_path)
    tensors = []
    for split in ("train", "test"):
        loaded = [dataio.load_sample(manifest, sid) for sid in manifest.ids(split)]
        tensors.append(training.prepare_tensors(
            loaded, K, downsample=w.downsample, target="emotion"))
    return Prepared(streams, features, all_cuts, seg_lengths, samples, stats_doc,
                    tensors[0], tensors[1])


def train_branch(w: Workload, data: training.TrainData, arch, branch: str,
                 epochs: int, seed: int):
    model = training.init_model(arch, data.features.shape[2], seed=seed, branch=branch)
    cfg = training.TrainConfig(epochs=epochs, lr=LR, seed=seed, branch=branch,
                               batch_size=BATCH_SIZE)
    return model, training.train(data, model, arch, LIF, cfg)


# -- the run ----------------------------------------------------------------------------

@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    ops: Ops
    rounds: List[dict]     # per round: each phase's pass times, test accuracies


def run(w: Workload, rounds: List[Inputs], seed: int, work_dir: str,
        paused: Callable = contextlib.nullcontext) -> Outcome:
    """The timed part of one run: every round in turn, each a whole user
    session on its own recordings.  ``paused`` wraps every check.

    Rounds interleave the phases over the run, so a slow spell of the
    machine lands on one round of each phase rather than on the whole of
    one phase.  Each rate is the phase's work over its time, both summed
    over every timed pass of every round.
    """
    ops = Ops()
    done = []
    for i, inputs in enumerate(rounds):
        out_dir = os.path.join(work_dir, f"round{i}")
        done.append(_round(w, inputs, seed + i, out_dir, ops, paused))
        shutil.rmtree(out_dir)

    def rate(work: Callable[[dict], float], phase: str) -> float:
        passes = [(work(r), t) for r in done for t in r["phase_s"][phase]]
        return sum(n for n, _ in passes) / sum(t for _, t in passes)

    metrics = {
        "run_s": (sum(sum(map(sum, r["phase_s"].values())) for r in done), "s"),
        "prep_events_per_s": (rate(lambda r: r["events"], "prep"), "1/s"),
        "snn_train_samples_per_s": (rate(lambda r: r["n_train"] * w.snn_epochs, "snn"),
                                    "1/s"),
        "video_train_samples_per_s": (rate(lambda r: r["n_train"] * w.video_epochs,
                                           "video"), "1/s"),
        "eval_samples_per_s": (rate(lambda r: r["n_test"] * w.eval_passes, "eval"), "1/s"),
    }
    return Outcome(metrics, ops, done)


def _round(w: Workload, inputs: Inputs, seed: int, out_dir: str, ops: Ops,
           paused: Callable) -> dict:
    phase: Dict[str, List[float]] = {}

    def timed(name: str, fn: Callable, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        phase.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    prep = timed("prep", prepare, inputs, out_dir)
    with paused():
        _check_prepared(ops, w, inputs, prep)
    extra = [("eval", "video", "snn")[i % 3] for i in range(w.prep_passes - 1)]

    def prepare_again(after: str) -> None:
        for _ in range(extra.count(after)):
            again = timed("prep", prepare, inputs,
                          os.path.join(out_dir, f"again{len(phase['prep'])}"))
            with paused():
                ops.check("repeated preparation", _same_outputs, prep, again)
    tr, te = prep.train, prep.test
    arch = snn.default_architecture(NUM_CLASSES, *tr.planes.shape[3:])

    snn_model, snn_hist = timed("snn", train_branch, w, tr, arch, "snn_only",
                                w.snn_epochs, seed)
    prepare_again("snn")
    vid_model, vid_hist = timed("video", train_branch, w, tr, arch, "video_only",
                                w.video_epochs, seed)
    prepare_again("video")
    with paused():
        ops.check("snn_only training", checks.loss_history, snn_hist, w.snn_epochs,
                  "snn_only", count=w.snn_epochs)
        # The frame branch's epoch loss can jump above its first value long
        # after converging, on some seeds only, so only finiteness is checked.
        ops.check("video_only training", checks.loss_history, vid_hist,
                  w.video_epochs, "video_only", False, count=w.video_epochs)

    model = training.ModelParams(snn=snn_model.snn, lstm=vid_model.lstm,
                                 head=vid_model.head)
    ckpt_path = os.path.join(out_dir, "fused.ckpt")
    timed("save", checkpoint.save_checkpoint, checkpoint.Checkpoint(
        model=model, arch=arch, lif=LIF, fusion=fusion.FusionConfig(LAM),
        seed=seed, label_space=tuple(c.value for c in tr.label_space),
        extra={"workload": w.name}), ckpt_path)

    def evaluate_passes():
        out = []
        for _ in range(w.eval_passes):
            ck = checkpoint.load_checkpoint(ckpt_path)
            out.append(training.evaluate(te, ck.model, ck.arch, ck.lif,
                                         branch="fused", lam=ck.fusion.lam))
        return ck, out

    ck, passes = timed("eval", evaluate_passes)
    with paused():
        accuracy = _check_eval(ops, te, model, arch, ckpt_path, ck, passes)
    prepare_again("eval")
    return {"phase_s": phase, "accuracy": accuracy, "events": inputs.total_events,
            "n_train": len(tr), "n_test": len(te)}


# -- checks -------------------------------------------------------------------------------

def _check_prepared(ops: Ops, w: Workload, inputs: Inputs, prep: Prepared) -> None:
    geometry = (w.width, w.height)
    time_sum = {g.value: 0.0 for g in GESTURES}
    polarity: Dict[str, Dict[str, list]] = {}
    counts = {g.value: 0 for g in GESTURES}
    for rec, stream, feats, cuts, lengths in zip(inputs.recordings, prep.streams,
                                                 prep.features, prep.cuts,
                                                 prep.segment_lengths):
        ops.check(f"parse {rec.name}", checks.stream_equals, stream,
                  rec.t, rec.x, rec.y, rec.p, geometry)
        ops.check(f"parse {rec.name} features", _features_equal, feats.vectors,
                  rec.features)
        ops.check(f"align {rec.name}", checks.tag_indices, rec.tags, rec.t, cuts,
                  count=len(rec.tags))
        ops.check(f"segment {rec.name}", checks.segments_cover, lengths, len(rec.t))
    split_data = {"train": (prep.train, 0), "test": (prep.test, 0)}
    for sid, ri, b, split in prep.samples:
        rec, cuts = inputs.recordings[ri], prep.cuts[ri]
        lo, hi = int(cuts[1 + 2 * b]), int(cuts[2 + 2 * b])
        g = rec.gestures[b].value
        counts[g] += 1
        if hi - lo >= 2:
            time_sum[g] += (int(rec.t[hi - 1]) - int(rec.t[lo])) / 1e6
        pol = polarity.setdefault(g, {"positive": [], "negative": []})
        pol["positive"].append(int((rec.p[lo:hi] == 1).sum()))
        pol["negative"].append(int((rec.p[lo:hi] == 0).sum()))
        data, row = split_data[split]
        split_data[split] = (data, row + 1)
        want = checks.histogram_planes(hi - lo, rec.x[lo:hi], rec.y[lo:hi],
                                       rec.p[lo:hi], K, w.width, w.height,
                                       w.downsample)
        ops.check(f"encode {sid}", checks.planes_equal, data.planes[row], want, sid)
    ops.check("stats command", checks.dataset_stats, prep.stats_doc,
              {"class_counts": counts, "time_sum_s": time_sum, "polarity": polarity})


def _features_equal(got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckFailed("parsed features differ from the generated matrix")


def _same_outputs(a: Prepared, b: Prepared) -> None:
    same = (a.stats_doc == b.stats_doc
            and all(np.array_equal(x, y) for x, y in zip(a.cuts, b.cuts))
            and all(np.array_equal(getattr(x, f), getattr(y, f))
                    for x, y in ((a.train, b.train), (a.test, b.test))
                    for f in ("planes", "features", "labels")))
    if not same:
        raise CheckFailed("a repeated preparation gave different outputs")


def _check_eval(ops: Ops, te, model, arch, ckpt_path: str, ck,
                passes) -> Dict[str, float]:
    s_dg = snn.snn_forward(te.planes, model.snn, arch, LIF)
    logits = fusion.head_forward(fusion.recurrent_forward(te.features, model.lstm),
                                 model.head)
    for i, (report, scores) in enumerate(passes):
        ops.check(f"eval pass {i} report", checks.report_matches_scores, report,
                  scores, te.labels, NUM_CLASSES)
        ops.check(f"eval pass {i} fusion", checks.fused_scores, scores, s_dg, logits,
                  LAM)
    with open(ckpt_path, "rb") as f:
        first = f.read()
    resaved = ckpt_path + ".resaved"
    checkpoint.save_checkpoint(ck, resaved)
    with open(resaved, "rb") as f:
        second = f.read()
    ops.check("checkpoint round trip", checks.checkpoint_roundtrip, model.flat(),
              ck.model.flat(), first, second)
    accuracy = {"snn_only": float(np.mean(np.argmax(s_dg, 1) == te.labels)),
                "video_only": float(np.mean(np.argmax(logits, 1) == te.labels)),
                "fused": passes[0][0].accuracy}
    # Test accuracies are recorded, not held to a floor: on some seeds either
    # branch ends a round with one class never predicted (see CHANGES.md).
    return accuracy

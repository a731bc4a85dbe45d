"""Self-tests of the benchmark: tiny runs of both workloads, and one test
per correctness check showing that it rejects a wrong output.

Run: python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gestemo import align, checkpoint, fusion, snn, training
from gestemo.events import Geometry, StreamSpec, synth_stream
from perfbench import checks, compare, pipeline
from perfbench.checks import CheckFailed
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, generate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)

TINY = {
    "desk32": replace(WORKLOADS["desk32"], recordings=2, bursts_per_recording=3,
                      events_per_burst=(100, 150), train_per_class=1, snn_epochs=3,
                      video_epochs=3, eval_passes=2, rounds=2),
    "davis346": replace(WORKLOADS["davis346"], recordings=1, bursts_per_recording=6,
                        events_per_burst=(1500, 2000), gap_tag_ms=(0.5, 1.0),
                        train_per_class=1, snn_epochs=3, video_epochs=3,
                        eval_passes=1, rounds=1),
}


# -- tiny runs ------------------------------------------------------------------------

def _tiny_run(name, tmp_path, tracer=None):
    w = TINY[name]
    rounds, setup_s = pipeline.setup(w, 3, str(tmp_path))
    if tracer is None:
        return w, setup_s, pipeline.run(w, rounds, 3, str(tmp_path))
    with tracer:
        return w, setup_s, pipeline.run(w, rounds, 3, str(tmp_path), paused=tracer.paused)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_check(name, tmp_path):
    w, setup_s, out = _tiny_run(name, tmp_path)
    assert out.ops.failures == [] and out.ops.failed == 0
    assert out.ops.attempted > 0
    expected = {m["name"] for m in BENCH["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert set(out.metrics) == expected
    assert all(v > 0 for v, _ in out.metrics.values()) and setup_s > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    original = training.snn_forward
    tracer = Tracer()
    _, _, out = _tiny_run(name, tmp_path, tracer)
    assert out.ops.failed == 0
    assert training.snn_forward is original  # rebinding undone
    layers = tracer.metrics()
    expected = {m["name"] for m in BENCH["per_layer"]} - {"trace.run_s", "trace.overhead_s"}
    assert set(layers) == expected
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(units[k] == u for k, (_, u) in layers.items())
    assert all(v > 0 for v, _ in layers.values())
    # per preparation: each recording once, each sample three times by the
    # stats command and once by loading
    w = TINY[name]
    preparations = w.rounds * w.prep_passes
    assert layers["dataio.event_files_read"][0] == preparations * (4 * w.n_samples
                                                                   + w.recordings)


def test_same_seed_same_inputs():
    w = TINY["davis346"]
    a, b = generate(w, 5), generate(w, 5)
    assert all(np.array_equal(x.t, y.t) and np.array_equal(x.tags, y.tags)
               for x, y in zip(a, b))
    assert not np.array_equal(a[0].t, generate(w, 6)[0].t)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- each check rejects a wrong output ----------------------------------------------------

@pytest.fixture(scope="module")
def stream():
    return synth_stream(StreamSpec(Geometry(16, 12), 50_000, 400, pattern=2), seed=4)


def test_stream_check(stream):
    args = (stream.t, stream.x, stream.y, stream.p, (16, 12))
    checks.stream_equals(stream, *args)
    x = stream.x.copy()
    x[7] += 1
    with pytest.raises(CheckFailed):
        checks.stream_equals(stream, stream.t, x, stream.y, stream.p, (16, 12))


def test_tag_check(stream):
    t = stream.t
    tags = np.array([int(t[0]) - 5, int(t[100]) + 1, int(t[300]) + 40, int(t[-1]) + 9])
    idx = align.split_indices(tags, t)
    checks.tag_indices(tags, t, idx)
    for wrong in (np.array([0, idx[1], idx[2], t.size]),          # outside [0, N)
                  np.array([0, idx[2], idx[1], t.size - 1]),      # decreasing
                  np.array([1, idx[1], idx[2], t.size - 1]),      # no clamp at 0
                  np.array([0, idx[1] - 30, idx[2], t.size - 1])):  # too far
        with pytest.raises(CheckFailed):
            checks.tag_indices(tags, t, wrong)


def test_segment_check(stream):
    segs = align.segment_events(stream, [10, 200])
    checks.segments_cover([len(s) for s in segs], len(stream))
    with pytest.raises(CheckFailed):
        checks.segments_cover([len(s) for s in segs] + [1], len(stream))


def test_stats_check():
    pos, neg = [3, 5, 9], [4, 4, 1]
    q = lambda v: dict(zip(("min", "q1", "median", "q3", "max"),
                           [float(min(v)), *np.percentile(v, [25, 50, 75]), float(max(v))]))
    doc = {"n_samples": 3, "class_counts": {"ok": 3, "no": 0},
           "event_time_sum_s": {"ok": 1.5},
           "polarity_boxes": {"ok": {"positive": q(pos), "negative": q(neg)}}}
    expected = {"class_counts": {"ok": 3}, "time_sum_s": {"ok": 1.5},
                "polarity": {"ok": {"positive": pos, "negative": neg}}}
    checks.dataset_stats(doc, expected)
    for key, wrong in (("class_counts", {"ok": 2}), ("time_sum_s", {"ok": 1.25}),
                       ("polarity", {"ok": {"positive": [3, 5, 10], "negative": neg}})):
        with pytest.raises(CheckFailed):
            checks.dataset_stats(doc, {**expected, key: wrong})


def test_planes_check(stream):
    from gestemo.encode import dense_spike_planes, downsample_planes, scale_planes
    planes = scale_planes(downsample_planes(dense_spike_planes(stream, 5), 3))
    want = checks.histogram_planes(len(stream), stream.x, stream.y, stream.p, 5, 16, 12, 3)
    checks.planes_equal(planes, want, "s")
    with pytest.raises(CheckFailed):  # one plane short
        checks.planes_equal(planes[:-1], want, "s")
    off = planes.copy()
    off[0, 0, 0, 0] = 1.0 - off[0, 0, 0, 0]
    with pytest.raises(CheckFailed):
        checks.planes_equal(off, want, "s")


def test_loss_check():
    checks.loss_history([{"loss": 1.0}, {"loss": 0.5}], 2, "b")
    for hist in ([{"loss": 1.0}, {"loss": 1.0}], [{"loss": 1.0}, {"loss": float("nan")}],
                 [{"loss": 1.0}]):
        with pytest.raises(CheckFailed):
            checks.loss_history(hist, 2, "b")


def test_report_check():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(20, 3))
    labels = rng.integers(0, 3, size=20)
    report = training.MetricsReport.from_predictions(labels, np.argmax(scores, 1), 3)
    checks.report_matches_scores(report, scores, labels, 3)
    other = scores.copy()
    i = int(np.argmax(np.argmax(scores, 1) == labels))  # a correctly scored row
    other[i] = np.roll(other[i], 1)
    with pytest.raises(CheckFailed):
        checks.report_matches_scores(report, other, labels, 3)


def test_fusion_check():
    rng = np.random.default_rng(1)
    s, logits = rng.random((4, 3)), rng.normal(size=(4, 3))
    fused = fusion.fuse(s, logits, fusion.FusionConfig(0.7))
    checks.fused_scores(fused, s, logits, 0.7)
    with pytest.raises(CheckFailed):
        checks.fused_scores(fused + 1e-9, s, logits, 0.7)
    with pytest.raises(CheckFailed):
        checks.fused_scores(s + logits, s, logits, 0.7)


def test_checkpoint_check(tmp_path):
    arch = snn.default_architecture(3, 12, 12)
    model = training.init_model(arch, 4, hidden=5, head_mid=4, seed=2)
    ck = checkpoint.Checkpoint(model, arch, snn.LifConfig(), fusion.FusionConfig(),
                               2, ("a", "b", "c"))
    path = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(ck, path)
    loaded = checkpoint.load_checkpoint(path)
    data = path.read_bytes()
    checks.checkpoint_roundtrip(model.flat(), loaded.model.flat(), data, data)
    flipped = dict(loaded.model.flat())
    w = flipped["head.w1"].copy()
    w.view(np.uint64)[0, 0] ^= 1  # lowest mantissa bit
    flipped["head.w1"] = w
    with pytest.raises(CheckFailed):
        checks.checkpoint_roundtrip(model.flat(), flipped, data, data)
    with pytest.raises(CheckFailed):
        checks.checkpoint_roundtrip(model.flat(), loaded.model.flat(), data, data[:-1])


# -- compare verdicts ------------------------------------------------------------------------

def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(a, [12.0, 12.1, 11.9, 12.05, 11.95], "higher", 0.1) == "improved"
    assert compare.verdict(a, [10.02, 10.1, 9.9, 10.0, 9.97], "higher", 0.1) == "unchanged"
    assert compare.verdict(a, [8.0, 8.1, 7.9, 8.05, 7.95], "higher", 0.1) == "worse"
    assert compare.verdict(a, [6.0, 14.0, 9.0, 11.0, 10.0], "higher", 0.1) == "unresolved"
    assert compare.verdict(a, [8.0, 8.1, 7.9, 8.05, 7.95], "lower", 0.1) == "improved"

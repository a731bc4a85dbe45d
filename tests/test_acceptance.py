"""Release gate: one test per advertised guarantee, each printing a single
pass/fail line.  Budgets are wall-clock and asserted, not aspirational."""

import os
import time

import numpy as np
import pytest

from gestemo import snn
from gestemo.align import SearchTrace, find_position
from gestemo.cli import main
from gestemo.dataio import load_sample, read_manifest
from gestemo.encode import dense_spike_planes
from gestemo.events import Geometry, GestureClass, StreamSpec, synth_stream
from gestemo.snn import (
    DEFAULT_SURROGATE_WIDTH,
    Conv,
    Dense,
    LifConfig,
    Pool,
    SnnArchitecture,
    default_architecture,
    init_params,
    mse_spike_loss,
    snn_backward_from_output,
    snn_forward,
)
from gestemo.stats import dataset_stats
from gestemo.synth import DatasetSpec, build_dataset
from gestemo.training import (
    MetricsReport,
    TrainConfig,
    evaluate,
    init_model,
    prepare_tensors,
    train,
)


def gate(label, fn):
    t0 = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label} ({time.monotonic() - t0:.1f}s)")


def test_alignment_tolerance_and_probe_budget():
    def body():
        rng = np.random.default_rng(101)
        t0 = time.monotonic()
        for li in range(1000):
            n = int(10 ** rng.uniform(0.0, 5.0))
            times = np.cumsum(rng.integers(0, 3, size=n, dtype=np.int64))
            lo, hi = int(times[0]), int(times[-1])
            tags = [int(rng.integers(lo, hi + 1)) for _ in range(2)]
            if li % 10 == 0:
                tags.append(lo - 7)
                tags.append(hi + 7)
            for tag in tags:
                tr = SearchTrace()
                idx = find_position(tag, times, tr)
                if tag < lo:
                    assert idx == 0 and tr.clamped
                elif tag > hi:
                    assert idx == n - 1 and tr.clamped
                else:
                    assert abs(int(times[idx]) - tag) < tr.alpha_final
                    assert tr.alpha_final <= 3  # gaps drawn from {0,1,2}
                    if n > 1:
                        bound = tr.alpha_final * int(np.ceil(np.log2(n))) + 4
                        assert tr.comparisons <= bound
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"alignment sweep took {elapsed:.1f}s"
    gate("alignment: tolerance, probe budget, clamps on 1000 lists "
         "(n up to 1e5, under 10s)", body)


def test_encoding_bit_exact_against_brute_force():
    def body():
        rng = np.random.default_rng(202)
        t0 = time.monotonic()
        for _ in range(500):
            n = int(rng.integers(40, 250))
            g = Geometry(int(rng.integers(4, 24)), int(rng.integers(4, 24)))
            stream = synth_stream(
                StreamSpec(g, int(rng.integers(1000, 200_000)), n,
                           pattern=int(rng.integers(0, 10))),
                seed=int(rng.integers(2 ** 31)))
            for k in (1, 7, 12, n, 3 * n):
                planes = dense_spike_planes(stream, k)
                ref = np.zeros((k, 2, g.height, g.width), dtype=np.int64)
                base, extra = divmod(n, k)
                start = 0
                for gi in range(k):
                    size = base + (1 if gi < extra else 0)
                    for j in range(start, start + size):
                        ref[gi, stream.p[j], stream.y[j], stream.x[j]] += 1
                    start += size
                assert np.array_equal(planes, ref)
                assert planes.sum() == n
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"encoding sweep took {elapsed:.1f}s"
    gate("encoding: bit-exact vs per-event oracle on 500 streams, "
         "k in {1,7,12,L,3L} (under 30s)", body)


def lif_step(v, current, cfg):
    """One membrane update of v as the SNN runs it, with binary spikes:
    (new potential, spikes as 0.0 or 1.0)."""
    v = np.array(v, dtype=np.float64)
    s = np.empty(v.shape, dtype=bool)
    snn._lif_forward(v, np.asarray(current, dtype=np.float64), np.empty_like(v), s,
                     cfg, DEFAULT_SURROGATE_WIDTH)
    return v, s.astype(np.float64)


def test_membrane_dynamics_and_gradients():
    def body():
        # pure decay follows beta^t exactly (to 1e-9 over 20 steps)
        cfg = LifConfig()
        v = np.array([0.8])
        for t in range(1, 21):
            v, s = lif_step(v, np.zeros(1), cfg)
            assert s[0] == 0.0
            assert abs(v[0] - 0.9 ** t * 0.8) <= 1e-9
        # constant drive 0.5 first crosses threshold 1.0 on step 3
        v = np.zeros(1)
        first = None
        for step in range(1, 10):
            v, s = lif_step(v, np.array([0.5]), cfg)
            if s[0] == 1.0:
                first = step
                break
        assert first == 3
        # analytic gradients match finite differences at 1e-4
        arch = SnnArchitecture(
            layers=(Conv(2, 4, 3), Pool(2), Dense(36, 3)),
            input_shape=(2, 8, 8), num_classes=3)
        params = init_params(arch, seed=11)
        rng = np.random.default_rng(12)
        planes = rng.random((2, 3, 2, 8, 8)) * 1.5
        onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        s_dg, tape = snn_forward(planes, params, arch, cfg, spike_fn="relaxed",
                                 record=True)
        grads = snn_backward_from_output(tape, mse_spike_loss(s_dg, onehot)[1],
                                         params)
        h = 1e-6
        pick = np.random.default_rng(13)
        for name in arch.param_shapes():
            flat = params[name].ravel()
            for i in pick.choice(flat.size, size=min(4, flat.size),
                                 replace=False):
                keep = flat[i]
                flat[i] = keep + h
                up = float(np.mean((snn_forward(planes, params, arch, cfg,
                                                spike_fn="relaxed") - onehot) ** 2))
                flat[i] = keep - h
                down = float(np.mean((snn_forward(planes, params, arch, cfg,
                                                  spike_fn="relaxed") - onehot) ** 2))
                flat[i] = keep
                num = (up - down) / (2 * h)
                ana = grads[name].ravel()[i]
                assert num == pytest.approx(ana, rel=1e-4, abs=1e-7)
    gate("membrane dynamics: decay law to 1e-9, first spike on step 3, "
         "gradients match finite differences at 1e-4", body)


def test_metrics_oracle_and_recall_identity():
    def body():
        r = MetricsReport.from_confusion([[2, 0, 0], [0, 1, 1], [1, 0, 3]])
        assert abs(r.accuracy - 0.75) <= 1e-12
        assert np.max(np.abs(r.precision - [2 / 3, 1.0, 3 / 4])) <= 1e-12
        assert np.max(np.abs(r.recall - [1.0, 1 / 2, 3 / 4])) <= 1e-12
        assert abs(r.weighted_precision - 19 / 24) <= 1e-12
        assert abs(r.weighted_f1 - 89 / 120) <= 1e-12
        rng = np.random.default_rng(303)
        done = 0
        while done < 100:
            c = int(rng.integers(2, 11))
            cm = rng.integers(0, 50, size=(c, c))
            if cm.sum() == 0:
                continue
            rep = MetricsReport.from_confusion(cm)
            assert abs(rep.weighted_recall - rep.accuracy) <= 1e-12
            done += 1
    gate("metrics: hand-worked confusion oracle at 1e-12; weighted recall "
         "equals accuracy on 100 random matrices", body)


def test_training_benchmark_three_classes():
    def body():
        t0 = time.monotonic()
        spec = DatasetSpec(
            gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
            per_class=30, geometry=Geometry(32, 32), duration_us=2_000_000,
            min_events=800, max_events=1200, min_frames=30, max_frames=90,
            feature_dim=16)
        m = build_dataset("/tmp/gestemo_accept_train", spec, seed=42)
        tr = prepare_tensors([load_sample(m, s) for s in m.ids("train")], 12,
                             target="emotion")
        te = prepare_tensors([load_sample(m, s) for s in m.ids("test")], 12,
                             target="emotion")
        assert len(tr) == 60 and len(te) == 30
        assert tr.planes.shape[1:] == (12, 2, 32, 32)
        arch = default_architecture(3, 32, 32)
        lif = LifConfig(theta=0.4)
        acc = {}
        for branch in ("snn_only", "video_only", "fused"):
            model = init_model(arch, tr.features.shape[2], seed=0,
                               branch=branch)
            cfg = TrainConfig(epochs=30, lr=1e-3, seed=0, branch=branch,
                              batch_size=8)
            train(tr, model, arch, lif, cfg)
            report, _ = evaluate(te, model, arch, lif, branch=branch)
            acc[branch] = report.accuracy
        assert acc["snn_only"] >= 0.80, f"event branch {acc['snn_only']:.3f}"
        assert acc["video_only"] >= 0.80, f"frame branch {acc['video_only']:.3f}"
        best_single = max(acc["snn_only"], acc["video_only"])
        assert acc["fused"] >= best_single - 0.02, \
            f"fused {acc['fused']:.3f} vs single {best_single:.3f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"
    gate("training: 60/30 three-class split at 32x32, k=12; both single "
         "branches >= 80%, fusion within 2 points of the best (under 5min)",
         body)


def test_checkpoints_reproducible_from_cli(tmp_path):
    def body():
        root = tmp_path / "data"
        build_dataset(root, DatasetSpec(
            gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
            per_class=3, geometry=Geometry(16, 16), duration_us=50_000,
            min_events=30, max_events=40, min_frames=3, max_frames=5,
            feature_dim=3), seed=5)
        manifest = str(root / "manifest.json")
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        args = ["train", manifest, "--epochs", "2", "--k", "3",
                "--hidden", "4", "--head-mid", "4", "--frame-limit", "5",
                "--seed", "9"]
        assert main([*args, "--out", str(c1)]) == 0
        assert main([*args, "--out", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
    gate("reproducibility: the train command with a fixed seed writes "
         "bit-identical checkpoints", body)


def test_external_dataset_statistics():
    root = os.environ.get("GESTEMO_DATASET")
    if not root:
        pytest.skip("set GESTEMO_DATASET to a dataset root to enable")

    def body():
        manifest = read_manifest(os.path.join(root, "manifest.json"))
        doc = dataset_stats(manifest)
        assert doc["n_samples"] == len(manifest.entries) > 0
        assert sum(doc["class_counts"].values()) == doc["n_samples"]
    gate("external dataset: statistics over the provided corpus", body)

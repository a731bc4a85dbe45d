"""Loss, optimizer, loop, and metrics checks.  The metrics oracle is a
hand-worked 3x3 confusion matrix; the weighted-recall/accuracy identity is
verified on random matrices."""

import os
import signal
import threading
import time
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gestemo import fusion, snn, training
from gestemo.dataio import FrameFeatureSequence
from gestemo.errors import DivergedLossError, GestemoError
from gestemo.events import (
    DAVIS346,
    EmotionClass,
    Geometry,
    GestureClass,
    LABELED_GESTURES,
    SampleRecord,
    StreamSpec,
    emotion_of,
    synth_stream,
)
from gestemo.snn import Conv, Dense, LifConfig, Pool, SnnArchitecture, init_params, snn_forward
from gestemo.training import (
    EPS,
    AdamState,
    MetricsReport,
    ModelParams,
    TrainConfig,
    TrainData,
    adam_update,
    class_weights,
    confusion_matrix,
    emotion_report,
    evaluate,
    init_model,
    mse_spike_loss,
    prepare_tensors,
    train,
    weighted_cross_entropy,
)

from test_fusion import _ref_backward as _ref_lstm_backward
from test_fusion import _ref_forward as _ref_lstm_forward
from test_snn import _ref_run as _ref_snn_run

ARCH = SnnArchitecture(
    layers=(Conv(2, 4, 3), Pool(2), Dense(36, 3)),
    input_shape=(2, 8, 8),
    num_classes=3,
)


def toy_data(n_per=4, seed=0):
    """Three well-separated classes in both modalities."""
    rng = np.random.default_rng(seed)
    n = 3 * n_per
    labels = np.repeat(np.arange(3), n_per)
    planes = np.zeros((n, 3, 2, 8, 8))
    feats = rng.normal(scale=0.05, size=(n, 6, 3))
    for i, y in enumerate(labels):
        rows = slice(2 * y, 2 * y + 2)
        planes[i, :, :, rows, :] = (rng.random((3, 2, 2, 8)) > 0.3)
        feats[i, :, y] += 2.0
    return TrainData(planes, feats, labels, label_space=tuple(EmotionClass))


def test_class_weights_balanced():
    assert np.array_equal(class_weights(np.repeat([0, 1, 2], 10), 3), [1, 1, 1])
    assert np.array_equal(class_weights([0, 1], 2), [1, 1])


def test_class_weights_inverse_frequency():
    labels = np.repeat([0, 1, 2], [400, 400, 1000])
    assert np.allclose(class_weights(labels, 3), [1.5, 1.5, 0.6])


def test_class_weights_missing_class():
    with pytest.raises(GestemoError, match="class 1 has no samples"):
        class_weights([0, 0, 2], 3)
    with pytest.raises(GestemoError, match=r"label outside \[0,3\) present"):
        class_weights([0, 1, 5], 3)


def test_wce_confident_prediction_near_zero():
    loss, _ = weighted_cross_entropy(np.array([[100.0, 0.0, 0.0]]), [0],
                                     np.ones(3))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_wce_uniform_scores_log_c():
    loss, _ = weighted_cross_entropy(np.zeros((4, 3)), [0, 1, 2, 0], np.ones(3))
    assert loss == pytest.approx(np.log(3.0), abs=1e-12)


def test_wce_linear_in_weights():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 4))
    y = rng.integers(0, 4, size=5)
    base, gbase = weighted_cross_entropy(z, y, np.ones(4))
    dbl, gdbl = weighted_cross_entropy(z, y, 2.0 * np.ones(4))
    assert dbl == pytest.approx(2.0 * base, rel=1e-12)
    assert np.allclose(gdbl, 2.0 * gbase, atol=1e-15)


def test_wce_gradient_matches_fd():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 3))
    y = np.array([0, 2, 1, 1])
    w = np.array([0.5, 1.0, 2.0])
    _, grad = weighted_cross_entropy(z, y, w)
    h = 1e-6
    for idx in np.ndindex(z.shape):
        pert = z.copy()
        pert[idx] += h
        up, _ = weighted_cross_entropy(pert, y, w)
        pert[idx] -= 2 * h
        down, _ = weighted_cross_entropy(pert, y, w)
        assert (up - down) / (2 * h) == pytest.approx(grad[idx], rel=1e-5,
                                                      abs=1e-9)


def test_wce_overflow_safe():
    loss, grad = weighted_cross_entropy(np.array([[1e4, -1e4, 0.0]]), [1],
                                        np.ones(3))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("loss, message", [
    (lambda s: weighted_cross_entropy(s, [0], np.ones(3)),
     r"scores of shape \(3,\) for 1 labels"),
    (lambda s: mse_spike_loss(s, [0]),
     r"spike rates of shape \(3,\), expected \(B, C\)"),
], ids=["wce", "mse"])
def test_losses_take_a_batch_of_score_rows(loss, message):
    with pytest.raises(GestemoError, match=message):
        loss(np.zeros(3))


def test_mse_spike_values():
    onehot = np.array([[1.0, 0.0, 0.0]])
    assert mse_spike_loss(onehot, [0])[0] == 0.0
    assert mse_spike_loss(np.zeros((1, 3)), [1])[0] == pytest.approx(1 / 3)
    loss, _ = mse_spike_loss(np.array([[0.5, 0.5, 0.0]]), [0])
    assert loss == pytest.approx(1 / 6)


def test_mse_gradient_matches_fd():
    rng = np.random.default_rng(3)
    s = rng.random((3, 4))
    y = np.array([1, 0, 3])
    _, grad = mse_spike_loss(s, y)
    h = 1e-6
    for idx in np.ndindex(s.shape):
        pert = s.copy()
        pert[idx] += h
        up, _ = mse_spike_loss(pert, y)
        pert[idx] -= 2 * h
        down, _ = mse_spike_loss(pert, y)
        assert (up - down) / (2 * h) == pytest.approx(grad[idx], rel=1e-6,
                                                      abs=1e-12)


def test_adam_zero_gradient_no_move():
    p = {"w": np.array([1.0, -2.0])}
    adam_update(p, {"w": np.zeros(2)}, AdamState(), 1e-3)
    assert np.array_equal(p["w"], [1.0, -2.0])


def test_adam_first_step_size():
    lr = 1e-3
    p = {"w": np.array([1.0])}
    adam_update(p, {"w": np.array([1.0])}, AdamState(), lr)
    assert p["w"][0] == pytest.approx(1.0 - lr / (1.0 + EPS), abs=1e-15)


def test_adam_deterministic():
    rng = np.random.default_rng(4)
    gs = [rng.normal(size=3) for _ in range(5)]
    pa = {"w": np.ones(3)}
    pb = {"w": np.ones(3)}
    sa, sb = AdamState(), AdamState()
    for g in gs:
        adam_update(pa, {"w": g}, sa, 1e-3)
        adam_update(pb, {"w": g}, sb, 1e-3)
    assert np.array_equal(pa["w"], pb["w"])


def test_model_flat_shares_memory():
    model = init_model(ARCH, feature_dim=3, hidden=4, head_mid=4, seed=0)
    flat = model.flat()
    flat["lstm.b"] += 1.0
    assert np.array_equal(model.lstm["lstm.b"], np.ones_like(model.lstm["lstm.b"]))
    flat["conv0.w"][0, 0, 0, 0] = 7.0
    assert model.snn["conv0.w"][0, 0, 0, 0] == 7.0


def test_init_model_branches():
    snn_only = init_model(ARCH, 3, seed=0, branch="snn_only")
    assert snn_only.snn is not None and snn_only.lstm is None
    video = init_model(ARCH, 3, seed=0, branch="video_only")
    assert video.snn is None and video.lstm is not None and video.head is not None
    fused = init_model(ARCH, 3, seed=0, branch="fused")
    assert fused.snn is not None and fused.lstm is not None
    again = init_model(ARCH, 3, seed=0, branch="fused")
    assert np.array_equal(fused.lstm["lstm.wx"], again.lstm["lstm.wx"])


def make_sample(idx, gesture, n_events=60, n_frames=5, dim=3):
    stream = synth_stream(StreamSpec(Geometry(8, 8), 50_000, n_events), seed=idx)
    feats = FrameFeatureSequence(
        dim, np.random.default_rng(idx).random((n_frames, dim)))
    return SampleRecord(f"s{idx}", gesture, stream, feats)


def test_prepare_tensors_gesture_target():
    samples = [
        make_sample(0, GestureClass.OK),
        make_sample(1, GestureClass.NO),
        make_sample(2, GestureClass.OTHER),  # skipped: outside label space
    ]
    data = prepare_tensors(samples, k=4, frame_limit=7)
    assert len(data) == 2
    assert data.planes.shape == (2, 4, 2, 8, 8)
    assert data.features.shape == (2, 7, 3)
    assert list(data.labels) == [LABELED_GESTURES.index(GestureClass.OK),
                                 LABELED_GESTURES.index(GestureClass.NO)]
    assert set(np.unique(data.planes)) <= {0.0, 1.0}  # clip01 default
    assert data.planes.dtype == np.uint8
    assert data.planes.nbytes == 2 * 4 * 2 * 8 * 8
    assert np.array_equal(data.features[:, 0, :], np.zeros((2, 3)))  # front pad
    for mode in ("none", "divide_by_max"):
        assert prepare_tensors(samples, k=4, scale_mode=mode).planes.dtype == np.float64
    params = init_params(ARCH, seed=1)
    cfg = LifConfig(theta=0.3)
    as_float = data.planes.astype(np.float64)
    got, tape = snn_forward(data.planes, params, ARCH, cfg, record=True)
    want, _ = snn_forward(as_float, params, ARCH, cfg, record=True)
    assert np.array_equal(got, want)
    assert tape.x.dtype == np.uint8
    assert np.array_equal(snn_forward(data.planes, params, ARCH, cfg),
                          snn_forward(as_float, params, ARCH, cfg))


def test_prepare_tensors_emotion_target():
    samples = [
        make_sample(0, GestureClass.OK),       # Neutral
        make_sample(1, GestureClass.KILL),     # Negative
        make_sample(2, GestureClass.VICTORY),  # Positive
        make_sample(3, GestureClass.YES),      # Positive
    ]
    data = prepare_tensors(samples, k=2, target="emotion", frame_limit=5)
    assert data.label_space == tuple(EmotionClass)
    assert list(data.labels) == [0, 1, 2, 2]


def test_prepare_tensors_empty_space():
    with pytest.raises(GestemoError, match="no samples with labels in the requested space"):
        prepare_tensors([make_sample(0, GestureClass.OTHER)], k=2)


def test_train_config_validation():
    with pytest.raises(GestemoError, match="epochs must be >= 0, got -1"):
        TrainConfig(epochs=-1)
    with pytest.raises(GestemoError, match="branch must be one of snn_only, video_only, fused"):
        TrainConfig(branch="both")
    with pytest.raises(GestemoError, match="mode must be one of joint, separate, got 'alternating'"):
        TrainConfig(mode="alternating")
    TrainConfig(epochs=0)  # zero epochs is a valid no-op request


def test_zero_epochs_is_identity():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=5)
    before = {k: v.copy() for k, v in model.flat().items()}
    hist = train(data, model, ARCH, cfg=TrainConfig(epochs=0))
    assert hist == []
    after = model.flat()
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_video_branch_loss_decreases():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=8, head_mid=8, seed=6,
                       branch="video_only")
    hist = train(data, model, ARCH,
                 cfg=TrainConfig(epochs=25, lr=0.01, branch="video_only",
                                 dropout=0.0, seed=1))
    assert hist[-1]["loss"] < 0.5 * hist[0]["loss"]


def test_event_branch_loss_decreases():
    data = toy_data()
    model = init_model(ARCH, 3, seed=7, branch="snn_only")
    hist = train(data, model, ARCH,
                 cfg=TrainConfig(epochs=12, lr=0.005, branch="snn_only", seed=2))
    assert hist[-1]["loss"] < hist[0]["loss"]


def test_fused_history_structure():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=8)
    hist = train(data, model, ARCH, cfg=TrainConfig(epochs=3, seed=3))
    assert len(hist) == 3
    for entry in hist:
        assert entry["branch"] == "fused"
        assert entry["loss"] == pytest.approx(entry["mse"] + entry["wce"])


def test_separate_mode_runs_branches_in_order():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=9)
    hist = train(data, model, ARCH,
                 cfg=TrainConfig(epochs=2, mode="separate", seed=4))
    assert [e["branch"] for e in hist] == ["snn_only"] * 2 + ["video_only"] * 2


@pytest.mark.parametrize("branch,tapes_per_batch",
                         [("fused", 3), ("snn_only", 1), ("video_only", 2)])
def test_no_tape_outlives_its_batch(monkeypatch, branch, tapes_per_batch):
    """Every forward tape of a batch is freed before that batch's Adam step,
    and its gradients before the next batch's forward."""
    tapes, grads = [], []

    def keep_tape(forward):
        def wrapped(*args, **kwargs):
            assert all(ref() is None for ref in grads)
            out = forward(*args, **kwargs)
            if kwargs.get("record"):
                tapes.append(weakref.ref(out[1]))
            return out
        return wrapped

    def checked_adam(params, batch_grads, *args):
        assert tapes and all(ref() is None for ref in tapes)
        grads.extend(weakref.ref(g) for g in batch_grads.values())
        return adam_update(params, batch_grads, *args)

    for name in ("snn_forward", "recurrent_forward", "head_forward"):
        monkeypatch.setattr(training, name, keep_tape(getattr(training, name)))
    monkeypatch.setattr(training, "adam_update", checked_adam)
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=11, branch=branch)
    train(toy_data(), model, ARCH,
          cfg=TrainConfig(epochs=2, batch_size=5, branch=branch, seed=6))
    assert len(tapes) == 2 * 3 * tapes_per_batch   # 2 epochs of 3 batches


def test_training_deterministic():
    data = toy_data()
    runs = []
    for _ in range(2):
        model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=10)
        train(data, model, ARCH, cfg=TrainConfig(epochs=3, seed=5))
        runs.append({k: v.copy() for k, v in model.flat().items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


# -- a whole train call against a plain reference ----------------------------------
#
# What joins the branches, written out plainly: the SNN and LSTM oracles of
# test_snn and test_fusion, the head with its dropout draws, the fused score,
# both losses, the class weights, Adam and the rng order.  No scratch buffer,
# worker thread or helper process, so train must give its bits.

def _ref_train(data, model, arch, lif_cfg, cfg):
    """train's history, updating model's tensors in place."""
    runs = [cfg]
    if cfg.branch == "fused" and cfg.mode == "separate":
        snn_seq, video_seq = np.random.SeedSequence(cfg.seed).spawn(2)
        runs = [replace(cfg, branch="snn_only", seed=int(snn_seq.generate_state(1)[0])),
                replace(cfg, branch="video_only",
                        seed=int(video_seq.generate_state(1)[0]))]
    return [entry for run in runs
            for entry in _ref_train_joint(data, model, arch, lif_cfg, run)]


def _ref_train_joint(data, model, arch, lif_cfg, cfg):
    n, c = len(data), arch.num_classes
    weights = n / (c * np.bincount(data.labels, minlength=c).astype(np.float64))
    event, frame = cfg.branch != "video_only", cfg.branch != "snn_only"
    params = {**(model.snn if event else {}),
              **({**model.lstm, **model.head} if frame else {})}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    rng = np.random.default_rng(cfg.seed)
    batch = n if cfg.batch_size <= 0 else min(cfg.batch_size, n)
    history, step = [], 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        totals = np.zeros(3)   # loss, mse, wce, each summed over the samples
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            b, y = idx.size, data.labels[idx]
            grads, mse, wce = {}, 0.0, 0.0
            if event:
                planes = data.planes[idx].astype(np.float64)
                s_dg, _ = _ref_snn_run(planes, model.snn, arch, lif_cfg, "binary",
                                       cfg.surrogate_width, np.zeros((b, c)))
                diff = s_dg - np.eye(c)[y]
                mse = float((diff * diff).sum() / (b * c))
                d_sdg = 2.0 * diff / (b * c)
            if frame:
                lstm = types.SimpleNamespace(
                    hidden=model.lstm["lstm.wh"].shape[1], wx=model.lstm["lstm.wx"],
                    wh=model.lstm["lstm.wh"], b=model.lstm["lstm.b"])
                x = data.features[idx]
                h, gates, cs, hs = _ref_lstm_forward(x, lstm)
                w1, w2 = model.head["head.w1"], model.head["head.w2"]
                z1 = h @ w1.T + model.head["head.b1"]
                mask = 1.0
                if cfg.dropout > 0.0:
                    keep = 1.0 - cfg.dropout
                    mask = (rng.random(z1.shape) < keep).astype(np.float64) / keep
                a = np.maximum(z1, 0.0) * mask
                logits = a @ w2.T + model.head["head.b2"]
                scores = s_dg + cfg.lam * logits if event else logits
                zs = scores - scores.max(axis=1, keepdims=True)
                logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
                wy = weights[y]
                wce = float(-(wy * logp[np.arange(b), y]).mean())
                d_scores = np.exp(logp) * wy[:, None]
                d_scores[np.arange(b), y] -= wy
                d_scores = d_scores / b
                if event:
                    d_sdg = d_sdg + d_scores
                    d_scores = cfg.lam * d_scores
                d_z1 = (d_scores @ w2) * mask * (z1 > 0.0)
                grads.update({"head.w1": d_z1.T @ h, "head.b1": d_z1.sum(axis=0),
                              "head.w2": d_scores.T @ a,
                              "head.b2": d_scores.sum(axis=0)})
                grads.update(_ref_lstm_backward(x, gates, cs, hs, d_z1 @ w1, lstm))
            if event:
                grads.update(_ref_snn_run(planes, model.snn, arch, lif_cfg, "binary",
                                          cfg.surrogate_width, d_sdg)[1])
            step += 1
            for name, g in grads.items():   # Adam, as Kingma & Ba state it
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                params[name] -= cfg.lr * (m[name] / (1.0 - 0.9 ** step)) / (
                    np.sqrt(v[name] / (1.0 - 0.999 ** step)) + 1e-8)
            totals += np.array([mse + wce, mse, wce]) * b
        loss, mse, wce = totals / n
        history.append({"epoch": epoch, "branch": cfg.branch, "loss": loss,
                        "mse": mse, "wce": wce})
    return history


def reference_data():
    """Eleven samples of unequal classes (4, 4 and 3), so the class weights
    differ and batches of 5, 3 and 4 end in 1, 2 and 3 rows."""
    rng = np.random.default_rng(21)
    labels = np.array([0, 1, 2] * 3 + [0, 1])
    planes = (rng.random((11, 3) + ARCH.input_shape) < 0.4).astype(np.uint8)
    feats = rng.normal(size=(11, 5, 4))
    for i, y in enumerate(labels):
        planes[i, :, :, 2 * y:2 * y + 3] = 1
        feats[i, :, y] += 1.0
    return TrainData(planes, feats, labels, tuple(EmotionClass))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("batch", [5, 3, 4])
@pytest.mark.parametrize("cfg", [
    TrainConfig(epochs=2, lr=0.01, branch="snn_only"),
    TrainConfig(epochs=2, lr=0.01, branch="video_only", dropout=0.3),
    TrainConfig(epochs=2, lr=0.01, dropout=0.3, lam=0.5),
    TrainConfig(epochs=2, lr=0.01, dropout=0.0),
    TrainConfig(epochs=2, lr=0.01, mode="separate", dropout=0.3),
], ids=["snn_only", "video_only", "fused", "fused_no_dropout", "separate"])
def test_train_matches_the_plain_reference_bit_for_bit(cfg, batch, cpus, monkeypatch):
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    cfg = replace(cfg, batch_size=batch, seed=batch)
    data, lif_cfg = reference_data(), LifConfig()
    model, want = (init_model(ARCH, 4, hidden=4, head_mid=4, seed=1,
                              branch=cfg.branch) for _ in range(2))
    before = {name: p.copy() for name, p in model.flat().items()}
    assert train(data, model, ARCH, lif_cfg, cfg) == _ref_train(data, want, ARCH,
                                                                 lif_cfg, cfg)
    for name, p in want.flat().items():
        assert not np.array_equal(p, before[name]), name   # every tensor learned
        assert np.array_equal(model.flat()[name], p), name


#: the benchmark's two networks: desk32's at K 12 with batches of 4, and
#: davis346's (346x260 after --downsample 4) with batches of 8, at K 4 so
#: that the reference runs in seconds; both with the default LSTM and head
BENCHMARK_NETS = {"desk32": ((32, 32), 12, 4), "davis346": ((65, 87), 4, 8)}


@pytest.mark.parametrize("net,cpus", [("desk32", {0}), ("desk32", {0, 1}),
                                      ("davis346", {0, 1})],
                         ids=["desk32-one_cpu", "desk32-two_cpus", "davis346-two_cpus"])
def test_train_matches_the_plain_reference_at_benchmark_sizes(net, cpus, monkeypatch):
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    (height, width), k, batch = BENCHMARK_NETS[net]
    arch = snn.default_architecture(3, height, width)
    rng = np.random.default_rng(22)
    labels = np.array([0, 1, 2] * 3 + [0, 1])   # batches end in 3 rows
    planes = (rng.random((11, k, 2, height, width)) < 0.2).astype(np.uint8)
    feats = rng.normal(size=(11, 100, 16))
    feats[np.arange(11), :, labels] += 1.0
    data = TrainData(planes, feats, labels, tuple(EmotionClass))
    lif_cfg = LifConfig(theta=0.4)
    cfg = TrainConfig(epochs=2, lr=0.01, dropout=0.3, lam=0.5, batch_size=batch, seed=7)
    model, want = (init_model(arch, 16, seed=1) for _ in range(2))
    before = {name: p.copy() for name, p in model.flat().items()}
    history = train(data, model, arch, lif_cfg, cfg)
    # OpenBLAS on one thread, as train runs it, so the reference's GEMM
    # sums are not split over threads either
    with training._model_call(data, want, cfg.branch, "training"):
        assert history == _ref_train(data, want, arch, lif_cfg, cfg)
    for name, p in want.flat().items():
        assert not np.array_equal(p, before[name]), name
        assert np.array_equal(model.flat()[name], p), name


def test_diverged_loss_raises():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=11,
                       branch="video_only")
    with pytest.raises(DivergedLossError):
        train(data, model, ARCH,
              cfg=TrainConfig(epochs=6, lr=1e8, branch="video_only", seed=6))


def test_overflow_on_the_gradient_worker_is_divergence(two_cpus, monkeypatch):
    # The first layer's backward runs on the worker thread.  Its zero
    # weights keep the huge planes out of the forward pass, and both layers
    # hold their membranes inside the surrogate window, silent.  The huge
    # second layer then sends a gradient of about 1e147 back, so only the
    # first layer's weight gradient, (1e147 x 1e200) on the worker, overflows.
    arch = SnnArchitecture(layers=(Dense(1250, 512), Dense(512, 3)),
                           input_shape=(2, 25, 25), num_classes=3)
    assert snn._plan(arch).first_dense == 0
    params = {"fc0.w": np.zeros((512, 1250)), "fc0.b": np.full(512, 0.1),
              "fc1.w": np.full((3, 512), 1e150), "fc1.b": np.full(3, 0.1)}
    data = TrainData(np.full((4, 12, 2, 25, 25), 1e200), None,
                     np.array([0, 1, 2, 0]), tuple(EmotionClass))
    weight_backward, calls = snn._weight_backward, []

    def counted(*args):
        calls.append("begin")
        try:
            return weight_backward(*args)
        finally:
            calls.append("end")

    monkeypatch.setattr(snn, "_weight_backward", counted)
    with pytest.raises(DivergedLossError, match="overflow encountered in matmul"):
        train(data, ModelParams(snn=params), arch,
              cfg=TrainConfig(epochs=1, branch="snn_only"))
    at_raise = list(calls)
    snn._WORKER.submit(lambda: None).result(timeout=60)   # FIFO: after any leftover
    assert calls == at_raise
    assert at_raise.count("begin") == at_raise.count("end") > 0


def test_overflow_in_the_first_layer_lif_backward_on_the_worker_is_divergence(
        two_cpus, monkeypatch):
    # With beta 1, the first layer's membrane sits exactly at theta at every
    # step and the second layer's reaches it at the last step only, so with a
    # surrogate width of 1e-300 both see d(spike)/dv' = 5e299 there.  The
    # second layer, on the calling thread, sends back a gradient of about
    # 1e297, and the first layer's LIF backward on the worker multiplies it
    # by 5e299.  The calling thread's own arithmetic stays finite.
    arch = SnnArchitecture(layers=(Dense(50, 1), Dense(1, 3)),
                           input_shape=(2, 5, 5), num_classes=3)
    assert snn._plan(arch).first_dense == 0
    params = {"fc0.w": np.zeros((1, 50)), "fc0.b": np.ones(1),
              "fc1.w": np.full((3, 1), 0.125), "fc1.b": np.full(3, 0.125)}
    data = TrainData(np.zeros((4, 4, 2, 5, 5)), None, np.array([0, 1, 2, 0]),
                     tuple(EmotionClass))
    lif_backward, raised_on = snn._lif_backward, []

    def recorded(*args):
        try:
            return lif_backward(*args)
        except FloatingPointError:
            raised_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(snn, "_lif_backward", recorded)
    with pytest.raises(DivergedLossError, match="overflow encountered in multiply"):
        train(data, ModelParams(snn=params), arch,
              LifConfig(beta=1.0, theta=1.0),
              TrainConfig(epochs=1, branch="snn_only", surrogate_width=1e-300))
    # every first-layer task already queued overflows too, all on the worker
    assert raised_on and all(name.startswith("gestemo-snn") for name in raised_on)


def test_no_first_layer_task_starts_after_one_raised_on_the_worker(two_cpus, monkeypatch):
    # the setup of the test above, where every first-layer task overflows:
    # the tasks queued behind the first to raise must not start
    arch = SnnArchitecture(layers=(Dense(50, 1), Dense(1, 3)),
                           input_shape=(2, 5, 5), num_classes=3)
    assert snn._plan(arch).first_dense == 0
    params = {"fc0.w": np.zeros((1, 50)), "fc0.b": np.ones(1),
              "fc1.w": np.full((3, 1), 0.125), "fc1.b": np.full(3, 0.125)}
    data = TrainData(np.zeros((4, 4, 2, 5, 5)), None, np.array([0, 1, 2, 0]),
                     tuple(EmotionClass))
    lif_backward, on_worker = snn._lif_backward, []

    def recorded(*args):
        worker = threading.current_thread().name.startswith("gestemo-snn")
        if worker:
            on_worker.append("start")
        try:
            return lif_backward(*args)
        except FloatingPointError:
            if worker:
                on_worker.append("raise")
            raise

    monkeypatch.setattr(snn, "_lif_backward", recorded)
    with pytest.raises(DivergedLossError, match="overflow encountered in multiply"):
        train(data, ModelParams(snn=params), arch,
              LifConfig(beta=1.0, theta=1.0),
              TrainConfig(epochs=1, branch="snn_only", surrogate_width=1e-300))
    snn._WORKER.submit(lambda: None).result(timeout=60)   # FIFO: after any leftover
    assert on_worker[-1] == "raise" and on_worker.count("raise") == 1, on_worker


def test_overflow_on_the_forward_worker_half_is_divergence(two_cpus, monkeypatch):
    # Only the sample that the epoch's permutation puts last in the batch,
    # in the half the worker thread runs, holds huge planes.  Its conv
    # current, (1e200 x 1e150), overflows on the worker; the calling
    # thread's half is all zeros.
    arch = SnnArchitecture(layers=(Conv(2, 2, 3), Dense(18, 3)),
                           input_shape=(2, 5, 5), num_classes=3)
    params = {"conv0.w": np.full((2, 2, 3, 3), 1e150), "conv0.b": np.zeros(2),
              "fc1.w": np.zeros((3, 18)), "fc1.b": np.zeros(3)}
    cfg = TrainConfig(epochs=1, branch="snn_only")
    planes = np.zeros((4, 2, 2, 5, 5))
    planes[np.random.default_rng(cfg.seed).permutation(4)[-1]] = 1e200
    data = TrainData(planes, None, np.array([0, 1, 2, 0]), tuple(EmotionClass))
    layer_forward, calls, raised_on = snn._layer_forward, [], []

    def counted(*args):
        calls.append("begin")
        try:
            return layer_forward(*args)
        except FloatingPointError:
            raised_on.append(threading.current_thread().name)
            raise
        finally:
            calls.append("end")

    monkeypatch.setattr(snn, "_layer_forward", counted)
    with pytest.raises(DivergedLossError, match="overflow encountered in matmul"):
        train(data, ModelParams(snn=params), arch, cfg=cfg)
    at_raise = list(calls)
    snn._WORKER.submit(lambda: None).result(timeout=60)   # FIFO: after any leftover
    assert calls == at_raise
    assert at_raise.count("begin") == at_raise.count("end") > 0
    assert len(raised_on) == 1 and raised_on[0].startswith("gestemo-snn")


def logged_calls(monkeypatch, name, calls):
    """Patch snn.<name> to log "begin" and "end" around each call, sleeping
    0.2 s first on the worker thread, so its task is still running when the
    calling thread raises."""
    fn = getattr(snn, name)

    def logged(*args):
        calls.append("begin")
        try:
            if threading.current_thread().name.startswith("gestemo-snn"):
                time.sleep(0.2)
            return fn(*args)
        finally:
            calls.append("end")

    monkeypatch.setattr(snn, name, logged)


def test_overflow_on_the_caller_waits_for_the_forward_worker_half(two_cpus, monkeypatch):
    # The mirror of the worker-half test: the sample that the epoch's
    # permutation puts first in the batch, in the calling thread's half,
    # holds huge planes, and its conv current overflows while the worker
    # still sleeps in its own half.
    arch = SnnArchitecture(layers=(Conv(2, 2, 3), Dense(18, 3)),
                           input_shape=(2, 5, 5), num_classes=3)
    params = {"conv0.w": np.full((2, 2, 3, 3), 1e150), "conv0.b": np.zeros(2),
              "fc1.w": np.zeros((3, 18)), "fc1.b": np.zeros(3)}
    cfg = TrainConfig(epochs=1, branch="snn_only")
    planes = np.zeros((4, 2, 2, 5, 5))
    planes[np.random.default_rng(cfg.seed).permutation(4)[0]] = 1e200
    data = TrainData(planes, None, np.array([0, 1, 2, 0]), tuple(EmotionClass))
    calls = []
    logged_calls(monkeypatch, "_layer_forward", calls)
    with pytest.raises(DivergedLossError, match="overflow encountered in matmul"):
        train(data, ModelParams(snn=params), arch, cfg=cfg)
    at_raise = list(calls)
    snn._WORKER.submit(lambda: None).result(timeout=60)   # FIFO: after any leftover
    assert calls == at_raise
    assert at_raise.count("begin") == at_raise.count("end") > 0


def test_overflow_on_the_caller_waits_for_a_pending_gradient_task(two_cpus, monkeypatch):
    # The first layer's whole backward goes to the worker, which sleeps in
    # its LIF backward and in its weight sums; the calling thread's second
    # input gradient then overflows.
    arch = SnnArchitecture(layers=(Dense(1250, 512), Dense(512, 3)),
                           input_shape=(2, 25, 25), num_classes=3)
    assert snn._plan(arch).first_dense == 0
    params = {"fc0.w": np.zeros((512, 1250)), "fc0.b": np.full(512, 0.1),
              "fc1.w": np.full((3, 512), 0.01), "fc1.b": np.full(3, 0.1)}
    data = TrainData(np.zeros((4, 3, 2, 25, 25)), None,
                     np.array([0, 1, 2, 0]), tuple(EmotionClass))
    calls, input_backward, steps, raised_on = [], snn._input_backward, [], []

    def overflowing(*args):
        steps.append(None)
        if len(steps) == 2:   # step K-2: step K-1's task is in flight
            raised_on.append(threading.current_thread().name)
            np.float64(1e300) * np.float64(1e300)
        return input_backward(*args)

    logged_calls(monkeypatch, "_lif_backward", calls)
    logged_calls(monkeypatch, "_weight_backward", calls)
    monkeypatch.setattr(snn, "_input_backward", overflowing)
    with pytest.raises(DivergedLossError, match="overflow encountered"):
        train(data, ModelParams(snn=params), arch,
              cfg=TrainConfig(epochs=1, branch="snn_only"))
    at_raise = list(calls)
    snn._WORKER.submit(lambda: None).result(timeout=60)   # FIFO: after any leftover
    assert calls == at_raise
    assert at_raise.count("begin") == at_raise.count("end") > 0
    assert raised_on == [threading.current_thread().name]


def forked_helpers(monkeypatch, cpus=2):
    """Make the code see `cpus` CPUs and record the pid of every process
    forked from here on."""
    monkeypatch.setattr(snn, "_cpus", lambda: cpus)
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("branch,mode,forks", [
    ("video_only", "joint", 1), ("fused", "joint", 1), ("fused", "separate", 1),
    ("snn_only", "joint", 0)])
def test_lstm_helper_lives_for_one_train_call(monkeypatch, branch, mode, forks):
    trained = []
    for cpus in (2, 1):
        pids = forked_helpers(monkeypatch, cpus)
        model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=11, branch=branch)
        train(toy_data(), model, ARCH,
              cfg=TrainConfig(epochs=2, batch_size=5, branch=branch, mode=mode, seed=6))
        assert len(pids) == (forks if cpus == 2 else 0)
        assert_reaped(pids)
        trained.append(model.flat())
    for name, value in trained[0].items():
        assert np.array_equal(value, trained[1][name]), name


def overflowing_frame_model(where):
    """A video_only model and data whose first LSTM backward step overflows:
    in the caller's dh = dz @ wh (all-zero features keep the hidden states
    at zero, so the forward passes a recurrent weight of 1e307), or in the
    weight sums' dz.T @ x (features of 1e200 under input weights of about
    1e-200, and a head of 1e150 that sends back d_h of about 1e150)."""
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=1, branch="video_only")
    if where == "caller":
        feats = np.zeros((4, 6, 3))
        model.lstm["lstm.wh"][...] = 1e307
        model.head["head.b1"][...] = 1.0
        model.head["head.w1"] *= 1e5
    else:
        feats = np.full((4, 6, 3), 1e200)
        model.lstm["lstm.wx"] *= 1e-200
        model.lstm["lstm.b"][...] = 5.0
        model.head["head.w1"][...] = 1e150
    return model, TrainData(None, feats, np.array([0, 1, 2, 0]), tuple(EmotionClass))


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_lstm_backward_overflow_on_the_helper_path_reads_as_inline(monkeypatch,
                                                                  where):
    weight_terms = fusion._weight_terms
    messages = []
    for cpus in (1, 2):
        pids, raised = forked_helpers(monkeypatch, cpus), []

        def recorded(*args):   # in this process only: the helper has its own list
            try:
                return weight_terms(*args)
            except FloatingPointError:
                raised.append(cpus)
                raise

        monkeypatch.setattr(fusion, "_weight_terms", recorded)
        model, data = overflowing_frame_model(where)
        with pytest.raises(DivergedLossError) as err:
            train(data, model, ARCH, cfg=TrainConfig(epochs=1, branch="video_only"))
        messages.append(str(err.value))
        assert len(pids) == cpus - 1
        assert_reaped(pids)
        assert raised == ([1] if where == "helper" and cpus == 1 else [])
    assert messages == ["overflow encountered in matmul during training"] * 2


def test_a_helper_error_from_an_earlier_step_wins_over_the_callers(monkeypatch):
    # the helper overflows in the first backward step's sums, as inline; the
    # caller then fails in its third step, later in step order, and must
    # still report the helper's error
    pids = forked_helpers(monkeypatch)
    step, steps = fusion._WeightSums.step, []

    def failing_third(sums):
        steps.append(None)
        if len(steps) == 3:
            raise FloatingPointError("caller error")
        return step(sums)

    monkeypatch.setattr(fusion._WeightSums, "step", failing_third)
    model, data = overflowing_frame_model("helper")
    with pytest.raises(DivergedLossError,
                       match="^overflow encountered in matmul during training$"):
        train(data, model, ARCH, cfg=TrainConfig(epochs=1, branch="video_only"))
    assert len(steps) == 3 and len(pids) == 1
    assert_reaped(pids)


def test_a_killed_lstm_helper_ends_training_with_one_line_error(monkeypatch):
    pids = forked_helpers(monkeypatch)
    parent, weight_terms = os.getpid(), fusion._weight_terms

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return weight_terms(*args)

    monkeypatch.setattr(fusion, "_weight_terms", dying)
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=11, branch="video_only")
    with pytest.raises(GestemoError) as err:
        train(toy_data(), model, ARCH, cfg=TrainConfig(epochs=2, branch="video_only"))
    assert str(err.value) == "the LSTM weight-sum helper process ended unexpectedly"
    assert len(pids) == 1
    assert_reaped(pids)


def test_train_empty_split():
    data = TrainData(np.zeros((0, 2, 2, 8, 8)), np.zeros((0, 5, 3)),
                     np.zeros(0, dtype=np.int64), tuple(EmotionClass))
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=0)
    with pytest.raises(GestemoError, match="training split is empty"):
        train(data, model, ARCH)


def test_train_and_scores_for_refuse_alike_and_report_overflow_their_own_way():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=0)
    empty = TrainData(data.planes[:0], data.features[:0], data.labels[:0],
                      data.label_space)
    with pytest.raises(GestemoError, match=r"^evaluation split is empty$"):
        evaluate(empty, model, ARCH)
    no_features = TrainData(data.planes, None, data.labels, data.label_space)
    for call in (lambda: evaluate(no_features, model, ARCH),
                 lambda: train(no_features, model, ARCH, cfg=TrainConfig(epochs=1))):
        with pytest.raises(GestemoError,
                           match=r"^data has no inputs for branch 'fused'$"):
            call()
    # (1e200 x 1e200) in the LSTM's input projection
    model.lstm["lstm.wx"][:] = 1e200
    huge = TrainData(data.planes, data.features + 1e200, data.labels,
                     data.label_space)
    with pytest.raises(FloatingPointError, match="overflow encountered in matmul"):
        evaluate(huge, model, ARCH)
    with pytest.raises(DivergedLossError,
                       match="overflow encountered in matmul during training"):
        train(huge, model, ARCH, cfg=TrainConfig(epochs=1))


def test_confusion_matrix_layout():
    cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2], 3)
    assert np.array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(cm.sum(axis=1), [2, 1, 1])  # rows are true counts
    with pytest.raises(GestemoError, match="2 true vs 1 predicted"):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(GestemoError, match=r"labels outside \[0,3\)"):
        confusion_matrix([0, 3], [0, 0], 3)


def test_metrics_hand_worked_oracle():
    r = MetricsReport.from_confusion([[2, 0, 0], [0, 1, 1], [1, 0, 3]])
    tol = 1e-12
    assert abs(r.accuracy - 0.75) <= tol
    assert np.max(np.abs(r.precision - [2 / 3, 1.0, 3 / 4])) <= tol
    assert np.max(np.abs(r.recall - [1.0, 1 / 2, 3 / 4])) <= tol
    assert np.max(np.abs(r.f1 - [4 / 5, 2 / 3, 3 / 4])) <= tol
    assert np.array_equal(r.support, [2, 2, 4])
    assert abs(r.weighted_precision - 19 / 24) <= tol
    assert abs(r.weighted_recall - 0.75) <= tol
    assert abs(r.weighted_f1 - 89 / 120) <= tol


def test_metrics_undefined_precision_is_zero():
    r = MetricsReport.from_confusion([[0, 1], [0, 1]])
    assert r.precision[0] == 0.0
    assert r.f1[0] == 0.0
    assert r.recall[0] == 0.0


def test_weighted_recall_equals_accuracy_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        c = int(rng.integers(2, 8))
        cm = rng.integers(0, 30, size=(c, c))
        if cm.sum() == 0:
            continue
        r = MetricsReport.from_confusion(cm)
        assert abs(r.weighted_recall - r.accuracy) <= 1e-12


def test_perfect_predictor_metrics():
    r = MetricsReport.from_predictions([0, 1, 2, 2], [0, 1, 2, 2], 3)
    assert r.accuracy == 1.0
    assert np.all(r.precision == 1.0) and np.all(r.recall == 1.0)
    assert r.weighted_f1 == 1.0


def test_metrics_report_serialization():
    r = MetricsReport.from_confusion([[2, 1], [0, 3]])
    d = r.to_dict(["a", "b"])
    assert d["per_class"]["a"]["support"] == 3


def test_evaluate_accuracy_matches_predictions():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=13)
    report, scores = evaluate(data, model, ARCH)
    assert scores.shape == (len(data), 3)
    preds = np.argmax(scores, axis=1)
    assert report.accuracy == pytest.approx(np.mean(preds == data.labels))
    assert report.confusion.sum() == len(data)


def test_fused_scores_weigh_the_frame_branch_by_lambda():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=13)
    s_dg, logits = (training.scores_for(data, model, ARCH, branch=b)
                    for b in ("snn_only", "video_only"))
    fused = training.scores_for(data, model, ARCH, lam=0.5)
    assert np.array_equal(fused, s_dg + 0.5 * logits)


def test_emotion_report_collapses_gestures():
    labels = np.array([LABELED_GESTURES.index(GestureClass.OK),
                       LABELED_GESTURES.index(GestureClass.HELLO),
                       LABELED_GESTURES.index(GestureClass.NO),
                       LABELED_GESTURES.index(GestureClass.YES)])
    data = TrainData(None, np.zeros((4, 2, 3)), labels)
    # hello mispredicted as ok: same emotion, so still correct at 3 classes
    preds = np.array([LABELED_GESTURES.index(GestureClass.OK),
                      LABELED_GESTURES.index(GestureClass.OK),
                      LABELED_GESTURES.index(GestureClass.NO),
                      LABELED_GESTURES.index(GestureClass.LOVE)])
    report, names = emotion_report(data, preds)
    assert names == ("Neutral", "Negative", "Positive")
    assert report.accuracy == 1.0


def _ref_emotion_report(data, y_pred):
    """emotion_report written plainly: each label and each prediction
    mapped to its emotion one at a time."""
    emotions = tuple(EmotionClass)

    def collapse(gesture_ids):
        return [emotions.index(emotion_of(data.label_space[g])) for g in gesture_ids]

    return MetricsReport.from_predictions(collapse(data.labels), collapse(y_pred), 3)


def test_emotion_report_matches_a_per_sample_collapse():
    rng = np.random.default_rng(34)
    for _ in range(50):
        size = int(rng.integers(1, len(LABELED_GESTURES) + 1))
        space = tuple(LABELED_GESTURES[i]
                      for i in rng.permutation(len(LABELED_GESTURES))[:size])
        n = int(rng.integers(1, 30))
        labels, preds = rng.integers(0, size, (2, n))
        data = TrainData(None, np.zeros((n, 2, 3)), labels, space)
        report, names = emotion_report(data, preds)
        assert names == ("Neutral", "Negative", "Positive")
        assert report.to_dict(names) == _ref_emotion_report(data, preds).to_dict(names)


@pytest.mark.parametrize("bad", [-1, len(LABELED_GESTURES)])
def test_emotion_report_refuses_a_prediction_outside_the_gestures(bad):
    data = TrainData(None, np.zeros((2, 2, 3)), np.array([0, 8]))
    with pytest.raises(GestemoError) as e:
        emotion_report(data, np.array([0, bad]))
    assert str(e.value) == f"labels outside [0,{len(LABELED_GESTURES)})"


@pytest.mark.parametrize("labels,preds", [([0, 1], [0, 2]), ([0, 2], [1, 2])],
                         ids=["label", "prediction"])
def test_emotion_report_refuses_a_count_on_the_other_gesture(labels, preds):
    space = (GestureClass.OK, GestureClass.OTHER, GestureClass.NO)
    data = TrainData(None, np.zeros((2, 2, 3)), np.array(labels), space)
    with pytest.raises(GestemoError, match="^unlabeled gesture in emotion scoring$"):
        emotion_report(data, np.array(preds))
    # with no count on it, the gesture without an emotion drops out
    report, _ = emotion_report(replace(data, labels=np.array([0, 2])), np.array([0, 2]))
    assert report.accuracy == 1.0


def test_emotion_report_rejects_emotion_labels():
    data = TrainData(None, np.zeros((2, 2, 3)), np.array([0, 1]),
                     tuple(EmotionClass))
    with pytest.raises(GestemoError, match="labels are already emotion-level"):
        emotion_report(data, np.array([0, 1]))


@pytest.mark.parametrize("mode", ["joint", "separate"])
@pytest.mark.parametrize("branch", ["fused", "video_only"])
@pytest.mark.parametrize("missing", ["lstm", "head"])
def test_train_refuses_a_model_without_a_frame_branch_part(missing, branch, mode):
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=0)
    before = {k: v.copy() for k, v in model.flat().items()}
    setattr(model, missing, None)
    with pytest.raises(GestemoError) as e:
        train(toy_data(), model, ARCH,
              cfg=TrainConfig(epochs=1, branch=branch, mode=mode))
    assert str(e.value) == f"model has no parameters for branch {branch!r}"
    # refused before any epoch: no parameter moved
    assert all(np.array_equal(before[k], v) for k, v in model.flat().items())

"""Loss, optimizer, loop, and metrics checks.  The metrics oracle is a
hand-worked 3x3 confusion matrix; the weighted-recall/accuracy identity is
verified on random matrices."""

import weakref

import numpy as np
import pytest

from gestemo import snn, training
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
    assert np.array_equal(model.lstm.b, np.ones_like(model.lstm.b))
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
    assert np.array_equal(fused.lstm.wx, again.lstm.wx)


def make_sample(idx, gesture, n_events=60, n_frames=5, dim=3):
    stream = synth_stream(StreamSpec(Geometry(8, 8), 50_000, n_events), seed=idx)
    feats = FrameFeatureSequence(
        dim, np.random.default_rng(idx).random((n_frames, dim)))
    return SampleRecord(f"s{idx}", gesture, emotion_of(gesture), stream, feats)


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
    assert tape.x.dtype == np.float64
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


def test_diverged_loss_raises():
    data = toy_data()
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=11,
                       branch="video_only")
    with pytest.raises(DivergedLossError):
        train(data, model, ARCH,
              cfg=TrainConfig(epochs=6, lr=1e8, branch="video_only", seed=6))


def test_overflow_on_the_gradient_worker_is_divergence(monkeypatch):
    # A dense layer large enough for the worker thread.  Its zero weights
    # keep the huge planes out of the forward pass, and both layers hold
    # their membranes inside the surrogate window, silent.  The huge second
    # layer then sends a gradient of about 1e147 back, so only the first
    # layer's weight gradient, (1e147 x 1e200) on the worker, overflows.
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    arch = SnnArchitecture(layers=(Dense(1250, 512), Dense(512, 3)),
                           input_shape=(2, 25, 25), num_classes=3)
    assert snn._offloaded_layers(snn._plan(arch), 4) == [True, False]
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


def test_train_empty_split():
    data = TrainData(np.zeros((0, 2, 2, 8, 8)), np.zeros((0, 5, 3)),
                     np.zeros(0, dtype=np.int64), tuple(EmotionClass))
    model = init_model(ARCH, 3, hidden=4, head_mid=4, seed=0)
    with pytest.raises(GestemoError, match="training split is empty"):
        train(data, model, ARCH)


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


def test_emotion_report_rejects_emotion_labels():
    data = TrainData(None, np.zeros((2, 2, 3)), np.array([0, 1]),
                     tuple(EmotionClass))
    with pytest.raises(GestemoError, match="labels are already emotion-level"):
        emotion_report(data, np.array([0, 1]))

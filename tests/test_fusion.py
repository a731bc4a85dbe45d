"""The recurrent branch is checked against a scalar step-by-step reference,
the head's dropout against its eval-mode expectation, and both backwards
against central finite differences."""

import math

import numpy as np
import pytest

from gestemo.errors import GestemoError
from gestemo.fusion import (
    FusionConfig,
    HeadParams,
    RecurrentParams,
    fuse,
    head_backward,
    head_forward,
    init_head_params,
    init_recurrent_params,
    predict,
    recurrent_backward,
    recurrent_forward,
)


def test_recurrent_params_validation():
    with pytest.raises(GestemoError, match="inconsistent gate shapes"):
        RecurrentParams(np.zeros((6, 2)), np.zeros((6, 1)), np.zeros(6))
    with pytest.raises(GestemoError, match="inconsistent gate shapes"):
        RecurrentParams(np.zeros((8, 2)), np.zeros((8, 3)), np.zeros(8))
    p = RecurrentParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    assert p.hidden == 2 and p.dim == 3


def test_init_recurrent_params():
    p = init_recurrent_params(dim=5, hidden=4, seed=3)
    q = init_recurrent_params(dim=5, hidden=4, seed=3)
    assert p.wx.shape == (16, 5) and p.wh.shape == (16, 4)
    assert np.array_equal(p.b, np.zeros(16))
    assert np.array_equal(p.wx, q.wx)
    assert np.all(np.abs(p.wx) <= math.sqrt(6.0 / 9.0))


def test_zero_input_zero_bias_gives_zero_state():
    p = init_recurrent_params(dim=4, hidden=6, seed=0)
    h = recurrent_forward(np.zeros((9, 4)), p)
    assert np.array_equal(h, np.zeros(6))


def scalar_lstm_reference(xs, wx, wh, b):
    """One-unit LSTM unrolled with plain floats; gate order i, f, g, o."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = c = 0.0
    for x in xs:
        z = [wx[j] * x + wh[j] * h + b[j] for j in range(4)]
        i, f, o = sig(z[0]), sig(z[1]), sig(z[3])
        g = math.tanh(z[2])
        c = f * c + i * g
        h = o * math.tanh(c)
    return h


def test_matches_scalar_reference():
    wx = [0.3, -0.2, 0.5, 0.4]
    wh = [0.1, 0.2, -0.3, 0.25]
    b = [0.05, -0.1, 0.2, 0.0]
    xs = [0.5, -1.0, 0.8]
    p = RecurrentParams(
        wx=np.array(wx).reshape(4, 1),
        wh=np.array(wh).reshape(4, 1),
        b=np.array(b),
    )
    h = recurrent_forward(np.array(xs).reshape(3, 1), p)
    assert h[0] == pytest.approx(scalar_lstm_reference(xs, wx, wh, b), abs=1e-12)


def test_recurrent_batch_matches_single():
    p = init_recurrent_params(dim=3, hidden=5, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7, 3))
    batch = recurrent_forward(x, p)
    for i in range(4):
        assert np.allclose(recurrent_forward(x[i], p), batch[i], atol=1e-15)


def test_recurrent_rejects_wrong_width():
    p = init_recurrent_params(dim=3, hidden=2, seed=0)
    with pytest.raises(GestemoError, match=r"features shape \(1, 5, 4\), expected \(B,T,3\)"):
        recurrent_forward(np.zeros((5, 4)), p)


def test_recurrent_backward_requires_tape():
    p = init_recurrent_params(dim=2, hidden=2, seed=0)
    with pytest.raises(GestemoError, match="recurrent_backward requires a recorded tape"):
        recurrent_backward(None, np.zeros(2), p)


def test_recurrent_gradient_matches_fd():
    p = init_recurrent_params(dim=2, hidden=3, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 2))
    r = rng.normal(size=(2, 3))  # loss = sum(h_last * r)
    h, tape = recurrent_forward(x, p, record=True)
    grads, d_x = recurrent_backward(tape, r, p)

    def loss(xv):
        return float(np.sum(recurrent_forward(xv, p) * r))

    h_ = 1e-6
    for idx in np.ndindex(x.shape):
        pert = x.copy()
        pert[idx] += h_
        up = loss(pert)
        pert[idx] -= 2 * h_
        down = loss(pert)
        num = (up - down) / (2 * h_)
        assert num == pytest.approx(d_x[idx], rel=1e-5, abs=1e-9)

    for name, arr in (("lstm.wx", p.wx), ("lstm.wh", p.wh), ("lstm.b", p.b)):
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h_
            up = float(np.sum(recurrent_forward(x, p) * r))
            flat[i] = keep - h_
            down = float(np.sum(recurrent_forward(x, p) * r))
            flat[i] = keep
            num = (up - down) / (2 * h_)
            assert num == pytest.approx(grads[name].ravel()[i], rel=1e-5, abs=1e-9)


def test_head_params_validation():
    with pytest.raises(GestemoError, match="head bias shapes inconsistent with weights"):
        HeadParams(np.zeros((4, 3)), np.zeros(5), np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(GestemoError, match="head layer widths disagree"):
        HeadParams(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 5)), np.zeros(2))


def test_head_eval_zero_input_zero_bias():
    p = init_head_params(hidden=6, mid=4, num_classes=3, seed=0)
    out = head_forward(np.zeros(6), p)
    assert np.array_equal(out, np.zeros(3))


def test_head_eval_deterministic():
    p = init_head_params(hidden=6, mid=4, num_classes=3, seed=1)
    rng = np.random.default_rng(2)
    h = rng.normal(size=(5, 6))
    assert np.array_equal(head_forward(h, p), head_forward(h, p))


def test_head_train_needs_rng():
    p = init_head_params(hidden=4, mid=4, num_classes=2, seed=0)
    with pytest.raises(GestemoError, match="train-mode head needs an rng for dropout"):
        head_forward(np.ones(4), p, train=True)


def test_head_zero_dropout_train_equals_eval():
    p = init_head_params(hidden=4, mid=4, num_classes=2, seed=3)
    h = np.array([0.5, -0.2, 1.0, 0.1])
    train = head_forward(h, p, train=True, dropout=0.0)
    assert np.array_equal(train, head_forward(h, p))


def test_dropout_expectation_matches_eval():
    p = init_head_params(hidden=8, mid=16, num_classes=3, seed=4)
    rng = np.random.default_rng(5)
    h = rng.normal(size=8)
    eval_out = head_forward(h, p)
    mask_rng = np.random.default_rng(6)
    n = 10_000
    draws = np.stack([head_forward(h, p, train=True, rng=mask_rng)
                      for _ in range(n)])
    mean = draws.mean(axis=0)
    stderr = draws.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean - eval_out) <= 4.0 * stderr + 1e-12)


def test_head_gradient_matches_fd():
    p = init_head_params(hidden=5, mid=4, num_classes=3, seed=7)
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2, 5))
    r = rng.normal(size=(2, 3))
    mask_rng = np.random.default_rng(9)
    logits, tape = head_forward(h, p, train=True, rng=mask_rng, record=True)
    grads, d_h = head_backward(tape, r, p)

    def loss(hv, pv):
        # replay with the recorded mask so the FD surface is the same
        z1 = hv @ pv.w1.T + pv.b1
        a = np.maximum(z1, 0.0) * tape.mask
        return float(np.sum((a @ pv.w2.T + pv.b2) * r))

    h_ = 1e-6
    for idx in np.ndindex(h.shape):
        pert = h.copy()
        pert[idx] += h_
        up = loss(pert, p)
        pert[idx] -= 2 * h_
        down = loss(pert, p)
        num = (up - down) / (2 * h_)
        assert num == pytest.approx(d_h[idx], rel=1e-5, abs=1e-9)

    for name, arr in zip(p.names(), (p.w1, p.b1, p.w2, p.b2)):
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h_
            up = loss(h, p)
            flat[i] = keep - h_
            down = loss(h, p)
            flat[i] = keep
            num = (up - down) / (2 * h_)
            assert num == pytest.approx(grads[name].ravel()[i], rel=1e-5, abs=1e-9)


def test_fuse_lambda_zero_is_event_branch():
    s = np.array([0.1, 0.9, 0.4])
    out = fuse(s, np.array([5.0, -5.0, 0.0]), FusionConfig(lam=0.0))
    assert np.array_equal(out, s)


def test_fuse_zero_rate_is_scaled_logits():
    logits = np.array([1.0, 2.0, -1.0])
    out = fuse(np.zeros(3), logits, FusionConfig(lam=0.5))
    assert np.array_equal(out, 0.5 * logits)


def test_fuse_example_scores():
    out = fuse(np.array([0.2, 0.8, 0.0]), np.array([1.0, 0.0, 0.0]),
               FusionConfig(lam=0.5))
    assert np.allclose(out, [0.7, 0.8, 0.0])
    assert predict(out) == 1


def test_fuse_shape_mismatch():
    with pytest.raises(GestemoError, match=r"fusion shapes disagree: \(3,\) vs \(4,\)"):
        fuse(np.zeros(3), np.zeros(4))


def test_fusion_config_rejects_negative_weight():
    with pytest.raises(GestemoError, match="lam must be finite and >= 0, got -0.1"):
        FusionConfig(lam=-0.1)
    assert FusionConfig.from_dict(FusionConfig(2.0).to_dict()).lam == 2.0


def test_predict_shift_invariant_and_tie_break():
    rng = np.random.default_rng(10)
    scores = rng.normal(size=(6, 4))
    assert np.array_equal(predict(scores), predict(scores + 3.7))
    assert predict(np.array([1.0, 1.0, 0.0])) == 0

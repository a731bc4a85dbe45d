"""The recurrent branch is checked against a scalar step-by-step reference
and, bit for bit, against a frozen copy of its earlier per-step loop; the
head's dropout against its eval-mode expectation; both backwards against
central finite differences."""

import math
import types

import numpy as np
import pytest

from gestemo import snn
from gestemo.errors import GestemoError
from gestemo.fusion import (
    _sigmoid,
    _weight_sums,
    FusionConfig,
    frame_shapes,
    fuse,
    head_backward,
    head_forward,
    init_head_params,
    init_recurrent_params,
    predict,
    recurrent_backward,
    recurrent_forward,
)


def test_init_recurrent_params():
    p = init_recurrent_params(dim=5, hidden=4, seed=3)
    q = init_recurrent_params(dim=5, hidden=4, seed=3)
    assert p["lstm.wx"].shape == (16, 5) and p["lstm.wh"].shape == (16, 4)
    assert np.array_equal(p["lstm.b"], np.zeros(16))
    assert np.array_equal(p["lstm.wx"], q["lstm.wx"])
    assert np.all(np.abs(p["lstm.wx"]) <= math.sqrt(6.0 / 9.0))


def test_init_params_have_the_frame_shapes():
    params = {**init_recurrent_params(dim=5, hidden=4, seed=0),
              **init_head_params(hidden=4, mid=3, num_classes=2, seed=0)}
    assert [(k, v.shape) for k, v in params.items()] == \
        list(frame_shapes(5, 4, 3, 2).items())


def test_zero_input_zero_bias_gives_zero_state():
    p = init_recurrent_params(dim=4, hidden=6, seed=0)
    h = recurrent_forward(np.zeros((1, 9, 4)), p)
    assert np.array_equal(h, np.zeros((1, 6)))


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
    p = {"lstm.wx": np.array(wx).reshape(4, 1),
         "lstm.wh": np.array(wh).reshape(4, 1),
         "lstm.b": np.array(b)}
    h = recurrent_forward(np.array(xs).reshape(1, 3, 1), p)
    assert h[0, 0] == pytest.approx(scalar_lstm_reference(xs, wx, wh, b), abs=1e-12)


def test_recurrent_batch_matches_single():
    p = init_recurrent_params(dim=3, hidden=5, seed=1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7, 3))
    batch = recurrent_forward(x, p)
    for i in range(4):
        assert np.allclose(recurrent_forward(x[i:i + 1], p), batch[i:i + 1],
                           atol=1e-15)


def test_recurrent_rejects_wrong_width():
    p = init_recurrent_params(dim=3, hidden=2, seed=0)
    with pytest.raises(GestemoError, match=r"features shape \(1, 5, 4\), expected \(B,T,3\)"):
        recurrent_forward(np.zeros((1, 5, 4)), p)
    # one sequence without its batch axis
    with pytest.raises(GestemoError, match=r"features shape \(5, 3\), expected \(B,T,3\)"):
        recurrent_forward(np.zeros((5, 3)), p)


def test_recurrent_gradient_matches_fd():
    p = init_recurrent_params(dim=2, hidden=3, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 2))
    r = rng.normal(size=(2, 3))  # loss = sum(h_last * r)
    h, tape = recurrent_forward(x, p, record=True)
    grads = recurrent_backward(tape, r, p)

    h_ = 1e-6
    for name, arr in p.items():
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


# -- oracle: the LSTM loop as it stood before the in-place rewrite ----------------
#
# Boolean-mask sigmoid, fresh temporaries every step, tanh(c) recomputed in
# the backward pass and the gate gradients joined by np.concatenate.  The
# rewrite keeps every product's operands and association order, so the
# comparison is np.array_equal, never a tolerance.

def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_forward(x, params):
    """(h_last, gates, c, h) with the old tape layout."""
    b, t_len, _ = x.shape
    hid = params.hidden
    h = np.zeros((b, hid))
    c = np.zeros((b, hid))
    gates = np.empty((t_len, b, 4 * hid))
    cs = np.zeros((t_len + 1, b, hid))
    hs = np.zeros((t_len + 1, b, hid))
    zx = x @ params.wx.T + params.b
    for t in range(t_len):
        z = zx[:, t] + h @ params.wh.T
        i = _ref_sigmoid(z[:, :hid])
        f = _ref_sigmoid(z[:, hid:2 * hid])
        g = np.tanh(z[:, 2 * hid:3 * hid])
        o = _ref_sigmoid(z[:, 3 * hid:])
        c = f * c + i * g
        h = o * np.tanh(c)
        gates[t, :, :hid] = i
        gates[t, :, hid:2 * hid] = f
        gates[t, :, 2 * hid:3 * hid] = g
        gates[t, :, 3 * hid:] = o
        cs[t + 1] = c
        hs[t + 1] = h
    return h, gates, cs, hs


def _ref_backward(x, gates, cs, hs, d_hlast, params):
    b, t_len, _ = x.shape
    hid = params.hidden
    g_wx = np.zeros_like(params.wx)
    g_wh = np.zeros_like(params.wh)
    g_b = np.zeros_like(params.b)
    dh = d_hlast.copy()
    dc = np.zeros((b, hid))
    for t in reversed(range(t_len)):
        i = gates[t, :, :hid]
        f = gates[t, :, hid:2 * hid]
        g = gates[t, :, 2 * hid:3 * hid]
        o = gates[t, :, 3 * hid:]
        tc = np.tanh(cs[t + 1])
        d_o = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        d_f = dc * cs[t]
        d_i = dc * g
        d_g = dc * i
        dz = np.concatenate([
            d_i * i * (1.0 - i),
            d_f * f * (1.0 - f),
            d_g * (1.0 - g * g),
            d_o * o * (1.0 - o),
        ], axis=1)
        g_wx += dz.T @ x[:, t]
        g_wh += dz.T @ hs[t]
        g_b += dz.sum(axis=0)
        dh = dz @ params.wh
        dc = dc * f
    return {"lstm.wx": g_wx, "lstm.wh": g_wh, "lstm.b": g_b}


#: (batch, feature dim, hidden): the training sizes at every batch from 1
#: to 9, on both sides of recurrent_forward's layout rule, and at a
#: whole-split eval size; then the golden runs' LSTM (--hidden 4 over
#: 4-dim features) at their largest batch
LSTM_SHAPES = [(batch, 16, 128) for batch in [*range(1, 10), 30]] + [(7, 4, 4)]


@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("batch,dim,hidden", LSTM_SHAPES,
                         ids=[str(b) if h == 128 else f"golden{b}"
                              for b, _, h in LSTM_SHAPES])
def test_lstm_matches_frozen_reference_bit_for_bit(batch, dim, hidden, scale):
    # BLAS picks kernels by shape, so the shapes the code runs at;
    # scale 30 drives gates into both saturated ends
    p = init_recurrent_params(dim=dim, hidden=hidden, seed=batch)
    rng = np.random.default_rng(batch)
    p["lstm.b"][:] = rng.normal(scale=scale, size=p["lstm.b"].shape)
    x = rng.normal(scale=scale, size=(batch, 40, dim))
    d_hlast = rng.normal(size=(batch, hidden))
    ref = types.SimpleNamespace(hidden=hidden, wx=p["lstm.wx"], wh=p["lstm.wh"],
                                b=p["lstm.b"])
    want_h, want_gates, want_c, want_hs = _ref_forward(x, ref)
    want_grads = _ref_backward(x, want_gates, want_c, want_hs, d_hlast, ref)

    h, tape = recurrent_forward(x, p, record=True)
    grads = recurrent_backward(tape, d_hlast, p)
    assert np.array_equal(h, want_h)
    assert np.array_equal(recurrent_forward(x, p), want_h)
    assert np.array_equal(tape.gates, want_gates)
    assert np.array_equal(tape.c, want_c)
    assert np.array_equal(tape.h, want_hs)
    assert np.array_equal(tape.tc, np.tanh(want_c[1:]))
    for name in p:
        assert np.array_equal(grads[name], want_grads[name]), name
    sig = np.concatenate([want_gates[..., :2 * hidden],
                          want_gates[..., 3 * hidden:]], axis=-1)
    assert (sig > 0.5).any() and (sig < 0.5).any()
    if scale > 1.0:
        assert (sig == 1.0).any() \
            and (np.abs(want_gates[..., 2 * hidden:3 * hidden]) == 1.0).any()


@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("batch,dim,hidden", LSTM_SHAPES,
                         ids=[str(b) if h == 128 else f"golden{b}"
                              for b, _, h in LSTM_SHAPES])
def test_lstm_backward_on_the_helper_matches_frozen_reference_bit_for_bit(
        monkeypatch, batch, dim, hidden, scale):
    # the weight sums on the forked helper, its buffers sized for the largest
    # batch as in training, and each helper call run twice
    monkeypatch.setattr(snn, "_cpus", lambda: 2)
    p = init_recurrent_params(dim=dim, hidden=hidden, seed=batch)
    rng = np.random.default_rng(batch)
    p["lstm.b"][:] = rng.normal(scale=scale, size=p["lstm.b"].shape)
    x = rng.normal(scale=scale, size=(batch, 40, dim))
    d_hlast = rng.normal(size=(batch, hidden))
    ref = types.SimpleNamespace(hidden=hidden, wx=p["lstm.wx"], wh=p["lstm.wh"],
                                b=p["lstm.b"])
    want_grads = _ref_backward(x, *_ref_forward(x, ref)[1:], d_hlast, ref)

    _, tape = recurrent_forward(x, p, record=True)
    with _weight_sums(max(b for b, _, _ in LSTM_SHAPES), 40, p) as sums:
        assert sums is not None
        for _ in range(2):
            grads = recurrent_backward(tape, d_hlast, p, sums)
            for name in p:
                assert np.array_equal(grads[name], want_grads[name]), name


def test_sigmoid_matches_masked_form_on_edge_values():
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, 130.0, -130.0, 5e-324, -5e-324, tiny, -tiny,
                      tiny / 3, -tiny / 3, 36.7, -36.7, 709.0, -709.0, 746.0,
                      -746.0, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(11)
    z = np.concatenate([edges, np.linspace(-130.0, 130.0, 20_001),
                        rng.normal(scale=40.0, size=20_000),
                        np.ldexp(rng.uniform(-1, 1, 2_000), rng.integers(-1074, 8, 2_000))])
    got = _sigmoid(z, np.empty_like(z), np.empty(z.shape, dtype=bool))
    assert np.array_equal(got, _ref_sigmoid(z), equal_nan=True)
    # the same on a strided (B, 2H) block of a wider array
    wide = z[:40_000].reshape(100, 400)
    out = np.empty((100, 400))
    _sigmoid(wide[:, :256], out[:, :256], np.empty((100, 256), dtype=bool))
    assert np.array_equal(out[:, :256], _ref_sigmoid(wide[:, :256]), equal_nan=True)


def test_head_eval_zero_input_zero_bias():
    p = init_head_params(hidden=6, mid=4, num_classes=3, seed=0)
    out = head_forward(np.zeros((1, 6)), p)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_head_eval_deterministic():
    p = init_head_params(hidden=6, mid=4, num_classes=3, seed=1)
    rng = np.random.default_rng(2)
    h = rng.normal(size=(5, 6))
    assert np.array_equal(head_forward(h, p), head_forward(h, p))


def test_head_train_needs_rng():
    p = init_head_params(hidden=4, mid=4, num_classes=2, seed=0)
    with pytest.raises(GestemoError, match="head dropout needs an rng"):
        head_forward(np.ones((1, 4)), p, dropout=0.5)


def test_head_zero_dropout_train_equals_eval():
    p = init_head_params(hidden=4, mid=4, num_classes=2, seed=3)
    h = np.array([[0.5, -0.2, 1.0, 0.1]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    train = head_forward(h, p, rng=rng, dropout=0.0)
    assert np.array_equal(train, head_forward(h, p))
    assert rng.bit_generator.state == state   # no mask was drawn


@pytest.mark.parametrize("shape", [(4,), (1, 3), (1, 1, 4)])
def test_head_rejects_wrong_input_shape(shape):
    p = init_head_params(hidden=4, mid=4, num_classes=2, seed=0)
    with pytest.raises(GestemoError, match=r"head input shape .*, expected \(B,4\)"):
        head_forward(np.ones(shape), p)


def test_dropout_expectation_matches_eval():
    p = init_head_params(hidden=8, mid=16, num_classes=3, seed=4)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(1, 8))
    eval_out = head_forward(h, p)
    mask_rng = np.random.default_rng(6)
    n = 10_000
    draws = np.stack([head_forward(h, p, rng=mask_rng, dropout=0.5)
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
    logits, tape = head_forward(h, p, rng=mask_rng, dropout=0.5, record=True)
    grads, d_h = head_backward(tape, r, p)

    def loss(hv, pv):
        # replay with the recorded mask so the FD surface is the same
        z1 = hv @ pv["head.w1"].T + pv["head.b1"]
        a = np.maximum(z1, 0.0) * tape.mask
        return float(np.sum((a @ pv["head.w2"].T + pv["head.b2"]) * r))

    h_ = 1e-6
    for idx in np.ndindex(h.shape):
        pert = h.copy()
        pert[idx] += h_
        up = loss(pert, p)
        pert[idx] -= 2 * h_
        down = loss(pert, p)
        num = (up - down) / (2 * h_)
        assert num == pytest.approx(d_h[idx], rel=1e-5, abs=1e-9)

    for name, arr in p.items():
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


def test_predict_shift_invariant_and_tie_break():
    rng = np.random.default_rng(10)
    scores = rng.normal(size=(6, 4))
    assert np.array_equal(predict(scores), predict(scores + 3.7))
    assert predict(np.array([1.0, 1.0, 0.0])) == 0

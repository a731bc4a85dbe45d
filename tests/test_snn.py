"""Membrane dynamics are pinned against a hand-iterated recurrence and the
network gradients against central finite differences on the relaxed forward
pass, which the analytic backward matches everywhere away from the clip
kinks."""

import sys

import numpy as np
import pytest

from gestemo import snn
from gestemo.errors import GestemoError
from gestemo.snn import (
    DEFAULT_SURROGATE_WIDTH,
    Conv,
    Dense,
    LifConfig,
    Pool,
    SnnArchitecture,
    default_architecture,
    init_params,
    lif_step,
    snn_backward,
    snn_backward_from_output,
    snn_forward,
)


def test_lif_config_validation():
    with pytest.raises(GestemoError, match=r"lif_beta must be in \(0, 1\], got 0.0"):
        LifConfig(beta=0.0)
    with pytest.raises(GestemoError, match=r"lif_beta must be in \(0, 1\], got 1.5"):
        LifConfig(beta=1.5)
    with pytest.raises(GestemoError, match="lif_theta must be finite and > 0, got 0.0"):
        LifConfig(theta=0.0)
    with pytest.raises(GestemoError, match="lif_reset must be one of to_zero, subtract_theta"):
        LifConfig(reset="clamp")
    d = LifConfig(beta=0.8, theta=1.2, reset="subtract_theta").to_dict()
    assert LifConfig.from_dict(d) == LifConfig(0.8, 1.2, "subtract_theta")


def test_lif_step_quiescent_below_threshold():
    v, s = lif_step(np.array([0.3]), np.array([0.0]), LifConfig())
    assert s[0] == 0.0
    assert v[0] == pytest.approx(0.27)


def test_lif_step_threshold_equality_fires():
    cfg = LifConfig(beta=0.5, theta=1.0)
    v, s = lif_step(np.array([0.0]), np.array([1.0]), cfg)
    assert s[0] == 1.0
    assert v[0] == 0.0  # to_zero


def test_lif_step_subtract_reset_keeps_excess():
    cfg = LifConfig(beta=0.5, theta=0.8, reset="subtract_theta")
    v, s = lif_step(np.array([0.0]), np.array([1.0]), cfg)
    assert s[0] == 1.0
    assert v[0] == pytest.approx(0.2)


def test_lif_step_shape_mismatch():
    with pytest.raises(GestemoError, match=r"potential \(3,\) vs current \(4,\)"):
        lif_step(np.zeros(3), np.zeros(4), LifConfig())


def test_first_spike_under_constant_drive():
    # v <- 0.9 v + 0.5 crosses 1.0 on the third step: 0.5, 0.95, 1.355
    cfg = LifConfig()
    v = np.zeros(1)
    fired = []
    for _ in range(9):
        v, s = lif_step(v, np.array([0.5]), cfg)
        fired.append(int(s[0]))
    assert fired == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_zero_input_pure_decay():
    cfg = LifConfig()
    v = np.array([0.8])
    for t in range(1, 21):
        v, s = lif_step(v, np.zeros(1), cfg)
        assert s[0] == 0.0
        assert abs(v[0] - 0.9 ** t * 0.8) <= 1e-9


def test_init_xavier_bounds_and_zero_bias():
    arch = SnnArchitecture(layers=(Dense(10, 5),), input_shape=(10, 1, 1),
                           num_classes=5)
    params = init_params(arch, seed=0)
    limit = np.sqrt(6.0 / 15.0)
    w = params["fc0.w"]
    assert w.shape == (5, 10)
    assert np.all(np.abs(w) <= limit)
    assert np.abs(w).max() > 0.5 * limit  # actually spread over the interval
    assert np.array_equal(params["fc0.b"], np.zeros(5))


def test_init_seeded():
    arch = default_architecture(3)
    a = init_params(arch, seed=7)
    b = init_params(arch, seed=7)
    c = init_params(arch, seed=8)
    for name in arch.param_names():
        assert np.array_equal(a[name], b[name])
    assert not np.array_equal(a["conv0.w"], c["conv0.w"])


def test_default_architecture_shapes():
    arch = default_architecture(10)
    assert arch.output_shapes() == [
        (16, 30, 30), (16, 15, 15), (32, 13, 13), (32, 6, 6), (256,), (10,)]
    assert arch.param_names() == [
        "conv0.w", "conv0.b", "conv2.w", "conv2.b",
        "fc4.w", "fc4.b", "fc5.w", "fc5.b"]


def test_architecture_round_trip():
    arch = default_architecture(3, height=16, width=16)
    d = arch.to_dict()
    assert d["layers"][1] == {"kind": "pool", "window": 2, "mode": "sum"}
    assert SnnArchitecture.from_dict(d) == arch
    d["layers"][1]["mode"] = "max"
    with pytest.raises(GestemoError, match="pool mode must be sum"):
        SnnArchitecture.from_dict(d)


def small_arch():
    return SnnArchitecture(
        layers=(Conv(2, 4, 3), Pool(2), Dense(36, 3)),
        input_shape=(2, 8, 8),
        num_classes=3,
    )


def test_forward_zero_planes_silent():
    arch = small_arch()
    params = init_params(arch, seed=1)
    out = snn_forward(np.zeros((1, 3, 2, 8, 8)), params, arch)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_forward_output_is_spike_rate():
    arch = small_arch()
    params = init_params(arch, seed=2)
    rng = np.random.default_rng(0)
    planes = rng.random((1, 5, 2, 8, 8))
    out = snn_forward(planes, params, arch)
    assert out.shape == (1, 3)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.array_equal(out * 5, np.round(out * 5))  # K spike sums


def test_forward_deterministic_and_batch_consistent():
    arch = small_arch()
    params = init_params(arch, seed=3)
    rng = np.random.default_rng(4)
    batch = rng.random((4, 6, 2, 8, 8)) * 2.0
    out = snn_forward(batch, params, arch)
    again = snn_forward(batch, params, arch)
    assert np.array_equal(out, again)
    for i in range(4):
        single = snn_forward(batch[i:i + 1], params, arch)
        assert np.array_equal(single, out[i:i + 1])


def test_forward_records_binary_spikes():
    arch = small_arch()
    params = init_params(arch, seed=5)
    rng = np.random.default_rng(6)
    planes = rng.random((1, 4, 2, 8, 8)) * 3.0
    out, tape = snn_forward(planes, params, arch, record=True)
    for s in tape.spikes:
        assert set(np.unique(s)) <= {0.0, 1.0}
    assert tape.spikes[0].shape == (4, 1, 4, 6, 6)


def test_forward_rejects_wrong_input_shape():
    arch = small_arch()
    params = init_params(arch, seed=1)
    with pytest.raises(GestemoError, match="incompatible with input"):
        snn_forward(np.zeros((1, 3, 2, 9, 8)), params, arch)
    # one sample without its batch axis
    with pytest.raises(GestemoError, match=r"planes shape \(3, 2, 8, 8\) incompatible"):
        snn_forward(np.zeros((3, 2, 8, 8)), params, arch)


def test_backward_requires_tape():
    arch = small_arch()
    params = init_params(arch, seed=1)
    with pytest.raises(GestemoError, match="snn_backward requires a recorded forward tape"):
        snn_backward_from_output(None, np.zeros((1, 3)), params)


def relaxed_loss(planes, params, arch, cfg, onehot):
    s = snn_forward(planes, params, arch, cfg, spike_fn="relaxed")
    return float(np.mean((s - onehot) ** 2))


def fd_check(planes, params, arch, cfg, onehot, picks_per_tensor=4, h=1e-6):
    _, tape = snn_forward(planes, params, arch, cfg, spike_fn="relaxed",
                          record=True)
    grads = snn_backward(tape, onehot, params)
    rng = np.random.default_rng(99)
    checked = 0
    for name in arch.param_names():
        flat = params[name].ravel()
        idxs = rng.choice(flat.size, size=min(picks_per_tensor, flat.size),
                          replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + h
            up = relaxed_loss(planes, params, arch, cfg, onehot)
            flat[i] = keep - h
            down = relaxed_loss(planes, params, arch, cfg, onehot)
            flat[i] = keep
            num = (up - down) / (2 * h)
            ana = grads[name].ravel()[i]
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-7), \
                f"{name}[{i}]: fd {num} vs analytic {ana}"
            checked += 1
    assert checked > 0


def test_single_neuron_gradient_inside_window():
    arch = SnnArchitecture(layers=(Dense(1, 1),), input_shape=(1, 1, 1),
                           num_classes=1)
    params = {"fc0.w": np.array([[0.8]]), "fc0.b": np.array([0.3])}
    planes = np.array([0.4, 0.7, 0.2]).reshape(1, 3, 1, 1, 1)
    fd_check(planes, params, arch, LifConfig(), np.array([[1.0]]),
             picks_per_tensor=1)


def test_single_neuron_gradient_flat_regions():
    arch = SnnArchitecture(layers=(Dense(1, 1),), input_shape=(1, 1, 1),
                           num_classes=1)
    planes = np.ones((1, 2, 1, 1, 1))
    for w, bias in [(0.0, 0.0), (0.0, 3.0)]:  # never fires / saturated
        params = {"fc0.w": np.array([[w]]), "fc0.b": np.array([bias])}
        _, tape = snn_forward(planes, params, arch, LifConfig(),
                              spike_fn="relaxed", record=True)
        grads = snn_backward(tape, np.array([[0.0]]), params)
        assert grads["fc0.w"] == 0.0
        assert grads["fc0.b"] == 0.0


def test_full_network_gradient_matches_fd_sum_pool():
    arch = small_arch()
    params = init_params(arch, seed=11)
    rng = np.random.default_rng(12)
    planes = rng.random((2, 3, 2, 8, 8)) * 1.5
    onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    fd_check(planes, params, arch, LifConfig(), onehot)


def test_full_network_gradient_matches_fd_subtract_reset():
    arch = small_arch()
    params = init_params(arch, seed=13)
    rng = np.random.default_rng(14)
    planes = rng.random((2, 3, 2, 8, 8)) * 1.5
    onehot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    fd_check(planes, params, arch, LifConfig(reset="subtract_theta"), onehot)


def test_backward_accepts_integer_labels():
    arch = small_arch()
    params = init_params(arch, seed=15)
    rng = np.random.default_rng(16)
    planes = rng.random((2, 3, 2, 8, 8))
    _, tape = snn_forward(planes, params, arch, spike_fn="relaxed", record=True)
    by_label = snn_backward(tape, np.array([0, 2]), params)
    onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    by_onehot = snn_backward(tape, onehot, params)
    for name in arch.param_names():
        assert np.array_equal(by_label[name], by_onehot[name])


# -- oracle: the per-step loop as it stood before the in-place rewrite --------
#
# A frozen float64 reference: spikes are taped as float, im2col gathers are
# fancy-indexed, pooling reshapes into blocks, and col2im runs one bincount
# per sample.  snn_forward and snn_backward_from_output must reproduce its
# outputs and gradients bit for bit with binary spikes.

def _ref_im2col(cin, hin, win_, k, stride):
    ho, wo = (hin - k) // stride + 1, (win_ - k) // stride + 1
    base = ((np.repeat(np.arange(cin), k * k) * hin
             + np.tile(np.repeat(np.arange(k), k), cin)) * win_
            + np.tile(np.arange(k), cin * k))
    offset = np.repeat(np.arange(ho) * stride, wo) * win_ \
        + np.tile(np.arange(wo) * stride, ho)
    return offset[:, None] + base[None, :]


def _ref_shapes(arch):
    outs = arch.output_shapes()
    return [tuple(arch.input_shape)] + outs[:-1], outs


def _ref_layer_forward(arch, li, x, params):
    layer, (ins, outs) = arch.layers[li], _ref_shapes(arch)
    b = x.shape[0]
    if isinstance(layer, Conv):
        idx = _ref_im2col(*ins[li], layer.kernel, layer.stride)
        cols = x.reshape(b, -1)[:, idx]
        w2 = params[f"conv{li}.w"].reshape(layer.out_channels, -1)
        out = cols @ w2.T + params[f"conv{li}.b"]
        return out.transpose(0, 2, 1).reshape((b,) + outs[li])
    if isinstance(layer, Pool):
        c, h, w = ins[li]
        win = layer.window
        blocks = x[:, :, :(h // win) * win, :(w // win) * win] \
            .reshape(b, c, h // win, win, w // win, win)
        return blocks.sum(axis=(3, 5))
    return x.reshape(b, -1) @ params[f"fc{li}.w"].T + params[f"fc{li}.b"]


def _ref_layer_backward(arch, li, x, d_out, params, grads, need_d_in):
    layer, (ins, _) = arch.layers[li], _ref_shapes(arch)
    b = x.shape[0]
    if isinstance(layer, Conv):
        idx = _ref_im2col(*ins[li], layer.kernel, layer.stride)
        cols = x.reshape(b, -1)[:, idx]
        co = layer.out_channels
        d2 = d_out.reshape(b, co, -1).transpose(0, 2, 1)
        grads[f"conv{li}.w"] += np.tensordot(d2, cols, axes=([0, 1], [0, 1])) \
            .reshape(params[f"conv{li}.w"].shape)
        grads[f"conv{li}.b"] += d2.sum(axis=(0, 1))
        if not need_d_in:
            return None
        d_cols = d2 @ params[f"conv{li}.w"].reshape(co, -1)
        n_in = int(np.prod(ins[li]))
        d_in = np.empty((b, n_in))
        for bi in range(b):
            d_in[bi] = np.bincount(idx.ravel(), weights=d_cols[bi].ravel(),
                                   minlength=n_in)
        return d_in.reshape((b,) + ins[li])
    if isinstance(layer, Pool):
        if not need_d_in:
            return None
        c, h, w = ins[li]
        win = layer.window
        nh, nw = h // win, w // win
        d_in = np.zeros((b, c, h, w))
        d_in[:, :, :nh * win, :nw * win] = np.repeat(
            np.repeat(d_out, win, axis=2), win, axis=3)
        return d_in
    flat = x.reshape(b, -1)
    grads[f"fc{li}.w"] += d_out.T @ flat
    grads[f"fc{li}.b"] += d_out.sum(axis=0)
    if not need_d_in:
        return None
    return (d_out @ params[f"fc{li}.w"]).reshape((b,) + ins[li])


def _ref_run(planes, params, arch, cfg, spike_fn, width, d_sdg):
    """Forward over K steps, then BPTT of d_sdg; returns (s_dg, grads)."""
    b, k = planes.shape[:2]
    n = len(arch.layers)
    _, outs = _ref_shapes(arch)
    v = [np.zeros((b,) + s) for s in outs]
    vpre = [np.empty((k, b) + s) for s in outs]
    spikes = [np.empty((k, b) + s) for s in outs]
    out_sum = np.zeros((b, arch.num_classes))
    for t in range(k):
        cur = planes[:, t]
        for li in range(n):
            vp = cfg.beta * v[li] + _ref_layer_forward(arch, li, cur, params)
            if spike_fn == "binary":
                s = (vp >= cfg.theta).astype(np.float64)
            else:
                s = np.clip((vp - cfg.theta + width) / (2.0 * width), 0.0, 1.0)
            v[li] = vp * (1.0 - s) if cfg.reset == "to_zero" else vp - cfg.theta * s
            vpre[li][t], spikes[li][t] = vp, s
            cur = s
        out_sum += cur
    grads = {name: np.zeros_like(params[name]) for name in arch.param_names()}
    dv_carry = [np.zeros((b,) + s) for s in outs]
    for t in reversed(range(k)):
        d_s = d_sdg / k
        for li in reversed(range(n)):
            vp, s = vpre[li][t], spikes[li][t]
            fp = np.where(np.abs(vp - cfg.theta) < width, 1.0 / (2.0 * width), 0.0)
            if cfg.reset == "to_zero":
                g_v = (1.0 - s) - vp * fp
            else:
                g_v = 1.0 - cfg.theta * fp
            dvp = d_s * fp + dv_carry[li] * g_v
            dv_carry[li] = cfg.beta * dvp
            x_in = spikes[li - 1][t] if li > 0 else planes[:, t]
            d_s = _ref_layer_backward(arch, li, x_in, dvp, params, grads, li > 0)
    return out_sum / k, grads


ORACLE_ARCHS = {
    # sum pooling with a remainder row and column (29x23 -> 27x21 -> 13x10)
    "sum_pool": default_architecture(3, 29, 23),
    "stride2_conv": SnnArchitecture(
        layers=(Conv(2, 4, 3, stride=2), Pool(2), Conv(4, 5, 2), Dense(10, 3)),
        input_shape=(2, 13, 12), num_classes=3),
}


def _oracle_case(arch, reset, spike_fn, batch):
    cfg = LifConfig(beta=0.9, theta=0.4, reset=reset)
    params = init_params(arch, seed=batch + 1)
    rng = np.random.default_rng(batch)
    planes = rng.random((batch, 5) + arch.input_shape) * 1.5
    d_sdg = rng.standard_normal((batch, arch.num_classes))
    want_out, want_grads = _ref_run(planes, params, arch, cfg, spike_fn,
                                    DEFAULT_SURROGATE_WIDTH, d_sdg)
    out, tape = snn_forward(planes, params, arch, cfg, spike_fn=spike_fn,
                            record=True)
    grads = snn_backward_from_output(tape, d_sdg, params)
    plain = snn_forward(planes, params, arch, cfg, spike_fn=spike_fn)
    assert 0 < np.mean(tape.spikes[0]) < 1  # the net is neither silent nor saturated
    return (want_out, want_grads), (out, plain, grads)


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("reset", ["to_zero", "subtract_theta"])
@pytest.mark.parametrize("arch_name", sorted(ORACLE_ARCHS))
def test_binary_forward_and_gradients_match_reference_bit_for_bit(
        arch_name, reset, batch):
    (want_out, want_grads), (out, plain, grads) = _oracle_case(
        ORACLE_ARCHS[arch_name], reset, "binary", batch)
    assert np.array_equal(out, want_out)
    assert np.array_equal(plain, want_out)
    assert_grads_equal(grads, want_grads)


def assert_grads_equal(grads, want_grads):
    assert sorted(grads) == sorted(want_grads)
    for name in want_grads:
        assert np.any(want_grads[name] != 0), name
        assert np.array_equal(grads[name], want_grads[name]), name


#: the davis346 plane size; its large layers take their weight gradients to
#: the worker thread, which no ORACLE_ARCHS case is large enough to do
DAVIS346_ARCH = default_architecture(3, 65, 87)


@pytest.mark.parametrize("batch, offloaded", [(8, [0, 2, 4]), (4, [2, 4])])
def test_offloaded_weight_gradients_match_reference_bit_for_bit(
        batch, offloaded, monkeypatch):
    # a second CPU, whatever the machine, so the worker path runs
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    routed = snn._offloaded_layers(snn._plan(DAVIS346_ARCH), batch)
    assert [li for li, on in enumerate(routed) if on] == offloaded
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the two threads as finely as possible
    try:
        (want_out, want_grads), (out, plain, grads) = _oracle_case(
            DAVIS346_ARCH, "to_zero", "binary", batch)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, want_out)
    assert_grads_equal(grads, want_grads)


@pytest.mark.parametrize("cpus, arch", [
    ({0}, DAVIS346_ARCH),
    ({0, 1}, default_architecture(3, 32, 32)),
], ids=["one_cpu", "32x32_planes"])
def test_every_layer_stays_inline(cpus, arch, monkeypatch):
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    assert not any(snn._offloaded_layers(snn._plan(arch), 8))


@pytest.mark.parametrize("reset", ["to_zero", "subtract_theta"])
@pytest.mark.parametrize("arch_name", sorted(ORACLE_ARCHS))
def test_relaxed_forward_and_gradients_match_reference(arch_name, reset):
    (want_out, want_grads), (out, plain, grads) = _oracle_case(
        ORACLE_ARCHS[arch_name], reset, "relaxed", 3)
    assert np.allclose(out, want_out, rtol=0, atol=1e-12)
    assert np.allclose(plain, want_out, rtol=0, atol=1e-12)
    for name in want_grads:
        assert np.allclose(grads[name], want_grads[name], rtol=0, atol=1e-12), name

"""Membrane dynamics are pinned against a hand-iterated recurrence and the
network gradients against central finite differences on the relaxed forward
pass, which the analytic backward matches everywhere away from the clip
kinks."""

import ctypes
import functools
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gestemo import snn
from gestemo.errors import CHOICES, GestemoError
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


def test_lif_config_validation():
    with pytest.raises(GestemoError, match=r"lif_beta must be in \(0, 1\], got 0.0"):
        LifConfig(beta=0.0)
    with pytest.raises(GestemoError, match=r"lif_beta must be in \(0, 1\], got 1.5"):
        LifConfig(beta=1.5)
    with pytest.raises(GestemoError, match="lif_theta must be finite and > 0, got 0.0"):
        LifConfig(theta=0.0)
    with pytest.raises(GestemoError, match="lif_reset must be one of to_zero, subtract_theta"):
        LifConfig(reset="clamp")


def lif_step(v, current, cfg):
    """One membrane update of v through snn._lif_forward with binary spikes:
    (new potential, spikes as 0.0 or 1.0)."""
    v = np.array(v, dtype=np.float64)
    s = np.empty(v.shape, dtype=bool)
    snn._lif_forward(v, np.asarray(current, dtype=np.float64), np.empty_like(v), s,
                     cfg, DEFAULT_SURROGATE_WIDTH)
    return v, s.astype(np.float64)


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
    for name in arch.param_shapes():
        assert np.array_equal(a[name], b[name])
    assert not np.array_equal(a["conv0.w"], c["conv0.w"])


def test_default_architecture_shapes():
    arch = default_architecture(10)
    assert arch.output_shapes() == [
        (16, 30, 30), (16, 15, 15), (32, 13, 13), (32, 6, 6), (256,), (10,)]
    assert list(arch.param_shapes()) == [
        "conv0.w", "conv0.b", "conv2.w", "conv2.b",
        "fc4.w", "fc4.b", "fc5.w", "fc5.b"]


def test_default_architecture_dense_width_matches_hand_formula():
    for height in range(10, 81):
        for width in range(10, 81):
            h2 = (height - 2) // 2 - 2
            w2 = (width - 2) // 2 - 2
            dense = default_architecture(3, height, width).layers[4]
            assert dense.in_width == 32 * (h2 // 2) * (w2 // 2), (height, width)


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


def test_forward_rejects_unknown_spike_function():
    arch = small_arch()
    params = init_params(arch, seed=1)
    with pytest.raises(GestemoError) as e:
        snn_forward(np.zeros((1, 3, 2, 8, 8)), params, arch, spike_fn="bogus")
    assert str(e.value) == "spike_fn must be one of binary, relaxed, got 'bogus'"
    assert CHOICES["spike_fn"] == tuple(snn._SPIKE_DTYPE)


@pytest.mark.parametrize("dtype", [np.complex128, object, "U1", "datetime64[s]"])
def test_forward_refuses_planes_that_are_not_real_numbers(dtype):
    arch = small_arch()
    planes = np.zeros((1, 2) + arch.input_shape, dtype=dtype)
    with pytest.raises(GestemoError, match=re.escape(f"planes of dtype {np.dtype(dtype)},")):
        snn_forward(planes, init_params(arch, seed=1), arch)


#: the first layer of each kind, which reads the planes
FIRST_LAYER_ARCHS = {
    "conv": small_arch(),
    "pool": SnnArchitecture((Pool(2), Dense(32, 3)), (2, 8, 8), 3),
    "fc": SnnArchitecture((Dense(128, 5), Dense(5, 3)), (2, 8, 8), 3),
}


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int16, np.float32])
@pytest.mark.parametrize("first", sorted(FIRST_LAYER_ARCHS))
def test_planes_give_the_bits_of_their_float64_cast(first, dtype):
    # the tape keeps the planes as given, and each step is cast where a
    # layer reads it, so rates and gradients are those of the float64 cast
    arch = FIRST_LAYER_ARCHS[first]
    params = init_params(arch, seed=2)
    rng = np.random.default_rng(3)
    planes = (rng.random((4, 3) + arch.input_shape) * 3).astype(dtype)
    d_sdg = rng.standard_normal((4, 3))
    run = functools.partial(snn_forward, params=params, arch=arch,
                            cfg=LifConfig(theta=0.5), surrogate_width=4.0,
                            record=True)
    got, tape = run(planes)
    want, want_tape = run(planes.astype(np.float64))
    assert tape.x.dtype == planes.dtype
    assert np.array_equal(got, want)
    for vpre, want_vpre in zip(tape.vpre, want_tape.vpre):
        assert np.array_equal(vpre, want_vpre)
    assert_grads_equal(snn_backward_from_output(tape, d_sdg, params),
                       snn_backward_from_output(want_tape, d_sdg, params))


def relaxed_loss(planes, params, arch, cfg, onehot):
    s = snn_forward(planes, params, arch, cfg, spike_fn="relaxed")
    return float(np.mean((s - onehot) ** 2))


def fd_check(planes, params, arch, cfg, onehot, picks_per_tensor=4, h=1e-6):
    s_dg, tape = snn_forward(planes, params, arch, cfg, spike_fn="relaxed",
                             record=True)
    grads = snn_backward_from_output(tape, mse_spike_loss(s_dg, onehot)[1], params)
    rng = np.random.default_rng(99)
    checked = 0
    for name in arch.param_shapes():
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
        s_dg, tape = snn_forward(planes, params, arch, LifConfig(),
                                 spike_fn="relaxed", record=True)
        grads = snn_backward_from_output(
            tape, mse_spike_loss(s_dg, np.array([[0.0]]))[1], params)
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
    s_dg, tape = snn_forward(planes, params, arch, spike_fn="relaxed", record=True)
    by_label = snn_backward_from_output(
        tape, mse_spike_loss(s_dg, np.array([0, 2]))[1], params)
    onehot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    by_onehot = snn_backward_from_output(tape, mse_spike_loss(s_dg, onehot)[1], params)
    for name in arch.param_shapes():
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
    grads = {name: np.zeros_like(params[name]) for name in arch.param_shapes()}
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


#: the two plane sizes the benchmark trains on: desk32's and davis346's
#: (346x260 after --downsample 4)
BENCHMARK_ARCHS = {"32x32": default_architecture(3, 32, 32),
                   "65x87": default_architecture(3, 65, 87)}


def _on_worker(arch, batch=4):
    """The layers whose weight sums ran on the worker thread in a real
    forward and backward of `batch` rows."""
    weight_backward, on_worker = snn._weight_backward, set()

    def recorded(plan, li, *args):
        if threading.current_thread().name.startswith("gestemo-snn"):
            on_worker.add(li)
        return weight_backward(plan, li, *args)

    params = init_params(arch, seed=batch)
    rng = np.random.default_rng(batch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snn, "_weight_backward", recorded)
        _, tape = snn_forward(rng.random((batch, 2) + arch.input_shape), params,
                              arch, record=True)
        snn_backward_from_output(
            tape, rng.standard_normal((batch, arch.num_classes)), params)
    return sorted(on_worker)


@pytest.mark.parametrize("batch", [1, 3, 4, 8])
@pytest.mark.parametrize("reset", ["to_zero", "subtract_theta"])
@pytest.mark.parametrize("arch_name", sorted(BENCHMARK_ARCHS))
def test_planned_backward_matches_reference_bit_for_bit(arch_name, reset, batch,
                                                        two_cpus):
    arch = BENCHMARK_ARCHS[arch_name]
    assert _on_worker(arch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the two threads as finely as possible
    try:
        (want_out, want_grads), (out, plain, grads) = _oracle_case(
            arch, reset, "binary", batch)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, want_out)
    assert_grads_equal(grads, want_grads)


@pytest.mark.parametrize("arch_name", sorted(BENCHMARK_ARCHS))
@pytest.mark.parametrize("batch", range(1, 9))
def test_two_cpus_put_the_first_layer_and_fc4_on_the_worker(arch_name, batch,
                                                            two_cpus):
    # the rule reads the layer stack alone, so a backward of every batch
    # size runs the same two layers' weight sums on the worker thread
    assert _on_worker(BENCHMARK_ARCHS[arch_name], batch) == [0, 4]


@pytest.mark.parametrize("cpus", [{0}], ids=["one_cpu"])
def test_every_layer_stays_inline(cpus, monkeypatch):
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    monkeypatch.setattr(snn, "_WORKER", None)   # a task handed to it would raise
    for arch in BENCHMARK_ARCHS.values():
        for batch in (1, 8):
            assert _on_worker(arch, batch) == []


def test_backward_memory_at_65x87(monkeypatch):
    # one CPU, so the whole backward runs inline and its peak is the same on
    # every run
    monkeypatch.setattr(snn, "_cpus", lambda: 1)
    arch = BENCHMARK_ARCHS["65x87"]
    params = init_params(arch, seed=1)
    rng = np.random.default_rng(0)
    planes = (rng.random((8, 12) + arch.input_shape) < 0.3).astype(np.uint8)
    d_sdg = rng.normal(size=(8, arch.num_classes))
    tracemalloc.start()
    try:
        _, tape = snn_forward(planes, params, arch, record=True)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        snn_backward_from_output(tape, d_sdg, params)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert tape.x.nbytes == planes.nbytes   # taped as encoded, not as float64
    # above what the tape holds, the backward peaked at 55.4 MiB on x86_64
    # with numpy 2.4.6.  A float64 copy of the planes on the tape and a
    # product buffer kept for fc4's weight term, which outlives fc4 and so
    # adds to the conv layers' peak, made it 71.2 MiB; the bound lies between.
    assert peak < 63 * 2**20, peak / 2**20


def _stacked_case(arch, batch, steps=12):
    """Planes and parameters at the benchmark's K; the planes are dense
    enough that spikes reach the first dense layer."""
    rng = np.random.default_rng(batch)
    planes = (rng.random((batch, steps) + arch.input_shape) < 0.3).astype(np.uint8)
    return planes, init_params(arch, seed=batch), LifConfig(theta=0.4)


def _probed(rows, w, steps=12):
    """The guard's verdict, probed now where the key is new: the first call
    at a key says no without probing."""
    snn._stacked_rows_agree(rows, steps, w)
    return snn._stacked_rows_agree(rows, steps, w)


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("arch_name", sorted(BENCHMARK_ARCHS))
def test_stacked_first_dense_matches_reference_bit_for_bit(arch_name, batch,
                                                           monkeypatch):
    # the guard refuses some of these shapes and accepts others, by kernel
    arch = BENCHMARK_ARCHS[arch_name]
    planes, params, cfg = _stacked_case(arch, batch)
    _probed(batch, params[f"fc{snn._plan(arch).first_dense}.w"])
    want, _ = _ref_run(planes, params, arch, cfg, "binary",
                       DEFAULT_SURROGATE_WIDTH, np.zeros((batch, arch.num_classes)))
    out, tape = snn_forward(planes, params, arch, cfg, record=True)
    assert np.array_equal(out, want)
    assert np.array_equal(snn_forward(planes, params, arch, cfg), want)
    # every taped membrane and spike equals the tape of per-step products
    monkeypatch.setattr(snn, "_stacked_rows_agree", lambda *args: False)
    _, per_step = snn_forward(planes, params, arch, cfg, record=True)
    assert np.mean(per_step.spikes[snn._plan(arch).first_dense]) > 0
    for got, taped in zip(tape.vpre + tape.spikes, per_step.vpre + per_step.spikes):
        assert np.array_equal(got, taped)


def _first_dense_rows(monkeypatch):
    """The row count of every first-dense-layer product from now on."""
    layer_forward, rows = snn._layer_forward, []

    def recorded(plan, li, x, params):
        if li == plan.first_dense:
            rows.append(x.shape[0])
        return layer_forward(plan, li, x, params)

    monkeypatch.setattr(snn, "_layer_forward", recorded)
    return rows


@pytest.mark.parametrize("record", [False, True], ids=["plain", "taped"])
def test_stacked_or_per_step_products_give_equal_bits_bit_for_bit(record,
                                                                  monkeypatch):
    arch = BENCHMARK_ARCHS["65x87"]
    batch, steps = 8, 12
    planes, params, cfg = _stacked_case(arch, batch, steps)
    kernel_agrees = _probed(batch, params["fc4.w"], steps)
    rows = _first_dense_rows(monkeypatch)
    outs = []
    for agree in (False, True):
        monkeypatch.setattr(snn, "_stacked_rows_agree", lambda *args: agree)
        rows.clear()
        outs.append(snn_forward(planes, params, arch, cfg, record=record))
        # one product per step, or one over the K steps' stacked rows
        assert rows == ([steps * batch] if agree else [batch] * steps)
    # the patched guard says yes whatever this BLAS does, so the bits are
    # compared only where the loaded kernel says yes too
    if kernel_agrees:
        per_step, stacked = (out[0] if record else out for out in outs)
        assert np.array_equal(per_step, stacked)


def test_a_shape_met_once_multiplies_per_step_bit_for_bit(monkeypatch):
    # one `gestemo eval` scores its split in one forward: it must pay
    # neither the probe nor a product the parent did not make
    monkeypatch.setattr(snn, "_STACKED_VERDICTS", {})
    arch = BENCHMARK_ARCHS["65x87"]
    batch, steps = 8, 12
    planes, params, cfg = _stacked_case(arch, batch, steps)
    rows = _first_dense_rows(monkeypatch)
    snn_forward(planes, params, arch, cfg)
    assert rows == [batch] * steps
    assert list(snn._STACKED_VERDICTS.values()) == [None]


def test_stacked_guard_probes_once_per_key(monkeypatch):
    blas = [(snn._openblas_fn(lib, "get_num_threads", ctypes.c_int),
             snn._openblas_fn(lib, "set_num_threads", None, ctypes.c_int))
            for lib in snn._openblas_libs()]
    if not blas:
        pytest.skip("no OpenBLAS loaded")
    monkeypatch.setattr(snn, "_STACKED_VERDICTS", {})
    w = init_params(BENCHMARK_ARCHS["32x32"], seed=0)["fc4.w"]
    # the first call at a key says no and probes nothing; the second probes
    assert snn._stacked_rows_agree(4, 12, w) is False
    (key,) = snn._STACKED_VERDICTS
    assert snn._STACKED_VERDICTS[key] is None
    verdict = snn._stacked_rows_agree(4, 12, w)
    assert snn._STACKED_VERDICTS[key] is verdict
    # a planted opposite verdict is what a later call returns: no new probe
    snn._STACKED_VERDICTS[key] = not verdict
    assert snn._stacked_rows_agree(4, 12, w) is (not verdict)
    before = [get() for get, _ in blas]
    try:
        for _, set_threads in blas:
            set_threads(2 if before[0] == 1 else 1)
        _probed(4, w)
    finally:
        for (_, set_threads), count in zip(blas, before):
            set_threads(count)
    # another thread count, another probe
    assert len(snn._STACKED_VERDICTS) == 2
    assert None not in snn._STACKED_VERDICTS.values()


@pytest.mark.parametrize("probe", [False, True], ids=["cached", "probing"])
def test_forward_memory_at_65x87(monkeypatch, probe):
    # one CPU, so the spatial block runs inline and its peak is the same on
    # every run.  The measured forward is the second at its key, which
    # probes, or the third, which finds the verdict cached; the first also
    # fills the plan's lazy index tables
    monkeypatch.setattr(snn, "_cpus", lambda: 1)
    monkeypatch.setattr(snn, "_STACKED_VERDICTS", {})
    arch = BENCHMARK_ARCHS["65x87"]
    planes, params, cfg = _stacked_case(arch, 8)
    snn_forward(planes, params, arch, cfg)
    if not probe:
        snn._stacked_rows_agree(8, 12, params["fc4.w"])
    tracemalloc.start()
    try:
        snn_forward(planes, params, arch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert None not in snn._STACKED_VERDICTS.values()
    # both peaked at 33.2 MiB on x86_64 with numpy 2.4.6, as did the first
    # forward at a key, which multiplies per step; before fc4 could take
    # one product over the stacked steps, the forward peaked at 33.0.  The
    # spatial block's im2col buffers set the peak.  The tail's 6.6 MiB
    # float64 stack of the last spatial layer's spikes stays below them,
    # and so do the probe's 24 MiB of random operands, which are freed
    # before the forward allocates its buffers.  The bound is a few MiB above
    assert peak < 36 * 2**20, peak / 2**20


def _lif_calls(monkeypatch, cpus):
    """Run with `cpus` CPUs and record (on the worker thread, batch rows) for
    every forward LIF step."""
    monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    lif_forward, calls = snn._lif_forward, []

    def recorded(v, *args):
        calls.append((threading.current_thread().name.startswith("gestemo-snn"),
                      v.shape[0]))
        return lif_forward(v, *args)

    monkeypatch.setattr(snn, "_lif_forward", recorded)
    return calls


@pytest.mark.parametrize("batch", [2, 3, 8])
@pytest.mark.parametrize("reset", ["to_zero", "subtract_theta"])
@pytest.mark.parametrize("arch_name", sorted(ORACLE_ARCHS))
def test_split_forward_matches_reference_bit_for_bit(arch_name, reset, batch,
                                                     monkeypatch):
    arch = ORACLE_ARCHS[arch_name]
    calls = _lif_calls(monkeypatch, {0, 1})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the two threads as finely as possible
    try:
        (want_out, want_grads), (out, plain, grads) = _oracle_case(
            arch, reset, "binary", batch)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, want_out)
    assert np.array_equal(plain, want_out)
    for name in want_grads:   # at batch 2, sum_pool's gradients are all zero
        assert np.array_equal(grads[name], want_grads[name]), name
    # the worker ran the second half of the spatial block, the calling
    # thread the first half and the whole-batch dense tail
    half = batch // 2
    assert {rows for worker, rows in calls if worker} == {batch - half}
    assert {rows for worker, rows in calls if not worker} == {half, batch}
    # so every taped membrane and spike also equals the one-thread tape's
    planes = np.random.default_rng(batch).random((batch, 5) + arch.input_shape) * 1.5
    params = init_params(arch, seed=batch + 1)
    tapes = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(snn.os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        tapes.append(snn_forward(planes, params, arch,
                                 LifConfig(beta=0.9, theta=0.4, reset=reset),
                                 record=True)[1])
    split, inline = tapes
    assert np.mean(split.spikes[2]) > 0   # spikes reach the second conv
    for got, want in zip(split.vpre + split.spikes, inline.vpre + inline.spikes):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cpus, arch, batch", [
    ({0}, ORACLE_ARCHS["sum_pool"], 3),
    ({0, 1}, ORACLE_ARCHS["sum_pool"], 1),
    ({0, 1}, SnnArchitecture(layers=(Dense(50, 8), Dense(8, 3)),
                             input_shape=(2, 5, 5), num_classes=3), 3),
], ids=["one_cpu", "batch_1", "dense_only"])
def test_forward_stays_inline(cpus, arch, batch, monkeypatch):
    calls = _lif_calls(monkeypatch, cpus)
    (want_out, want_grads), (out, plain, grads) = _oracle_case(
        arch, "to_zero", "binary", batch)
    assert np.array_equal(out, want_out)
    assert np.array_equal(plain, want_out)
    assert_grads_equal(grads, want_grads)
    assert calls and {rows for _, rows in calls} == {batch}
    assert not any(worker for worker, _ in calls)


@pytest.mark.parametrize("reset", ["to_zero", "subtract_theta"])
@pytest.mark.parametrize("arch_name", sorted(ORACLE_ARCHS))
def test_relaxed_forward_and_gradients_match_reference(arch_name, reset):
    (want_out, want_grads), (out, plain, grads) = _oracle_case(
        ORACLE_ARCHS[arch_name], reset, "relaxed", 3)
    assert np.allclose(out, want_out, rtol=0, atol=1e-12)
    assert np.allclose(plain, want_out, rtol=0, atol=1e-12)
    for name in want_grads:
        assert np.allclose(grads[name], want_grads[name], rtol=0, atol=1e-12), name


def test_init_params_draws_like_per_layer_fans():
    """Each layer's fans as the layer itself gives them, drawn in layer
    order: conv (in * k * k, out * k * k), dense (in_width, out_width)."""
    arch = ORACLE_ARCHS["stride2_conv"]
    rng = np.random.default_rng(11)
    want = {}
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            rf = layer.kernel * layer.kernel
            fan_in, fan_out = layer.in_channels * rf, layer.out_channels * rf
            name, shape = f"conv{i}", (layer.out_channels, layer.in_channels,
                                       layer.kernel, layer.kernel)
        elif isinstance(layer, Dense):
            fan_in, fan_out = layer.in_width, layer.out_width
            name, shape = f"fc{i}", (layer.out_width, layer.in_width)
        else:
            continue
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        want[name + ".w"] = rng.uniform(-bound, bound, size=shape)
        want[name + ".b"] = np.zeros(shape[0])
    got = init_params(arch, seed=11)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_plan_is_unchanged_by_forward_and_backward(two_cpus):
    arch = ORACLE_ARCHS["stride2_conv"]
    plan = snn._plan(arch)
    before = pickle.dumps(vars(plan))
    params = init_params(arch, seed=3)
    rng = np.random.default_rng(3)
    for batch in (8, 3):
        planes = rng.random((batch, 4) + arch.input_shape) * 1.5
        s_dg, tape = snn_forward(planes, params, arch, LifConfig(theta=0.4),
                                 record=True)
        assert tape.plan is plan
        snn_backward_from_output(
            tape, mse_spike_loss(s_dg, rng.integers(0, 3, batch))[1], params)
        assert pickle.dumps(vars(plan)) == before, batch

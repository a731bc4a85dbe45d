"""Event branch: a feedforward stack of LIF spiking layers run for K time
steps, one dense spike plane per step.

Dynamics per layer and step, with membrane potential v and input current I:

    v' = beta * v + I
    s  = 1  where v' >= theta, else 0
    v  = v' * (1 - s)          (reset to_zero)
    v  = v' - theta * s        (reset subtract_theta)

The class-sized output is the mean of the last layer's spikes over the K
steps, so every component lies in [0, 1].

Training uses backpropagation through time with a rectangular surrogate in
place of the threshold derivative: d(spike)/dv ~= 1/(2w) for |v - theta| < w,
else 0.  The backward pass differentiates the reset through the surrogate as
well (product rule), which makes it the exact gradient of the "relaxed"
network in which the hard threshold is replaced by the matching piecewise
linear sigmoid clip((v - theta + w) / 2w, 0, 1).  That is what the
finite-difference tests check.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import GestemoError, check_option, require_keys

DEFAULT_SURROGATE_WIDTH = 0.5

#: taped spike dtype per spike function; binary spikes are exactly 0 or 1
_SPIKE_DTYPE = {"binary": np.bool_, "relaxed": np.float64}


@dataclass(frozen=True)
class LifConfig:
    """Leaky integrate-and-fire constants; beta is the per-step leak."""

    beta: float = 0.9
    theta: float = 1.0
    reset: str = "to_zero"

    def __post_init__(self):
        for f in fields(self):
            check_option(f"lif_{f.name}", getattr(self, f.name))

    def to_dict(self) -> dict:
        return {"beta": self.beta, "theta": self.theta, "reset": self.reset}

    @classmethod
    def from_dict(cls, d: dict) -> "LifConfig":
        """Inverse of to_dict; every key is required."""
        return cls(**require_keys(d, cls))


# -- architecture -------------------------------------------------------------

@dataclass(frozen=True)
class Conv:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class Pool:
    """Sum pooling of window x window blocks; a remainder row or column is dropped."""

    window: int


@dataclass(frozen=True)
class Dense:
    in_width: int
    out_width: int


Layer = Union[Conv, Pool, Dense]

_LAYER_KIND = {Conv: "conv", Pool: "pool", Dense: "fc"}


@dataclass(frozen=True)
class SnnArchitecture:
    """Ordered layer stack over (channels, height, width) input.

    A LIF follows every layer, pooling included (sum pooling of spikes feeds
    the next membrane, preserving event-count semantics).  The final dense
    width must equal num_classes.
    """

    layers: Tuple[Layer, ...]
    input_shape: Tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        # tuples keep the architecture hashable, so its plan can be cached
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        sizes = [*self.input_shape, self.num_classes,
                 *(v for layer in self.layers for v in vars(layer).values())]
        bad = [v for v in sizes if isinstance(v, bool)
               or not isinstance(v, numbers.Integral) or v < 1]
        if bad:
            raise GestemoError(f"architecture sizes must be integers >= 1, got {bad[0]!r}")
        shapes = self.output_shapes()  # raises on incompatibility
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise GestemoError("architecture must end with a Dense layer")
        if shapes[-1] != (self.num_classes,):
            raise GestemoError(
                f"final layer width {shapes[-1]} != ({self.num_classes},)")

    def output_shapes(self) -> List[tuple]:
        shape = tuple(self.input_shape)
        out = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv):
                if len(shape) != 3 or shape[0] != layer.in_channels:
                    raise GestemoError(
                        f"layer {i}: conv expects {layer.in_channels} channels, "
                        f"input is {shape}")
                h = (shape[1] - layer.kernel) // layer.stride + 1
                w = (shape[2] - layer.kernel) // layer.stride + 1
                if h < 1 or w < 1:
                    raise GestemoError(f"layer {i}: kernel larger than input {shape}")
                shape = (layer.out_channels, h, w)
            elif isinstance(layer, Pool):
                if len(shape) != 3:
                    raise GestemoError(f"layer {i}: pool needs spatial input")
                h, w = shape[1] // layer.window, shape[2] // layer.window
                if h < 1 or w < 1:
                    raise GestemoError(f"layer {i}: window exceeds input {shape}")
                shape = (shape[0], h, w)
            elif isinstance(layer, Dense):
                flat = int(np.prod(shape))
                if flat != layer.in_width:
                    raise GestemoError(
                        f"layer {i}: fc expects width {layer.in_width}, input "
                        f"flattens to {flat}")
                shape = (layer.out_width,)
            else:
                raise GestemoError(f"layer {i}: unknown layer {layer!r}")
            out.append(shape)
        return out

    def param_shapes(self) -> Dict[str, tuple]:
        """Shape of every weight and bias, in layer order."""
        shapes = {}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv):
                shapes[f"conv{i}.w"] = (layer.out_channels, layer.in_channels,
                                        layer.kernel, layer.kernel)
                shapes[f"conv{i}.b"] = (layer.out_channels,)
            elif isinstance(layer, Dense):
                shapes[f"fc{i}.w"] = (layer.out_width, layer.in_width)
                shapes[f"fc{i}.b"] = (layer.out_width,)
        return shapes

    def param_names(self) -> List[str]:
        return list(self.param_shapes())

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "layers": [dict(kind=_LAYER_KIND[type(l)], **vars(l),
                            **({"mode": "sum"} if isinstance(l, Pool) else {}))
                       for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SnnArchitecture":
        layers = []
        for spec in d["layers"]:
            spec = dict(spec)
            kind = spec.pop("kind")
            if kind == "pool" and spec.pop("mode", "sum") != "sum":
                raise GestemoError("pool mode must be sum")
            layers.append({"conv": Conv, "pool": Pool, "fc": Dense}[kind](**spec))
        return cls(tuple(layers), tuple(d["input_shape"]), d["num_classes"])


def default_architecture(num_classes: int, height: int = 32,
                         width: int = 32) -> SnnArchitecture:
    """Desk-scale default: two conv/pool blocks and two dense layers.  The
    second pool needs at least one cell, so planes must be 10x10 or more."""
    if height < 10 or width < 10:
        raise GestemoError(f"planes of {width}x{height} are too small for the "
                           "default architecture, which needs at least 10x10")
    h1 = (height - 3) + 1
    w1 = (width - 3) + 1
    h2 = (h1 // 2 - 3) + 1
    w2 = (w1 // 2 - 3) + 1
    flat = 32 * (h2 // 2) * (w2 // 2)
    return SnnArchitecture(
        layers=(
            Conv(2, 16, 3),
            Pool(2),
            Conv(16, 32, 3),
            Pool(2),
            Dense(flat, 256),
            Dense(256, num_classes),
        ),
        input_shape=(2, height, width),
        num_classes=num_classes,
    )


# -- parameters ----------------------------------------------------------------

def _fans(layer: Layer) -> Tuple[int, int]:
    if isinstance(layer, Conv):
        rf = layer.kernel * layer.kernel
        return layer.in_channels * rf, layer.out_channels * rf
    return layer.in_width, layer.out_width


def init_params(arch: SnnArchitecture, seed: int) -> Dict[str, np.ndarray]:
    """Seeded Xavier-uniform initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    shapes = arch.param_shapes()
    params: Dict[str, np.ndarray] = {}
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Pool):
            continue
        kind = _LAYER_KIND[type(layer)]
        fan_in, fan_out = _fans(layer)
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[f"{kind}{i}.w"] = rng.uniform(-bound, bound, size=shapes[f"{kind}{i}.w"])
        params[f"{kind}{i}.b"] = np.zeros(shapes[f"{kind}{i}.b"])
    return params


def _require_params(arch: SnnArchitecture, params: Dict[str, np.ndarray]) -> None:
    for name in arch.param_names():
        if name not in params:
            raise GestemoError(f"missing parameter {name!r}")


# -- LIF dynamics ----------------------------------------------------------------

def lif_step(potential: np.ndarray, input_current: np.ndarray,
             cfg: LifConfig) -> Tuple[np.ndarray, np.ndarray]:
    """One membrane update: leak, integrate, threshold, reset.

    Returns (new_potential, spikes); spikes are exactly 0.0 or 1.0 and fire
    on v' >= theta (threshold equality fires).
    """
    v = np.array(potential, dtype=np.float64)
    i = np.asarray(input_current, dtype=np.float64)
    if v.shape != i.shape:
        raise GestemoError(f"potential {v.shape} vs current {i.shape}")
    s = np.empty(v.shape, dtype=bool)
    _lif_forward(v, i, np.empty_like(v), s, cfg, DEFAULT_SURROGATE_WIDTH)
    return v, s.astype(np.float64)


def _lif_forward(v: np.ndarray, current: np.ndarray, vp: np.ndarray,
                 s: np.ndarray, cfg: LifConfig, width: float) -> None:
    """One step in place: vp = beta*v + current, s = spikes of vp (bool for
    binary spikes, float for relaxed), v = reset(vp, s)."""
    np.multiply(v, cfg.beta, out=vp)
    vp += current
    if s.dtype == bool:
        np.greater_equal(vp, cfg.theta, out=s)
    else:
        s[...] = np.clip((vp - cfg.theta + width) / (2.0 * width), 0.0, 1.0)
    if cfg.reset == "to_zero":
        np.multiply(vp, ~s if s.dtype == bool else 1.0 - s, out=v)
    else:
        np.multiply(s, cfg.theta, out=v)
        np.subtract(vp, v, out=v)


def _lif_backward(vp: np.ndarray, s: np.ndarray, d_s: np.ndarray,
                  dv_carry: np.ndarray, cfg: LifConfig, width: float,
                  fp: np.ndarray, g_v: np.ndarray) -> np.ndarray:
    """Gradient with respect to vp for one step, written into the scratch
    array fp (g_v is scratch too); dv_carry, the gradient reaching this
    step's v, becomes beta times it."""
    np.subtract(vp, cfg.theta, out=fp)
    np.abs(fp, out=fp)
    np.multiply(fp < width, 1.0 / (2.0 * width), out=fp)   # surrogate d(spike)/dv'
    if cfg.reset == "to_zero":
        # d(v'*(1-s))/dv' with s = f(v'), product rule
        np.multiply(vp, fp, out=g_v)
        np.subtract(~s if s.dtype == bool else 1.0 - s, g_v, out=g_v)
    else:
        np.multiply(fp, cfg.theta, out=g_v)
        np.subtract(1.0, g_v, out=g_v)
    g_v *= dv_carry
    fp *= d_s
    fp += g_v
    np.multiply(fp, cfg.beta, out=dv_carry)
    return fp


# -- layer plumbing ---------------------------------------------------------------

def _im2col_indices(cin, hin, win_, kh, kw, stride):
    ho = (hin - kh) // stride + 1
    wo = (win_ - kw) // stride + 1
    c_idx = np.repeat(np.arange(cin), kh * kw)
    di = np.tile(np.repeat(np.arange(kh), kw), cin)
    dj = np.tile(np.arange(kw), cin * kh)
    base = (c_idx * hin + di) * win_ + dj                 # (cin*kh*kw,)
    oi = np.repeat(np.arange(ho) * stride, wo)
    oj = np.tile(np.arange(wo) * stride, ho)
    offset = oi * win_ + oj                               # (ho*wo,)
    return offset[:, None] + base[None, :], (ho, wo)      # (P, K)


class _Plan:
    """Per-layer shapes, parameter names, and cached gather indices."""

    def __init__(self, arch: SnnArchitecture):
        self.arch = arch
        self.in_shapes: List[tuple] = []
        self.out_shapes = arch.output_shapes()
        self.col_idx: List[Optional[np.ndarray]] = []
        # per conv layer: (batch size, row-offset scatter indices) of the
        # last backward pass
        self._scatter: Dict[int, Tuple[int, np.ndarray]] = {}
        shape = tuple(arch.input_shape)
        for layer in arch.layers:
            self.in_shapes.append(shape)
            if isinstance(layer, Conv):
                idx, _ = _im2col_indices(shape[0], shape[1], shape[2],
                                         layer.kernel, layer.kernel, layer.stride)
                self.col_idx.append(idx)
            else:
                self.col_idx.append(None)
            shape = self.out_shapes[len(self.in_shapes) - 1]

    def cols(self, li: int, x: np.ndarray) -> np.ndarray:
        """im2col of x (B, C, H, W) for conv layer li: (B, P, K) float64,
        C-contiguous."""
        return np.take(_as_float(x).reshape(x.shape[0], -1), self.col_idx[li], axis=1)

    def scatter_index(self, li: int, b: int) -> np.ndarray:
        """Flat indices into (B * n_in) that col2im adds each column entry to."""
        hit = self._scatter.get(li)
        if hit is None or hit[0] != b:
            n_in = int(np.prod(self.in_shapes[li]))
            rows = np.arange(b, dtype=np.int64)[:, None] * n_in
            hit = (b, (rows + self.col_idx[li].ravel()[None, :]).ravel())
            self._scatter[li] = hit
        return hit[1]


@functools.lru_cache(maxsize=8)
def _plan(arch: SnnArchitecture) -> _Plan:
    return _Plan(arch)


#: per-step work from which a layer's weight gradients run on the worker
#: thread beside the input-gradient chain: the im2col size B*P*kernel_cols
#: of a conv layer, in_width*out_width of a dense one.  On two cores the
#: backward of a 32x32 network (layers up to 295,000 at batch 8) ran up to
#: 8% slower offloaded, and DAVIS346-size layers (385,000 and up) gained.
OFFLOAD_MIN_WORK = 500_000
#: worker tasks in flight before the backward pass waits for the oldest;
#: each holds a copy of one step's layer gradient
_MAX_PENDING = 3
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gestemo-snn-grad")


def _offloaded_layers(plan: _Plan, b: int) -> List[bool]:
    """Per layer, whether its weight gradients go to the worker thread at
    batch size b: only with a second CPU, and only for a large layer."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    work = [b * plan.col_idx[li].size if isinstance(layer, Conv)
            else layer.in_width * layer.out_width if isinstance(layer, Dense)
            else 0 for li, layer in enumerate(plan.arch.layers)]
    return [cpus > 1 and w >= OFFLOAD_MIN_WORK for w in work]


def _as_float(x: np.ndarray) -> np.ndarray:
    """Spikes as float64 for a GEMM operand; a bool operand would be cast
    inside the GEMM, which is slower."""
    return x.astype(np.float64, copy=False)


def _layer_forward(plan: _Plan, li: int, x: np.ndarray,
                   params: Dict[str, np.ndarray]) -> np.ndarray:
    layer = plan.arch.layers[li]
    b = x.shape[0]
    if isinstance(layer, Conv):
        w2 = params[f"conv{li}.w"].reshape(layer.out_channels, -1)
        out = plan.cols(li, x) @ w2.T                           # (B, P, Cout)
        co, h, w = plan.out_shapes[li]
        res = np.empty((b, co, h * w))
        np.add(out.transpose(0, 2, 1), params[f"conv{li}.b"][:, None], out=res)
        return res.reshape(b, co, h, w)
    if isinstance(layer, Pool):
        c, h, w = plan.in_shapes[li]
        win = layer.window
        hc, wc = (h // win) * win, (w // win) * win
        if x.dtype == bool:
            # binary spikes: add the win*win strided slices as integers,
            # which is exact
            u = x.view(np.uint8)
            parts = [u[:, :, i:hc:win, j:wc:win] for i in range(win) for j in range(win)]
            acc = parts[0].astype(np.min_scalar_type(win * win))
            for part in parts[1:]:
                acc += part
            return acc
        return x[:, :, :hc, :wc].reshape(b, c, h // win, win, w // win, win) \
            .sum(axis=(3, 5))
    flat = _as_float(x).reshape(b, -1)
    return flat @ params[f"fc{li}.w"].T + params[f"fc{li}.b"]


def _weight_backward(plan: _Plan, li: int, x: np.ndarray, d_out: np.ndarray,
                     grads: Dict[str, np.ndarray]) -> None:
    """Accumulate the weight and bias gradients of conv or dense layer li.
    Nothing else in the backward pass reads them, so this may run on the
    worker thread."""
    layer = plan.arch.layers[li]
    b = x.shape[0]
    if isinstance(layer, Conv):
        d2 = d_out.reshape(b, layer.out_channels, -1).transpose(0, 2, 1)  # (B, P, Cout)
        gw = grads[f"conv{li}.w"]
        gw += np.tensordot(d2, plan.cols(li, x), axes=([0, 1], [0, 1])).reshape(gw.shape)
        grads[f"conv{li}.b"] += d2.sum(axis=(0, 1))
    elif isinstance(layer, Dense):
        grads[f"fc{li}.w"] += d_out.T @ _as_float(x).reshape(b, -1)
        grads[f"fc{li}.b"] += d_out.sum(axis=0)


def _input_backward(plan: _Plan, li: int, x: np.ndarray, d_out: np.ndarray,
                    params: Dict[str, np.ndarray]) -> np.ndarray:
    """Gradient of layer li with respect to its input spikes."""
    layer = plan.arch.layers[li]
    b = x.shape[0]
    if isinstance(layer, Conv):
        co = layer.out_channels
        d2 = d_out.reshape(b, co, -1).transpose(0, 2, 1)        # (B, P, Cout)
        d_cols = d2 @ params[f"conv{li}.w"].reshape(co, -1)     # (B, P, K)
        n_in = int(np.prod(plan.in_shapes[li]))
        # scatter-add overlapping windows back, one bin per (sample, input)
        d_in = np.bincount(plan.scatter_index(li, b), weights=d_cols.ravel(),
                           minlength=b * n_in)
        return d_in.reshape((b,) + plan.in_shapes[li])
    if isinstance(layer, Pool):
        c, h, w = plan.in_shapes[li]
        win = layer.window
        nh, nw = h // win, w // win
        d_in = np.zeros((b, c, h, w))
        d_in[:, :, :nh * win, :nw * win].reshape(b, c, nh, win, nw, win)[...] = \
            d_out[:, :, :, None, :, None]
        return d_in
    return (d_out @ params[f"fc{li}.w"]).reshape((b,) + plan.in_shapes[li])


# -- forward / backward ---------------------------------------------------------

@dataclass
class SnnTape:
    """Recorded forward pass: everything the backward pass needs.

    Spikes are taped as bool for binary spikes (exactly 0/1, one byte
    each) and as float64 for relaxed ones."""

    plan: _Plan
    cfg: LifConfig
    surrogate_width: float
    x: np.ndarray                       # (B, K, C, H, W)
    vpre: List[np.ndarray]              # per layer (K, B, ...)
    spikes: List[np.ndarray]
    s_dg: np.ndarray                    # (B, classes)


def snn_forward(planes: np.ndarray, params: Dict[str, np.ndarray],
                arch: SnnArchitecture, cfg: LifConfig = LifConfig(), *,
                spike_fn: str = "binary",
                surrogate_width: float = DEFAULT_SURROGATE_WIDTH,
                record: bool = False):
    """Run the stack for K steps, feeding plane k at step k.

    planes: a (B, K, C, H, W) batch of conditioned planes of any real
    dtype, cast to float64.  Returns the (B, classes) spike rates (and the
    tape when record=True); membranes always start at zero.
    """
    _require_params(arch, params)
    if spike_fn not in _SPIKE_DTYPE:
        raise ValueError(f"unknown spike function {spike_fn!r}")
    x = np.asarray(planes, dtype=np.float64)
    if x.ndim != 5 or x.shape[2:] != tuple(arch.input_shape):
        raise GestemoError(
            f"planes shape {x.shape} incompatible with input {arch.input_shape}")
    b, k = x.shape[0], x.shape[1]
    plan = _plan(arch)
    sdtype = _SPIKE_DTYPE[spike_fn]
    v = [np.zeros((b,) + shp) for shp in plan.out_shapes]
    steps = k if record else 1   # without a tape, one step's buffers are reused
    vpre = [np.empty((steps, b) + shp) for shp in plan.out_shapes]
    spikes = [np.empty((steps, b) + shp, dtype=sdtype) for shp in plan.out_shapes]
    out_sum = np.zeros((b, arch.num_classes))
    for t in range(k):
        cur = x[:, t]
        slot = t if record else 0
        for li in range(len(arch.layers)):
            current = _layer_forward(plan, li, cur, params)
            cur = spikes[li][slot]
            _lif_forward(v[li], current, vpre[li][slot], cur, cfg, surrogate_width)
        out_sum += cur
    s_dg = out_sum / k
    if record:
        return s_dg, SnnTape(plan, cfg, surrogate_width, x, vpre, spikes, s_dg)
    return s_dg


def snn_backward_from_output(tape: Optional[SnnTape], d_sdg: np.ndarray,
                             params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Backpropagate an arbitrary loss gradient d(loss)/d(s_dg) through the
    recorded K steps; returns gradients for every weighted layer."""
    if tape is None:
        raise GestemoError("snn_backward requires a recorded forward tape")
    plan, cfg = tape.plan, tape.cfg
    arch = plan.arch
    k, b = tape.spikes[0].shape[0], tape.spikes[0].shape[1]
    d_sdg = np.asarray(d_sdg, dtype=np.float64)
    if d_sdg.shape != (b, arch.num_classes):
        raise GestemoError(f"d_sdg shape {d_sdg.shape} != ({b},{arch.num_classes})")
    grads = {name: np.zeros_like(params[name]) for name in arch.param_names()}
    dv_carry = [np.zeros((b,) + shp) for shp in plan.out_shapes]
    # one scratch pair serves every layer: a layer's dvp is consumed before
    # the next layer writes the pair again (the worker gets its own copy)
    bufs = [np.empty(b * max(math.prod(shp) for shp in plan.out_shapes))
            for _ in range(2)]
    scratch = [[buf[:b * math.prod(shp)].reshape((b,) + shp) for buf in bufs]
               for shp in plan.out_shapes]
    offload = _offloaded_layers(plan, b)
    pending = deque()
    try:
        for t in reversed(range(k)):
            d_s = d_sdg / k
            for li in reversed(range(len(arch.layers))):
                dvp = _lif_backward(tape.vpre[li][t], tape.spikes[li][t], d_s,
                                    dv_carry[li], cfg, tape.surrogate_width,
                                    *scratch[li])
                x_in = tape.spikes[li - 1][t] if li > 0 else tape.x[:, t]
                if offload[li]:
                    # errstate lives in the context, which a thread does not
                    # inherit; one FIFO worker keeps each tensor's sum order
                    pending.append(_WORKER.submit(
                        contextvars.copy_context().run, _weight_backward,
                        plan, li, x_in, dvp.copy(), grads))
                    if len(pending) > _MAX_PENDING:
                        pending.popleft().result()
                else:
                    _weight_backward(plan, li, x_in, dvp, grads)
                if li > 0:
                    d_s = _input_backward(plan, li, x_in, dvp, params)
        while pending:
            pending.popleft().result()
    finally:
        # no task may write grads, or read the tape, after this call ends
        wait(pending)
    return grads


def mse_spike_loss(s_dg: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean over the batch of (1/C) * sum_c (s_c - target_c)^2.

    s_dg: (B, C) spike rates; targets: int class labels (B,), or one-hot or
    soft targets (B, C).  Returns (loss, d_loss/d_s_dg).
    """
    s = np.asarray(s_dg, dtype=np.float64)
    if s.ndim != 2:
        raise GestemoError(f"spike rates of shape {s.shape}, expected (B, C)")
    b, c = s.shape
    t = np.asarray(targets)
    if t.ndim == 1 and t.shape[0] == b and not np.issubdtype(t.dtype, np.floating):
        target = np.zeros((b, c))
        target[np.arange(b), t.astype(np.int64)] = 1.0
    elif t.size == b * c:
        target = t.reshape(b, c).astype(np.float64)
    else:
        raise GestemoError(f"targets of shape {t.shape} for {b} score rows "
                           f"of {c} classes")
    diff = s - target
    loss = float((diff * diff).sum() / (b * c))
    return loss, 2.0 * diff / (b * c)


def snn_backward(tape: Optional[SnnTape], targets: np.ndarray,
                 params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Gradients of mse_spike_loss against targets: int class labels (B,),
    or one-hot or soft targets (B, C)."""
    if tape is None:
        raise GestemoError("snn_backward requires a recorded forward tape")
    return snn_backward_from_output(tape, mse_spike_loss(tape.s_dg, targets)[1],
                                    params)

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

import contextlib
import contextvars
import ctypes
import functools
import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import GestemoError, check_labels, check_option

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
        return _shapes(self.layers, self.input_shape)

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


def _shapes(layers, input_shape) -> List[tuple]:
    """Output shape of each layer in turn over input_shape; raises on the
    first layer that does not fit its input."""
    shape = tuple(input_shape)
    out = []
    for i, layer in enumerate(layers):
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
            flat = math.prod(shape)
            if flat != layer.in_width:
                raise GestemoError(
                    f"layer {i}: fc expects width {layer.in_width}, input "
                    f"flattens to {flat}")
            shape = (layer.out_width,)
        else:
            raise GestemoError(f"layer {i}: unknown layer {layer!r}")
        out.append(shape)
    return out


def default_architecture(num_classes: int, height: int = 32,
                         width: int = 32) -> SnnArchitecture:
    """Desk-scale default: two conv/pool blocks and two dense layers.  The
    second pool needs at least one cell, so planes must be 10x10 or more."""
    if height < 10 or width < 10:
        raise GestemoError(f"planes of {width}x{height} are too small for the "
                           "default architecture, which needs at least 10x10")
    block = (Conv(2, 16, 3), Pool(2), Conv(16, 32, 3), Pool(2))
    flat = math.prod(_shapes(block, (2, height, width))[-1])
    return SnnArchitecture(
        layers=(*block, Dense(flat, 256), Dense(256, num_classes)),
        input_shape=(2, height, width),
        num_classes=num_classes,
    )


# -- parameters ----------------------------------------------------------------

def init_params(arch: SnnArchitecture, seed: int) -> Dict[str, np.ndarray]:
    """Seeded Xavier-uniform initialization; biases start at zero."""
    rng = np.random.default_rng(seed)
    params: Dict[str, np.ndarray] = {}
    for name, shape in arch.param_shapes().items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
            continue
        # (out, in) or (out, in, kh, kw): the receptive field is shape[2:]
        fan_in = math.prod(shape[1:])
        fan_out = shape[0] * math.prod(shape[2:])
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _require_params(arch: SnnArchitecture, params: Dict[str, np.ndarray]) -> None:
    for name in arch.param_shapes():
        if name not in params:
            raise GestemoError(f"missing parameter {name!r}")


# -- LIF dynamics ----------------------------------------------------------------

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

def _im2col_indices(cin, hin, win_, k, stride) -> np.ndarray:
    """(P, K) flat input positions of each output position's receptive field."""
    ho = (hin - k) // stride + 1
    wo = (win_ - k) // stride + 1
    c_idx = np.repeat(np.arange(cin), k * k)
    di = np.tile(np.repeat(np.arange(k), k), cin)
    dj = np.tile(np.arange(k), cin * k)
    base = (c_idx * hin + di) * win_ + dj                 # (cin*k*k,)
    oi = np.repeat(np.arange(ho) * stride, wo)
    oj = np.tile(np.arange(wo) * stride, ho)
    offset = oi * win_ + oj                               # (ho*wo,)
    return offset[:, None] + base[None, :]                # (P, K)


class _Plan:
    """Per-layer input and output shapes, conv gather indices and the index
    of the first dense layer, before which every conv and pool layer lies.
    Nothing changes it once built, so the worker thread may read it too."""

    def __init__(self, arch: SnnArchitecture):
        self.arch = arch
        self.out_shapes = arch.output_shapes()
        self.in_shapes = [arch.input_shape, *self.out_shapes[:-1]]
        self.col_idx: List[Optional[np.ndarray]] = [
            _im2col_indices(*shape, layer.kernel, layer.stride)
            if isinstance(layer, Conv) else None
            for layer, shape in zip(arch.layers, self.in_shapes)]
        self.first_dense = next(li for li, layer in enumerate(arch.layers)
                                if isinstance(layer, Dense))

    def cols(self, li: int, x: np.ndarray) -> np.ndarray:
        """im2col of x (B, C, H, W) for conv layer li: (B, P, K) float64,
        C-contiguous."""
        return np.take(_as_float(x).reshape(x.shape[0], -1), self.col_idx[li], axis=1)


@functools.lru_cache(maxsize=8)
def _plan(arch: SnnArchitecture) -> _Plan:
    return _Plan(arch)


#: worker tasks in flight before submit waits for the oldest; in the backward
#: pass a weight-sum task holds a copy of one step's layer gradient
_MAX_PENDING = 3
#: one FIFO thread, so each tensor's sums keep their order: the forward's
#: second batch half, the backward's first layer and other weight sums
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gestemo-snn")


@contextlib.contextmanager
def _worker_tasks(on_worker: bool):
    """Yield submit(fn, *args), which runs fn(*args) on the worker thread in
    a copy of the caller's context, where np.errstate lives; without
    on_worker, at once on the calling thread.  submit awaits the oldest task
    beyond _MAX_PENDING; a normal exit awaits all in FIFO order, raising the
    first error.  No task starts after one has raised, and any other exit
    cancels the tasks still queued and waits until none runs."""
    if not on_worker:
        yield lambda fn, *args: fn(*args)
        return
    pending = deque()
    failed = []   # touched on the worker thread only, where tasks run in order

    def run(fn, *args) -> None:
        if failed:
            return
        try:
            fn(*args)
        except BaseException:
            failed.append(True)
            raise

    def submit(fn, *args) -> None:
        pending.append(_WORKER.submit(contextvars.copy_context().run, run, fn, *args))
        if len(pending) > _MAX_PENDING:
            pending.popleft().result()

    try:
        yield submit
        while pending:
            pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()   # only a queued task cancels; a running one is awaited
        wait(pending)


def _cpus() -> int:
    """CPUs this process may run on; the worker thread is used only with
    more than one."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.lru_cache(maxsize=None)
def _openblas_libs() -> Tuple[ctypes.CDLL, ...]:
    """Each OpenBLAS loaded in this process, found once in /proc/self/maps;
    none where there is no /proc to list the loaded libraries in."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            # the path is the sixth field, and may hold spaces
            paths = {ln.split(maxsplit=5)[-1].rstrip("\n") for ln in f
                     if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return ()
    libs = []
    for path in sorted(paths):
        with contextlib.suppress(OSError):   # a file deleted since, or renamed
            libs.append(ctypes.CDLL(path))   # loaded already, so only a new handle
    return tuple(libs)


def _openblas_fn(lib: ctypes.CDLL, stem: str, restype, *argtypes):
    """OpenBLAS's function `stem` in lib, under scipy-openblas's name or the
    plain one, declared with restype and argtypes; None if lib has neither."""
    fn = (getattr(lib, f"scipy_openblas_{stem}64_", None)
          or getattr(lib, f"openblas_{stem}", None))
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


#: _stacked_rows_agree's verdicts by row count, steps, weight layout and
#: OpenBLAS thread counts; None for a key met once and not yet probed
_STACKED_VERDICTS: Dict[tuple, Optional[bool]] = {}


def _stacked_rows_agree(rows: int, steps: int, w: np.ndarray) -> bool:
    """Whether x @ w.T over a C-contiguous float64 x of steps * rows rows
    gives each block of `rows` rows the bits of that block's own product.
    OpenBLAS picks its kernel by size, and its small-matrix and one-row
    paths sum in another order, so the answer is measured on random
    operands: spikes that are all zero would agree whatever kernel ran.
    The probe costs more than the K products it would save once, so it
    runs when a key comes back: the first call at a key says no, and a
    process that meets a shape once never pays for it."""
    threads = tuple(get() for get in (_openblas_fn(lib, "get_num_threads", ctypes.c_int)
                                      for lib in _openblas_libs()) if get)
    key = (rows, steps, w.shape, w.strides, threads or None)
    if key not in _STACKED_VERDICTS:
        _STACKED_VERDICTS[key] = None
    elif _STACKED_VERDICTS[key] is None:
        rng = np.random.default_rng(0)
        x = rng.random((steps, rows, w.shape[1]))
        # w's layout, filled in place
        w_rand = rng.random(out=np.empty_like(w, dtype=np.float64))
        whole = (x.reshape(steps * rows, -1) @ w_rand.T).reshape(steps, rows, -1)
        _STACKED_VERDICTS[key] = all(np.array_equal(whole[t], x[t] @ w_rand.T)
                                     for t in range(steps))
    return bool(_STACKED_VERDICTS[key])


def _as_float(x: np.ndarray) -> np.ndarray:
    """Spikes or planes as float64 for a GEMM operand; a bool operand would
    be cast inside the GEMM, which is slower."""
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
        return _as_float(x)[:, :, :hc, :wc] \
            .reshape(b, c, h // win, win, w // win, win).sum(axis=(3, 5))
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
        n_in = math.prod(plan.in_shapes[li])
        idx = plan.col_idx[li].ravel()
        # scatter-add overlapping windows back, one sample at a time
        d_in = np.empty((b, n_in))
        for i in range(b):
            d_in[i] = np.bincount(idx, weights=d_cols[i].ravel(), minlength=n_in)
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
    each) and as float64 for relaxed ones; x keeps the planes' dtype."""

    plan: _Plan
    cfg: LifConfig
    surrogate_width: float
    x: np.ndarray                       # (B, K, C, H, W)
    vpre: List[np.ndarray]              # per layer (K, B, ...)
    spikes: List[np.ndarray]


def snn_forward(planes: np.ndarray, params: Dict[str, np.ndarray],
                arch: SnnArchitecture, cfg: LifConfig = LifConfig(), *,
                spike_fn: str = "binary",
                surrogate_width: float = DEFAULT_SURROGATE_WIDTH,
                record: bool = False):
    """Run the stack for K steps, feeding plane k at step k.

    planes: a (B, K, C, H, W) batch of conditioned planes of any real
    dtype, cast to float64 one step at a time, where a layer reads them.
    Returns the (B, classes) spike rates (and the tape when record=True);
    membranes always start at zero.
    """
    _require_params(arch, params)
    check_option("spike_fn", spike_fn)
    x = np.asarray(planes)
    if x.dtype.kind not in "biuf":
        raise GestemoError(f"planes of dtype {x.dtype}, expected bool, "
                           "integer or floating")
    if x.ndim != 5 or x.shape[2:] != tuple(arch.input_shape):
        raise GestemoError(
            f"planes shape {x.shape} incompatible with input {arch.input_shape}")
    b, k = x.shape[0], x.shape[1]
    plan = _plan(arch)
    sdtype = _SPIKE_DTYPE[spike_fn]
    n_sp = plan.first_dense   # layers [0, n_sp) are the spatial block
    # The first dense layer reads spikes the block keeps for every step, so
    # its K products may be one GEMM over the (K*B, in) stack, where this
    # BLAS gives each step's rows the bits of their own product.  Asked
    # before the buffers below exist, so a probe's operands do not add to
    # them.
    stacked = bool(n_sp) and _stacked_rows_agree(b, k, params[f"fc{n_sp}.w"])
    v = [np.zeros((b,) + shp) for shp in plan.out_shapes]
    # without a tape, one step's buffers are reused, except the spikes of the
    # last spatial layer: the dense tail reads them after the whole block
    vpre = [np.empty((k if record else 1, b) + shp) for shp in plan.out_shapes]
    spikes = [np.empty((k if record or li == n_sp - 1 else 1, b) + shp, dtype=sdtype)
              for li, shp in enumerate(plan.out_shapes)]
    out_sum = np.zeros((b, arch.num_classes))
    currents: Dict[int, np.ndarray] = {}   # layer -> (K, B, out) input current

    def run(layers: range, rows: slice) -> None:
        """The layers in `layers` over all K steps, for batch rows `rows`."""
        for t in range(k):
            cur = spikes[layers.start - 1][t, rows] if layers.start else x[rows, t]
            for li in layers:
                s = spikes[li][t % len(spikes[li]), rows]
                current = currents[li][t, rows] if li in currents \
                    else _layer_forward(plan, li, cur, params)
                _lif_forward(v[li][rows], current, vpre[li][t % len(vpre[li]), rows],
                             s, cfg, surrogate_width)
                cur = s
            if layers.stop == len(arch.layers):
                out_sum[rows] += cur

    # A conv GEMM runs per sample and pool and LIF are elementwise, so the
    # spatial block may run on two row halves, the second on the worker
    # thread.  A dense GEMM's bits depend on its row count: the tail runs
    # on the whole batch.
    half = b // 2 if n_sp and b >= 2 and _cpus() > 1 else b
    with _worker_tasks(half < b) as submit:
        if half < b:
            submit(run, range(n_sp), slice(half, b))
        run(range(n_sp), slice(0, half))
    if stacked:
        stack = spikes[n_sp - 1].reshape((k * b,) + plan.in_shapes[n_sp])
        currents[n_sp] = _layer_forward(plan, n_sp, stack, params).reshape(k, b, -1)
    run(range(n_sp, len(arch.layers)), slice(None))
    s_dg = out_sum / k
    if record:
        return s_dg, SnnTape(plan, cfg, surrogate_width, x, vpre, spikes)
    return s_dg


def snn_backward_from_output(tape: SnnTape, d_sdg: np.ndarray,
                             params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Backpropagate an arbitrary loss gradient d(loss)/d(s_dg) through the
    recorded K steps; returns gradients for every weighted layer."""
    plan, cfg = tape.plan, tape.cfg
    arch = plan.arch
    k, b = tape.spikes[0].shape[0], tape.spikes[0].shape[1]
    d_sdg = np.asarray(d_sdg, dtype=np.float64)
    if d_sdg.shape != (b, arch.num_classes):
        raise GestemoError(f"d_sdg shape {d_sdg.shape} != ({b},{arch.num_classes})")
    grads = {name: np.zeros_like(params[name]) for name in arch.param_shapes()}
    dv_carry = [np.zeros((b,) + shp) for shp in plan.out_shapes]
    n = len(arch.layers)
    # With more than one CPU the worker takes layer 0's whole backward, since
    # no layer reads its input gradient, and the weight sums of the first
    # dense layer, which reads the spatial block and holds the largest
    # weight matrix; with one, submit runs both at once on this thread.
    on_worker = _cpus() > 1
    # one scratch pair per thread serves every layer that thread runs: a
    # layer's dvp is consumed before the next layer writes the pair again.
    # Layer 0 on the worker has a pair of its own; the first dense layer's
    # weight sums get a copy of its dvp.
    scratch = {}
    for layers in ([0], range(1, n)) if on_worker else [range(n)]:
        sizes = {li: math.prod(plan.out_shapes[li]) for li in layers}
        bufs = [np.empty(b * max(sizes.values(), default=0)) for _ in range(2)]
        scratch.update({li: [buf[:b * size].reshape((b,) + plan.out_shapes[li])
                             for buf in bufs] for li, size in sizes.items()})

    def lif_backward(li: int, t: int, d_s: np.ndarray) -> np.ndarray:
        return _lif_backward(tape.vpre[li][t], tape.spikes[li][t], d_s,
                             dv_carry[li], cfg, tape.surrogate_width, *scratch[li])

    def first_layer_backward(t: int, d_s: np.ndarray) -> None:
        _weight_backward(plan, 0, tape.x[:, t], lif_backward(0, t, d_s), grads)

    with _worker_tasks(on_worker) as submit:
        for t in reversed(range(k)):
            d_s = d_sdg / k
            for li in reversed(range(1, n)):
                dvp = lif_backward(li, t, d_s)
                x_in = tape.spikes[li - 1][t]
                if li == plan.first_dense:
                    submit(_weight_backward, plan, li, x_in, dvp.copy(), grads)
                else:
                    _weight_backward(plan, li, x_in, dvp, grads)
                d_s = _input_backward(plan, li, x_in, dvp, params)
            # d_s is a fresh array, so the worker may read it as it is
            submit(first_layer_backward, t, d_s)
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
        target[np.arange(b), check_labels(t, c)] = 1.0
    elif t.size == b * c:
        target = t.reshape(b, c).astype(np.float64)
    else:
        raise GestemoError(f"targets of shape {t.shape} for {b} score rows "
                           f"of {c} classes")
    diff = s - target
    loss = float((diff * diff).sum() / (b * c))
    return loss, 2.0 * diff / (b * c)

"""Frame branch and fusion: an LSTM over per-frame feature vectors, a small
classification head with dropout, and additive late fusion with the event
branch output.

The fused score is simply

    y_hat = s_dg + lam * branch_logits        (lam >= 0, default 1.0)

with no normalization before the sum; the predicted class is the argmax.

Parameters are {name: array} dicts like the spiking branch's: "lstm.*"
for the LSTM and "head.*" for the head, shaped as frame_shapes states.
The functions here trust those shapes; load_checkpoint checks them.

Each LSTM step writes its gate activations, cell state, hidden state and
tanh(c) straight into preallocated tape slots, and backprop reads tanh(c)
back from the tape.  Every product keeps the operands and association
order of the plain per-step formulation, so outputs and gradients are bit
for bit those of that loop (tests keep it as a frozen oracle).

Layout rule for the recurrent GEMM h @ wh.T: with 3 or more batch rows it
reads a C-contiguous copy of wh.T, made once per call, which OpenBLAS
multiplies faster than the transposed view.  Below 3 rows it reads the
view, because there OpenBLAS's small-M path gives different bits for the
two layouts (1 row on every core type tried, 2 rows on SkylakeX); from 3
rows on the two layouts agree bit for bit on the cores tried.

With more than one CPU, training hands the backward's three weight sums to
a helper process forked for the train call (_weight_sums), so they run
beside the recurrence through dh instead of after it, with the same bits.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import sys
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import snn
from .errors import GestemoError, check_option, require_keys


def _sigmoid(z: np.ndarray, out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Logistic into `out`, with `mask` a bool scratch of z's shape; bit-equal
    to 1/(1+exp(-z)) for z >= 0 (-0 included) and exp(z)/(1+exp(z)) for
    z < 0.  The numerator is max(e, z >= 0) since e = exp(-|z|) <= 1."""
    np.greater_equal(z, 0.0, out=mask)
    np.abs(z, out=out)
    e = np.exp(np.negative(out, out=out), out=out)
    return np.divide(np.maximum(e, mask), np.add(1.0, e), out=out)


def _blocks(a: np.ndarray):
    """The i, f, g, o column blocks of a (B, 4H) array, as views."""
    hid = a.shape[1] // 4
    return a[:, :hid], a[:, hid:2 * hid], a[:, 2 * hid:3 * hid], a[:, 3 * hid:]


# -- recurrent branch ------------------------------------------------------------

def frame_shapes(dim: int, hidden: int, mid: int,
                 num_classes: int) -> Dict[str, tuple]:
    """Shape of every frame-branch tensor: the LSTM over dim-wide features,
    rows of wx/wh stacking the four gates i, f, g, o, then the head."""
    return {"lstm.wx": (4 * hidden, dim), "lstm.wh": (4 * hidden, hidden),
            "lstm.b": (4 * hidden,),
            "head.w1": (mid, hidden), "head.b1": (mid,),
            "head.w2": (num_classes, mid), "head.b2": (num_classes,)}


def init_recurrent_params(dim: int, hidden: int,
                          seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    bx = math.sqrt(6.0 / (dim + hidden))
    bh = math.sqrt(6.0 / (hidden + hidden))
    return {"lstm.wx": rng.uniform(-bx, bx, size=(4 * hidden, dim)),
            "lstm.wh": rng.uniform(-bh, bh, size=(4 * hidden, hidden)),
            "lstm.b": np.zeros(4 * hidden)}


@dataclass
class RecurrentTape:
    """Per-step LSTM state for backprop.  `tc` keeps tanh(c[t+1]) so the
    backward pass reuses the forward's value instead of recomputing it."""

    x: np.ndarray                  # (B, T, D)
    gates: np.ndarray              # (T, B, 4H) post-activation i,f,g,o
    c: np.ndarray                  # (T+1, B, H), c[0] = 0
    h: np.ndarray                  # (T+1, B, H), h[0] = 0
    tc: np.ndarray                 # (T, B, H), tanh(c[t+1])


def recurrent_forward(x: np.ndarray, params: Dict[str, np.ndarray], *,
                      record: bool = False):
    """Run the LSTM over time and return the (B, H) final hidden state.

    x: a (B, T, D) batch of sequences.  With zero input and zero biases the
    output is exactly zero (tanh(0) gates through).  Without `record` every
    step reuses slot 0 of one-step buffers, so no T-sized state is kept.
    """
    wx, wh = params["lstm.wx"], params["lstm.wh"]
    hid, dim = wh.shape[1], wx.shape[1]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != dim:
        raise GestemoError(f"features shape {x.shape}, expected (B,T,{dim})")
    b, t_len, _ = x.shape
    n = t_len if record else 1
    tape = RecurrentTape(x=x, gates=np.empty((n, b, 4 * hid)),
                         c=np.zeros((n + 1, b, hid)), h=np.zeros((n + 1, b, hid)),
                         tc=np.empty((n, b, hid)))
    ig = np.empty((b, hid))
    # precompute all input projections at once
    zx = x @ wx.T                                        # (B, T, 4H)
    zx += params["lstm.b"]             # in place: one T-sized array, not two
    # the layout rule of the module docstring
    wh_t = np.ascontiguousarray(wh.T) if b >= 3 else wh.T
    z = np.empty((b, 4 * hid))
    mask = np.empty((b, 4 * hid), dtype=bool)
    s = s1 = 0
    for t in range(t_len):
        if record:
            s, s1 = t, t + 1
        np.matmul(tape.h[s], wh_t, out=z)
        z += zx[:, t]                      # addition commutes: zx + h @ wh_t
        gates, c = tape.gates[s], tape.c[s1]
        i, f, g, o = _blocks(gates)
        _sigmoid(z, gates, mask)           # one contiguous pass; g's block is redone
        np.tanh(z[:, 2 * hid:3 * hid], out=g)
        np.multiply(f, tape.c[s], out=c)
        c += np.multiply(i, g, out=ig)
        np.multiply(o, np.tanh(c, out=tape.tc[s]), out=tape.h[s1])
    h = tape.h[s1].copy()
    return (h, tape) if record else h


def recurrent_backward(tape: Optional[RecurrentTape], d_hlast: np.ndarray,
                       params: Dict[str, np.ndarray],
                       sums: Optional["_WeightSums"] = None) -> Dict[str, np.ndarray]:
    """Backprop through time; returns the parameter gradients
    {"lstm.wx": ..., "lstm.wh": ..., "lstm.b": ...}.  With sums, training's
    _WeightSums, its helper process adds the weight terms."""
    if tape is None:
        raise GestemoError("recurrent_backward requires a recorded tape")
    x = tape.x
    b, t_len, _ = x.shape
    wh = params["lstm.wh"]
    hid = wh.shape[1]
    d_hlast = np.asarray(d_hlast, dtype=np.float64).reshape(b, hid)
    if sums is None:
        grads = {name: np.zeros_like(params[name]) for name in _LSTM_GRADS}
        dzs = np.empty((1, b, 4 * hid))        # d(pre-activation) i,f,g,o
    else:
        dzs = sums.begin(tape)                 # a shared slot per step
    dh = d_hlast.copy()
    dc = np.zeros((b, hid))
    one_minus = np.empty((b, 4 * hid))                   # g's block unused
    tmp, tmp2 = np.empty((b, hid)), np.empty((b, hid))
    # the i block is ((dc*g)*i)*(1-i), and likewise every block keeps the
    # association order of the plain formulation
    try:
        for t in reversed(range(t_len)):
            dz = dzs[t % len(dzs)]
            d_if, (d_i, d_f, d_g, d_o) = dz[:, :2 * hid], _blocks(dz)
            gates, tc = tape.gates[t], tape.tc[t]
            i, f, g, o = _blocks(gates)
            np.subtract(1.0, gates, out=one_minus)
            np.multiply(dh, tc, out=d_o)
            np.multiply(dh, o, out=tmp)
            tmp *= np.subtract(1.0, np.multiply(tc, tc, out=tmp2), out=tmp2)
            dc += tmp
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, tape.c[t], out=d_f)
            np.multiply(dc, i, out=d_g)
            d_if *= gates[:, :2 * hid]
            d_if *= one_minus[:, :2 * hid]
            d_g *= np.subtract(1.0, np.multiply(g, g, out=tmp), out=tmp)
            d_o *= o
            d_o *= one_minus[:, 3 * hid:]
            if sums is None:
                _weight_terms(grads, dz, x[:, t], tape.h[t])
            else:
                sums.step()
            dh = dz @ wh
            dc *= f
    except FloatingPointError:
        if sums is not None:
            sums.finish()   # an error in the sums sent so far came first
        raise
    return grads if sums is None else sums.finish()


# -- the weight sums on a second process ------------------------------------------

_LSTM_GRADS = ("lstm.wx", "lstm.wh", "lstm.b")
#: the caller's messages to the helper, one byte each
_BEGIN, _STEP, _END = b"bse"


def _weight_terms(grads: Dict[str, np.ndarray], dz: np.ndarray,
                  x_t: np.ndarray, h_t: np.ndarray) -> None:
    """Add one step's terms to the LSTM weight gradients, in place."""
    grads["lstm.wx"] += dz.T @ x_t
    grads["lstm.wh"] += dz.T @ h_t
    grads["lstm.b"] += dz.sum(axis=0)


class _WeightSums:
    """recurrent_backward's weight sums, run by a forked helper process.

    Both processes map one anonymous shared buffer holding the batch's
    features, its hidden-state tape, a (T, B, 4H) block of gate gradients
    and the three gradients.  The caller writes each step's gate gradients
    into their slot, then one byte into a pipe; the helper reads the byte,
    a syscall pair that orders the memory on every architecture, and calls
    _weight_terms for that step.  The steps arrive in the caller's order,
    so the gradients are bit for bit the inline loop's."""

    def __init__(self, batch: int, t_len: int, params: Dict[str, np.ndarray]):
        self.t_len = t_len
        self.dim, self.hid = params["lstm.wx"].shape[1], params["lstm.wh"].shape[1]
        sizes = [batch * t_len * self.dim, (t_len + 1) * batch * self.hid,
                 t_len * batch * 4 * self.hid, *(params[n].size for n in _LSTM_GRADS)]
        self._mem = mmap.mmap(-1, 8 * (1 + sum(sizes)))
        self._batch = np.frombuffer(self._mem, np.int64, count=1)
        flat = np.frombuffer(self._mem, np.float64, offset=8)
        ends = np.cumsum(sizes)
        self._x, self._h, self._dz, *g = np.split(flat, ends[:-1])
        self.grads = {n: a.reshape(params[n].shape) for n, a in zip(_LSTM_GRADS, g)}
        self.cmd = self.reply = -1    # the caller's pipe ends, once forked

    def _tapes(self, b: int):
        """Features (b, T, D), hidden states (T+1, b, H) and gate gradients
        (T, b, 4H) of a batch of b, as views of the shared buffer."""
        t, hid = self.t_len, self.hid
        return (self._x[:b * t * self.dim].reshape(b, t, self.dim),
                self._h[:(t + 1) * b * hid].reshape(t + 1, b, hid),
                self._dz[:t * b * 4 * hid].reshape(t, b, 4 * hid))

    # -- the caller's side

    def begin(self, tape: RecurrentTape) -> np.ndarray:
        """Share the tape's features and hidden states and start a call;
        returns the gate-gradient slots, one per step."""
        b = tape.x.shape[0]
        x, h, dz = self._tapes(b)
        x[...] = tape.x
        h[...] = tape.h
        self._batch[0] = b
        self._send(_BEGIN)
        return dz

    def step(self) -> None:
        """The next step's gate gradients are in their slot."""
        self._send(_STEP)

    def finish(self) -> Dict[str, np.ndarray]:
        """End the call: copies of the gradients, or the FloatingPointError
        the helper met first."""
        self._send(_END)
        try:
            reply = os.read(self.reply, 4096)
        except OSError:
            reply = b""
        if not reply:
            raise self._lost()
        if reply != b"+":
            raise FloatingPointError(reply[1:].decode())
        return {name: g.copy() for name, g in self.grads.items()}

    def _send(self, code: int) -> None:
        try:
            os.write(self.cmd, bytes((code,)))
        except OSError:
            raise self._lost() from None

    @staticmethod
    def _lost() -> GestemoError:
        return GestemoError("the LSTM weight-sum helper process ended unexpectedly")

    # -- the helper's side

    def serve(self, cmd: int, reply: int) -> None:
        """Answer the caller's messages until it closes its end."""
        error = None
        while True:
            msgs = os.read(cmd, 4096)
            if not msgs:
                return
            for code in msgs:
                if code == _BEGIN:
                    x, h, dz = self._tapes(int(self._batch[0]))
                    for g in self.grads.values():
                        g[...] = 0.0
                    t, error = self.t_len, None
                elif code == _STEP:
                    t -= 1
                    if error is None:
                        try:
                            _weight_terms(self.grads, dz[t], x[:, t], h[t])
                        except FloatingPointError as e:
                            error = str(e)
                else:
                    os.write(reply, b"+" if error is None
                             else b"-" + error.encode()[:4000])


@contextlib.contextmanager
def _weight_sums(batch: int, t_len: int, params: Dict[str, np.ndarray]):
    """Yield a _WeightSums served by a helper process forked here, for
    batches of at most `batch` sequences of t_len steps; or None, so the
    sums run inline, with one CPU, off Linux, without os.fork, or when the
    fork fails.  The helper is killed and reaped on every exit.

    The helper inherits the caller's np.errstate.  It runs only numpy
    arithmetic and pipe I/O, writes nothing to stdout or stderr and ends by
    os._exit, so the threads it is forked beside (the SNN worker, BLAS's
    pool) and the caller's open files are never touched from it."""
    if snn._cpus() < 2 or sys.platform != "linux" or not hasattr(os, "fork"):
        yield None
        return
    sums = _WeightSums(batch, t_len, params)
    cmd_r, sums.cmd = os.pipe()
    sums.reply, reply_w = os.pipe()
    try:
        # Python 3.12 warns on every fork beside other threads; this child
        # never meets their locks (see above), so only this call is quiet
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            os.close(sums.cmd)
            os.close(sums.reply)
            sums.serve(cmd_r, reply_w)
        finally:
            os._exit(0)
    os.close(cmd_r)
    os.close(reply_w)
    try:
        yield None if pid is None else sums
    finally:
        os.close(sums.cmd)
        os.close(sums.reply)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# -- classification head ----------------------------------------------------------

def init_head_params(hidden: int, mid: int, num_classes: int,
                     seed: int = 0) -> Dict[str, np.ndarray]:
    """Two dense layers with a ReLU and train-time dropout between them."""
    rng = np.random.default_rng(seed)
    b1 = math.sqrt(6.0 / (hidden + mid))
    b2 = math.sqrt(6.0 / (mid + num_classes))
    return {"head.w1": rng.uniform(-b1, b1, size=(mid, hidden)),
            "head.b1": np.zeros(mid),
            "head.w2": rng.uniform(-b2, b2, size=(num_classes, mid)),
            "head.b2": np.zeros(num_classes)}


@dataclass
class HeadTape:
    h: np.ndarray
    z1: np.ndarray       # pre-relu
    a: np.ndarray        # post-relu, post-mask
    mask: Optional[np.ndarray]   # dropout keep mask scaled, or None in eval


def head_forward(h: np.ndarray, params: Dict[str, np.ndarray], *,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.0, record: bool = False):
    """h (B, H) -> logits (B, C).

    With dropout > 0 (training) each post-ReLU unit is dropped with that
    probability, drawn from rng, and survivors are scaled by 1/(1-dropout),
    so the expected output is the eval output, which dropout 0 gives.
    """
    w1 = params["head.w1"]
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != w1.shape[1]:
        raise GestemoError(f"head input shape {h.shape}, expected (B,{w1.shape[1]})")
    check_option("dropout", dropout)
    z1 = h @ w1.T + params["head.b1"]
    a = np.maximum(z1, 0.0)
    mask = None
    if dropout > 0.0:
        if rng is None:
            raise GestemoError("head dropout needs an rng")
        keep = 1.0 - dropout
        mask = (rng.random(a.shape) < keep).astype(np.float64) / keep
        a = a * mask
    logits = a @ params["head.w2"].T + params["head.b2"]
    if record:
        return logits, HeadTape(h=h, z1=z1, a=a, mask=mask)
    return logits


def head_backward(tape: Optional[HeadTape], d_logits: np.ndarray,
                  params: Dict[str, np.ndarray]
                  ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Returns ({"head.w1": ...}, d_h)."""
    if tape is None:
        raise GestemoError("head_backward requires a recorded tape")
    b = tape.h.shape[0]
    d_logits = np.asarray(d_logits, dtype=np.float64).reshape(b, -1)
    g_w2 = d_logits.T @ tape.a
    g_b2 = d_logits.sum(axis=0)
    d_a = d_logits @ params["head.w2"]
    if tape.mask is not None:
        d_a = d_a * tape.mask
    d_z1 = d_a * (tape.z1 > 0.0)
    g_w1 = d_z1.T @ tape.h
    g_b1 = d_z1.sum(axis=0)
    d_h = d_z1 @ params["head.w1"]
    return {"head.w1": g_w1, "head.b1": g_b1, "head.w2": g_w2, "head.b2": g_b2}, d_h


# -- fusion ------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionConfig:
    """Additive late fusion weight applied to the frame-branch logits."""

    lam: float = 1.0

    def __post_init__(self):
        check_option("lam", self.lam)

    def to_dict(self) -> dict:
        return {"lam": self.lam}

    @classmethod
    def from_dict(cls, d: dict) -> "FusionConfig":
        """Inverse of to_dict; every key is required."""
        return cls(**require_keys(d, cls))


def fuse(s_dg: np.ndarray, branch_logits: np.ndarray,
         cfg: FusionConfig = FusionConfig()) -> np.ndarray:
    """y_hat = s_dg + lam * branch_logits, elementwise over classes."""
    s = np.asarray(s_dg, dtype=np.float64)
    l = np.asarray(branch_logits, dtype=np.float64)
    if s.shape != l.shape:
        raise GestemoError(f"fusion shapes disagree: {s.shape} vs {l.shape}")
    return s + cfg.lam * l


def predict(scores: np.ndarray) -> np.ndarray:
    """Argmax class index along the last axis (first index wins ties)."""
    return np.argmax(np.asarray(scores), axis=-1)

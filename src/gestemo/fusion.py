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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

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
                       params: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Backprop through time; returns the parameter gradients
    {"lstm.wx": ..., "lstm.wh": ..., "lstm.b": ...}."""
    if tape is None:
        raise GestemoError("recurrent_backward requires a recorded tape")
    x = tape.x
    b, t_len, _ = x.shape
    wh = params["lstm.wh"]
    hid = wh.shape[1]
    d_hlast = np.asarray(d_hlast, dtype=np.float64).reshape(b, hid)
    g_wx = np.zeros_like(params["lstm.wx"])
    g_wh = np.zeros_like(wh)
    g_b = np.zeros_like(params["lstm.b"])
    dh = d_hlast.copy()
    dc = np.zeros((b, hid))
    dz = np.empty((b, 4 * hid))                          # d(pre-activation) i,f,g,o
    d_if, (d_i, d_f, d_g, d_o) = dz[:, :2 * hid], _blocks(dz)
    one_minus = np.empty((b, 4 * hid))                   # g's block unused
    tmp, tmp2 = np.empty((b, hid)), np.empty((b, hid))
    # the i block is ((dc*g)*i)*(1-i), and likewise every block keeps the
    # association order of the plain formulation
    for t in reversed(range(t_len)):
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
        g_wx += dz.T @ x[:, t]
        g_wh += dz.T @ tape.h[t]
        g_b += dz.sum(axis=0)
        dh = dz @ wh
        dc *= f
    return {"lstm.wx": g_wx, "lstm.wh": g_wh, "lstm.b": g_b}


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

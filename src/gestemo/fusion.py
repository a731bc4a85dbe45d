"""Frame branch and fusion: an LSTM over per-frame feature vectors, a small
classification head with dropout, and additive late fusion with the event
branch output.

The fused score is simply

    y_hat = s_dg + lam * branch_logits        (lam >= 0, default 1.0)

with no normalization before the sum; the predicted class is the argmax.

Each LSTM step writes its gate activations, cell state, hidden state and
tanh(c) straight into preallocated tape slots, and backprop reads tanh(c)
back from the tape.  Every product keeps the operands and association
order of the plain per-step formulation, so outputs and gradients are bit
for bit those of that loop (tests keep it as a frozen oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import GestemoError, check_option, require_keys


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic into `out`, mask-free; bit-equal to 1/(1+exp(-z)) for z >= 0
    (-0 included) and exp(z)/(1+exp(z)) for z < 0."""
    np.abs(z, out=out)
    e = np.exp(np.negative(out, out=out), out=out)
    return np.divide(np.where(z >= 0, 1.0, e), np.add(1.0, e), out=out)


def _blocks(a: np.ndarray):
    """The i, f, g, o column blocks of a (B, 4H) array, as views."""
    hid = a.shape[1] // 4
    return a[:, :hid], a[:, hid:2 * hid], a[:, 2 * hid:3 * hid], a[:, 3 * hid:]


# -- recurrent branch ------------------------------------------------------------

@dataclass
class RecurrentParams:
    """LSTM weights; rows of wx/wh hold the four gates stacked i, f, g, o."""

    wx: np.ndarray   # (4H, D)
    wh: np.ndarray   # (4H, H)
    b: np.ndarray    # (4H,)

    def __post_init__(self):
        if self.wx.ndim != 2 or self.wh.ndim != 2 or self.b.ndim != 1:
            raise GestemoError("recurrent params must be 2d, 2d, 1d")
        four_h = self.wx.shape[0]
        if four_h % 4 != 0 or self.wh.shape != (four_h, four_h // 4) \
                or self.b.shape != (four_h,):
            raise GestemoError(
                f"inconsistent gate shapes wx={self.wx.shape} wh={self.wh.shape} "
                f"b={self.b.shape}")

    @property
    def hidden(self) -> int:
        return self.wx.shape[0] // 4

    @property
    def dim(self) -> int:
        return self.wx.shape[1]

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {"lstm.wx": self.wx, "lstm.wh": self.wh, "lstm.b": self.b}


def init_recurrent_params(dim: int, hidden: int, seed: int = 0) -> RecurrentParams:
    rng = np.random.default_rng(seed)
    bx = math.sqrt(6.0 / (dim + hidden))
    bh = math.sqrt(6.0 / (hidden + hidden))
    return RecurrentParams(
        wx=rng.uniform(-bx, bx, size=(4 * hidden, dim)),
        wh=rng.uniform(-bh, bh, size=(4 * hidden, hidden)),
        b=np.zeros(4 * hidden),
    )


@dataclass
class RecurrentTape:
    """Per-step LSTM state for backprop.  `tc` keeps tanh(c[t+1]) so the
    backward pass reuses the forward's value instead of recomputing it."""

    x: np.ndarray                  # (B, T, D)
    gates: np.ndarray              # (T, B, 4H) post-activation i,f,g,o
    c: np.ndarray                  # (T+1, B, H), c[0] = 0
    h: np.ndarray                  # (T+1, B, H), h[0] = 0
    tc: np.ndarray                 # (T, B, H), tanh(c[t+1])


def recurrent_forward(x: np.ndarray, params: RecurrentParams, *,
                      record: bool = False):
    """Run the LSTM over time and return the (B, H) final hidden state.

    x: a (B, T, D) batch of sequences.  With zero input and zero biases the
    output is exactly zero (tanh(0) gates through).  Without `record` every
    step reuses slot 0 of one-step buffers, so no T-sized state is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.dim:
        raise GestemoError(f"features shape {x.shape}, expected (B,T,{params.dim})")
    b, t_len, _ = x.shape
    hid = params.hidden
    n = t_len if record else 1
    tape = RecurrentTape(x=x, gates=np.empty((n, b, 4 * hid)),
                         c=np.zeros((n + 1, b, hid)), h=np.zeros((n + 1, b, hid)),
                         tc=np.empty((n, b, hid)))
    ig = np.empty((b, hid))
    # precompute all input projections at once
    zx = x @ params.wx.T                                 # (B, T, 4H)
    zx += params.b                     # in place: one T-sized array, not two
    wh_t = params.wh.T
    s = s1 = 0
    for t in range(t_len):
        if record:
            s, s1 = t, t + 1
        z = zx[:, t] + tape.h[s] @ wh_t
        gates, c = tape.gates[s], tape.c[s1]
        i, f, g, o = _blocks(gates)
        _sigmoid(z, gates)                 # one contiguous pass; g's block is redone
        np.tanh(z[:, 2 * hid:3 * hid], out=g)
        np.multiply(f, tape.c[s], out=c)
        c += np.multiply(i, g, out=ig)
        np.multiply(o, np.tanh(c, out=tape.tc[s]), out=tape.h[s1])
    h = tape.h[s1].copy()
    return (h, tape) if record else h


def recurrent_backward(tape: Optional[RecurrentTape], d_hlast: np.ndarray,
                       params: RecurrentParams) -> Dict[str, np.ndarray]:
    """Backprop through time; returns the parameter gradients
    {"lstm.wx": ..., "lstm.wh": ..., "lstm.b": ...}."""
    if tape is None:
        raise GestemoError("recurrent_backward requires a recorded tape")
    x = tape.x
    b, t_len, _ = x.shape
    hid = params.hidden
    d_hlast = np.asarray(d_hlast, dtype=np.float64).reshape(b, hid)
    g_wx = np.zeros_like(params.wx)
    g_wh = np.zeros_like(params.wh)
    g_b = np.zeros_like(params.b)
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
        dh = dz @ params.wh
        dc *= f
    return {"lstm.wx": g_wx, "lstm.wh": g_wh, "lstm.b": g_b}


# -- classification head ----------------------------------------------------------

@dataclass
class HeadParams:
    """Two dense layers with a ReLU and train-time dropout between them."""

    w1: np.ndarray   # (M, H)
    b1: np.ndarray   # (M,)
    w2: np.ndarray   # (C, M)
    b2: np.ndarray   # (C,)

    def __post_init__(self):
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise GestemoError("head weights must be 2d")
        if self.b1.shape != (self.w1.shape[0],) or self.b2.shape != (self.w2.shape[0],):
            raise GestemoError("head bias shapes inconsistent with weights")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise GestemoError(
                f"head layer widths disagree: {self.w1.shape} then {self.w2.shape}")

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {"head.w1": self.w1, "head.b1": self.b1,
                "head.w2": self.w2, "head.b2": self.b2}


def init_head_params(hidden: int, mid: int, num_classes: int,
                     seed: int = 0) -> HeadParams:
    rng = np.random.default_rng(seed)
    b1 = math.sqrt(6.0 / (hidden + mid))
    b2 = math.sqrt(6.0 / (mid + num_classes))
    return HeadParams(
        w1=rng.uniform(-b1, b1, size=(mid, hidden)),
        b1=np.zeros(mid),
        w2=rng.uniform(-b2, b2, size=(num_classes, mid)),
        b2=np.zeros(num_classes),
    )


@dataclass
class HeadTape:
    h: np.ndarray
    z1: np.ndarray       # pre-relu
    a: np.ndarray        # post-relu, post-mask
    mask: Optional[np.ndarray]   # dropout keep mask scaled, or None in eval


def head_forward(h: np.ndarray, params: HeadParams, *,
                 rng: Optional[np.random.Generator] = None,
                 dropout: float = 0.0, record: bool = False):
    """h (B, H) -> logits (B, C).

    With dropout > 0 (training) each post-ReLU unit is dropped with that
    probability, drawn from rng, and survivors are scaled by 1/(1-dropout),
    so the expected output is the eval output, which dropout 0 gives.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.w1.shape[1]:
        raise GestemoError(f"head input shape {h.shape}, expected "
                           f"(B,{params.w1.shape[1]})")
    check_option("dropout", dropout)
    z1 = h @ params.w1.T + params.b1
    a = np.maximum(z1, 0.0)
    mask = None
    if dropout > 0.0:
        if rng is None:
            raise GestemoError("head dropout needs an rng")
        keep = 1.0 - dropout
        mask = (rng.random(a.shape) < keep).astype(np.float64) / keep
        a = a * mask
    logits = a @ params.w2.T + params.b2
    if record:
        return logits, HeadTape(h=h, z1=z1, a=a, mask=mask)
    return logits


def head_backward(tape: Optional[HeadTape], d_logits: np.ndarray,
                  params: HeadParams) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Returns ({"head.w1": ...}, d_h)."""
    if tape is None:
        raise GestemoError("head_backward requires a recorded tape")
    b = tape.h.shape[0]
    d_logits = np.asarray(d_logits, dtype=np.float64).reshape(b, -1)
    g_w2 = d_logits.T @ tape.a
    g_b2 = d_logits.sum(axis=0)
    d_a = d_logits @ params.w2
    if tape.mask is not None:
        d_a = d_a * tape.mask
    d_z1 = d_a * (tape.z1 > 0.0)
    g_w1 = d_z1.T @ tape.h
    g_b1 = d_z1.sum(axis=0)
    d_h = d_z1 @ params.w1
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

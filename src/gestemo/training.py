"""Training and evaluation for the two-branch recognizer.

The fused objective combines a spike-rate regression on the event branch
with a class-weighted cross entropy on the fused scores:

    loss = mse_spike(s_dg, onehot) + wce(s_dg + lam * branch_logits, y)

Class weights are inverse-frequency, w_c = T / (C * n_c), so rare classes
pull harder.  Single-branch modes train on their own term only, and
mode="separate" trains the two branches independently and fuses them only
at evaluation time.  All randomness (shuffling, dropout) flows from one
seeded generator, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .encode import dense_spike_planes, scale_planes
from .dataio import DEFAULT_FRAME_LIMIT
from .errors import DivergedLossError, GestemoError, check_option
from .events import LABELED_GESTURES, EmotionClass, GestureClass, SampleRecord, emotion_of
from .fusion import (
    FusionConfig,
    _weight_sums,
    fuse,
    head_backward,
    head_forward,
    init_head_params,
    init_recurrent_params,
    predict,
    recurrent_backward,
    recurrent_forward,
)
from .snn import (
    DEFAULT_SURROGATE_WIDTH,
    LifConfig,
    SnnArchitecture,
    _openblas_fn,
    _openblas_libs,
    init_params,
    mse_spike_loss,
    snn_backward_from_output,
    snn_forward,
)


# -- losses and weights ----------------------------------------------------------

def class_weights(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Inverse-frequency weights w_c = T / (C * n_c); mean weight is >= 1
    with equality iff the classes are balanced."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=num_classes)
    if counts.size > num_classes:
        raise GestemoError(f"label outside [0,{num_classes}) present")
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise GestemoError(f"class {int(missing[0])} has no samples")
    return labels.size / (num_classes * counts.astype(np.float64))


def weighted_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                           weights: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean over the batch of -w[y] * log softmax(logits)[y], for (B, C)
    logits and B labels.

    Returns (loss, d_loss/d_logits).  Log-sum-exp uses max subtraction, so
    large scores cannot overflow.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if z.ndim != 2 or z.shape[0] != labels.size:
        raise GestemoError(f"scores of shape {z.shape} for {labels.size} labels")
    b = z.shape[0]
    zs = z - z.max(axis=1, keepdims=True)
    logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    w = np.asarray(weights, dtype=np.float64)[labels]
    loss = float(-(w * logp[np.arange(b), labels]).mean())
    grad = np.exp(logp) * w[:, None]
    grad[np.arange(b), labels] -= w
    return loss, grad / b


# -- Adam --------------------------------------------------------------------------

#: Adam's moment decays and denominator offset, at the values Kingma & Ba
#: recommend (arXiv 1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_update(params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
                state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step, in place; EPS sits outside the sqrt,
    so a first step on unit gradient moves by lr / (1 + EPS)."""
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


# -- model bundle ------------------------------------------------------------------

@dataclass
class ModelParams:
    """All trainable tensors, one {name: array} dict per branch part; flat()
    merges them and shares their arrays, so in-place updates reach both."""

    snn: Optional[Dict[str, np.ndarray]] = None
    lstm: Optional[Dict[str, np.ndarray]] = None
    head: Optional[Dict[str, np.ndarray]] = None

    def flat(self) -> Dict[str, np.ndarray]:
        return {**(self.snn or {}), **(self.lstm or {}), **(self.head or {})}


def init_model(arch: SnnArchitecture, feature_dim: int, *, hidden: int = 128,
               head_mid: int = 64, seed: int = 0,
               branch: str = "fused") -> ModelParams:
    """Seeded init of whichever branches the mode requires."""
    check_option("branch", branch)
    ss = np.random.SeedSequence(seed).spawn(3)
    seeds = [int(s.generate_state(1)[0]) for s in ss]
    model = ModelParams()
    if branch != "video_only":
        model.snn = init_params(arch, seeds[0])
    if branch != "snn_only":
        model.lstm = init_recurrent_params(feature_dim, hidden, seeds[1])
        model.head = init_head_params(hidden, head_mid, arch.num_classes, seeds[2])
    return model


# -- dataset tensors ---------------------------------------------------------------

@dataclass
class TrainData:
    """Stacked per-sample tensors ready for the training loop.

    label_space lists the classes in index order; entries are GestureClass
    for the 9-way gesture target or EmotionClass for the default 3-way
    emotion target.
    """

    planes: Optional[np.ndarray]      # (N, K, 2, H, W) or None; uint8 0/1
                                      # for clip01, else float64
    features: Optional[np.ndarray]    # (N, T, D) float64 or None
    labels: np.ndarray                # (N,) int64 indices into label_space
    label_space: Tuple = LABELED_GESTURES

    def __post_init__(self):
        n = self.labels.shape[0]
        if self.planes is not None and self.planes.shape[0] != n:
            raise GestemoError(f"{self.planes.shape[0]} plane stacks vs {n} labels")
        if self.features is not None and self.features.shape[0] != n:
            raise GestemoError(f"{self.features.shape[0]} feature stacks vs {n} labels")
        if self.planes is None and self.features is None:
            raise GestemoError("need planes or features")

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def prepare_tensors(samples: Sequence[SampleRecord], k: int, *,
                    downsample: int = 1, scale_mode: str = "clip01",
                    frame_limit: int = DEFAULT_FRAME_LIMIT, target: str = "gesture",
                    label_space: Optional[Sequence] = None,
                    branch: str = "fused") -> TrainData:
    """Encode every sample to fixed-shape tensors.

    target selects the class set: "gesture" labels by gesture (label_space
    defaults to the nine named gestures), "emotion" collapses each gesture
    to its emotion (3 classes).  Samples outside the label space — notably
    the catch-all gesture class — are skipped.  Planes are always encoded,
    since the architecture is sized from them; frame features are read
    unless branch is "snn_only".
    """
    check_option("target", target)
    check_option("branch", branch)
    with_features = branch != "snn_only"
    if label_space is None:
        label_space = (LABELED_GESTURES if target == "gesture"
                       else tuple(EmotionClass))
    label_space = tuple(label_space)
    index = {g: i for i, g in enumerate(label_space)}
    planes_list: List[np.ndarray] = []
    feats_list: List[np.ndarray] = []
    labels: List[int] = []
    for s in samples:
        key = s.gesture if target == "gesture" else emotion_of(s.gesture)
        if key not in index:
            continue
        labels.append(index[key])
        p = dense_spike_planes(s.events, k, factor=downsample)
        planes_list.append(scale_planes(p, scale_mode))
        if with_features:
            if s.features is None:
                raise GestemoError(f"sample {s.id}: no frame features")
            feats_list.append(s.features.normalized(frame_limit))
    if not labels:
        raise GestemoError("no samples with labels in the requested space")
    shapes = {p.shape for p in planes_list}
    if len(shapes) > 1:
        raise GestemoError(f"inconsistent plane shapes: {sorted(shapes)}")
    planes = np.stack(planes_list)
    feats = None
    if with_features:
        dims = {f.shape for f in feats_list}
        if len(dims) > 1:
            raise GestemoError(f"inconsistent feature shapes: {sorted(dims)}")
        feats = np.stack(feats_list)
    return TrainData(planes, feats, np.asarray(labels, dtype=np.int64), label_space)


# -- training loop -----------------------------------------------------------------

#: an epoch loss above this, or a non-finite one, stops training as diverged
DIVERGE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-3
    seed: int = 0
    branch: str = "fused"
    mode: str = "joint"
    lam: float = 1.0
    batch_size: int = 0          # 0 means full batch
    dropout: float = 0.5         # head dropout rate while training
    surrogate_width: float = DEFAULT_SURROGATE_WIDTH

    def __post_init__(self):
        for f in fields(self):
            check_option(f.name, getattr(self, f.name))


def _check_loss(loss: float, epoch: int) -> None:
    if not np.isfinite(loss) or abs(loss) > DIVERGE_LIMIT:
        raise DivergedLossError(f"loss {loss} at epoch {epoch} is out of bounds")


def _batch_gradients(data: TrainData, idx: np.ndarray, model: ModelParams,
                     arch: SnnArchitecture, lif_cfg: LifConfig, cfg: TrainConfig,
                     weights: np.ndarray, rng: np.random.Generator, sums
                     ) -> Tuple[float, float, Dict[str, np.ndarray]]:
    """(mse, wce, gradients) of one batch: the event part's spike-rate MSE
    on s_dg, and the frame part's weighted cross entropy on its scores,
    which are fused with s_dg when the event part runs.  The forward tapes
    are locals here, so they are freed before the caller's optimizer step.
    sums, when not None, runs the LSTM weight sums on its helper process."""
    y = data.labels[idx]
    grads: Dict[str, np.ndarray] = {}
    loss_mse = loss_wce = 0.0
    s_dg = None
    if cfg.branch != "video_only":
        s_dg, tape = snn_forward(
            data.planes[idx], model.snn, arch, lif_cfg,
            surrogate_width=cfg.surrogate_width, record=True)
        loss_mse, d_sdg = mse_spike_loss(s_dg, y)
    if cfg.branch != "snn_only":
        h, rtape = recurrent_forward(data.features[idx], model.lstm, record=True)
        logits, htape = head_forward(h, model.head, rng=rng, dropout=cfg.dropout,
                                     record=True)
        scores = logits if s_dg is None else fuse(s_dg, logits, FusionConfig(cfg.lam))
        loss_wce, d_scores = weighted_cross_entropy(scores, y, weights)
        if s_dg is not None:
            d_sdg = d_sdg + d_scores
            d_scores = cfg.lam * d_scores
        hg, d_h = head_backward(htape, d_scores, model.head)
        grads.update(hg)
        grads.update(recurrent_backward(rtape, d_h, model.lstm, sums))
    if s_dg is not None:
        grads.update(snn_backward_from_output(tape, d_sdg, model.snn))
    return loss_mse, loss_wce, grads


@contextlib.contextmanager
def _model_call(data: TrainData, model: ModelParams, branch: str,
                split: str) -> Iterator[None]:
    """Refuse an empty split and a branch whose parameters or inputs are
    missing, then run the block with numpy's overflow, invalid value and
    division by zero raising and each loaded OpenBLAS on one thread, for
    the whole process, giving back the caller's count after.  OpenBLAS
    splits a GEMM's sums over its threads, so the last bits of the SNN's
    weight gradients, and with them a checkpoint's bytes, would depend on
    the thread count; the SNN and the LSTM spread their own work over the
    cores instead."""
    if len(data) == 0:
        raise GestemoError(f"{split} split is empty")
    check_option("branch", branch)
    event, frame = branch != "video_only", branch != "snn_only"
    if event and model.snn is None or frame and None in (model.lstm, model.head):
        raise GestemoError(f"model has no parameters for branch {branch!r}")
    if event and data.planes is None or frame and data.features is None:
        raise GestemoError(f"data has no inputs for branch {branch!r}")
    pins = [(_openblas_fn(lib, "set_num_threads", None, ctypes.c_int),
             _openblas_fn(lib, "get_num_threads", ctypes.c_int))
            for lib in _openblas_libs()]
    pins = [(set_threads, get()) for set_threads, get in pins if set_threads and get]
    for set_threads, _ in pins:
        set_threads(1)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    finally:
        for set_threads, count in pins:
            set_threads(count)


def _train_joint(data: TrainData, model: ModelParams, arch: SnnArchitecture,
                 lif_cfg: LifConfig, cfg: TrainConfig,
                 log: Optional[Callable[[str], None]]) -> List[dict]:
    n = len(data)
    weights = class_weights(data.labels, arch.num_classes)
    params = model.flat()
    state = AdamState()
    rng = np.random.default_rng(cfg.seed)
    batch = n if cfg.batch_size <= 0 else min(cfg.batch_size, n)
    history: List[dict] = []
    # the frame part's weight sums on a helper process, forked for this call
    frame_sums = contextlib.nullcontext() if cfg.branch == "snn_only" \
        else _weight_sums(batch, data.features.shape[1], model.lstm)
    with frame_sums as sums:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            totals = np.zeros(3)   # loss, mse, wce, each summed over the samples
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                loss_mse, loss_wce, grads = _batch_gradients(
                    data, idx, model, arch, lif_cfg, cfg, weights, rng, sums)
                adam_update(params, grads, state, cfg.lr)
                del grads   # freed before the next batch's forward, like the tapes
                totals += np.array([loss_mse + loss_wce, loss_mse, loss_wce]) * idx.size
            loss, mse, wce = (totals / n).tolist()
            _check_loss(loss, epoch)
            history.append({"epoch": epoch, "branch": cfg.branch,
                            "loss": loss, "mse": mse, "wce": wce})
            if log is not None:
                log(f"epoch {epoch:3d} [{cfg.branch}] loss {loss:.6f}")
    return history


def train(data: TrainData, model: ModelParams, arch: SnnArchitecture,
          lif_cfg: LifConfig = LifConfig(), cfg: TrainConfig = TrainConfig(),
          log: Optional[Callable[[str], None]] = None) -> List[dict]:
    """Fit the model in place and return the per-epoch loss history; log,
    when given, is called with one line per epoch as the epoch ends.  An
    overflow, invalid value or division by zero in the arithmetic is
    reported as divergence, like an out-of-bounds loss.  A loaded OpenBLAS
    runs on one thread for the call."""
    runs = [cfg]
    if cfg.branch == "fused" and cfg.mode == "separate":
        children = np.random.SeedSequence(cfg.seed).spawn(2)
        runs = [replace(cfg, branch=branch, seed=int(s.generate_state(1)[0]))
                for branch, s in zip(("snn_only", "video_only"), children)]
    try:
        with _model_call(data, model, cfg.branch, "training"):
            return [entry for run in runs
                    for entry in _train_joint(data, model, arch, lif_cfg, run, log)]
    except FloatingPointError as e:
        raise DivergedLossError(f"{e} during training") from None


# -- evaluation and metrics ---------------------------------------------------------

def scores_for(data: TrainData, model: ModelParams, arch: SnnArchitecture,
               lif_cfg: LifConfig = LifConfig(), *, branch: str = "fused",
               lam: float = 1.0) -> np.ndarray:
    """Class scores for every sample, eval mode (no dropout, binary spikes).
    An overflow, invalid value or division by zero in the arithmetic
    raises FloatingPointError instead of giving scores computed from it.
    A loaded OpenBLAS runs on one thread for the call."""
    s_dg = scores = None
    with _model_call(data, model, branch, "evaluation"):
        if branch != "video_only":
            s_dg = scores = snn_forward(data.planes, model.snn, arch, lif_cfg)
        if branch != "snn_only":
            logits = head_forward(recurrent_forward(data.features, model.lstm),
                                  model.head)
            scores = logits if s_dg is None else fuse(s_dg, logits, FusionConfig(lam))
    return scores


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """Rows are true classes, columns predicted."""
    t = np.asarray(y_true, dtype=np.int64).reshape(-1)
    p = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if t.size != p.size:
        raise GestemoError(f"{t.size} true vs {p.size} predicted")
    if t.size and (t.min() < 0 or t.max() >= num_classes
                   or p.min() < 0 or p.max() >= num_classes):
        raise GestemoError(f"labels outside [0,{num_classes})")
    flat = np.bincount(t * num_classes + p, minlength=num_classes * num_classes)
    return flat.reshape(num_classes, num_classes)


@dataclass(frozen=True)
class MetricsReport:
    """Support-weighted precision/recall/F1 over a confusion matrix.

    Weighted recall coincides with accuracy: sum_c (n_c/T) * (TP_c/n_c)
    = (1/T) sum_c TP_c.
    """

    confusion: np.ndarray
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float

    @classmethod
    def from_confusion(cls, cm: np.ndarray) -> "MetricsReport":
        cm = np.asarray(cm, dtype=np.int64)
        if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
            raise GestemoError(f"confusion matrix must be square, got {cm.shape}")
        total = cm.sum()
        if total == 0:
            raise GestemoError("empty confusion matrix")
        tp = np.diag(cm).astype(np.float64)
        support = cm.sum(axis=1).astype(np.float64)
        predicted = cm.sum(axis=0).astype(np.float64)
        precision = np.divide(tp, predicted, out=np.zeros_like(tp),
                              where=predicted > 0)
        recall = np.divide(tp, support, out=np.zeros_like(tp), where=support > 0)
        pr = precision + recall
        f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(tp),
                       where=pr > 0)
        frac = support / total
        return cls(
            confusion=cm,
            accuracy=float(tp.sum() / total),
            precision=precision,
            recall=recall,
            f1=f1,
            support=support.astype(np.int64),
            weighted_precision=float((frac * precision).sum()),
            weighted_recall=float((frac * recall).sum()),
            weighted_f1=float((frac * f1).sum()),
        )

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray,
                         num_classes: int) -> "MetricsReport":
        return cls.from_confusion(confusion_matrix(y_true, y_pred, num_classes))

    def to_dict(self, names: Optional[Sequence[str]] = None) -> dict:
        c = self.confusion.shape[0]
        names = list(names) if names is not None else [str(i) for i in range(c)]
        return {
            "accuracy": self.accuracy,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "per_class": {
                names[i]: {
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "support": int(self.support[i]),
                }
                for i in range(c)
            },
            "confusion": self.confusion.tolist(),
        }


def evaluate(data: TrainData, model: ModelParams, arch: SnnArchitecture,
             lif_cfg: LifConfig = LifConfig(), *, branch: str = "fused",
             lam: float = 1.0) -> Tuple[MetricsReport, np.ndarray]:
    """Returns (metrics, scores); predictions are the argmax of scores."""
    scores = scores_for(data, model, arch, lif_cfg, branch=branch, lam=lam)
    preds = predict(scores)
    report = MetricsReport.from_predictions(data.labels, preds, arch.num_classes)
    return report, scores


def emotion_report(data: TrainData, y_pred: np.ndarray) -> Tuple[MetricsReport, Tuple[str, ...]]:
    """Score gesture predictions at emotion level: the emotion confusion
    matrix is the gesture one summed over each emotion's gestures.
    Requires gesture-level labels."""
    if not all(isinstance(g, GestureClass) for g in data.label_space):
        raise GestemoError("labels are already emotion-level")
    cm = confusion_matrix(data.labels, y_pred, len(data.label_space))
    # member[g, e] is 1 where gesture g shows emotion e
    member = np.array([[emotion_of(g) is e for e in EmotionClass]
                       for g in data.label_space],
                      dtype=np.int64).reshape(-1, len(EmotionClass))
    unlabeled = member.sum(axis=1) == 0
    if cm[unlabeled].any() or cm[:, unlabeled].any():
        raise GestemoError("unlabeled gesture in emotion scoring")
    report = MetricsReport.from_confusion(member.T @ cm @ member)
    return report, tuple(e.value for e in EmotionClass)

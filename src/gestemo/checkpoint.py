"""Single-file model checkpoints.

Layout: one line of JSON (format tag, architecture, cell constants, fusion
weight, seed, tensor names and shapes, free-form extra) terminated by a
newline, then the named tensors concatenated as little-endian float64 in
the header's order.  Saving and loading round-trips bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import GestemoError, ParseError
from .fusion import FusionConfig, HeadParams, RecurrentParams
from .snn import LifConfig, SnnArchitecture
from .training import ModelParams

FORMAT_TAG = "gestemo.ckpt"
FORMAT_VERSION = 1

#: header keys every checkpoint carries beside format and version, with
#: their JSON types
_HEADER_TYPES = {"seed": int, "arch": dict, "lif": dict, "fusion": dict,
                 "label_space": list, "tensors": list, "extra": dict}

_LSTM_KEYS = ("lstm.wx", "lstm.wh", "lstm.b")
_HEAD_KEYS = ("head.w1", "head.b1", "head.w2", "head.b2")


@dataclass
class Checkpoint:
    """Everything needed to rebuild and rerun a trained model."""

    model: ModelParams
    arch: SnnArchitecture
    lif: LifConfig
    fusion: FusionConfig
    seed: int
    label_space: Tuple[str, ...]
    extra: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors = ckpt.model.flat()
    names = sorted(tensors)
    header = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "seed": int(ckpt.seed),
        "arch": ckpt.arch.to_dict(),
        "lif": ckpt.lif.to_dict(),
        "fusion": ckpt.fusion.to_dict(),
        "label_space": list(ckpt.label_space),
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
        "extra": ckpt.extra,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":"))
                .encode("utf-8"))
        f.write(b"\n")
        for n in names:
            f.write(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes())


def _is_tensor_spec(t) -> bool:
    return (isinstance(t, dict) and isinstance(t.get("name"), str)
            and isinstance(t.get("shape"), list)
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 0
                    for d in t["shape"]))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    nl = data.find(b"\n")
    if nl < 0:
        raise ParseError(f"{path}: no header line")
    try:
        header = json.loads(data[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"{path}: bad header ({e})")
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_TAG:
        raise ParseError(f"{path}: not a checkpoint file "
                         f"(format={header.get('format')!r})")
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {header.get('version')!r}")
    for key, kind in _HEADER_TYPES.items():
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ParseError(f"{path}: header key {key!r} must be a JSON "
                             f"{kind.__name__}, got {value!r}")
    if not all(map(_is_tensor_spec, header["tensors"])) \
            or not all(isinstance(v, str) for v in header["label_space"]):
        raise ParseError(f"{path}: malformed tensor list or label space in header")
    try:
        arch = SnnArchitecture.from_dict(header["arch"])
        lif = LifConfig.from_dict(header["lif"])
        fusion = FusionConfig.from_dict(header["fusion"])
    except (KeyError, TypeError, ValueError, ArithmeticError, GestemoError) as e:
        raise ParseError(f"{path}: bad model description in header ({e!r})")
    blob = data[nl + 1:]
    sizes = [int(np.prod(t["shape"], dtype=np.int64)) for t in header["tensors"]]
    if len(blob) != 8 * sum(sizes):
        raise ParseError(f"{path}: tensor block is {len(blob)} bytes, "
                         f"header promises {8 * sum(sizes)}")
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for t, n in zip(header["tensors"], sizes):
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: tensor {t['name']!r} holds non-finite values")
        arrays[t["name"]] = arr.reshape(t["shape"]).astype(np.float64, copy=True)
        offset += 8 * n
    try:
        model = _model_of(arrays, arch)
    except GestemoError as e:
        raise ParseError(f"{path}: {e}")
    return Checkpoint(model=model, arch=arch, lif=lif, fusion=fusion,
                      seed=header["seed"], label_space=tuple(header["label_space"]),
                      extra=header["extra"])


def _model_of(arrays: Dict[str, np.ndarray], arch: SnnArchitecture) -> ModelParams:
    """The branches present in arrays, each checked against the architecture
    and against the other branch's dimensions."""
    model = ModelParams()
    snn = {k: v for k, v in arrays.items() if k not in _LSTM_KEYS + _HEAD_KEYS}
    if snn:
        want = arch.param_shapes()
        for name in sorted(set(want) | set(snn)):
            got = snn[name].shape if name in snn else None
            if got != want.get(name):
                raise GestemoError(f"tensor {name!r} has shape {got}, the "
                                   f"architecture needs {want.get(name)}")
        model.snn = snn
    video = [k for k in _LSTM_KEYS + _HEAD_KEYS if k in arrays]
    if video:
        if len(video) != len(_LSTM_KEYS + _HEAD_KEYS):
            raise GestemoError(f"frame branch has only tensors {video}")
        model.lstm = RecurrentParams(*(arrays[k] for k in _LSTM_KEYS))
        model.head = HeadParams(*(arrays[k] for k in _HEAD_KEYS))
        if model.head.w1.shape[1] != model.lstm.hidden \
                or model.head.w2.shape[0] != arch.num_classes:
            raise GestemoError(
                f"head shapes {model.head.w1.shape}, {model.head.w2.shape} do not "
                f"fit {model.lstm.hidden} LSTM units and {arch.num_classes} classes")
    return model

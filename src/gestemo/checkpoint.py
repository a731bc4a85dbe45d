"""Single-file model checkpoints.

Layout: one line of JSON (format tag, architecture, cell constants, fusion
weight, seed, tensor names and shapes, free-form extra) terminated by a
newline, then the named tensors concatenated as little-endian float64 in
the header's order.  Saving and loading round-trips bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .dataio import _replaced
from .errors import GestemoError, ParseError, require_keys
from .fusion import FusionConfig, frame_shapes
from .snn import LifConfig, SnnArchitecture
from .training import ModelParams

FORMAT_TAG = "gestemo.ckpt"
FORMAT_VERSION = 1

#: header keys every checkpoint carries beside format and version, with
#: their JSON types
_HEADER_TYPES = {"seed": int, "arch": dict, "lif": dict, "fusion": dict,
                 "label_space": list, "tensors": list, "extra": dict}


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
    """Write ckpt to path through <path>.tmp, so a failed write leaves any
    checkpoint already at path as it was."""
    tensors = ckpt.model.flat()
    names = sorted(tensors)
    header = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "seed": int(ckpt.seed),
        "arch": ckpt.arch.to_dict(),
        "lif": dataclasses.asdict(ckpt.lif),
        "fusion": dataclasses.asdict(ckpt.fusion),
        "label_space": list(ckpt.label_space),
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
        "extra": ckpt.extra,
    }
    with _replaced(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":"))
                .encode("utf-8"))
        f.write(b"\n")
        for n in names:
            f.write(np.ascontiguousarray(tensors[n], dtype="<f8").tobytes())


def _is_tensor_spec(t) -> bool:
    return (isinstance(t, dict) and isinstance(t.get("name"), str)
            and isinstance(t.get("shape"), list)
            and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                    for d in t["shape"]))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        line = f.readline()
        if not line.endswith(b"\n"):
            raise ParseError(f"{path}: no header line")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
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
            lif = LifConfig(**require_keys(header["lif"], LifConfig))
            fusion = FusionConfig(**require_keys(header["fusion"], FusionConfig))
        except (KeyError, TypeError, ValueError, ArithmeticError, GestemoError) as e:
            raise ParseError(f"{path}: bad model description in header ({e!r})")
        sizes = [math.prod(t["shape"]) for t in header["tensors"]]
        promised = 8 * sum(sizes)
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode):
            # a regular file's size is known before anything is allocated:
            # one read into one buffer, whose views become the tensors
            size = st.st_size - len(line)
            if size == promised:
                blob = np.empty(sum(sizes), dtype="<f8")
                size = f.readinto(blob)
        else:   # a pipe tells its size only once it is read
            data = bytearray(f.read())
            size = len(data)
            if size == promised:
                blob = np.frombuffer(data, dtype="<f8")
    if size != promised:
        raise ParseError(f"{path}: tensor block is {size} bytes, "
                         f"header promises {promised}")
    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for t, n in zip(header["tensors"], sizes):
        arr = blob[offset:offset + n]
        if not np.isfinite(arr).all():
            raise ParseError(f"{path}: tensor {t['name']!r} holds non-finite values")
        arrays[t["name"]] = arr.reshape(t["shape"]).astype(np.float64, copy=False)
        offset += n
    try:
        model = _model_of(arrays, arch)
    except GestemoError as e:
        raise ParseError(f"{path}: {e}")
    return Checkpoint(model=model, arch=arch, lif=lif, fusion=fusion,
                      seed=header["seed"], label_space=tuple(header["label_space"]),
                      extra=header["extra"])


def _model_of(arrays: Dict[str, np.ndarray], arch: SnnArchitecture) -> ModelParams:
    """The branches present in arrays, split by name prefix, with every
    tensor's shape checked against the architecture's param_shapes() and,
    for a frame branch, frame_shapes() at the sizes its lstm.wx and head.w1
    state."""
    lstm = {k: v for k, v in arrays.items() if k.startswith("lstm.")}
    head = {k: v for k, v in arrays.items() if k.startswith("head.")}
    snn = {k: v for k, v in arrays.items() if k not in lstm and k not in head}
    want = arch.param_shapes() if snn else {}
    if lstm or head:
        wx, w1 = lstm.get("lstm.wx"), head.get("head.w1")
        if wx is None or w1 is None or wx.ndim != 2 or wx.shape[0] % 4 \
                or w1.ndim != 2:
            raise GestemoError(
                "frame branch needs a (4H, D) 'lstm.wx' and an (M, H) 'head.w1', "
                f"got {({k: arrays[k].shape for k in sorted({**lstm, **head})})}")
        want.update(frame_shapes(wx.shape[1], wx.shape[0] // 4, w1.shape[0],
                                 arch.num_classes))
    for name in [*want, *sorted(set(arrays) - set(want))]:
        got = arrays[name].shape if name in arrays else None
        if got != want.get(name):
            raise GestemoError(f"tensor {name!r} has shape {got}, the "
                               f"architecture needs {want.get(name)}")
    return ModelParams(snn=snn or None, lstm=lstm or None, head=head or None)

import json

import numpy as np
import pytest

from gestemo.checkpoint import (
    FORMAT_TAG,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from gestemo.errors import ParseError
from gestemo.fusion import FusionConfig
from gestemo.snn import Conv, Dense, LifConfig, Pool, SnnArchitecture
from gestemo.training import ModelParams, init_model

ARCH = SnnArchitecture(
    layers=(Conv(2, 4, 3), Pool(2), Dense(36, 3)),
    input_shape=(2, 8, 8),
    num_classes=3,
)


def make_checkpoint(branch="fused", seed=4):
    model = init_model(ARCH, feature_dim=5, hidden=6, head_mid=4, seed=seed,
                       branch=branch)
    return Checkpoint(
        model=model,
        arch=ARCH,
        lif=LifConfig(beta=0.85, theta=1.1, reset="subtract_theta"),
        fusion=FusionConfig(lam=0.75),
        seed=seed,
        label_space=("Neutral", "Negative", "Positive"),
        extra={"note": "round trip", "k": 12},
    )


def test_round_trip_preserves_everything(tmp_path):
    ckpt = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.arch == ckpt.arch
    assert back.lif == ckpt.lif
    assert back.fusion == ckpt.fusion
    assert back.seed == 4
    assert back.label_space == ckpt.label_space
    assert back.extra == ckpt.extra
    a, b = ckpt.model.flat(), back.model.flat()
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name])
        assert b[name].dtype == np.float64


def test_save_load_save_bit_identical(tmp_path):
    ckpt = make_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("branch", ["snn_only", "video_only"])
def test_single_branch_checkpoints(tmp_path, branch):
    ckpt = make_checkpoint(branch=branch)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    if branch == "snn_only":
        assert back.model.snn is not None
        assert back.model.lstm is None and back.model.head is None
    else:
        assert back.model.snn is None
        assert back.model.lstm is not None and back.model.head is not None
    a, b = ckpt.model.flat(), back.model.flat()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_header_is_single_json_line(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    header_line = path.read_bytes().split(b"\n", 1)[0]
    header = json.loads(header_line)
    assert header["format"] == FORMAT_TAG
    assert [t["name"] for t in header["tensors"]] == \
        sorted(t["name"] for t in header["tensors"])


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"format":"something.else","version":1}\n')
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(
        b'{"format":"gestemo.ckpt","version":99,"tensors":[]}\n')
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_rejects_truncated_blob(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_rejects_missing_header_newline(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"format":"gestemo.ckpt"}')
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_rejects_non_json_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not json at all\nrest")
    with pytest.raises(ParseError):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply edit to the saved header dict and write it back with the blob."""
    head, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


#: header edits, each with a fragment of the message of the check that
#: must refuse it
HEADER_EDITS = {
    **{f"no_{key}": ((lambda h, key=key: h.pop(key)), f"header key '{key}' must be")
       for key in ("arch", "lif", "fusion", "seed", "label_space", "tensors",
                   "extra")},
    "arch_list": (lambda h: h.update(arch=[1, 2]), "'arch' must be a JSON dict"),
    "seed_str": (lambda h: h.update(seed="4"), "'seed' must be a JSON int, got '4'"),
    "seed_bool": (lambda h: h.update(seed=True), "'seed' must be a JSON int, got True"),
    "extra_null": (lambda h: h.update(extra=None), "'extra' must be a JSON dict"),
    "label_int": (lambda h: h.update(label_space=[1, 2, 3]),
                  "malformed tensor list or label space"),
    "tensor_no_shape": (lambda h: h.update(tensors=[{"name": "x"}]),
                        "malformed tensor list or label space"),
    "tensor_negative_dim": (lambda h: h["tensors"][0].update(shape=[-1]),
                            "malformed tensor list or label space"),
    "arch_no_layers": (lambda h: h["arch"].pop("layers"), r"KeyError\('layers'\)"),
    "arch_bad_kind": (lambda h: h["arch"]["layers"][0].update(kind="lstm"),
                      r"KeyError\('lstm'\)"),
    "lif_unknown_key": (lambda h: h["lif"].update(leak=0.5),
                        "unexpected keyword argument 'leak'"),
    "lif_bad_beta": (lambda h: h["lif"].update(beta=2.0),
                     r"lif_beta must be in \(0, 1\], got 2.0"),
    "lif_theta_nan": (lambda h: h["lif"].update(theta=float("nan")),
                      "lif_theta must be finite and > 0, got nan"),
    "lif_missing_theta": (lambda h: h["lif"].pop("theta"), "missing keys theta"),
    "fusion_empty": (lambda h: h.update(fusion={}), "missing keys lam"),
    "fusion_lam_str": (lambda h: h["fusion"].update(lam="1"),
                       "lam must be finite and >= 0, got '1'"),
    "arch_float_kernel": (lambda h: h["arch"]["layers"][0].update(kernel=3.0),
                          "architecture sizes must be integers >= 1, got 3.0"),
    "arch_zero_stride": (lambda h: h["arch"]["layers"][0].update(stride=0),
                         "architecture sizes must be integers >= 1, got 0"),
    "arch_max_pool": (lambda h: h["arch"]["layers"][1].update(mode="max"),
                      "pool mode must be sum"),
    "fc_transposed": (lambda h: tensor_spec(h, "fc2.w")["shape"].reverse(),
                      r"tensor 'fc2.w' has shape \(36, 3\), the architecture "
                      r"needs \(3, 36\)"),
    "head_w1_transposed": (lambda h: tensor_spec(h, "head.w1")["shape"].reverse(),
                           "head bias shapes inconsistent with weights"),
    "unknown_tensor": (lambda h: tensor_spec(h, "conv0.b").update(name="conv9.b"),
                       "tensor 'conv0.b' has shape None"),
}


def tensor_spec(header, name):
    return next(t for t in header["tensors"] if t["name"] == name)


@pytest.mark.parametrize("edit", sorted(HEADER_EDITS))
def test_rejects_missing_or_mistyped_header_keys(tmp_path, edit):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    change, message = HEADER_EDITS[edit]
    rewrite_header(path, change)
    with pytest.raises(ParseError, match=message):
        load_checkpoint(path)


def test_rejects_non_object_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"[1, 2]\n")
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_rejects_head_that_does_not_fit_the_lstm_or_classes(tmp_path):
    model = init_model(ARCH, feature_dim=5, hidden=6, head_mid=4, seed=0)
    other = init_model(ARCH, feature_dim=5, hidden=7, head_mid=4, seed=0)
    ckpt = make_checkpoint()
    ckpt.model = ModelParams(snn=model.snn, lstm=model.lstm, head=other.head)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(ParseError, match="do not fit 6 LSTM units and 3 classes"):
        load_checkpoint(path)


def test_rejects_partial_frame_branch(tmp_path):
    ckpt = make_checkpoint()
    ckpt.model = ModelParams(snn=ckpt.model.snn, lstm=ckpt.model.lstm)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(ParseError, match="frame branch has only tensors"):
        load_checkpoint(path)

"""End-to-end command tests driven through main(); every command writes
into tmp_path and assertions read the produced files back."""

import contextlib
import copy
import filecmp
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gestemo.checkpoint import load_checkpoint
from gestemo.cli import TRAIN_DEFAULTS, main
from gestemo.dataio import (FrameFeatureSequence, read_manifest, read_planes_file,
                            write_events_file, write_feature_file)
from gestemo.errors import CHOICES
from gestemo.encode import dense_spike_planes, downsample_planes
from gestemo.events import EventStream, Geometry, GestureClass, StreamSpec, synth_stream
from gestemo.synth import DatasetSpec, build_dataset

TINY = [
    "--per-class", "2", "--gestures", "ok,no,victory",
    "--width", "16", "--height", "16", "--duration-us", "50000",
    "--min-events", "30", "--max-events", "40",
    "--min-frames", "3", "--max-frames", "5", "--feature-dim", "3",
]

FAST_TRAIN = ["--epochs", "1", "--k", "3", "--hidden", "4", "--head-mid", "4",
              "--frame-limit", "5"]


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["transcode"]) == 1


def test_bad_flag_value_is_usage_error(capsys):
    assert main(["encode", "x.csv", "--k", "twelve"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_synth_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["synth", a, "--seed", "3", *TINY]) == 0
    assert main(["synth", b, "--seed", "3", *TINY]) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert set(ta) == set(tb)
    for rel in ta:
        if rel == "manifest.json":
            # root path differs; compare parsed entries instead
            ma, mb = json.loads(ta[rel]), json.loads(tb[rel])
            assert ma["entries"] == mb["entries"]
        else:
            assert ta[rel] == tb[rel], rel
    out = capsys.readouterr().out
    assert "6 samples" in out and "3 train / 3 test" in out


def test_synth_rejects_unknown_gesture(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "d"), "--gestures", "wave"]) == 1
    assert "bad gesture list" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--per-class", "0", "at least one gesture and one sample per class"),
    ("--width", "0", "geometry must be positive"),
    ("--duration-us", "-1", "duration_us must be >= 0, got -1"),
    ("--train-fraction", "nan", "train_fraction must be in (0, 1), got nan"),
])
def test_synth_bad_flag_value_is_usage_error(tmp_path, flag, value, message):
    out = tmp_path / "d"
    code, _, err = run_main("synth", str(out), *TINY, flag, value)
    assert code == 1 and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_align_end_to_end(tmp_path, capsys):
    g = Geometry(8, 8)
    stream = EventStream.from_arrays([10, 20, 30], [1, 2, 3], [0, 0, 0],
                                     [1, 0, 1], g)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    tags = tmp_path / "tags.txt"
    tags.write_text("5\n22\n99\n")
    out = tmp_path / "aligned"
    assert main(["align", str(ev), str(tags), "--out", str(out)]) == 0
    positions = (out / "positions.csv").read_text().splitlines()
    assert positions[0] == "tag,index,time"
    assert positions[1] == "5,0,10"    # clamped below
    assert positions[2] == "22,1,20"   # tolerance escalation
    assert positions[3] == "99,2,30"   # clamped above
    segs = sorted(os.listdir(out / "segments"))
    assert segs == ["000.csv", "001.csv", "002.csv", "003.csv"]
    assert "conserved=yes" in capsys.readouterr().out


def test_align_missing_tags_file(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 1000, 5), 0), ev)
    assert main(["align", str(ev), str(tmp_path / "nope.txt")]) == 1


def test_align_non_integer_tags(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 1000, 5), 0), ev)
    tags = tmp_path / "tags.txt"
    tags.write_text("12.5\n")
    assert main(["align", str(ev), str(tags)]) == 2
    assert capsys.readouterr().err == f"error: {tags}:1: non-integer value '12.5'\n"


def test_align_tag_outside_int64_is_one_line_data_error(tmp_path):
    ev = tmp_path / "events.csv"
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 1000, 5), 0), ev)
    tags = tmp_path / "tags.txt"
    tags.write_text("10\n\n99999999999999999999\n")
    code, out, err = run_main("align", str(ev), str(tags),
                              "--out", str(tmp_path / "a"))
    assert code == 2 and out == ""
    assert err == f"error: {tags}:3: integer value outside the int64 range\n"


def test_encode_header_size_outside_int64_is_one_line_data_error(tmp_path):
    ev = tmp_path / "events.csv"
    ev.write_text("t,x,y,p geometry=4x11111111111111111111\n0,1,1,1\n")
    code, out, err = run_main("encode", str(ev), "--out", str(tmp_path / "p.txt"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {ev}:1: event header ") and err.count("\n") == 1


def test_encode_default_k(tmp_path, capsys):
    stream = synth_stream(StreamSpec(Geometry(12, 10), 80_000, 200), seed=9)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    out = tmp_path / "planes.txt"
    assert main(["encode", str(ev), "--out", str(out)]) == 0
    assert "K=12" in capsys.readouterr().out
    back = read_planes_file(out)
    assert np.array_equal(back.counts, dense_spike_planes(stream, 12).counts)


def test_encode_reports_conservation(tmp_path, capsys):
    stream = synth_stream(StreamSpec(Geometry(12, 10), 80_000, 50), seed=1)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    assert main(["encode", str(ev), "--out", str(tmp_path / "p.txt"),
                 "--k", "5", "--downsample", "2"]) == 0
    assert "conserved=yes" in capsys.readouterr().out


def test_encode_downsample_equals_pooled_full_planes(tmp_path, capsys):
    stream = synth_stream(StreamSpec(Geometry(12, 10), 80_000, 50), seed=1)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    assert main(["encode", str(ev), "--out", str(tmp_path / "p.txt"),
                 "--k", "5", "--downsample", "3"]) == 0
    want = downsample_planes(dense_spike_planes(stream, 5), 3)
    back = read_planes_file(tmp_path / "p.txt")
    assert back.geometry == want.geometry
    assert np.array_equal(back.counts, want.counts)


def test_downsample_below_one_is_usage_error(tmp_path, capsys):
    stream = synth_stream(StreamSpec(Geometry(12, 10), 80_000, 50), seed=1)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    assert main(["encode", str(ev), "--out", str(tmp_path / "p.txt"),
                 "--downsample", "0"]) == 1
    manifest = small_corpus(tmp_path)
    assert main(["train", manifest, *FAST_TRAIN, "--downsample", "-3",
                 "--out", str(tmp_path / "m.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "downsample must be >= 1, got 0" in err
    assert "downsample must be >= 1, got -3" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_encode_clip01_planes_are_binary(tmp_path, capsys):
    stream = synth_stream(StreamSpec(Geometry(6, 6), 80_000, 300), seed=2)
    ev = tmp_path / "events.csv"
    write_events_file(stream, ev)
    out = tmp_path / "p.txt"
    assert main(["encode", str(ev), "--out", str(out), "--k", "2",
                 "--scale-mode", "clip01"]) == 0
    assert "conserved=n/a" in capsys.readouterr().out
    assert set(np.unique(read_planes_file(out).counts)) <= {0, 1}


def test_encode_bad_k_is_usage_error(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 1000, 5), 0), ev)
    assert main(["encode", str(ev), "--out", str(tmp_path / "p.txt"),
                 "--k", "0"]) == 1
    assert capsys.readouterr().err == "k must be >= 1, got 0\n"
    assert not (tmp_path / "p.txt").exists()


def test_encode_rejects_lossy_scale_for_files(tmp_path, capsys):
    ev = tmp_path / "events.csv"
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 1000, 5), 0), ev)
    assert main(["encode", str(ev), "--out", str(tmp_path / "p.txt"),
                 "--scale-mode", "divide_by_max"]) == 1


def small_corpus(tmp_path, seed=0):
    spec = DatasetSpec(
        gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
        per_class=3, geometry=Geometry(16, 16), duration_us=50_000,
        min_events=30, max_events=40, min_frames=3, max_frames=5,
        feature_dim=3)
    root = tmp_path / "data"
    build_dataset(root, spec, seed=seed)
    return str(root / "manifest.json")


def test_stats_outputs(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    out = tmp_path / "stats"
    assert main(["stats", manifest, "--out", str(out)]) == 0
    doc = json.loads((out / "stats.json").read_text())
    assert doc["n_samples"] == 9
    assert doc["class_counts"]["ok"] == 3
    assert doc["class_counts"]["kill"] == 0
    for name in ("frame_hist.csv", "class_counts.csv", "time_sum.csv",
                 "polarity_box.csv"):
        assert (out / name).exists()
    counts_lines = (out / "class_counts.csv").read_text().splitlines()
    assert len(counts_lines) == 11  # header + all ten classes


def test_stats_deterministic_rerun(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["stats", manifest, "--out", str(o1)]) == 0
    assert main(["stats", manifest, "--out", str(o2)]) == 0
    assert filecmp.cmp(o1 / "stats.json", o2 / "stats.json", shallow=False)


def test_stats_skips_corrupt_sample(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    m = read_manifest(manifest)
    bad = m.path_of(m.entries[0].events)
    with open(bad, "w") as f:
        f.write("t,x,y,p\ngarbage,1,2,3\n")
    out = tmp_path / "stats"
    assert main(["stats", manifest, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "skipping sample" in err
    doc = json.loads((out / "stats.json").read_text())
    assert doc["n_samples"] == 8


def test_stats_all_unreadable_is_data_error(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    m = read_manifest(manifest)
    for e in m.entries:
        os.remove(m.path_of(e.events))
    assert main(["stats", manifest, "--out", str(tmp_path / "s")]) == 2


def test_train_eval_round_trip(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN,
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "epoch   0" in out and "saved checkpoint" in out
    loaded = load_checkpoint(ckpt)
    assert loaded.label_space == ("Neutral", "Negative", "Positive")
    assert loaded.extra["target"] == "emotion"
    metrics = tmp_path / "metrics.json"
    assert main(["eval", str(ckpt), manifest, "--split", "test",
                 "--out", str(metrics)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("split=test target=emotion branch=fused n=3")
    assert any(l.startswith("accuracy") for l in lines)
    doc = json.loads(metrics.read_text())
    assert set(doc["per_class"]) == {"Neutral", "Negative", "Positive"}
    assert doc["split"] == "test"


def test_train_gesture_target(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN,
                 "--target", "gesture"]) == 0
    loaded = load_checkpoint(ckpt)
    assert loaded.label_space == ("ok", "no", "victory")
    capsys.readouterr()
    assert main(["eval", str(ckpt), manifest]) == 0
    out = capsys.readouterr().out
    assert "emotion accuracy" in out  # gesture scores also roll up


def test_train_single_branch_eval_override(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN,
                 "--branch", "video_only"]) == 0
    capsys.readouterr()
    assert main(["eval", str(ckpt), manifest, "--split", "train"]) == 0
    assert "branch=video_only" in capsys.readouterr().out
    assert main(["eval", str(ckpt), manifest, "--branch", "fused"]) == 2
    assert capsys.readouterr().err == \
        "error: model has no parameters for branch 'fused'\n"


def test_train_twice_same_seed_identical_checkpoints(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    args = ["train", manifest, *FAST_TRAIN, "--seed", "7"]
    assert main([*args, "--out", str(c1)]) == 0
    assert main([*args, "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_train_config_file_merging(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 1, "k": 3, "hidden": 4,
                               "head_mid": 4, "frame_limit": 5, "lr": 0.01}))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt),
                 "--config", str(cfg), "--epochs", "2"]) == 0
    extra = load_checkpoint(ckpt).extra
    assert extra["epochs"] == 2  # explicit flag beats config file
    assert extra["k"] == 3       # config beats default


def test_train_config_unknown_key(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epoch": 1}))
    assert main(["train", manifest, "--config", str(cfg),
                 "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_train_config_invalid_json(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text("{not json")
    assert main(["train", manifest, "--config", str(cfg),
                 "--out", str(tmp_path / "m.ckpt")]) == 1


def run_cli(*args, module="gestemo.cli"):
    """Run the command line in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["gestemo.cli"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env)


def test_train_config_bad_value_type_is_usage_error(tmp_path):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": "abc"}))
    proc = run_cli("train", manifest, "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().endswith("epochs must be int, got 'abc'")


@pytest.mark.parametrize("doc", [
    {"k": 1.5}, {"epochs": True}, {"hidden": 64.0}, {"lr": True},
    {"lam": False}, {"scale_mode": 1}, {"target": None}, {"branch": ["fused"]},
])
def test_train_config_wrong_json_type_is_usage_error(tmp_path, capsys, doc):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "m.ckpt"
    assert main(["train", manifest, *FAST_TRAIN, "--config", str(cfg),
                 "--out", str(out)]) == 1
    (key, value), = doc.items()
    kind = type(TRAIN_DEFAULTS[key]).__name__
    err = capsys.readouterr().err
    assert err.endswith(f"{key} must be {kind}, got {value!r}\n")
    assert err.count("\n") == 1 and not out.exists()


def test_train_config_int_stands_for_float(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"lam": 2, "dropout": 0}))
    out = tmp_path / "m.ckpt"
    assert main(["train", manifest, *FAST_TRAIN, "--config", str(cfg),
                 "--out", str(out)]) == 0
    lam = load_checkpoint(out).fusion.lam
    assert lam == 2.0 and type(lam) is float


def flag_of(key):
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


#: out-of-range values of every numeric training option
BAD_VALUES = {
    "k": ["0"], "downsample": ["0"], "lam": ["-1", "nan"], "epochs": ["-1"],
    "lr": ["inf"], "batch_size": ["-1"], "dropout": ["1.5"],
    "surrogate_width": ["0", "nan"], "hidden": ["0"], "head_mid": ["0"],
    "frame_limit": ["0"], "seed": ["-1"], "lif_beta": ["2"],
    "lif_theta": ["0", "nan"],
}


def test_every_numeric_option_has_a_bad_value():
    numeric = {k for k, v in TRAIN_DEFAULTS.items() if not isinstance(v, str)}
    assert set(BAD_VALUES) == numeric


@pytest.mark.parametrize("flag,value", [
    (flag_of(key), value) for key in TRAIN_DEFAULTS for value in BAD_VALUES.get(key, [])])
def test_train_bad_option_value_is_usage_error(tmp_path, capsys, flag, value):
    manifest = small_corpus(tmp_path)
    out = tmp_path / "m.ckpt"
    assert main(["train", manifest, *FAST_TRAIN, flag, value,
                 "--out", str(out)]) == 1
    key = next(k for k in TRAIN_DEFAULTS if flag_of(k) == flag)
    err = capsys.readouterr().err
    assert err.startswith(f"{key} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_train_config_bad_choice_is_usage_error(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scale_mode": "bogus"}))
    assert main(["train", manifest, "--config", str(cfg),
                 "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "scale_mode must be one of" in capsys.readouterr().err


def test_threads_flag_is_gone(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    assert main(["train", manifest, *FAST_TRAIN, "--threads", "2",
                 "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_eval_checkpoint_without_arch_is_data_error(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN]) == 0
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["arch"]
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    capsys.readouterr()
    assert main(["eval", str(ckpt), manifest]) == 2
    assert "header key 'arch'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained checkpoint and its corpus; tests copy, never edit."""
    root = tmp_path_factory.mktemp("trained")
    manifest = small_corpus(root)
    ckpt = root / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN]) == 0
    return ckpt, manifest


def run_main(*argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_counting_warnings(*argv):
    """run_main, counting any Python warning that escapes as one more
    stderr line: (exit code, stderr lines)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_main(*argv)
    return code, err.splitlines() + [str(w.message) for w in caught]


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_eval_bad_lambda_is_usage_error(trained, value):
    ckpt, manifest = trained
    code, out, err = run_main("eval", str(ckpt), manifest, "--lambda", value)
    assert code == 1 and out == ""
    assert err == f"lam must be finite and >= 0, got {float(value)!r}\n"


def swap_fc4_shape(header):
    spec = next(t for t in header["tensors"] if t["name"] == "fc4.w")
    spec["shape"].reverse()


#: header edits that leave a loadable-looking checkpoint, and the message
#: fragment of the check that must catch each
BAD_HEADERS = {
    "lif_theta_nan": (lambda h: h["lif"].update(theta=float("nan")),
                      "lif_theta must be finite and > 0, got nan"),
    "fusion_empty": (lambda h: h.update(fusion={}), "missing keys lam"),
    "extra_k_str": (lambda h: h["extra"].update(k="abc"),
                    "k must be >= 1, got 'abc'"),
    "extra_scale_mode": (lambda h: h["extra"].update(scale_mode="bogus"),
                         "scale_mode must be one of none, clip01, divide_by_max"),
    "label_happy": (lambda h: h["label_space"].__setitem__(0, "Happy"),
                    "'Happy' is not a valid EmotionClass"),
    "label_missing": (lambda h: h["label_space"].pop(),
                      "2 labels for 3 classes"),
    "fc4_transposed": (swap_fc4_shape,
                       "tensor 'fc4.w' has shape (128, 256), the architecture "
                       "needs (256, 128)"),
    "pool_max": (lambda h: h["arch"]["layers"][1].update(mode="max"),
                 "pool mode must be sum"),
}


def write_edited(src, dst, edit=None, cut=0):
    """Copy a checkpoint, editing its header and dropping cut blob bytes."""
    head, blob = src.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    if edit is not None:
        edit(header)
    dst.write_bytes(json.dumps(header).encode() + b"\n" + blob[:len(blob) - cut])


@pytest.mark.parametrize("name", sorted(BAD_HEADERS))
def test_eval_bad_checkpoint_header_is_one_line_data_error(trained, tmp_path, name):
    ckpt, manifest = trained
    edit, fragment = BAD_HEADERS[name]
    bad = tmp_path / "bad.ckpt"
    write_edited(ckpt, bad, edit)
    code, out, err = run_main("eval", str(bad), manifest)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def header_paths(node, prefix=()):
    """Every key path into a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from header_paths(child, prefix + (key,))


#: replacement values of a wrong type, out of range, or non-finite; no value
#: is large enough to make eval allocate much
ODD_VALUES = [float("nan"), float("inf"), -1, 0, 1, 2.5, "abc", None, True, [], {}]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_eval_exits_0_or_2_with_one_line(trained, data):
    ckpt, manifest = trained
    head = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    # a section first, so the many tensor entries do not crowd out the rest
    section = data.draw(st.sampled_from(sorted(head)))
    path = data.draw(st.sampled_from(
        [(section,), *header_paths(head[section], (section,))]))
    value = data.draw(st.sampled_from(["<delete>", *ODD_VALUES]))
    cut = data.draw(st.sampled_from([0, 0, 0, 1, 8, 100]))

    def edit(header):
        *parents, last = path
        node = header
        for key in parents:
            node = node[key]
        if value == "<delete>":
            del node[last]
        else:
            node[last] = value
    bad = ckpt.with_name("mutated.ckpt")
    write_edited(ckpt, bad, edit, cut)
    code, _, err = run_main("eval", str(bad), manifest)
    assert code in (0, 2)
    assert err.count("\n") == (code == 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_eval_non_finite_tensor_is_one_line_data_error(trained, tmp_path, value):
    ckpt, manifest = trained
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    first = json.loads(head)["tensors"][0]["name"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(head + b"\n" + np.float64(value).astype("<f8").tobytes()
                    + blob[8:])
    code, out, err = run_main("eval", str(bad), manifest)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"tensor {first!r} holds non-finite values" in err


def test_stats_bad_bin_width_is_usage_error(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    assert main(["stats", manifest, "--bin-width", "0",
                 "--out", str(tmp_path / "s")]) == 1
    assert "--bin-width" in capsys.readouterr().err


@pytest.fixture(scope="module")
def parse_corpus(tmp_path_factory):
    """Three samples, one per class; tests restore every file they edit."""
    spec = DatasetSpec(
        gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
        per_class=1, geometry=Geometry(16, 16), duration_us=50_000,
        min_events=30, max_events=40, min_frames=3, max_frames=5,
        feature_dim=3)
    root = tmp_path_factory.mktemp("parse") / "data"
    build_dataset(root, spec, seed=0)
    return str(root / "manifest.json")


#: field text that is out of bounds, beyond int64, not an integer or not a
#: number at all
ODD_FIELDS = st.one_of(
    st.integers(-3, 20).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["", " ", "1.5", "1e3", "nan", "-inf", "abc", "0x10", "+1",
                     "-0", "\uff11", "1_0", "#"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n"])


@st.composite
def event_files(draw):
    header = draw(st.sampled_from(
        ["t,x,y,p geometry=16x16"] * 4
        + ["t,x,y,p geometry=0x16", "t,x,y,p geometry=99999999999999999999x1",
           "t,x,y,p", "", "t;x;y;p geometry=16x16"]))
    # rows inside the 16x16 sensor, times in any order unless sorted below
    rows = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 15),
                                   st.integers(0, 15), st.integers(0, 1))
                         .map(lambda r: ",".join(map(str, r))), max_size=8))
    if draw(st.booleans()):
        rows.sort(key=lambda r: int(r.split(",")[0]))
    bad = draw(st.lists(st.lists(ODD_FIELDS, max_size=6).map(",".join), max_size=3))
    for row in bad:
        rows.insert(draw(st.integers(0, len(rows))), row)
    end = draw(LINE_ENDS)
    return header + "\n" + end.join(rows) + draw(st.sampled_from(["", end]))


@st.composite
def feature_files(draw):
    header = draw(st.sampled_from(
        ["D=3"] * 4 + ["D=0", "D=2", "D=99999999999999999999", "d=3", ""]))
    number = st.one_of(st.floats().map(repr), st.integers(-5, 5).map(str))
    rows = draw(st.lists(st.lists(number, min_size=3, max_size=3), max_size=6))
    rows += draw(st.lists(st.lists(st.one_of(number, ODD_FIELDS), max_size=5),
                          max_size=3))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    end = draw(LINE_ENDS)
    return header + "\n" + end.join(sep.join(r) for r in rows)


def stats_on_edited(manifest, which, body, tail, out):
    """Run stats with the first sample's event or feature file replaced:
    (exit code, stderr lines, counting any Python warning that escapes)."""
    m = read_manifest(manifest)
    path = m.path_of(getattr(m.entries[0], which))
    keep = open(path, "rb").read()
    try:
        with open(path, "wb") as f:
            f.write(body.encode("utf-8") + tail)
        return run_counting_warnings("stats", manifest, "--out", str(out))
    finally:
        with open(path, "wb") as f:
            f.write(keep)


@pytest.mark.parametrize("which,files", [("events", event_files()),
                                         ("features", feature_files())])
def test_malformed_input_files_end_in_an_exit_code_with_one_line(
        parse_corpus, tmp_path, which, files):
    @settings(max_examples=120, deadline=None)
    @given(body=files, tail=st.sampled_from([b"", b"", b"\xff\xfe", b"\x00"]))
    def check(body, tail):
        code, lines = stats_on_edited(parse_corpus, which, body, tail,
                                      tmp_path / "stats")
        assert code in (0, 1, 2, 3)
        assert len(lines) <= 1
    check()


@pytest.mark.parametrize("which,code", [("config", 1), ("manifest", 2),
                                        ("tags", 2)])
def test_non_utf8_input_is_one_line_error(parse_corpus, tmp_path, which, code):
    bad = tmp_path / "bad"
    bad.write_bytes({"config": b'{"epochs": 1}\xff', "tags": b"1\n\xff\n",
                     "manifest": open(parse_corpus, "rb").read() + b"\xff"}[which])
    m = read_manifest(parse_corpus)
    events = m.path_of(m.entries[0].events)
    argv = {"config": ["train", parse_corpus, "--config", str(bad),
                       "--out", str(tmp_path / "m.ckpt")],
            "manifest": ["stats", str(bad), "--out", str(tmp_path / "s")],
            "tags": ["align", events, str(bad), "--out", str(tmp_path / "a")]}
    got, out, err = run_main(*argv[which])
    assert got == code and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


#: option text that is no number: no digits, so no draw asks for a big run
JUNK = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=4)

#: any JSON value; numbers stay small enough that a run stays fast
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.floats(), JUNK),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(JUNK, inner, max_size=2),
    max_leaves=4)


def option_value(key):
    """Small values of the option's own type (a run stays fast), in range
    or not."""
    default = TRAIN_DEFAULTS[key]
    if isinstance(default, str):
        return st.sampled_from(CHOICES.get(key, ("train", "test", "")))
    if isinstance(default, int):
        return st.integers(-1, 3)
    return st.floats()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_train_argv_ends_in_an_exit_code_with_one_line(parse_corpus,
                                                       tmp_path_factory, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(TRAIN_DEFAULTS)), max_size=4))
    argv = [arg for key in keys for arg in (flag_of(key), data.draw(st.one_of(
        option_value(key).map(str), option_value(key).map(str), JUNK)))]
    out = tmp_path_factory.mktemp("argv") / "m.ckpt"
    code, lines = run_counting_warnings("train", parse_corpus, *FAST_TRAIN, *argv,
                                        "--out", str(out))
    assert code in (0, 1, 2, 3)
    assert len(lines) <= 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_train_config_document_ends_in_an_exit_code_with_one_line(
        parse_corpus, tmp_path_factory, data):
    # a fast run, with some options set to values of their type or any other
    doc = {"epochs": 1, "k": 3, "hidden": 4, "head_mid": 4, "frame_limit": 5}
    for key in data.draw(st.lists(st.sampled_from([*TRAIN_DEFAULTS, "threads"]),
                                  max_size=4)):
        typed = option_value(key) if key in TRAIN_DEFAULTS else JSON_VALUES
        doc[key] = data.draw(st.one_of(typed, typed, JSON_VALUES))
    if data.draw(st.integers(0, 9)) == 0:  # not an object ({} would be a slow run)
        doc = data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    cfg = tmp_path_factory.mktemp("config") / "train.json"
    cfg.write_text(json.dumps(doc))
    code, lines = run_counting_warnings("train", parse_corpus, "--config", str(cfg),
                                        "--out", str(cfg.with_name("m.ckpt")))
    assert code in (0, 1, 2, 3)
    assert len(lines) <= 1


@pytest.mark.parametrize("doc,message", [
    ([], "expected an object with a string root and a list of entries"),
    ({"entries": [1]}, "entry 0 is not an object"),
    ({"entries": [{"id": "a", "gesture": "ok"}]}, "entry 0 missing key 'events'"),
    ({"root": 5, "entries": []},
     "expected an object with a string root and a list of entries"),
])
def test_malformed_manifest_is_one_line_data_error(tmp_path, doc, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main("stats", str(path), "--out", str(tmp_path / "s"))
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("root, shown", [
    ("\r", "\\r"), ("\x1e", "\\x1e"), ("\u2028", "\\u2028"),
    ("d\u00e9j\u00e0", "d\u00e9j\u00e0"),   # printable text stays as it is
])
def test_stderr_escapes_unprintable_characters(parse_corpus, tmp_path, root, shown):
    doc = json.loads(open(parse_corpus).read())
    doc["root"] = root
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main("stats", str(path), "--out", str(tmp_path / "s"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.splitlines()) == 1
    assert f"{tmp_path}/{shown}/" in err


def test_manifest_document_ends_in_an_exit_code_with_one_line(parse_corpus,
                                                              tmp_path):
    m = read_manifest(parse_corpus)
    entries = [{"id": e.id, "gesture": e.gesture.value, "events": e.events,
                "features": e.features, "split": e.split} for e in m.entries]
    # edits replace or delete one part of a valid manifest
    places = [(), ("root",), ("entries",)] + [
        ("entries", i, *key) for i, entry in enumerate(entries)
        for key in [(), *((k,) for k in entry)]]
    values = st.one_of(JSON_VALUES, st.sampled_from(
        [*entries, *(v for e in entries for v in e.values()),
         *(g.value for g in GestureClass), "missing.csv"]))

    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(places),
                                    st.one_of(st.none(), values)), max_size=2))
    # a line break or another unprintable character in a path
    @example(edits=[(("root",), "\r")])
    @example(edits=[(("root",), "\x1e")])
    # two unreadable samples, each skipped with a warning
    @example(edits=[(("entries", i, "events"), entries[i]["features"]) for i in (0, 1)])
    def check(edits):
        doc = {"root": m.root, "entries": [dict(e) for e in entries]}
        for place, value in edits:  # value None deletes
            # a drawn entry is one of `entries` itself: a later edit must
            # write into a copy, not into `entries` or into the doc itself
            value = copy.deepcopy(value)
            if not place:
                doc = value
                continue
            *parents, last = place
            node = doc
            try:
                for key in parents:
                    node = node[key]
                if value is None:
                    del node[last]
                else:
                    node[last] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed the place
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, lines = run_counting_warnings("stats", str(path),
                                            "--out", str(tmp_path / "s"))
        assert code in (0, 1, 2, 3)
        if code == 0:
            # one warning per skipped sample, and one more may follow
            assert all(line.startswith("warning: ") for line in lines)
            assert len(lines) <= len(entries) + 1
        else:
            assert len(lines) <= 1
    check()


def events_only(manifest):
    """The manifest with every feature file dropped, the layout import
    writes for a tree without features."""
    doc = json.loads(open(manifest).read())
    for e in doc["entries"]:
        del e["features"]
    with open(manifest, "w") as f:
        json.dump(doc, f)
    return manifest


def test_events_only_manifest_trains_and_evaluates_the_event_branch(
        tmp_path, capsys):
    manifest = events_only(small_corpus(tmp_path))
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", manifest, *FAST_TRAIN, "--branch", "snn_only",
                 "--out", str(ckpt)]) == 0
    assert main(["eval", str(ckpt), manifest]) == 0
    assert "branch=snn_only" in capsys.readouterr().out
    assert main(["eval", str(ckpt), manifest, "--branch", "fused"]) == 2
    assert capsys.readouterr().err.endswith(": no frame features\n")


@pytest.mark.parametrize("branch", ["fused", "video_only"])
def test_events_only_manifest_refuses_the_frame_branch(tmp_path, capsys, branch):
    manifest = events_only(small_corpus(tmp_path))
    out = tmp_path / "m.ckpt"
    assert main(["train", manifest, *FAST_TRAIN, "--branch", branch,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sample ") and err.endswith(": no frame features\n")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("which,code", [("config", 1), ("manifest", 2),
                                        ("checkpoint", 2)])
def test_too_deeply_nested_json_is_one_line_error(trained, tmp_path, which, code):
    ckpt, manifest = trained
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    argv = {"config": ["train", manifest, "--config", str(bad),
                       "--out", str(tmp_path / "m.ckpt")],
            "manifest": ["stats", str(bad), "--out", str(tmp_path / "s")],
            "checkpoint": ["eval", str(bad), manifest]}[which]
    got, out, err = run_main(*argv)
    assert got == code and err.count("\n") == 1
    assert "maximum recursion depth exceeded" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_features_are_data_errors(tmp_path, capsys, value):
    manifest = small_corpus(tmp_path)
    m = read_manifest(manifest)
    for e in m.entries:
        with open(m.path_of(e.features), "a") as f:
            f.write(f"{value} 0 0\n")
    assert main(["stats", manifest, "--out", str(tmp_path / "s")]) == 2
    assert main(["train", manifest, *FAST_TRAIN,
                 "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "non-finite value" in err
    assert err.strip().splitlines()[-1].startswith("error: ")


def test_train_planes_below_ten_by_ten_is_one_line_data_error(tmp_path):
    manifest = small_corpus(tmp_path)  # 16x16, pooled to 8x8
    out = tmp_path / "m.ckpt"
    code, _, err = run_main("train", manifest, *FAST_TRAIN, "--downsample", "2",
                            "--out", str(out))
    assert code == 2 and err.count("\n") == 1
    assert "planes of 8x8 are too small" in err and "at least 10x10" in err
    assert not out.exists()


def test_train_divergence_exit_code(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    assert main(["train", manifest, "--out", str(tmp_path / "m.ckpt"),
                 "--k", "3", "--hidden", "4", "--head-mid", "4",
                 "--frame-limit", "5", "--branch", "video_only",
                 "--epochs", "8", "--lr", "1e8"]) == 3
    out, err = capsys.readouterr()
    assert "diverged" in err
    # epochs are printed as they end, so the lines before the divergence stay
    assert out.startswith("epoch   0 [video_only] loss ")


def test_train_overflow_is_one_line_divergence(parse_corpus, tmp_path):
    code, lines = run_counting_warnings("train", parse_corpus, *FAST_TRAIN,
                                        "--lambda", "1e200",
                                        "--out", str(tmp_path / "m.ckpt"))
    assert code == 3 and len(lines) == 1
    assert lines[0].startswith("error: training diverged: overflow encountered")


def test_eval_empty_split_is_data_error(tmp_path, capsys):
    spec = DatasetSpec(
        gestures=(GestureClass.OK, GestureClass.NO, GestureClass.VICTORY),
        per_class=1, geometry=Geometry(16, 16), duration_us=50_000,
        min_events=30, max_events=40, min_frames=3, max_frames=5,
        feature_dim=3)
    root = tmp_path / "data"
    build_dataset(root, spec, seed=0)  # one sample per class: all train
    manifest = str(root / "manifest.json")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", manifest, "--out", str(ckpt), *FAST_TRAIN]) == 0
    capsys.readouterr()
    assert main(["eval", str(ckpt), manifest, "--split", "test"]) == 2


def test_import_converted_tree(tmp_path, capsys):
    manifest = small_corpus(tmp_path)
    src = os.path.dirname(manifest)
    dst = tmp_path / "imported"
    assert main(["import", src, str(dst)]) == 0
    m = read_manifest(dst / "manifest.json")
    assert len(m.entries) == 9
    # importing an already-imported tree reproduces it
    dst2 = tmp_path / "imported2"
    assert main(["import", str(dst), str(dst2)]) == 0
    m2 = read_manifest(dst2 / "manifest.json")
    assert [e.id for e in m2.entries] == [e.id for e in m.entries]


def test_import_per_gesture_directories(tmp_path, capsys):
    src = tmp_path / "raw"
    for gesture, n in (("ok", 3), ("no", 2)):
        gdir = src / gesture
        gdir.mkdir(parents=True)
        for i in range(n):
            stream = synth_stream(StreamSpec(Geometry(8, 8), 10_000, 20),
                                  seed=i)
            write_events_file(stream, gdir / f"rec{i}.csv")
            write_feature_file(
                FrameFeatureSequence(2, np.ones((4, 2)) * i),
                gdir / f"rec{i}.txt")
    (src / "victory").mkdir()  # present but empty: warn, keep going
    dst = tmp_path / "imported"
    assert main(["import", str(src), str(dst),
                 "--train-fraction", "0.5"]) == 0
    err = capsys.readouterr().err
    assert "no event csv files" in err
    m = read_manifest(dst / "manifest.json")
    assert len(m.entries) == 5
    by_split = {s: len(m.ids(s)) for s in ("train", "test")}
    assert by_split == {"train": 3, "test": 2}
    assert all(e.features for e in m.entries)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "5"])
def test_import_bad_train_fraction_is_usage_error(tmp_path, value):
    src = tmp_path / "raw" / "ok"
    src.mkdir(parents=True)
    write_events_file(synth_stream(StreamSpec(Geometry(8, 8), 10_000, 20), seed=0),
                      src / "rec0.csv")
    code, out, err = run_main("import", str(src.parent), str(tmp_path / "o"),
                              "--train-fraction", value)
    assert code == 1 and out == ""
    assert err == f"train_fraction must be in (0, 1), got {float(value)!r}\n"
    assert not (tmp_path / "o").exists()


def test_import_unknown_layout_diagnostic(tmp_path, capsys):
    src = tmp_path / "raw"
    src.mkdir()
    (src / "random.bin").write_bytes(b"\x00")
    assert main(["import", str(src), str(tmp_path / "out")]) == 2
    assert "unrecognized layout" in capsys.readouterr().err


def test_import_missing_source(tmp_path, capsys):
    assert main(["import", str(tmp_path / "absent"), str(tmp_path / "o")]) == 1


def test_python_m_gestemo_runs_the_cli():
    proc = run_cli("--help", module="gestemo")
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "import" in proc.stdout


def test_console_script_installed():
    proc = subprocess.run(["gestemo", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "import" in proc.stdout

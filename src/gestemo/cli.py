"""Command-line entry point.

Subcommands: synth, align, encode, stats, train, eval, import.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric divergence.  Training
options can come from a JSON config file (--config); explicit flags win,
unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import sys
import warnings
from dataclasses import fields
from typing import Dict, List, Optional

from .align import segment_events, split_indices
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .dataio import (
    DEFAULT_FRAME_LIMIT,
    ManifestEntry,
    SplitManifest,
    load_sample,
    read_events_file,
    read_feature_file,
    read_manifest,
    read_tags_file,
    write_events_file,
    write_manifest,
    write_planes_file,
)
from .encode import DenseSpikePlanes, dense_spike_planes, scale_planes
from .errors import CHOICES, DivergedLossError, GestemoError, ParseError, check_option
from .events import EmotionClass, Geometry, GestureClass
from .fusion import FusionConfig, predict
from .snn import LifConfig, default_architecture
from .stats import (
    DEFAULT_BIN_WIDTH,
    class_counts_csv,
    frame_histogram_csv,
    polarity_box_csv,
    summarize,
    time_sum_csv,
)
from .synth import DatasetSpec, build_dataset, train_count
from .training import (
    TrainConfig,
    TrainData,
    emotion_report,
    evaluate,
    init_model,
    prepare_tensors,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _UsageError(Exception):
    pass


def _stderr(line: str) -> None:
    """Print one line to stderr.  Text echoed from input, such as a path,
    may hold a line break or another unprintable character; each is
    escaped, so a message stays one line."""
    print("".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                  for c in line), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# -- config file merging -----------------------------------------------------------

#: training options a --config file may set (same names as the flags): the
#: TrainConfig and LifConfig (lif_ prefix) fields at their library defaults,
#: and the options only this command line owns
TRAIN_DEFAULTS: Dict[str, object] = {
    **{f.name: f.default for f in fields(TrainConfig)},
    **{"lif_" + f.name: f.default for f in fields(LifConfig)},
    "k": 12,
    "downsample": 1,
    "scale_mode": "clip01",
    "hidden": 128,
    "head_mid": 64,
    "frame_limit": DEFAULT_FRAME_LIMIT,
    "split": "train",
    "target": "emotion",
}

#: DatasetSpec fields the synth command takes as flags of the same name
SYNTH_KEYS = tuple(f.name for f in fields(DatasetSpec)
                   if f.name not in ("gestures", "geometry"))


def merge_config(ns: argparse.Namespace, defaults: Dict[str, object]) -> Dict[str, object]:
    """defaults < config file < explicit flags; unknown file keys rejected."""
    merged = dict(defaults)
    if getattr(ns, "config", None):
        try:
            with open(ns.config, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise _UsageError(f"config file not found: {ns.config}")
        except (ValueError, RecursionError) as e:  # bad JSON, too deep, not UTF-8
            raise _UsageError(f"config file {ns.config}: invalid JSON ({e})")
        if not isinstance(doc, dict):
            raise _UsageError(f"config file {ns.config}: expected a JSON object")
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise _UsageError(f"config file {ns.config}: unknown keys "
                              f"{', '.join(map(repr, unknown))}")
        for k, v in doc.items():
            # the JSON type must be the default's (bool is not a number);
            # only an int may stand for a float
            kind = type(defaults[k])
            if type(v) is not kind and not (kind is float and type(v) is int):
                raise _UsageError(f"config file {ns.config}: {k} must be "
                                  f"{kind.__name__}, got {v!r}")
            merged[k] = kind(v)
    for k in defaults:
        flag = getattr(ns, k, None)
        if flag is not None:
            merged[k] = flag
    return merged


@contextlib.contextmanager
def _usage_errors(prefix: str = ""):
    """Report a bad option value (GestemoError) as a usage error."""
    try:
        yield
    except GestemoError as e:
        raise _UsageError(prefix + str(e)) from None


# -- subcommands -------------------------------------------------------------------

def cmd_synth(ns) -> int:
    if ns.gestures:
        try:
            gestures = tuple(GestureClass(g.strip())
                             for g in ns.gestures.split(",") if g.strip())
        except ValueError as e:
            raise _UsageError(f"bad gesture list: {e}")
    else:
        gestures = tuple(GestureClass)
    with _usage_errors():
        spec = DatasetSpec(gestures=gestures, geometry=Geometry(ns.width, ns.height),
                           **{key: getattr(ns, key) for key in SYNTH_KEYS})
    manifest = build_dataset(ns.out, spec, seed=ns.seed)
    print(f"wrote {len(manifest.entries)} samples "
          f"({len(manifest.ids('train'))} train / {len(manifest.ids('test'))} test) "
          f"under {os.path.abspath(ns.out)}")
    return EXIT_OK


def cmd_align(ns) -> int:
    for p in (ns.events, ns.tags):
        if not os.path.isfile(p):
            raise _UsageError(f"no such file: {p}")
    stream = read_events_file(ns.events)
    tags = read_tags_file(ns.tags)
    cuts = split_indices(tags, stream.t)
    os.makedirs(ns.out, exist_ok=True)
    with open(os.path.join(ns.out, "positions.csv"), "w", encoding="utf-8") as f:
        f.write("tag,index,time\n")
        for tag, idx in zip(tags, cuts):
            f.write(f"{tag},{idx},{stream.t[idx]}\n")
    segments = segment_events(stream, cuts)
    seg_dir = os.path.join(ns.out, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    for i, seg in enumerate(segments):
        write_events_file(seg, os.path.join(seg_dir, f"{i:03d}.csv"))
    total = sum(len(s) for s in segments)
    print(f"aligned {len(tags)} tags over {len(stream)} events; "
          f"{len(segments)} segments, {total} events total "
          f"(conserved={'yes' if total == len(stream) else 'NO'})")
    return EXIT_OK


def cmd_encode(ns) -> int:
    if ns.scale_mode not in (None, "none", "clip01"):
        raise _UsageError(
            f"scale mode {ns.scale_mode!r} does not produce integer planes; "
            "use none or clip01 for file output")
    with _usage_errors():
        check_option("k", ns.k)
        check_option("downsample", ns.downsample)
    stream = read_events_file(ns.events)
    planes = dense_spike_planes(stream, ns.k, factor=ns.downsample)
    if ns.scale_mode == "clip01":
        planes = DenseSpikePlanes(planes.k, planes.geometry,
                                  scale_planes(planes, "clip01"))
        note = "conserved=n/a (clipped)"
    else:
        note = "conserved=yes" if planes.total == len(stream) else "conserved=NO"
    write_planes_file(planes, ns.out)
    print(f"encoded {len(stream)} events into K={planes.k} planes "
          f"({planes.geometry.width}x{planes.geometry.height}); "
          f"total count {planes.total}; {note}")
    return EXIT_OK


def cmd_stats(ns) -> int:
    with _usage_errors("--bin-width: "):
        check_option("bin_width", ns.bin_width)
    manifest = read_manifest(ns.manifest)

    def readable():
        for e in manifest.entries:
            try:
                sample = load_sample(manifest, e.id)
            except (GestemoError, OSError) as exc:
                _stderr(f"warning: skipping sample {e.id!r}: {exc}")
                continue
            yield sample
    # a library warning goes out as one stderr line, like the skips above
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summary = summarize(readable(), ns.bin_width)
    for w in caught:
        _stderr(f"warning: {w.message}")
    if summary.n_samples == 0:
        raise GestemoError("no readable samples in manifest")
    if not summary.frame_histogram["counts"]:
        _stderr("warning: no feature files; frame histogram empty")
    os.makedirs(ns.out, exist_ok=True)

    def emit(name: str, lines: List[str]) -> None:
        with open(os.path.join(ns.out, name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    with open(os.path.join(ns.out, "stats.json"), "w", encoding="utf-8") as f:
        json.dump(summary.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    emit("frame_hist.csv", frame_histogram_csv(summary.frame_histogram))
    emit("class_counts.csv", class_counts_csv(summary.class_counts))
    emit("time_sum.csv", time_sum_csv(summary.event_time_sum_s))
    emit("polarity_box.csv", polarity_box_csv(summary.polarity_boxes))
    print(f"wrote stats for {summary.n_samples} samples to {os.path.abspath(ns.out)}")
    return EXIT_OK


def _label_space(manifest: SplitManifest, target: str):
    """Classes in index order: present gestures for the 9-way target, the
    three emotions for the default emotion target."""
    if target == "emotion":
        return tuple(EmotionClass)
    present = {e.gesture for e in manifest.entries}
    return tuple(g for g in GestureClass
                 if g in present and g is not GestureClass.OTHER)


def _load_split(manifest: SplitManifest, split: str, cfg: Dict[str, object],
                label_space) -> TrainData:
    samples = [load_sample(manifest, sid) for sid in manifest.ids(split)]
    return prepare_tensors(
        samples, cfg["k"], downsample=cfg["downsample"],
        scale_mode=cfg["scale_mode"], frame_limit=cfg["frame_limit"],
        target=cfg["target"], label_space=label_space, branch=cfg["branch"])


def cmd_train(ns) -> int:
    cfg = merge_config(ns, TRAIN_DEFAULTS)
    with _usage_errors():
        lif = LifConfig(**{f.name: cfg["lif_" + f.name] for f in fields(LifConfig)})
        tcfg = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
        fusion = FusionConfig(cfg["lam"])
        for key in ("k", "downsample", "hidden", "head_mid", "frame_limit",
                    "scale_mode", "target"):
            check_option(key, cfg[key])
    manifest = read_manifest(ns.manifest)
    target = cfg["target"]
    label_space = _label_space(manifest, target)
    if not label_space:
        raise GestemoError("manifest has no trainable gesture classes")
    data = _load_split(manifest, cfg["split"], cfg, label_space)
    k, _, h, w = data.planes.shape[1:]
    arch = default_architecture(len(label_space), h, w)
    feature_dim = 0 if data.features is None else data.features.shape[2]
    model = init_model(arch, feature_dim, hidden=cfg["hidden"],
                       head_mid=cfg["head_mid"], seed=cfg["seed"],
                       branch=cfg["branch"])
    history = train(data, model, arch, lif, tcfg,
                    functools.partial(print, flush=True))
    ckpt = Checkpoint(
        model=model, arch=arch, lif=lif, fusion=fusion,
        seed=cfg["seed"],
        label_space=tuple(g.value for g in label_space),
        extra={"branch": cfg["branch"], "mode": cfg["mode"], "target": target,
               "k": cfg["k"], "downsample": cfg["downsample"],
               "scale_mode": cfg["scale_mode"], "frame_limit": cfg["frame_limit"],
               "final_loss": history[-1]["loss"] if history else None,
               "epochs": cfg["epochs"]})
    save_checkpoint(ckpt, ns.out)
    print(f"saved checkpoint to {ns.out} "
          f"({len(data)} samples, {len(label_space)} classes, "
          f"branch={cfg['branch']})")
    return EXIT_OK


def cmd_eval(ns) -> int:
    with _usage_errors():
        fusion = None if ns.lam is None else FusionConfig(ns.lam)
    ckpt = load_checkpoint(ns.checkpoint)
    manifest = read_manifest(ns.manifest)
    cfg = {key: ckpt.extra.get(key, TRAIN_DEFAULTS[key]) for key in
           ("k", "downsample", "scale_mode", "frame_limit", "target", "branch")}
    target = cfg["target"]
    try:
        for key, value in cfg.items():
            check_option(key, value)
        enum = GestureClass if target == "gesture" else EmotionClass
        label_space = tuple(enum(v) for v in ckpt.label_space)
    except (GestemoError, ValueError) as e:
        raise ParseError(f"{ns.checkpoint}: bad extra or label space ({e})")
    if len(label_space) != ckpt.arch.num_classes:
        raise ParseError(f"{ns.checkpoint}: {len(label_space)} labels for "
                         f"{ckpt.arch.num_classes} classes")
    branch = cfg["branch"] = ns.branch or cfg["branch"]
    data = _load_split(manifest, ns.split, cfg, label_space)
    lam = (fusion or ckpt.fusion).lam
    report, scores = evaluate(data, ckpt.model, ckpt.arch, ckpt.lif,
                              branch=branch, lam=lam)
    names = [g.value for g in label_space]
    doc = report.to_dict(names)
    doc["target"] = target
    doc["branch"] = branch
    doc["split"] = ns.split
    lines = [
        f"split={ns.split} target={target} branch={branch} n={len(data)}",
        f"accuracy           {report.accuracy:.4f}",
        f"weighted precision {report.weighted_precision:.4f}",
        f"weighted recall    {report.weighted_recall:.4f}",
        f"weighted f1        {report.weighted_f1:.4f}",
    ]
    if target == "gesture":
        emo, emo_names = emotion_report(data, predict(scores))
        doc["emotion"] = emo.to_dict(emo_names)
        lines.append(f"emotion accuracy   {emo.accuracy:.4f}")
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    print("\n".join(lines))
    return EXIT_OK


def _import_converted(src: str, out: str) -> SplitManifest:
    manifest = read_manifest(os.path.join(src, "manifest.json"))
    os.makedirs(out, exist_ok=True)
    entries = []
    for e in manifest.entries:
        for rel in (e.events, e.features):
            if rel is None:
                continue
            dst = os.path.join(out, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            src_path = manifest.path_of(rel)
            if os.path.abspath(src_path) != os.path.abspath(dst):
                shutil.copyfile(src_path, dst)
        entries.append(e)
    result = SplitManifest(root=os.path.abspath(out), entries=entries)
    write_manifest(result, os.path.join(out, "manifest.json"))
    return result


def _import_class_dirs(src: str, out: str, train_fraction: float) -> SplitManifest:
    found = [g for g in GestureClass
             if os.path.isdir(os.path.join(src, g.value))]
    if not found:
        raise GestemoError(
            f"{src}: unrecognized layout; expected either a manifest.json or "
            f"per-gesture subdirectories named "
            f"{', '.join(g.value for g in GestureClass)} containing event csv files")
    os.makedirs(os.path.join(out, "events"), exist_ok=True)
    entries = []
    any_features = False
    for g in found:
        gdir = os.path.join(src, g.value)
        csvs = sorted(f for f in os.listdir(gdir) if f.endswith(".csv"))
        if not csvs:
            _stderr(f"warning: {gdir} has no event csv files")
            continue
        n_train = train_count(train_fraction, len(csvs))
        for i, name in enumerate(csvs):
            stream = read_events_file(os.path.join(gdir, name))
            sid = f"{g.value}-{i:04d}"
            ev_rel = os.path.join("events", f"{sid}.csv")
            write_events_file(stream, os.path.join(out, ev_rel))
            ft_rel = None
            ft_src = os.path.join(gdir, os.path.splitext(name)[0] + ".txt")
            if os.path.isfile(ft_src):
                read_feature_file(ft_src)  # validate before adopting
                ft_rel = os.path.join("features", f"{sid}.txt")
                os.makedirs(os.path.join(out, "features"), exist_ok=True)
                shutil.copyfile(ft_src, os.path.join(out, ft_rel))
                any_features = True
            entries.append(ManifestEntry(
                id=sid, gesture=g, events=ev_rel,
                split="train" if i < n_train else "test", features=ft_rel))
    if not entries:
        raise GestemoError(f"{src}: no event files found in any gesture directory")
    if not any_features:
        _stderr("note: no feature files found; frame branch will be unavailable")
    manifest = SplitManifest(root=os.path.abspath(out), entries=entries)
    write_manifest(manifest, os.path.join(out, "manifest.json"))
    return manifest


def cmd_import(ns) -> int:
    with _usage_errors():
        check_option("train_fraction", ns.train_fraction)
    if not os.path.isdir(ns.src):
        raise _UsageError(f"no such directory: {ns.src}")
    if os.path.isfile(os.path.join(ns.src, "manifest.json")):
        manifest = _import_converted(ns.src, ns.out)
        kind = "converted tree"
    else:
        manifest = _import_class_dirs(ns.src, ns.out, ns.train_fraction)
        kind = "per-gesture directories"
    print(f"imported {len(manifest.entries)} samples from {kind} "
          f"into {os.path.abspath(ns.out)}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="gestemo",
                     description="event-based gesture and emotion pipeline")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("synth",
                       help="generate a labeled synthetic dataset")
    p.add_argument("out", help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gestures", default="",
                   help="comma-separated gesture names (default: all)")
    p.add_argument("--width", type=int, default=DatasetSpec.geometry.width)
    p.add_argument("--height", type=int, default=DatasetSpec.geometry.height)
    for key in SYNTH_KEYS:
        default = getattr(DatasetSpec, key)
        p.add_argument("--" + key.replace("_", "-"), type=type(default),
                       default=default)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align",
                       help="find split positions for tag timestamps")
    p.add_argument("events", help="event file")
    p.add_argument("tags", help="text file, one integer timestamp per line")
    p.add_argument("--out", default="align_out", help="output directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("encode",
                       help="encode an event file into dense spike planes")
    p.add_argument("events", help="event file")
    p.add_argument("--out", default="planes.txt", help="output planes file")
    p.add_argument("--k", type=int, default=TRAIN_DEFAULTS["k"])
    p.add_argument("--downsample", type=int, default=TRAIN_DEFAULTS["downsample"])
    p.add_argument("--scale-mode", dest="scale_mode", default=None,
                   help="none or clip01 (counts stay integers in files)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("stats",
                       help="dataset statistics (json + csv)")
    p.add_argument("manifest", help="manifest.json path")
    p.add_argument("--out", default="stats_out", help="output directory")
    p.add_argument("--bin-width", type=int, default=DEFAULT_BIN_WIDTH)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train",
                       help="train the recognizer on a manifest split")
    p.add_argument("manifest", help="manifest.json path")
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.add_argument("--config", default=None, help="JSON config file")
    for key, default in TRAIN_DEFAULTS.items():
        p.add_argument("--lambda" if key == "lam" else "--" + key.replace("_", "-"),
                       dest=key, type=type(default), default=None,
                       choices=CHOICES.get(key))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval",
                       help="evaluate a checkpoint on a manifest split")
    p.add_argument("checkpoint", help="checkpoint file")
    p.add_argument("manifest", help="manifest.json path")
    p.add_argument("--split", default="test")
    p.add_argument("--branch", default=None,
                   choices=CHOICES["branch"])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--out", default=None, help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("import",
                       help="convert an external dataset tree to this layout")
    p.add_argument("src", help="source dataset root")
    p.add_argument("out", help="destination root")
    p.add_argument("--train-fraction", type=float,
                   default=DatasetSpec.train_fraction)
    p.set_defaults(func=cmd_import)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as e:
        _stderr(str(e))
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return int(ns.func(ns) or EXIT_OK)
    except _UsageError as e:
        _stderr(str(e))
        return EXIT_USAGE
    except DivergedLossError as e:
        _stderr(f"error: training diverged: {e}")
        return EXIT_DIVERGED
    except (GestemoError, OSError) as e:
        _stderr(f"error: {e}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

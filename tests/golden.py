"""Golden digests: SHA-256 of the files a fixed set of command-line runs
writes, keyed by the numeric environment that wrote them.

Seeded runs give the same bytes on every commit, so a digest that moves
means a change moved the numbers.  A dense GEMM's bits depend on the BLAS
kernel, and np.exp's on numpy's SIMD dispatch level, so a digest holds
only under the environment it was made in: numpy version, BLAS name and
version, OpenBLAS core, machine and SIMD level.

Write (or replace) the entry for the environment this runs in:

    PYTHONPATH=src python tests/golden.py

A change that moves a digest says why.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from typing import Dict, Optional

import numpy as np

from gestemo import cli, snn
from gestemo.dataio import read_manifest

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_digests.json")

#: synth flags of the two corpora.  desk32 has 32x32 planes; davis346 has
#: the default 346x260 geometry, which --downsample 4 makes 87x65 planes,
#: large enough that the SNN backward offloads weight gradients
CORPORA = {
    "desk32": ["--gestures", "ok,no,victory", "--per-class", "4",
               "--width", "32", "--height", "32", "--duration-us", "100000",
               "--min-events", "200", "--max-events", "300",
               "--min-frames", "3", "--max-frames", "6", "--feature-dim", "4"],
    "davis346": ["--gestures", "ok,no,victory,good,love", "--per-class", "3",
                 "--duration-us", "200000", "--min-events", "300",
                 "--max-events", "400", "--min-frames", "3",
                 "--max-frames", "6", "--feature-dim", "4"],
}

TRAIN = ["--epochs", "2", "--k", "4", "--hidden", "4", "--head-mid", "4",
         "--frame-limit", "6", "--seed", "3", "--batch-size", "4"]

#: training runs: name -> (corpus, flags beyond TRAIN); later flags win
TRAIN_RUNS = {
    "fused_joint": ("desk32", []),
    "fused_separate": ("desk32", ["--mode", "separate"]),
    "fused_lambda": ("desk32", ["--lambda", "0.5"]),
    "snn_only": ("desk32", ["--branch", "snn_only"]),
    "video_only": ("desk32", ["--branch", "video_only"]),
    "video_b7": ("desk32", ["--branch", "video_only", "--batch-size", "7"]),
    "batch3": ("desk32", ["--batch-size", "3"]),
    "dropout0": ("desk32", ["--dropout", "0"]),
    "scale_none": ("desk32", ["--scale-mode", "none", "--branch", "snn_only"]),
    "divide_by_max": ("desk32", ["--scale-mode", "divide_by_max",
                                 "--branch", "snn_only"]),
    "subtract_theta": ("desk32", ["--lif-reset", "subtract_theta",
                                  "--branch", "snn_only"]),
    "davis346_b8": ("davis346", ["--downsample", "4", "--batch-size", "8",
                                 "--branch", "snn_only"]),
    "davis346_b7": ("davis346", ["--downsample", "4", "--batch-size", "7"]),
}

#: evaluation runs: name -> (training run whose checkpoint, corpus)
EVAL_RUNS = {
    "eval_fused_joint": ("fused_joint", "desk32"),
    "eval_fused_lambda": ("fused_lambda", "desk32"),
    "eval_davis346_b7": ("davis346_b7", "davis346"),
}

#: stats runs: corpus -> flags.  desk32's 3-6 frames would fill one bin at
#: the default width
STATS_RUNS = {
    "desk32": ["--bin-width", "2"],
    "davis346": [],
}

#: encode runs of the first desk32 event file: name -> flags
ENCODE_RUNS = {
    "encode_k12": ["--k", "12"],
    "encode_clip01_ds2": ["--k", "5", "--downsample", "2",
                          "--scale-mode", "clip01"],
}


def fingerprint() -> str:
    """The environment a digest holds under, as one line."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return (f"numpy {np.__version__}; blas {blas}; core {_openblas_core()}; "
            f"machine {platform.machine()}; simd {_simd_level()}")


def _simd_level() -> Optional[str]:
    """The highest of numpy's dispatch targets enabled here, which
    NPY_DISABLE_CPU_FEATURES can lower."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return None
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return enabled[-1] if enabled else None


def _openblas_core() -> Optional[str]:
    """The kernel set a loaded OpenBLAS picked for this CPU, if one is
    loaded and the process maps can be read."""
    for lib in snn._openblas_libs():
        fn = snn._openblas_fn(lib, "get_corename", ctypes.c_char_p)
        if fn is not None:
            return fn().decode()
    return None


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"gestemo {' '.join(argv)} exited with {code}")


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def synth_corpora(root: str) -> Dict[str, str]:
    """Write both corpora under root; returns each one's manifest path."""
    manifests = {}
    for name, flags in CORPORA.items():
        _cli("synth", os.path.join(root, name), "--seed", "0", *flags)
        manifests[name] = os.path.join(root, name, "manifest.json")
    return manifests


def _tree_sha256(root: str) -> str:
    """One digest of every file under root, with its relative path."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for file in sorted(files):
            path = os.path.join(base, file)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(_sha256(path).encode())
    return h.hexdigest()


def corpus_digests(manifests: Dict[str, str]) -> Dict[str, str]:
    """Per corpus, one digest of every file under it, manifest included."""
    return {"synth_" + name: _tree_sha256(os.path.dirname(manifest))
            for name, manifest in manifests.items()}


def _eval_with_scores(*argv: str) -> bytes:
    """Run eval and return the bytes of the score array it computed, which
    its metrics file does not hold."""
    scores = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        scores.append(result[1])
        return result
    real, cli.evaluate = cli.evaluate, recording
    try:
        _cli("eval", *argv)
    finally:
        cli.evaluate = real
    return np.ascontiguousarray(scores[0]).tobytes()


def run_all(out: str, manifests: Dict[str, str]) -> Dict[str, str]:
    """Run every training, evaluation, stats and encode run, writing into
    out; returns the digest of each run's output by run name, and of each
    evaluation's score array as scores_<run>."""
    os.makedirs(out, exist_ok=True)
    digests = {}
    for name, (corpus, flags) in TRAIN_RUNS.items():
        path = os.path.join(out, name + ".ckpt")
        _cli("train", manifests[corpus], *TRAIN, *flags, "--out", path)
        digests[name] = _sha256(path)
    for name, (ckpt, corpus) in EVAL_RUNS.items():
        path = os.path.join(out, name + ".json")
        scores = _eval_with_scores(os.path.join(out, ckpt + ".ckpt"),
                                   manifests[corpus], "--out", path)
        digests[name] = _sha256(path)
        digests["scores_" + name] = hashlib.sha256(scores).hexdigest()
    for corpus, flags in STATS_RUNS.items():
        path = os.path.join(out, "stats_" + corpus)
        _cli("stats", manifests[corpus], *flags, "--out", path)
        digests["stats_" + corpus] = _tree_sha256(path)
    manifest = read_manifest(manifests["desk32"])
    events = manifest.path_of(manifest.entries[0].events)
    for name, flags in ENCODE_RUNS.items():
        path = os.path.join(out, name + ".txt")
        _cli("encode", events, *flags, "--out", path)
        digests[name] = _sha256(path)
    return digests


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(DIGEST_FILE, encoding="utf-8") as f:
        return json.load(f)


def main() -> int:
    golden = load_golden() if os.path.exists(DIGEST_FILE) else {}
    fp = fingerprint()
    with tempfile.TemporaryDirectory() as root:
        manifests = synth_corpora(root)
        golden[fp] = {**corpus_digests(manifests),
                      **run_all(os.path.join(root, "runs"), manifests)}
    with open(DIGEST_FILE, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(golden[fp])} digests for {fp} to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

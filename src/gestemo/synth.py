"""Synthetic labeled datasets at desk scale.

Each gesture class gets a distinct spatial event pattern (see events) and a
distinct per-frame feature signature: a fixed random unit direction scaled
by a half-sine envelope over the clip, plus sample noise.  Every sample is
written through the standard file formats and listed in a manifest that is
written last, so a crashed build never leaves a readable-but-wrong dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataio import (
    FrameFeatureSequence,
    ManifestEntry,
    SplitManifest,
    write_events_file,
    write_feature_file,
    write_manifest,
)
from .errors import GestemoError, check_option
from .events import (
    DAVIS346,
    PATTERN_OF_GESTURE,
    Geometry,
    GestureClass,
    StreamSpec,
    synth_stream,
)


@dataclass(frozen=True)
class DatasetSpec:
    """Knobs for the generated dataset; defaults are desk-scale."""

    gestures: Tuple[GestureClass, ...] = tuple(GestureClass)
    per_class: int = 20
    geometry: Geometry = DAVIS346
    duration_us: int = 2_000_000
    min_events: int = 800
    max_events: int = 1200
    min_frames: int = 30
    max_frames: int = 90
    feature_dim: int = 16
    train_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        # counts are drawn and allocated as int64
        if not self.gestures or not 1 <= self.per_class < 1 << 63:
            raise GestemoError("need at least one gesture and one sample per class")
        if len(set(self.gestures)) != len(self.gestures):
            raise GestemoError("duplicate gesture in dataset spec")
        check_option("duration_us", self.duration_us)
        if not (0 < self.min_events <= self.max_events < 1 << 63):
            raise GestemoError("bad event count range")
        if not (1 <= self.min_frames <= self.max_frames < 1 << 63):
            raise GestemoError("bad frame count range")
        if not 1 <= self.feature_dim < 1 << 63:
            raise GestemoError("feature dim must be >= 1 and below 2**63")
        check_option("train_fraction", self.train_fraction)


def train_count(train_fraction: float, n: int) -> int:
    """How many of a class's n samples go to the train split:
    round(train_fraction * n), kept within [1, n]."""
    return min(max(int(round(train_fraction * n)), 1), n)


def class_direction(gesture: GestureClass, dim: int) -> np.ndarray:
    """Deterministic unit feature direction for a class (not seed-dependent,
    so the same gesture always points the same way)."""
    rng = np.random.default_rng(1000 + PATTERN_OF_GESTURE[gesture])
    d = rng.normal(size=dim)
    return d / np.linalg.norm(d)


def synth_features(gesture: GestureClass, n_frames: int, dim: int,
                   rng: np.random.Generator, amplitude: float = 3.0,
                   noise: float = 0.1) -> FrameFeatureSequence:
    """Half-sine envelope along the class direction plus Gaussian noise."""
    t = np.linspace(0.0, 1.0, n_frames)
    env = amplitude * np.sin(np.pi * t)
    vectors = env[:, None] * class_direction(gesture, dim)[None, :]
    vectors = vectors + rng.normal(scale=noise, size=(n_frames, dim))
    return FrameFeatureSequence(dim, vectors)


def build_dataset(root, spec: DatasetSpec = DatasetSpec(),
                  seed: int = 0) -> SplitManifest:
    """Generate event and feature files plus a manifest under root.

    Within each class the first train_count(train_fraction, per_class)
    samples go to the train split, the rest to test.  Same seed, same bytes.
    """
    root = os.path.abspath(root)
    os.makedirs(os.path.join(root, "events"), exist_ok=True)
    os.makedirs(os.path.join(root, "features"), exist_ok=True)
    n_train = train_count(spec.train_fraction, spec.per_class)
    entries = []
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(spec.gestures) * spec.per_class)
    ci = 0
    for gesture in spec.gestures:
        for i in range(spec.per_class):
            child = children[ci]
            ci += 1
            rng = np.random.default_rng(child)
            n_events = int(rng.integers(spec.min_events, spec.max_events + 1))
            n_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            stream_seed = int(child.generate_state(1)[0])
            stream = synth_stream(
                StreamSpec(geometry=spec.geometry, duration_us=spec.duration_us,
                           n_events=n_events,
                           pattern=PATTERN_OF_GESTURE[gesture]),
                seed=stream_seed)
            feats = synth_features(gesture, n_frames, spec.feature_dim, rng)
            sid = f"{gesture.value}-{i:04d}"
            ev_rel = os.path.join("events", f"{sid}.csv")
            ft_rel = os.path.join("features", f"{sid}.txt")
            write_events_file(stream, os.path.join(root, ev_rel))
            write_feature_file(feats, os.path.join(root, ft_rel))
            entries.append(ManifestEntry(
                id=sid, gesture=gesture, events=ev_rel,
                split="train" if i < n_train else "test", features=ft_rel))
    manifest = SplitManifest(root=root, entries=entries)
    write_manifest(manifest, os.path.join(root, "manifest.json"))
    return manifest

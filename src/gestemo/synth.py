"""Synthetic labeled datasets at desk scale.

Each gesture class gets a distinct spatial event pattern (see events) and a
distinct per-frame feature signature: a fixed random unit direction scaled
by a half-sine envelope over the clip, plus sample noise.  Samples are
written one at a time through dataio.write_dataset, which writes the
manifest last, so a crashed build never leaves a readable-but-wrong dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Tuple

import numpy as np

from .dataio import (
    FrameFeatureSequence,
    SplitManifest,
    class_ids,
    write_dataset,
)
from .errors import RANGES, GestemoError, check_option, physical_memory
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
        for f in fields(self):
            if f.name in RANGES:
                check_option(f.name, getattr(self, f.name))
        if not self.gestures:
            raise GestemoError("need at least one gesture")
        if len(set(self.gestures)) != len(self.gestures):
            raise GestemoError("duplicate gesture in dataset spec")
        if self.min_events > self.max_events:
            raise GestemoError("bad event count range")
        if self.min_frames > self.max_frames:
            raise GestemoError("bad frame count range")
        # one sample's arrays: max_events rows of four int64 columns and
        # max_frames x feature_dim float64 values
        sample = 32 * self.max_events + 8 * self.max_frames * self.feature_dim
        memory = physical_memory()
        if sample > memory:
            raise GestemoError(
                f"max_events {self.max_events}, max_frames {self.max_frames} and "
                f"feature_dim {self.feature_dim} make a sample of {sample} bytes, "
                f"more than the {memory} bytes of physical memory")


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


def _synth_samples(spec: DatasetSpec, seed: int) -> Iterator[tuple]:
    """The dataset's samples in order, each from its own child seed."""
    ss = np.random.SeedSequence(seed)
    for gesture in spec.gestures:
        for sid, split in class_ids(gesture, spec.per_class, spec.train_fraction):
            child, = ss.spawn(1)
            rng = np.random.default_rng(child)
            n_events = int(rng.integers(spec.min_events, spec.max_events + 1))
            n_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            stream = synth_stream(
                StreamSpec(geometry=spec.geometry, duration_us=spec.duration_us,
                           n_events=n_events, pattern=PATTERN_OF_GESTURE[gesture]),
                seed=int(child.generate_state(1)[0]))
            yield (sid, gesture, split, stream,
                   synth_features(gesture, n_frames, spec.feature_dim, rng))


def build_dataset(root, spec: DatasetSpec = DatasetSpec(),
                  seed: int = 0) -> SplitManifest:
    """Generate event and feature files plus a manifest under root (see
    dataio.write_dataset).  Same seed, same bytes."""
    return write_dataset(root, _synth_samples(spec, seed))

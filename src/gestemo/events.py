"""Core domain types: events, streams, the gesture/emotion taxonomy, and a
seeded synthetic stream generator for desk-scale experiments.

Timestamps are integer microseconds throughout; ties are legal (several
pixels may fire within the same microsecond).  Streams are immutable after
construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import GestemoError, check_option


class GestureClass(str, Enum):
    OK = "ok"
    HELLO = "hello"
    NO = "no"
    KILL = "kill"
    VICTORY = "victory"
    GOOD = "good"
    YES = "yes"
    LOVE = "love"
    FIGHTING = "fighting"
    OTHER = "other"


class EmotionClass(str, Enum):
    NEUTRAL = "Neutral"
    NEGATIVE = "Negative"
    POSITIVE = "Positive"


# Gesture -> affective disposition.  `other` is the redundant category and
# carries no emotion.
_EMOTION_OF = {
    GestureClass.OK: EmotionClass.NEUTRAL,
    GestureClass.HELLO: EmotionClass.NEUTRAL,
    GestureClass.NO: EmotionClass.NEGATIVE,
    GestureClass.KILL: EmotionClass.NEGATIVE,
    GestureClass.VICTORY: EmotionClass.POSITIVE,
    GestureClass.GOOD: EmotionClass.POSITIVE,
    GestureClass.YES: EmotionClass.POSITIVE,
    GestureClass.LOVE: EmotionClass.POSITIVE,
    GestureClass.FIGHTING: EmotionClass.POSITIVE,
}

#: Gestures that carry an emotion, in canonical order (excludes `other`).
LABELED_GESTURES = tuple(g for g in GestureClass if g is not GestureClass.OTHER)


def emotion_of(gesture: GestureClass) -> Optional[EmotionClass]:
    """Emotion associated with a gesture; None for the `other` category."""
    return _EMOTION_OF.get(GestureClass(gesture))


@dataclass(frozen=True)
class Geometry:
    """Sensor geometry: width = column count, height = row count."""

    width: int
    height: int

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   and 1 <= v < 1 << 63 for v in (self.width, self.height)):
            raise GestemoError(f"geometry must be positive integers below 2**63, "
                               f"got {self.width}x{self.height}")


#: DAVIS346 sensor geometry, the capture device the real dataset uses.
DAVIS346 = Geometry(346, 260)


class EventStream:
    """Immutable, time-ordered container of events for one recording.

    Internally stores four parallel int64 arrays (t, x, y, p).  Construct
    through :meth:`from_arrays`, which enforces non-decreasing timestamps,
    geometry bounds and polarity in {0, 1}, naming the first bad index.
    """

    __slots__ = ("geometry", "t", "x", "y", "p")

    def __init__(self, geometry: Geometry, t, x, y, p, _validated: bool = False):
        self.geometry = geometry
        self.t = np.asarray(t, dtype=np.int64)
        self.x = np.asarray(x, dtype=np.int64)
        self.y = np.asarray(y, dtype=np.int64)
        self.p = np.asarray(p, dtype=np.int64)
        for a in (self.t, self.x, self.y, self.p):
            a.setflags(write=False)
        if not _validated:
            _check_arrays(self.t, self.x, self.y, self.p, geometry)

    @classmethod
    def from_arrays(cls, t, x, y, p, geometry: Geometry) -> "EventStream":
        return cls(geometry, t, x, y, p)

    @classmethod
    def empty(cls, geometry: Geometry) -> "EventStream":
        z = np.zeros(0, dtype=np.int64)
        return cls(geometry, z, z, z, z, _validated=True)

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.geometry == other.geometry
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y)
                and np.array_equal(self.p, other.p))

    def __repr__(self) -> str:
        g = self.geometry
        return f"EventStream({len(self)} events, {g.width}x{g.height})"

    def slice(self, start: int, stop: int) -> "EventStream":
        """Contiguous sub-stream [start, stop); inherits validity."""
        return EventStream(self.geometry, self.t[start:stop], self.x[start:stop],
                           self.y[start:stop], self.p[start:stop], _validated=True)

    def duration_us(self) -> int:
        """t_last - t_first; 0 for streams with fewer than two events."""
        if len(self) < 2:
            return 0
        return int(self.t[-1] - self.t[0])


def _check_arrays(t, x, y, p, geometry: Geometry) -> None:
    n = t.shape[0]
    if not (x.shape[0] == y.shape[0] == p.shape[0] == n):
        raise GestemoError("field arrays have unequal lengths")
    if n == 0:
        return
    bad = np.nonzero(np.diff(t) < 0)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise GestemoError(
            f"timestamp decreases at index {i} ({t[i - 1]} -> {t[i]})")
    oob = np.nonzero((t < 0) | (x < 0) | (x >= geometry.width)
                     | (y < 0) | (y >= geometry.height))[0]
    if oob.size:
        i = int(oob[0])
        raise GestemoError(
            f"event {i} ({x[i]},{y[i]},t={t[i]}) outside "
            f"{geometry.width}x{geometry.height}")
    badp = np.nonzero((p != 0) & (p != 1))[0]
    if badp.size:
        i = int(badp[0])
        raise GestemoError(f"event {i} has polarity {p[i]}")


@dataclass(frozen=True)
class StreamSpec:
    """Parameters for the synthetic stream generator.

    pattern selects one of the spatial trajectories below (one per gesture),
    so different classes produce visibly different per-pixel statistics.
    """

    geometry: Geometry
    duration_us: int
    n_events: int
    pattern: int = 0
    positive_fraction: float = 0.5

    def __post_init__(self):
        check_option("duration_us", self.duration_us)
        if self.n_events < 0:
            raise GestemoError(f"n_events must be >= 0, got {self.n_events}")
        if not (0.0 <= self.positive_fraction <= 1.0):
            raise GestemoError(
                f"positive_fraction must be in [0,1], got {self.positive_fraction}")


N_PATTERNS = 10

#: pattern index assigned to each gesture in the synthetic generator
PATTERN_OF_GESTURE = {g: i for i, g in enumerate(GestureClass)}


def _trajectory(pattern: int, s: np.ndarray, width: int, height: int):
    """Trajectory center at normalized time s in [0,1] for a pattern id.

    Loose sketches of the gesture motions: sweeps, shakes, circles, and a
    uniform scatter for the redundant class.  Returns (cx, cy) float arrays
    in pixel units.
    """
    w, h = float(width), float(height)
    two_pi = 2.0 * np.pi
    k = pattern % N_PATTERNS
    if k == 0:    # small circle, upper-left
        cx = 0.30 * w + 0.15 * w * np.cos(two_pi * s)
        cy = 0.30 * h + 0.15 * h * np.sin(two_pi * s)
    elif k == 1:  # horizontal sweep, upper band
        cx = (0.10 + 0.80 * s) * w
        cy = np.full_like(s, 0.25 * h)
    elif k == 2:  # left-right shake at mid height
        cx = (0.50 + 0.35 * np.sin(two_pi * 3.0 * s)) * w
        cy = np.full_like(s, 0.50 * h)
    elif k == 3:  # horizontal sweep, lower band
        cx = (0.90 - 0.80 * s) * w
        cy = np.full_like(s, 0.75 * h)
    elif k == 4:  # rising diagonal
        cx = (0.10 + 0.80 * s) * w
        cy = (0.90 - 0.80 * s) * h
    elif k == 5:  # vertical sweep, left
        cx = np.full_like(s, 0.30 * w)
        cy = (0.10 + 0.80 * s) * h
    elif k == 6:  # up-down nod at mid width
        cx = np.full_like(s, 0.50 * w)
        cy = (0.50 + 0.35 * np.sin(two_pi * 3.0 * s)) * h
    elif k == 7:  # wide circle, lower-right
        cx = 0.65 * w + 0.25 * w * np.cos(two_pi * s)
        cy = 0.60 * h + 0.25 * h * np.sin(two_pi * s)
    elif k == 8:  # vertical sweep, right
        cx = np.full_like(s, 0.80 * w)
        cy = (0.90 - 0.80 * s) * h
    else:         # uniform scatter (redundant class)
        cx = np.full_like(s, 0.5 * w)
        cy = np.full_like(s, 0.5 * h)
    return cx, cy


def synth_stream(spec: StreamSpec, seed: int) -> EventStream:
    """Generate a deterministic synthetic event stream.

    Events are sorted by time; positions follow the pattern trajectory with
    Gaussian jitter (the scatter pattern uses uniform positions instead).
    """
    g = spec.geometry
    if spec.n_events == 0:
        return EventStream.empty(g)
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, spec.duration_us + 1, size=spec.n_events))
    s = t / max(spec.duration_us, 1)
    if spec.pattern % N_PATTERNS == 9:
        x = rng.integers(0, g.width, size=spec.n_events)
        y = rng.integers(0, g.height, size=spec.n_events)
    else:
        cx, cy = _trajectory(spec.pattern, s.astype(np.float64), g.width, g.height)
        sigma = 0.06 * min(g.width, g.height)
        x = np.clip(np.rint(cx + sigma * rng.standard_normal(spec.n_events)),
                    0, g.width - 1).astype(np.int64)
        y = np.clip(np.rint(cy + sigma * rng.standard_normal(spec.n_events)),
                    0, g.height - 1).astype(np.int64)
    p = (rng.random(spec.n_events) < spec.positive_fraction).astype(np.int64)
    return EventStream(g, t.astype(np.int64), x, y, p, _validated=True)


@dataclass(frozen=True)
class SampleRecord:
    """One labeled multimodal sample; features is None for event-only
    experiments."""

    id: str
    gesture: GestureClass
    events: EventStream
    features: Optional["FrameFeatureSequence"] = None  # noqa: F821

    @property
    def emotion(self) -> Optional[EmotionClass]:
        """The gesture's emotion; None for `other`."""
        return emotion_of(self.gesture)

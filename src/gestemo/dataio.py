"""File formats and dataset manifests.

Four plain-text formats, chosen to be human-inspectable and diffable:

* event file    -- header ``t,x,y,p geometry=WxH`` then one ``t,x,y,p``
                   integer row per event, sorted by t
* feature file  -- header ``D=<int>`` then one whitespace-separated real row
                   per video frame
* plane file    -- header ``K,W,H`` then K*2 whitespace-separated rows of
                   H*W integer counts, in (k, polarity) order
* tag file      -- one integer timestamp per line, no header
* manifest      -- a single JSON document listing samples, labels, file
                   paths (relative to the manifest's directory) and their
                   train/test split

Event, feature, plane and tag rows share one parser, ``_parse_rows``, and
so one wording for each kind of bad row, always naming ``file:line``.
Header sizes must fit int64, like integer fields.

The event, feature and plane writers give one spelling of each value:
integers without sign or leading zeros, reals as ``%.17g``.

Feature loaders expose truncate/pad normalization: most recordings sit
under 100 frames, so the default pads or truncates to 100.  Padding is
applied at the FRONT so a recurrent reader's final state always sees the
real frames.
"""

from __future__ import annotations

import io
import json
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .encode import DenseSpikePlanes
from .errors import GestemoError, ParseError
from .events import (
    EmotionClass,
    EventStream,
    Geometry,
    GestureClass,
    SampleRecord,
    emotion_of,
)

#: default frame-count normalization for feature sequences
DEFAULT_FRAME_LIMIT = 100

#: rows per write in write_events_file, so the file text never sits whole
#: in memory
_WRITE_CHUNK = 65_536

_EVENT_HEADER = re.compile(r"^t,x,y,p geometry=(\d+)x(\d+)$")
_FEATURE_HEADER = re.compile(r"^D=(\d+)$")
#: an integer field that int() refuses only for its length
_DIGITS = re.compile(r"\s*[+-]?[0-9]+\s*")
#: characters of a bad field or header quoted in an error message
_QUOTE_MAX = 40


def _quote(text: str) -> str:
    """repr of text, cut to its first _QUOTE_MAX characters."""
    return repr(text if len(text) <= _QUOTE_MAX else text[:_QUOTE_MAX] + "...")


@dataclass(frozen=True)
class FrameFeatureSequence:
    """Per-frame feature vectors for one recording: an (N, D) real matrix."""

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise ParseError(f"expected (N,{self.dim}) matrix, got {v.shape}")
        if v.shape[0] < 1:
            raise ParseError("feature sequence must contain at least one frame")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def normalized(self, frame_limit: int = DEFAULT_FRAME_LIMIT) -> np.ndarray:
        """Return a (frame_limit, D) matrix: truncated if longer, zero-padded
        at the front if shorter."""
        v = self.vectors
        if len(self) >= frame_limit:
            return v[:frame_limit].copy()
        out = np.zeros((frame_limit, self.dim))
        out[frame_limit - len(self):] = v
        return out


def _read_text(path) -> Tuple[str, str]:
    """The first line, without its newline, and the rest of a UTF-8 file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.readline().rstrip("\n"), f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})")


def _int_field(text: str) -> int:
    """int(text), or 2**64 for a decimal integer too long for int() (over
    4,300 digits, far past int64), so that a range check refuses it.
    ValueError for anything else."""
    try:
        return int(text)
    except ValueError:
        if not _DIGITS.fullmatch(text):
            raise
        return 1 << 64


def _header_ints(path, kind: str, header: str, texts) -> List[int]:
    """The integer sizes a file header declares, each within int64."""
    try:
        values = [_int_field(v) for v in texts]
    except ValueError:
        raise ParseError(f"{path}: bad {kind} header {_quote(header)}", line=1)
    if any(not -(1 << 63) <= v < 1 << 63 for v in values):
        raise ParseError(f"{path}:1: {kind} header {_quote(header)} holds a value "
                         f"outside the int64 range", line=1)
    return values


def _decimal_rows(cols, seps: str) -> str:
    """Rows of equal-length, non-empty, non-negative int64 columns as
    decimal text: each field is followed by its own separator, seps[j]
    after cols[j], so the bytes equal f"{v}{sep}" field by field.  The
    digits are made one decimal place at a time over a whole column, each
    column in its own width, and one mask then drops the leading-zero
    places."""
    widths = [len(str(int(c.max()))) for c in cols]
    ends = np.cumsum(widths) + np.arange(len(cols))  # each separator's place
    buf = np.empty((len(cols[0]), int(ends[-1]) + 1), np.uint8)
    keep = np.ones(buf.shape, bool)
    for c, w, end in zip(cols, widths, ends):
        v = c
        for place in range(end - 1, end - w, -1):
            q = v // 10
            buf[:, place] = v - q * 10
            v = q
        buf[:, end - w] = v
        for j in range(1, w):  # the place worth 10**j holds a digit if c >= 10**j
            np.greater_equal(c, 10 ** j, out=keep[:, end - 1 - j])
    buf += ord("0")
    buf[:, ends] = np.frombuffer(seps.encode("ascii"), np.uint8)
    return buf[keep].tobytes().decode("ascii")


def read_events_file(path) -> EventStream:
    """Parse an event file; validation (ordering, bounds) happens on load."""
    header, body = _read_text(path)
    m = _EVENT_HEADER.match(header)
    if not m:
        raise ParseError(f"{path}: bad event header {_quote(header)}", line=1)
    geometry = Geometry(*_header_ints(path, "event", header, m.groups()))
    rows = _parse_rows(body, path, np.int64, 4, ",")
    if rows.shape[0] == 0:
        return EventStream.empty(geometry)
    return EventStream.from_arrays(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
                                   geometry)


def write_events_file(stream: EventStream, path) -> None:
    """Inverse of read_events_file: round-trips to an equal stream."""
    g = stream.geometry
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"t,x,y,p geometry={g.width}x{g.height}\n")
        for lo in range(0, len(stream), _WRITE_CHUNK):
            part = slice(lo, lo + _WRITE_CHUNK)
            f.write(_decimal_rows((stream.t[part], stream.x[part], stream.y[part],
                                   stream.p[part]), ",,,\n"))


def read_feature_file(path) -> FrameFeatureSequence:
    """Parse a feature file; D comes from the header, rows must all match and
    every value must be finite."""
    header, body = _read_text(path)
    m = _FEATURE_HEADER.match(header)
    if not m:
        raise ParseError(f"{path}: bad feature header {_quote(header)}", line=1)
    dim, = _header_ints(path, "feature", header, m.groups())
    rows = _parse_rows(body, path, np.float64, dim, None)
    if len(rows) == 0:
        raise ParseError(f"{path}: feature file has no rows")
    return FrameFeatureSequence(dim, rows)


def write_feature_file(seq: FrameFeatureSequence, path) -> None:
    """Writes with enough digits that float64 values round-trip exactly."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"D={seq.dim}\n")
        row = " ".join(["%.17g"] * seq.dim) + "\n"
        f.write("".join([row % tuple(values) for values in seq.vectors.tolist()]))


def _fast_rows(body: str, dtype, n_cols: int, delimiter) -> Optional[np.ndarray]:
    """One C-level parse of a non-blank file body into an (N, n_cols) array
    of finite values, or None where it refuses; the caller then parses row
    by row, which either accepts the body or names the offending line.
    comments=None keeps a row that starts with '#' from being skipped.  A
    warning counts as a refusal: some numpy versions parse an integer field
    such as '1.5' through float, truncating it, and only warn.  A body that
    is not ASCII is refused unparsed: numpy 2.4's parser crashes the
    interpreter on some characters, such as U+D0000 and U+F0000."""
    if not body.isascii():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=delimiter,
                              ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    if rows.shape[1] != n_cols or not np.isfinite(rows).all():
        return None
    return rows


def _parse_rows(body: str, path, dtype, n_cols: int, delimiter,
                first_line: int = 2) -> np.ndarray:
    """The (N, n_cols) rows of a file body that starts on file line
    first_line, blank lines skipped: one C-level parse, or row by row where
    that refuses.  A blank body gives an empty array, never a (0, n_cols)
    one: n_cols may come from a header and exceed any array dimension."""
    rows = _fast_rows(body, dtype, n_cols, delimiter) if body.strip() else None
    if rows is None:
        rows = _parse_rows_slow(body, path, dtype, n_cols, delimiter, first_line)
    return rows


def _parse_rows_slow(body: str, path, dtype, n_cols: int, delimiter,
                     first_line: int = 2) -> np.ndarray:
    """Row-by-row parse: the reference the fast path must agree with, and the
    source of errors that name the offending file line.  Each row is checked
    for its field count, then for each value, then for range and
    finiteness."""
    convert, kind = ((_int_field, "non-integer") if dtype is np.int64
                     else (float, "non-numeric"))
    rows = []
    for lineno, physical in enumerate(body.split("\n"), start=first_line):
        # comma rows end wherever str.splitlines ends a line; whitespace rows
        # are whole physical lines.  Errors count file lines.
        for line in physical.splitlines() if delimiter else (physical,):
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) != n_cols:
                raise ParseError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(parts)}",
                    line=lineno)
            values = []
            for v in parts:
                try:
                    values.append(convert(v))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: {kind} value {_quote(v)}",
                                     line=lineno)
            try:
                row = np.array(values, dtype=dtype)
            except OverflowError:
                raise ParseError(f"{path}:{lineno}: integer value outside the "
                                 f"int64 range", line=lineno)
            if not np.isfinite(row).all():
                raise ParseError(f"{path}:{lineno}: non-finite value", line=lineno)
            rows.append(row)
    return np.array(rows, dtype=dtype)


def write_planes_file(planes: DenseSpikePlanes, path) -> None:
    """Plane file: header ``K,W,H`` then one line of H*W integers per
    polarity plane, K*2 lines in (k, polarity) order."""
    g = planes.geometry
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{planes.k},{g.width},{g.height}\n")
        flat = planes.counts.reshape(planes.k * 2, g.height * g.width)
        for row in flat:
            f.write(_decimal_rows((row,), " ")[:-1] + "\n")


def read_planes_file(path) -> DenseSpikePlanes:
    """Parse a plane file; the header's K, W and H fix the row count and the
    row length."""
    header, body = _read_text(path)
    header = header.strip()
    parts = header.split(",")
    if len(parts) != 3:
        raise ParseError(f"{path}: bad planes header {_quote(header)}", line=1)
    k, w, h = _header_ints(path, "planes", header, parts)
    if min(k, w, h) < 1:
        raise ParseError(f"{path}:1: K, W and H must be >= 1, got {_quote(header)}",
                         line=1)
    rows = _parse_rows(body, path, np.int64, h * w, None)
    if len(rows) != k * 2:
        raise ParseError(f"{path}: expected {k * 2} plane rows, got {len(rows)}")
    return DenseSpikePlanes(k=k, geometry=Geometry(w, h),
                            counts=rows.reshape(k, 2, h, w))


def read_tags_file(path) -> np.ndarray:
    """Parse a tag file into an int64 array, one timestamp per line."""
    first, rest = _read_text(path)
    return _parse_rows(first + "\n" + rest, path, np.int64, 1, None,
                       first_line=1).reshape(-1)


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    gesture: GestureClass
    events: str
    split: str
    features: Optional[str] = None


@dataclass
class SplitManifest:
    """Parsed dataset manifest; paths in entries are relative to root."""

    root: str
    entries: List[ManifestEntry] = field(default_factory=list)

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ParseError(f"duplicate sample id {dup!r} in manifest")
        self._by_id: Dict[str, ManifestEntry] = {e.id: e for e in self.entries}

    def ids(self, split: Optional[str] = None) -> List[str]:
        return [e.id for e in self.entries if split is None or e.split == split]

    def entry(self, sample_id: str) -> ManifestEntry:
        try:
            return self._by_id[sample_id]
        except KeyError:
            raise GestemoError(f"sample id {sample_id!r} not in manifest")

    def path_of(self, rel: str) -> str:
        return os.path.join(self.root, rel)


def read_manifest(path) -> SplitManifest:
    """Load and validate a manifest: unique ids, known labels and splits,
    and every referenced file present on disk."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # bad JSON, too deep, not UTF-8
            raise ParseError(f"{path}: invalid JSON ({e})")
    if not (isinstance(doc, dict) and isinstance(doc.get("root", "."), str)
            and isinstance(doc.get("entries", []), list)):
        raise ParseError(f"{path}: expected an object with a string root "
                         f"and a list of entries")
    root = os.path.join(os.path.dirname(os.path.abspath(path)),
                        doc.get("root", "."))
    entries = []
    for i, raw in enumerate(doc.get("entries", [])):
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        try:
            gesture = GestureClass(raw["gesture"])
            sample_id, events = str(raw["id"]), raw["events"]
        except ValueError:
            raise GestemoError(f"entry {i}: unknown gesture {raw['gesture']!r}")
        except KeyError as e:
            raise ParseError(f"{path}: entry {i} missing key {e}")
        features = raw.get("features")
        if not isinstance(events, str) or not isinstance(features, (str, type(None))):
            raise ParseError(f"{path}: entry {i} file paths must be strings")
        split = raw.get("split", "train")
        if split not in ("train", "test"):
            raise ParseError(f"{path}: entry {i} has unknown split {split!r}")
        entries.append(ManifestEntry(id=sample_id, gesture=gesture,
                                     events=events, split=split,
                                     features=features))
    manifest = SplitManifest(root=root, entries=entries)
    for e in manifest.entries:
        for rel in filter(None, (e.events, e.features)):
            p = manifest.path_of(rel)
            if not os.path.isfile(p):
                raise GestemoError(f"manifest entry {e.id!r} references missing {p}")
    return manifest


def write_manifest(manifest: SplitManifest, path) -> None:
    doc = {
        "root": os.path.relpath(manifest.root, os.path.dirname(os.path.abspath(path))),
        "entries": [
            {k: v for k, v in (("id", e.id), ("gesture", e.gesture.value),
                               ("events", e.events), ("features", e.features),
                               ("split", e.split)) if v is not None}
            for e in manifest.entries
        ],
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    os.replace(tmp, path)  # manifest appears atomically, after all data files


def load_sample(manifest: SplitManifest, sample_id: str) -> SampleRecord:
    """Assemble a SampleRecord for one manifest entry; emotion is derived
    from the gesture label."""
    e = manifest.entry(sample_id)
    events_path = manifest.path_of(e.events)
    if not os.path.isfile(events_path):
        raise GestemoError(f"sample {sample_id!r}: missing event file {events_path}")
    stream = read_events_file(events_path)
    features = None
    if e.features is not None:
        fpath = manifest.path_of(e.features)
        if not os.path.isfile(fpath):
            raise GestemoError(f"sample {sample_id!r}: missing feature file {fpath}")
        features = read_feature_file(fpath)
    return SampleRecord(id=e.id, gesture=e.gesture, emotion=emotion_of(e.gesture),
                        events=stream, features=features)


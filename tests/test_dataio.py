import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gestemo import dataio
from gestemo.dataio import (
    FrameFeatureSequence,
    _parse_rows,
    _parse_rows_slow,
    ManifestEntry,
    SplitManifest,
    load_sample,
    read_events_file,
    read_feature_file,
    read_manifest,
    read_planes_file,
    read_tags_file,
    write_events_file,
    write_feature_file,
    write_manifest,
)
from gestemo.errors import GestemoError, ParseError
from gestemo.events import (
    DAVIS346,
    EmotionClass,
    EventStream,
    Geometry,
    GestureClass,
    StreamSpec,
    synth_stream,
)


def test_events_file_roundtrip_empty(tmp_path):
    s = synth_stream(StreamSpec(DAVIS346, 1000, 0), seed=0)
    p = tmp_path / "e.csv"
    write_events_file(s, p)
    assert read_events_file(p) == s


def test_events_file_roundtrip_random(tmp_path):
    s = synth_stream(StreamSpec(DAVIS346, 500000, 1000), seed=4)
    p = tmp_path / "e.csv"
    write_events_file(s, p)
    back = read_events_file(p)
    assert back == s
    assert back.geometry == DAVIS346


def test_events_file_explicit_rows(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("t,x,y,p geometry=346x260\n0,1,2,1\n3,4,5,0\n")
    s = read_events_file(p)
    assert len(s) == 2
    assert list(s.t) == [0, 3]
    assert list(s.x) == [1, 4]
    assert list(s.p) == [1, 0]


def test_events_file_bad_cell(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("t,x,y,p geometry=346x260\n5,abc,2,1\n")
    with pytest.raises(ParseError) as ei:
        read_events_file(p)
    assert ei.value.line == 2


@pytest.mark.parametrize("row, message", [
    ("2,1,1", "expected 4 fields, got 3"),
    ("2,1,x,1", "non-integer value 'x'"),
])
def test_events_file_error_names_file_line_after_blank_lines(tmp_path, row, message):
    p = tmp_path / "bad.csv"
    p.write_text(f"t,x,y,p geometry=346x260\n0,1,1,1\n\n  \n{row}\n")
    with pytest.raises(ParseError) as ei:
        read_events_file(p)
    assert ei.value.line == 5
    assert str(ei.value) == f"{p}:5: {message}"


def test_events_file_refuses_hash_rows(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("t,x,y,p geometry=346x260\n0,1,1,1\n#1,1,1,1\n")
    with pytest.raises(ParseError) as ei:
        read_events_file(p)
    assert ei.value.line == 3


@pytest.mark.parametrize("cell", ["1.0", "1e3", "1.5"])
def test_events_file_refuses_float_text(tmp_path, cell):
    p = tmp_path / "e.csv"
    p.write_text(f"t,x,y,p geometry=346x260\n{cell},1,1,1\n")
    with pytest.raises(ParseError) as ei:
        read_events_file(p)
    assert str(ei.value) == f"{p}:2: non-integer value {cell!r}"


@pytest.mark.parametrize("digits", ["1" * 5000, "-" + "9" * 5000, " +" + "1" * 4301])
def test_integer_too_long_for_int_is_out_of_range(tmp_path, digits):
    # int() refuses more than 4,300 digits; such a field is an integer all
    # the same, just far outside int64
    events = tmp_path / "e.csv"
    events.write_text(f"t,x,y,p geometry=346x260\n0,1,1,1\n{digits},1,1,1\n")
    planes = tmp_path / "planes.csv"
    planes.write_text(f"1,2,1\n0 1\n{digits} 0\n")
    for path, reader in ((events, read_events_file), (planes, read_planes_file)):
        with pytest.raises(ParseError) as ei:
            reader(path)
        assert str(ei.value) == f"{path}:3: integer value outside the int64 range"
        assert ei.value.line == 3


def test_bad_field_and_header_quotes_are_cut(tmp_path):
    long_bad = "x" * 5000
    events = tmp_path / "e.csv"
    events.write_text(f"t,x,y,p geometry=346x260\n{long_bad},1,1,1\n")
    planes = tmp_path / "planes.csv"
    planes.write_text(f"1,2,1\n0 {long_bad}\n0 0\n")
    header = tmp_path / "h.csv"
    header.write_text(f"t,x,y,p {long_bad}\n0,1,1,1\n")
    for path, reader, where in ((events, read_events_file, ":2: non-integer value "),
                                (planes, read_planes_file, ":2: non-integer value "),
                                (header, read_events_file, ": bad event header ")):
        with pytest.raises(ParseError) as ei:
            reader(path)
        message = str(ei.value)
        assert message.startswith(f"{path}{where}'")
        assert len(message) < len(str(path)) + 100


def test_loadtxt_warning_falls_back_to_row_by_row(tmp_path, monkeypatch):
    # numpy versions that parse '1.5' into an int64 column through float
    # warn instead of refusing; the warning must not let the value through
    def lenient_loadtxt(*args, **kwargs):
        warnings.warn("Parsing an integer via a float is deprecated",
                      DeprecationWarning)
        return np.array([[1, 1, 1, 1]])
    monkeypatch.setattr(dataio.np, "loadtxt", lenient_loadtxt)
    p = tmp_path / "e.csv"
    p.write_text("t,x,y,p geometry=346x260\n1.5,1,1,1\n")
    with pytest.raises(ParseError) as ei:
        read_events_file(p)
    assert ei.value.line == 2


def test_events_file_written_in_chunks_is_byte_identical(tmp_path, monkeypatch):
    stream = synth_stream(StreamSpec(Geometry(20, 10), 9_000, 10), seed=3)
    monkeypatch.setattr(dataio, "_WRITE_CHUNK", 3)
    p = tmp_path / "e.csv"
    write_events_file(stream, p)
    rows = "".join(f"{t},{x},{y},{q}\n" for t, x, y, q in
                   zip(stream.t, stream.x, stream.y, stream.p))
    assert p.read_text() == "t,x,y,p geometry=20x10\n" + rows
    assert read_events_file(p) == stream


def _text_bytes(text):
    """The bytes a text-mode writer gives for text: newline per platform."""
    return text.replace("\n", os.linesep).encode("ascii")


def _events_oracle(stream):
    """Event file text written one value at a time, the reference bytes."""
    g = stream.geometry
    return f"t,x,y,p geometry={g.width}x{g.height}\n" + "".join(
        f"{t},{x},{y},{p}\n" for t, x, y, p in
        zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist()))


@st.composite
def event_streams(draw):
    g = Geometry(draw(st.integers(1, 400)), draw(st.integers(1, 300)))
    n = draw(st.integers(0, 40))
    t = sorted(draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)))
    x = draw(st.lists(st.integers(0, g.width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, g.height - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return EventStream.from_arrays(t, x, y, p, g)


@settings(max_examples=60, deadline=None)
@given(event_streams(), st.integers(1, 8))
@example(EventStream.empty(Geometry(1, 1)), 1)
@example(EventStream.from_arrays([2**63 - 1], [0], [0], [1], Geometry(1, 1)), 1)
@example(EventStream.from_arrays([0, 9, 10, 10**18], [0, 99, 100, 5], [10, 1, 0, 7],
                                 [1, 0, 1, 0], Geometry(101, 11)), 2)
def test_events_file_write_read_property(tmp_path_factory, stream, chunk):
    p = tmp_path_factory.mktemp("ev") / "e.csv"
    with mock.patch.object(dataio, "_WRITE_CHUNK", chunk):
        write_events_file(stream, p)
    assert p.read_bytes() == _text_bytes(_events_oracle(stream))
    assert read_events_file(p) == stream


def test_events_file_bytes_across_the_write_chunk(tmp_path):
    # the one event past the first chunk is the only one with a 19-digit t
    n = dataio._WRITE_CHUNK + 1
    t = np.arange(n)
    t[-1] = 2**63 - 1
    rng = np.random.default_rng(1)
    stream = EventStream.from_arrays(t, rng.integers(0, 346, n), rng.integers(0, 260, n),
                                     rng.integers(0, 2, n), DAVIS346)
    p = tmp_path / "e.csv"
    write_events_file(stream, p)
    assert p.read_bytes() == _text_bytes(_events_oracle(stream))


def _outcome(parse, *args):
    try:
        return "ok", parse(*args).tolist()
    except ParseError as e:
        return type(e).__name__, str(e), e.line


def _bodies(fields, sep):
    """File bodies built from rows of the given fields, plus free text."""
    row = st.lists(st.sampled_from(fields), min_size=1, max_size=5).map(sep.join)
    lines = st.lists(row | st.sampled_from(["", "  "]), max_size=6).map("\n".join)
    return lines | st.text(alphabet="".join(set("".join(fields) + sep + "\n")),
                           max_size=40)


_INT_BODY = _bodies(["0", "17", "-3", "+4", " 5 ", "\t6", "", "x", "#1", "1.0",
                     "1_0", "99999999999999999999"], ",")
# plane rows: whitespace-delimited, with the control characters that
# str.split treats as whitespace and str.splitlines as line ends
_PLANE_BODY = _bodies(["0", "17", "-3", "+4", "\t6", "\x0b", "\x0c", "\x1c",
                       "\r", "x", "#1", "1.0", "1_0", "99999999999999999999"], " ")
_FLOAT_BODY = _bodies(["1", "-2.5", "+.5e-3", "nan", "inf", "-inf", "1e400",
                       "1_0", "x", "#"], " ")


@pytest.mark.parametrize("bodies, n_cols, delimiter",
                         [(_INT_BODY, 4, ","), (_PLANE_BODY, 2, None)],
                         ids=["comma", "whitespace"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_int_parse_matches_row_by_row(bodies, n_cols, delimiter, data):
    body = data.draw(bodies)
    fast = _outcome(_parse_rows, body, "f.csv", np.int64, n_cols, delimiter)
    slow = _outcome(_parse_rows_slow, body, "f.csv", np.int64, n_cols, delimiter)
    if body.strip():
        assert fast == slow
    else:
        assert fast == ("ok", [])


@settings(max_examples=300, deadline=None)
@given(_FLOAT_BODY, st.integers(1, 3))
def test_fast_feature_parse_matches_row_by_row(tmp_path_factory, body, dim):
    p = tmp_path_factory.mktemp("ft") / "f.txt"
    p.write_text(f"D={dim}\n{body}")
    fast = _outcome(lambda: read_feature_file(p).vectors)
    if body.strip():
        assert fast == _outcome(_parse_rows_slow, body, p, np.float64, dim, None)
    else:
        assert fast[0] == "ParseError" and "no rows" in fast[1]


@pytest.mark.parametrize("char", [chr(0xD0000), chr(0xF0000), "\uff11"])
def test_non_ascii_field_is_a_line_numbered_parse_error(tmp_path, char):
    ev = tmp_path / "e.csv"
    ev.write_text(f"t,x,y,p geometry=4x4\n0,1,1,1\n1,{char}x,2,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":3: non-integer value"):
        read_events_file(ev)
    ft = tmp_path / "f.txt"
    ft.write_text(f"D=2\n1 2\n{char}x 2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":3: non-numeric value"):
        read_feature_file(ft)


def test_events_file_bad_header(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("time,x,y,p\n")
    with pytest.raises(ParseError):
        read_events_file(p)


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    seq = FrameFeatureSequence(5, rng.normal(size=(7, 5)))
    p = tmp_path / "f.txt"
    write_feature_file(seq, p)
    back = read_feature_file(p)
    assert back.dim == 5
    assert np.array_equal(back.vectors, seq.vectors)  # exact, not approx


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from(_EDGE_FLOATS), min_size=dim, max_size=dim),
    min_size=1, max_size=5)))
@example([[-0.0]])
@example([[v] for v in _EDGE_FLOATS])
@example([_EDGE_FLOATS])
def test_feature_file_bytes_match_per_value_format(tmp_path_factory, rows):
    seq = FrameFeatureSequence(len(rows[0]), np.array(rows))
    p = tmp_path_factory.mktemp("ft") / "f.txt"
    write_feature_file(seq, p)
    oracle = f"D={seq.dim}\n" + "".join(
        " ".join(format(v, ".17g") for v in row) + "\n" for row in seq.vectors)
    assert p.read_bytes() == _text_bytes(oracle)
    # exact to the bit, the sign of a zero included
    assert read_feature_file(p).vectors.tobytes() == seq.vectors.tobytes()


def test_feature_file_header_and_shape(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("D=3\n1 0 0\n0 1 0\n")
    seq = read_feature_file(p)
    assert seq.dim == 3
    assert len(seq) == 2


def test_feature_file_single_row_ok(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("D=2\n0.5 -1.5\n")
    assert len(read_feature_file(p)) == 1


def test_feature_file_ragged(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("D=3\n1 0 0\n0 1\n")
    with pytest.raises(ParseError, match=":3: expected 3 fields, got 2") as ei:
        read_feature_file(p)
    assert ei.value.line == 3


def test_blank_body_under_a_huge_header_has_no_rows(tmp_path):
    ft = tmp_path / "f.txt"
    ft.write_text("D=9223372036854775807\n\n")   # the largest D a header may declare
    with pytest.raises(ParseError, match="feature file has no rows"):
        read_feature_file(ft)
    pl = tmp_path / "p.txt"
    pl.write_text("1,99999999999,99999999999\n")
    with pytest.raises(ParseError, match="expected 2 plane rows, got 0"):
        read_planes_file(pl)


@pytest.mark.parametrize("reader, text", [
    (read_events_file, "t,x,y,p geometry=4x11111111111111111111\n"),
    (read_events_file, f"t,x,y,p geometry=4x{'1' * 4400}\n"),
    (read_feature_file, "D=9223372036854775808\n1\n"),
    (read_feature_file, f"D={'1' * 4400}\n1\n"),
    (read_planes_file, "1,2,-9223372036854775809\n"),
    (read_planes_file, f"{'1' * 4400},2,2\n"),
], ids=["event_20_digits", "event_4400_digits", "feature_2_63",
        "feature_4400_digits", "planes_below_int64", "planes_4400_digits"])
def test_header_size_outside_int64_is_one_line_parse_error(tmp_path, reader, text):
    p = tmp_path / "f.txt"
    p.write_text(text)
    with pytest.raises(ParseError) as ei:
        reader(p)
    message = str(ei.value)
    assert ei.value.line == 1
    assert message.startswith(f"{p}:1: ")
    assert message.endswith("holds a value outside the int64 range")
    assert len(message) < len(str(p)) + 120


def test_tags_file_rows_count_from_line_one(tmp_path):
    p = tmp_path / "tags.txt"
    p.write_text("5\n\n-3\n 22 \n")
    tags = read_tags_file(p)
    assert tags.dtype == np.int64 and tags.tolist() == [5, -3, 22]
    p.write_text("")
    assert read_tags_file(p).shape == (0,)
    for text, message in [("5\n\n12.5\n", ":3: non-integer value '12.5'"),
                          ("9" * 30 + "\n", ":1: integer value outside the int64 range"),
                          ("1 2\n", ":1: expected 1 fields, got 2")]:
        p.write_text(text)
        with pytest.raises(ParseError) as ei:
            read_tags_file(p)
        assert str(ei.value) == f"{p}{message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_feature_file_refuses_non_finite(tmp_path, value):
    p = tmp_path / "f.txt"
    p.write_text(f"D=2\n1 2\n\n0.5 {value}\n")
    with pytest.raises(ParseError) as ei:
        read_feature_file(p)
    assert ei.value.line == 4
    assert str(ei.value) == f"{p}:4: non-finite value"


def test_normalized_front_padding():
    seq = FrameFeatureSequence(2, np.ones((3, 2)))
    front = seq.normalized(5)
    assert front.shape == (5, 2)
    assert np.array_equal(front[:2], np.zeros((2, 2)))
    assert np.array_equal(front[2:], np.ones((3, 2)))


def test_normalized_truncates():
    seq = FrameFeatureSequence(1, np.arange(8, dtype=float)[:, None])
    out = seq.normalized(4)
    assert out.shape == (4, 1)
    assert list(out[:, 0]) == [0.0, 1.0, 2.0, 3.0]


def _make_dataset(tmp_path, gesture=GestureClass.OK, with_features=True):
    stream = synth_stream(StreamSpec(DAVIS346, 10000, 20), seed=1)
    os.makedirs(tmp_path / "events", exist_ok=True)
    write_events_file(stream, tmp_path / "events" / "a.csv")
    feat_rel = None
    if with_features:
        os.makedirs(tmp_path / "features", exist_ok=True)
        write_feature_file(FrameFeatureSequence(2, np.zeros((4, 2))),
                           tmp_path / "features" / "a.txt")
        feat_rel = "features/a.txt"
    m = SplitManifest(root=str(tmp_path), entries=[
        ManifestEntry("a", gesture, "events/a.csv", "train", feat_rel)])
    write_manifest(m, tmp_path / "manifest.json")
    return m


def test_manifest_roundtrip_and_load_sample(tmp_path):
    _make_dataset(tmp_path)
    m = read_manifest(tmp_path / "manifest.json")
    assert m.ids() == ["a"]
    rec = load_sample(m, "a")
    assert rec.gesture is GestureClass.OK
    assert rec.emotion is EmotionClass.NEUTRAL
    assert len(rec.events) == 20
    assert rec.features is not None and rec.features.dim == 2


def test_manifest_unknown_id(tmp_path):
    m = _make_dataset(tmp_path)
    with pytest.raises(GestemoError, match="sample id 'nope' not in manifest"):
        m.entry("nope")


def test_manifest_missing_file(tmp_path):
    _make_dataset(tmp_path)
    os.remove(tmp_path / "events" / "a.csv")
    with pytest.raises(GestemoError, match="manifest entry 'a' references missing"):
        read_manifest(tmp_path / "manifest.json")


def test_manifest_unknown_label(tmp_path):
    _make_dataset(tmp_path)
    doc = (tmp_path / "manifest.json").read_text()
    (tmp_path / "manifest.json").write_text(doc.replace('"ok"', '"wave"'))
    with pytest.raises(GestemoError, match="entry 0: unknown gesture 'wave'"):
        read_manifest(tmp_path / "manifest.json")


def test_manifest_duplicate_id_rejected(tmp_path):
    e = ManifestEntry("a", GestureClass.OK, "events/a.csv", "train")
    with pytest.raises(ParseError):
        SplitManifest(root=str(tmp_path), entries=[e, e])


def test_split_partition(tmp_path):
    m = _make_dataset(tmp_path)
    train, test = set(m.ids("train")), set(m.ids("test"))
    assert not train & test and train | test == set(m.ids()) == {"a"}

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gestemo.dataio import read_planes_file, write_planes_file
from gestemo.encode import (
    DenseSpikePlanes,
    dense_spike_planes,
    downsample_planes,
    group_sizes,
    scale_planes,
)
from gestemo.errors import GestemoError, ParseError
from gestemo.events import (
    DAVIS346,
    EmotionClass,
    EventStream,
    Geometry,
    GestureClass,
    SampleRecord,
    StreamSpec,
    synth_stream,
)
from gestemo.training import prepare_tensors


def brute_force_planes(stream, k):
    """Per-event loop with explicit group assignment, no vectorization."""
    g = stream.geometry
    counts = np.zeros((k, 2, g.height, g.width), dtype=np.int64)
    base, extra = divmod(len(stream), k)
    start = 0
    for gi in range(k):
        size = base + (1 if gi < extra else 0)
        for j in range(start, start + size):
            counts[gi, stream.p[j], stream.y[j], stream.x[j]] += 1
        start += size
    return counts


def test_group_sizes_front_loaded():
    assert list(group_sizes(1000, 12)) == [84] * 4 + [83] * 8
    assert list(group_sizes(5, 7)) == [1] * 5 + [0] * 2
    assert group_sizes(10, 10).sum() == 10


def test_single_event_lands_in_first_plane():
    s = EventStream.from_arrays([7], [3], [2], [1], Geometry(8, 4))
    planes = dense_spike_planes(s, k=1)
    assert planes.counts[0, 1, 2, 3] == 1
    assert planes.total == 1


def test_trailing_planes_empty_when_k_exceeds_events():
    s = synth_stream(StreamSpec(DAVIS346, 10_000, 5), seed=2)
    planes = dense_spike_planes(s, k=9)
    sums = planes.per_plane_totals()
    assert list(sums) == [1] * 5 + [0] * 4


@pytest.mark.parametrize("k", [1, 7, 12])
def test_matches_brute_force(k):
    s = synth_stream(StreamSpec(Geometry(16, 12), 50_000, 200), seed=k)
    planes = dense_spike_planes(s, k)
    assert np.array_equal(planes.counts, brute_force_planes(s, k))


def test_matches_brute_force_extreme_k():
    s = synth_stream(StreamSpec(Geometry(10, 10), 50_000, 40), seed=3)
    for k in (len(s), 3 * len(s)):
        planes = dense_spike_planes(s, k)
        assert np.array_equal(planes.counts, brute_force_planes(s, k))


def test_event_count_conserved():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 500))
        s = synth_stream(StreamSpec(DAVIS346, 100_000, n), seed=int(rng.integers(1e6)))
        k = int(rng.integers(1, 20))
        assert dense_spike_planes(s, k).total == n


def test_order_within_group_irrelevant():
    # same multiset of (x, y, p) per group gives identical planes
    g = Geometry(6, 6)
    t = [5, 5, 5, 9, 9, 9]
    a = EventStream.from_arrays(t, [0, 1, 2, 3, 4, 5], [0] * 6, [1, 0, 1, 0, 1, 0], g)
    b = EventStream.from_arrays(t, [2, 0, 1, 5, 3, 4], [0] * 6, [1, 1, 0, 0, 0, 1], g)
    pa = dense_spike_planes(a, k=2)
    pb = dense_spike_planes(b, k=2)
    assert np.array_equal(pa.counts, pb.counts)


def test_polarity_channel_assignment():
    g = Geometry(4, 4)
    s = EventStream.from_arrays([1, 2], [0, 0], [0, 0], [0, 1], g)
    planes = dense_spike_planes(s, k=1)
    assert planes.counts[0, 0, 0, 0] == 1  # channel 0 holds negative events
    assert planes.counts[0, 1, 0, 0] == 1


def test_bad_k_and_empty_stream():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 4), seed=0)
    with pytest.raises(GestemoError, match="k must be >= 1, got 0"):
        dense_spike_planes(s, 0)
    empty = EventStream.from_arrays([], [], [], [], DAVIS346)
    with pytest.raises(GestemoError, match="cannot encode an empty stream"):
        dense_spike_planes(empty, 3)


def test_downsample_identity_at_factor_one():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 30), seed=1)
    planes = dense_spike_planes(s, k=3)
    assert downsample_planes(planes, 1) is planes


def test_downsample_block_sum():
    ones = np.ones((1, 2, 4, 4), dtype=np.int64)
    planes = DenseSpikePlanes(k=1, geometry=Geometry(4, 4), counts=ones)
    down = downsample_planes(planes, 2)
    assert down.geometry == Geometry(2, 2)
    assert np.array_equal(down.counts, np.full((1, 2, 2, 2), 4))


def test_downsample_pads_and_conserves():
    s = synth_stream(StreamSpec(Geometry(11, 7), 50_000, 300), seed=6)
    planes = dense_spike_planes(s, k=4)
    down = downsample_planes(planes, 3)
    assert down.geometry == Geometry(4, 3)
    assert down.total == planes.total


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
def test_pooled_encoding_equals_downsampled_full_planes(factor):
    samples = [SampleRecord(id=str(i), gesture=GestureClass.OK,
                            emotion=EmotionClass.NEUTRAL,
                            events=synth_stream(StreamSpec(g, 50_000, n), seed=i))
               for i, (g, n) in enumerate([(Geometry(11, 7), 300),
                                           (Geometry(11, 7), 5)])]
    data = prepare_tensors(samples, 4, downsample=factor, scale_mode="none",
                           target="emotion", branch="snn_only")
    for s, got in zip(samples, data.planes):
        want = downsample_planes(dense_spike_planes(s.events, 4), factor)
        assert np.array_equal(got, want.counts.astype(np.float64))
    for g in (Geometry(13, 9), DAVIS346):
        s = synth_stream(StreamSpec(g, 50_000, 400), seed=factor)
        direct = dense_spike_planes(s, 3, factor=factor)
        pooled = downsample_planes(dense_spike_planes(s, 3), factor)
        assert direct.geometry == pooled.geometry
        assert np.array_equal(direct.counts, pooled.counts)


def test_downsample_bad_factor():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 4), seed=0)
    planes = dense_spike_planes(s, k=1)
    with pytest.raises(GestemoError, match="downsample must be >= 1, got 0"):
        downsample_planes(planes, 0)
    with pytest.raises(GestemoError, match="downsample must be >= 1, got 0"):
        dense_spike_planes(s, 1, factor=0)


def test_scale_modes():
    raw = np.array([0, 1, 3, 0, 2, 4, 0, 0], dtype=np.int64).reshape(1, 2, 2, 2)
    planes = DenseSpikePlanes(k=1, geometry=Geometry(2, 2), counts=raw)
    assert np.array_equal(
        scale_planes(planes, "none"), raw.astype(float))
    assert np.array_equal(
        scale_planes(planes, "clip01").ravel(), [0, 1, 1, 0, 1, 1, 0, 0])
    assert np.array_equal(
        scale_planes(planes, "divide_by_max").ravel(),
        [0, 0.25, 0.75, 0, 0.5, 1.0, 0, 0])
    with pytest.raises(GestemoError, match="scale_mode must be one of"):
        scale_planes(planes, "sqrt")


def test_divide_by_max_all_zero_counts():
    z = np.zeros((2, 2, 3, 3), dtype=np.int64)
    planes = DenseSpikePlanes(k=2, geometry=Geometry(3, 3), counts=z)
    assert scale_planes(planes, "divide_by_max").sum() == 0


def _planes_oracle(planes):
    """Plane file text written one value at a time, the reference bytes."""
    g = planes.geometry
    rows = planes.counts.reshape(planes.k * 2, g.height * g.width)
    text = f"{planes.k},{g.width},{g.height}\n" + "".join(
        " ".join(str(v) for v in row) + "\n" for row in rows)
    return text.replace("\n", os.linesep).encode("ascii")


def test_planes_file_round_trip(tmp_path):
    s = synth_stream(StreamSpec(Geometry(9, 5), 20_000, 120), seed=12)
    planes = dense_spike_planes(s, k=5)
    path = tmp_path / "planes.csv"
    write_planes_file(planes, path)
    assert path.read_bytes() == _planes_oracle(planes)
    back = read_planes_file(path)
    assert back.k == planes.k
    assert back.geometry == planes.geometry
    assert np.array_equal(back.counts, planes.counts)


@st.composite
def plane_sets(draw):
    k, w, h = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 12) | st.integers(0, 2**63 - 1),
                           min_size=k * 2 * h * w, max_size=k * 2 * h * w))
    return DenseSpikePlanes(k=k, geometry=Geometry(w, h),
                            counts=np.array(counts, np.int64).reshape(k, 2, h, w))


@settings(max_examples=100, deadline=None)
@given(plane_sets())
@example(DenseSpikePlanes(k=1, geometry=Geometry(1, 1),
                          counts=np.array([0, 2**63 - 1]).reshape(1, 2, 1, 1)))
@example(DenseSpikePlanes(k=1, geometry=Geometry(4, 1),
                          counts=np.array([0, 10, 9, 100, 99, 1000, 7, 0]).reshape(1, 2, 1, 4)))
def test_planes_file_bytes_match_per_value_format(tmp_path_factory, planes):
    path = tmp_path_factory.mktemp("pl") / "planes.csv"
    write_planes_file(planes, path)
    assert path.read_bytes() == _planes_oracle(planes)
    assert np.array_equal(read_planes_file(path).counts, planes.counts)


@pytest.mark.parametrize("data, message", [
    (b"1,2,1\n0 1\n\xff\xfe 0\n", "not UTF-8 text"),
    (b"1,1,1\n99999999999999999999\n0\n", ":2: integer value outside the int64 range"),
], ids=["not_utf8", "int64_overflow"])
def test_planes_file_bad_body_is_a_parse_error(tmp_path, data, message):
    path = tmp_path / "planes.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=message):
        read_planes_file(path)


@pytest.mark.parametrize("header", ["0,2,2", "-1,2,2", "1,-2,-2", "1,0,3"])
def test_planes_file_header_sizes_below_one_are_refused(tmp_path, header):
    path = tmp_path / "planes.csv"
    path.write_text(f"{header}\n1 2 3 4\n0 0 0 0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":1: K, W and H must be >= 1") as e:
        read_planes_file(path)
    assert e.value.line == 1

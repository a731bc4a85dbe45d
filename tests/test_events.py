import numpy as np
import pytest

from gestemo.errors import GestemoError
from gestemo.events import (
    DAVIS346,
    LABELED_GESTURES,
    EmotionClass,
    EventStream,
    Geometry,
    GestureClass,
    SampleRecord,
    StreamSpec,
    emotion_of,
    synth_stream,
)


def test_taxonomy_sizes():
    assert len(GestureClass) == 10
    assert len(EmotionClass) == 3
    assert len(LABELED_GESTURES) == 9
    assert GestureClass.OTHER not in LABELED_GESTURES


def test_emotion_mapping():
    assert emotion_of(GestureClass.OK) is EmotionClass.NEUTRAL
    assert emotion_of(GestureClass.HELLO) is EmotionClass.NEUTRAL
    assert emotion_of(GestureClass.NO) is EmotionClass.NEGATIVE
    assert emotion_of(GestureClass.KILL) is EmotionClass.NEGATIVE
    for g in (GestureClass.VICTORY, GestureClass.GOOD, GestureClass.YES,
              GestureClass.LOVE, GestureClass.FIGHTING):
        assert emotion_of(g) is EmotionClass.POSITIVE
    assert emotion_of(GestureClass.OTHER) is None


def test_emotion_total_on_named_gestures():
    for g in LABELED_GESTURES:
        assert emotion_of(g) is not None


def one_event(t, x, y, p):
    return EventStream.from_arrays([t], [x], [y], [p], DAVIS346)


def test_make_event_corner_accepted():
    for x, y in ((0, 0), (345, 259)):
        s = one_event(0, x, y, 1)
        assert (s.t[0], s.x[0], s.y[0], s.p[0]) == (0, x, y, 1)


def test_make_event_x_equal_width_rejected():
    with pytest.raises(GestemoError, match=r"event 0 \(346,10,t=5\) outside 346x260"):
        one_event(5, 346, 10, 0)
    with pytest.raises(GestemoError, match="outside 346x260"):
        one_event(-1, 10, 10, 0)


def test_make_event_bad_polarity():
    with pytest.raises(GestemoError, match="event 0 has polarity 2"):
        one_event(5, 10, 10, 2)


def test_validate_stream_empty():
    s = EventStream.from_arrays([], [], [], [], DAVIS346)
    assert len(s) == 0


def test_validate_stream_allows_ties():
    s = EventStream.from_arrays([10, 20, 20], [0, 1, 2], [0, 1, 2], [1, 0, 1],
                                DAVIS346)
    assert list(s.t) == [10, 20, 20]


def test_validate_stream_reports_first_bad_index():
    with pytest.raises(GestemoError, match=r"timestamp decreases at index 2 \(20 -> 5\)"):
        EventStream.from_arrays([10, 20, 5, 1], [0] * 4, [0] * 4, [1] * 4, DAVIS346)
    with pytest.raises(GestemoError, match="event 1 has polarity -1"):
        EventStream.from_arrays([1, 2, 3], [0] * 3, [0] * 3, [0, -1, 7], DAVIS346)


def test_validate_stream_idempotent():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 50), seed=1)
    again = EventStream.from_arrays(s.t, s.x, s.y, s.p, DAVIS346)
    assert again == s
    assert EventStream.from_arrays(again.t, again.x, again.y, again.p,
                                   DAVIS346) == s


def test_synth_zero_events():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 0), seed=0)
    assert len(s) == 0


def test_synth_deterministic():
    spec = StreamSpec(DAVIS346, 100000, 1000, positive_fraction=0.5)
    a = synth_stream(spec, seed=7)
    b = synth_stream(spec, seed=7)
    assert a == b


def test_synth_patterns_differ():
    # distinct trajectories must leave distinct pixel footprints
    g = Geometry(64, 64)
    hists = []
    for pattern in (0, 1):
        s = synth_stream(StreamSpec(g, 100000, 2000, pattern=pattern), seed=3)
        h = np.zeros((g.height, g.width), dtype=np.int64)
        np.add.at(h, (s.y, s.x), 1)
        hists.append(h)
    assert not np.array_equal(hists[0], hists[1])


def test_synth_output_is_valid():
    for pattern in range(10):
        s = synth_stream(StreamSpec(Geometry(32, 32), 50000, 300,
                                    pattern=pattern), seed=pattern)
        assert EventStream.from_arrays(s.t, s.x, s.y, s.p, s.geometry) == s


def test_synth_negative_duration_rejected():
    with pytest.raises(GestemoError, match="duration_us must be >= 0, got -5"):
        StreamSpec(DAVIS346, -5, 10)


def test_sample_record_emotion_follows_gesture():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 10), seed=0)
    assert SampleRecord("a", GestureClass.OK, s).emotion is EmotionClass.NEUTRAL
    assert SampleRecord("b", GestureClass.KILL, s).emotion is EmotionClass.NEGATIVE
    assert SampleRecord("c", GestureClass.LOVE, s).emotion is EmotionClass.POSITIVE
    assert SampleRecord("d", GestureClass.OTHER, s).emotion is None


def test_stream_slice_and_eq():
    s = synth_stream(StreamSpec(DAVIS346, 10000, 100), seed=2)
    left = s.slice(0, 40)
    right = s.slice(40, 100)
    assert len(left) == 40 and len(right) == 60
    assert list(left.t) + list(right.t) == list(s.t)


@pytest.mark.parametrize("width,height", [
    (3.5, 4), (4, 2.0), (True, True), (4, False), ("4", 4), (0, 4), (4, 1 << 63)])
def test_geometry_refuses_a_size_that_is_not_a_positive_int64(width, height):
    with pytest.raises(GestemoError) as e:
        Geometry(width, height)
    assert str(e.value) == ("geometry must be positive integers below 2**63, "
                            f"got {width}x{height}")

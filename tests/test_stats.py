"""Quartiles, histograms, and per-class rollups against hand-checked
fixtures written through the normal file formats."""

import weakref

import numpy as np
import pytest

from gestemo.dataio import (
    FrameFeatureSequence,
    ManifestEntry,
    SplitManifest,
    load_sample,
    write_events_file,
    write_feature_file,
)
from gestemo.errors import GestemoError
from gestemo.events import (
    DAVIS346,
    EventStream,
    Geometry,
    GestureClass,
    StreamSpec,
    synth_stream,
)
from gestemo.stats import (
    FiveNumber,
    class_counts_csv,
    dataset_stats,
    frame_histogram_csv,
    polarity_box_csv,
    summarize,
    time_sum_csv,
)


def test_five_number_linear_quartiles():
    fn = FiveNumber.from_values([1, 2, 3, 4, 5])
    assert (fn.minimum, fn.q1, fn.median, fn.q3, fn.maximum) == (1, 2, 3, 4, 5)
    assert fn.outliers == ()


def test_five_number_single_value():
    fn = FiveNumber.from_values([7.0])
    assert fn.minimum == fn.q1 == fn.median == fn.q3 == fn.maximum == 7.0


def test_five_number_ordering_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(1, 40)))
        fn = FiveNumber.from_values(v)
        assert fn.minimum <= fn.q1 <= fn.median <= fn.q3 <= fn.maximum


def test_five_number_outliers():
    fn = FiveNumber.from_values([1, 2, 3, 4, 5, 100, -50])
    assert 100.0 in fn.outliers and -50.0 in fn.outliers
    assert fn.outliers == tuple(sorted(fn.outliers))


def test_five_number_empty():
    with pytest.raises(GestemoError, match="five-number summary of an empty sequence"):
        FiveNumber.from_values([])


def build_corpus(root, recs):
    """recs: list of (id, gesture, stream, n_frames or None)."""
    (root / "events").mkdir()
    (root / "features").mkdir()
    entries = []
    for sid, gesture, stream, n_frames in recs:
        ev_rel = f"events/{sid}.csv"
        write_events_file(stream, root / ev_rel)
        feat_rel = None
        if n_frames is not None:
            feat_rel = f"features/{sid}.txt"
            seq = FrameFeatureSequence(3, np.full((n_frames, 3), 0.5))
            write_feature_file(seq, root / feat_rel)
        entries.append(ManifestEntry(sid, gesture, ev_rel, "train", feat_rel))
    return SplitManifest(root=str(root), entries=entries)


def summary_of(manifest, bin_width=100):
    """summarize over every sample of the manifest, loaded one at a time."""
    return summarize((load_sample(manifest, e.id) for e in manifest.entries),
                     bin_width)


def stream_with_duration(duration_us, n, seed=0):
    s = synth_stream(StreamSpec(Geometry(8, 8), duration_us, n), seed=seed)
    # pin the exact endpoints so the duration is not just approximate
    t = np.sort(s.t)
    t[0], t[-1] = 0, duration_us
    return EventStream.from_arrays(np.sort(t), s.x, s.y, s.p, s.geometry)


def test_histogram_empty_manifest(tmp_path):
    m = SplitManifest(root=str(tmp_path), entries=[])
    assert dataset_stats(m)["frame_histogram"] == {"bin_edges": [], "counts": []}


def test_histogram_bins(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 5, 1), 5),
        ("b", GestureClass.OK, stream_with_duration(1000, 5, 2), 5),
        ("c", GestureClass.NO, stream_with_duration(1000, 5, 3), 150),
    ])
    hist = summary_of(m, bin_width=100).frame_histogram
    assert hist["bin_edges"] == [0, 100, 200]
    assert hist["counts"] == [2, 1]


def test_bin_width_below_one_is_a_library_error(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 5, 1), 5),
    ])
    for run in (lambda: summary_of(m, bin_width=0),
                lambda: dataset_stats(m, bin_width=0)):
        with pytest.raises(GestemoError, match="bin_width must be >= 1, got 0"):
            run()


def test_histogram_requires_features(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 5, 1), None),
    ])
    with pytest.raises(GestemoError, match="sample 'a' has no feature file"):
        dataset_stats(m)


def test_class_counts_includes_zero_classes(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 5, 1), 5),
        ("b", GestureClass.OK, stream_with_duration(1000, 5, 2), 5),
        ("c", GestureClass.LOVE, stream_with_duration(1000, 5, 3), 5),
    ])
    counts = summary_of(m).class_counts
    assert len(counts) == len(GestureClass)
    assert counts["ok"] == 2 and counts["love"] == 1
    assert counts["kill"] == 0 and counts["other"] == 0


def test_event_time_sum_microseconds_to_seconds(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(2_000_000, 40, 1), 5),
    ])
    assert summary_of(m).event_time_sum_s["ok"] == pytest.approx(2.0)


def test_event_time_sum_accumulates_per_class(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.YES, stream_with_duration(1_000_000, 30, 1), 5),
        ("b", GestureClass.YES, stream_with_duration(1_000_000, 30, 2), 5),
        ("c", GestureClass.NO, stream_with_duration(500_000, 30, 3), 5),
    ])
    sums = summary_of(m).event_time_sum_s
    assert sums["yes"] == pytest.approx(2.0)
    assert sums["no"] == pytest.approx(0.5)
    assert sums["ok"] == 0.0


def test_event_time_sum_warns_on_empty_stream(tmp_path):
    empty = EventStream.from_arrays([], [], [], [], DAVIS346)
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, empty, 5),
        ("b", GestureClass.OK, stream_with_duration(1_000_000, 30, 1), 5),
    ])
    with pytest.warns(UserWarning, match="empty event stream"):
        sums = summary_of(m).event_time_sum_s
    assert sums["ok"] == pytest.approx(1.0)


def test_polarity_box_stats(tmp_path):
    g = Geometry(4, 4)
    # per-sample positive counts for ok: 2 and 3; negative: 1 and 0
    s1 = EventStream.from_arrays([0, 1, 2], [0, 1, 2], [0, 0, 0], [1, 1, 0], g)
    s2 = EventStream.from_arrays([0, 1, 2], [0, 1, 2], [1, 1, 1], [1, 1, 1], g)
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, s1, 5),
        ("b", GestureClass.OK, s2, 5),
    ])
    boxes = summary_of(m).polarity_boxes
    assert set(boxes) == {"ok"}  # absent classes stay absent here
    ok = boxes["ok"]
    assert ok.count == 2
    assert ok.positive.minimum == 2 and ok.positive.maximum == 3
    assert ok.negative.minimum == 0 and ok.negative.maximum == 1
    assert ok.time_sum_s == pytest.approx(4e-6)


def test_dataset_stats_deterministic(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 8, 1), 12),
        ("b", GestureClass.NO, stream_with_duration(2000, 9, 2), 30),
    ])
    first = dataset_stats(m)
    second = dataset_stats(m)
    assert first == second
    assert first["n_samples"] == 2


def test_summarize_holds_one_sample_at_a_time(tmp_path):
    m = build_corpus(tmp_path, [
        (sid, GestureClass.OK, stream_with_duration(1000, 8, i), 12)
        for i, sid in enumerate("abcd")
    ])
    refs = []

    def samples():
        for e in m.entries:
            # only the sample being summarized may still be alive
            assert sum(r() is not None for r in refs) <= 1
            s = load_sample(m, e.id)
            refs.append(weakref.ref(s.events.t))
            yield s
            del s
    assert summarize(samples()).to_dict() == dataset_stats(m)
    assert len(refs) == 4 and all(r() is None for r in refs)


def test_csv_emitters(tmp_path):
    m = build_corpus(tmp_path, [
        ("a", GestureClass.OK, stream_with_duration(1000, 8, 1), 12),
    ])
    summary = summary_of(m)
    hist_lines = frame_histogram_csv(summary.frame_histogram)
    assert hist_lines[0] == "bin_start,bin_end,count"
    assert hist_lines[1] == "0,100,1"
    cc_lines = class_counts_csv(summary.class_counts)
    assert len(cc_lines) == 1 + len(GestureClass)
    ts_lines = time_sum_csv(summary.event_time_sum_s)
    assert ts_lines[0] == "class,seconds"
    box_lines = polarity_box_csv(summary.polarity_boxes)
    assert box_lines[0] == "class,polarity,min,q1,median,q3,max,n_outliers"
    assert len(box_lines) == 3  # header + two polarities for the one class

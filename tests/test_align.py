"""Search behavior is pinned against a straight-line oracle that replays the
same descent: probe the midpoint, go left when its time exceeds the tag,
stop when the range stops shrinking.  The descent path is independent of the
tolerance, so the escalation outcome is fully predictable from the path."""

import numpy as np
import pytest

from gestemo.align import (
    SearchTrace,
    find_position,
    segment_events,
    split_indices,
)
from gestemo.errors import GestemoError
from gestemo.events import DAVIS346, StreamSpec, synth_stream


def descent_probes(times, tag):
    lo, hi = 0, len(times) - 1
    probes = []
    while True:
        mid = lo + (hi - lo) // 2
        probes.append(mid)
        if times[mid] > tag:
            nlo, nhi = lo, mid
        else:
            nlo, nhi = mid, hi
        if (nlo, nhi) == (lo, hi):
            return probes
        lo, hi = nlo, nhi


def oracle_find(times, tag):
    """Expected (index, alpha_final, clamped) for integer timestamps."""
    if tag < times[0]:
        return 0, None, True
    if tag > times[-1]:
        return len(times) - 1, None, True
    probes = descent_probes(times, tag)
    dists = [abs(int(times[p]) - tag) for p in probes]
    alpha_final = min(dists) + 1
    for p, d in zip(probes, dists):
        if d < alpha_final:
            return p, alpha_final, False


def test_search_exact_hit_first_midpoint():
    tr = SearchTrace()
    assert find_position(30, [10, 20, 30, 40, 50], tr) == 2
    assert tr.visited == [2] and tr.alpha_final == 1


def test_search_notfound_when_nothing_within_alpha():
    # no probe lies within tolerance 1 or 2 of 22, so neither can stop the search
    times = [10, 20, 30, 40, 50]
    tr = SearchTrace()
    find_position(22, times, tr)
    assert tr.visited
    assert all(abs(times[p] - 22) >= 2 for p in tr.visited)
    assert tr.alpha_final > 2


def test_search_wider_tolerance_finds_neighbor():
    # tolerance 3 first admits 20
    tr = SearchTrace()
    assert find_position(22, [10, 20, 30, 40, 50], tr) == 1
    assert tr.alpha_final == 3


def test_find_position_clamps():
    assert find_position(5, [10, 20, 30]) == 0
    assert find_position(99, [10, 20, 30]) == 2


def test_find_position_clamp_sets_trace_flag():
    tr = SearchTrace()
    find_position(5, [10, 20, 30], tr)
    assert tr.clamped


def test_find_position_escalates_to_alpha_three():
    tr = SearchTrace()
    idx = find_position(22, [10, 20, 30], tr)
    assert idx == 1
    assert tr.alpha_final == 3
    assert abs(20 - 22) < tr.alpha_final  # tolerance soundness at success


def test_find_position_empty_list():
    with pytest.raises(GestemoError, match="cannot search an empty time list"):
        find_position(5, [])


def test_find_position_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        times = np.cumsum(rng.integers(0, 3, size=n)) + int(rng.integers(0, 50))
        lo, hi = int(times[0]), int(times[-1])
        tag = int(rng.integers(lo - 5, hi + 6))
        tr = SearchTrace()
        got = find_position(tag, times, tr)
        want_idx, want_alpha, want_clamp = oracle_find(times, tag)
        assert got == want_idx
        assert tr.clamped == want_clamp
        if not want_clamp:
            assert tr.alpha_final == want_alpha
            assert abs(int(times[got]) - tag) < tr.alpha_final


def test_comparison_count_within_bound():
    # probes stay within alpha_final*ceil(log2 N) + 4 when inter-event gaps
    # are small (alpha_final <= 3 for gaps in {0,1,2})
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5000))
        times = np.cumsum(rng.integers(0, 3, size=n))
        tag = int(rng.integers(int(times[0]), int(times[-1]) + 1))
        tr = SearchTrace()
        find_position(tag, times, tr)
        if tr.clamped:
            continue
        bound = tr.alpha_final * int(np.ceil(np.log2(n))) + 4
        assert tr.comparisons <= bound


def test_find_position_in_quiet_gaps_matches_oracle_within_one_descent():
    # bursts of dense events separated by quiet gaps of up to 5 s, with tags
    # anywhere inside the gaps: the result matches the escalating-tolerance
    # oracle and the cost stays one descent, whatever the gap length
    rng = np.random.default_rng(12)
    for _ in range(100):
        bursts = [np.cumsum(rng.integers(0, 4, size=int(rng.integers(1, 3000))))
                  for _ in range(int(rng.integers(1, 6)))]
        gaps = rng.integers(1, 5_000_001, size=len(bursts))
        times, offset = [], 0
        for burst, gap in zip(bursts, gaps):
            times.append(burst + offset)
            offset = int(times[-1][-1]) + int(gap)
        times = np.concatenate(times)
        n = times.size
        edges = np.nonzero(np.diff(times) > 4)[0]
        for _ in range(5):
            if edges.size and rng.random() < 0.8:
                i = int(rng.choice(edges))
                tag = int(rng.integers(times[i], times[i + 1] + 1))
            else:
                tag = int(rng.integers(times[0] - 3, times[-1] + 4))
            tr = SearchTrace()
            got = find_position(tag, times, tr)
            want_idx, want_alpha, want_clamp = oracle_find(times, tag)
            assert (got, tr.clamped) == (want_idx, want_clamp)
            if not want_clamp:
                assert tr.alpha_final == want_alpha
                assert tr.comparisons <= int(np.ceil(np.log2(n))) + 1
                assert tr.comparisons == len(tr.visited)


def test_alpha_final_near_optimal():
    # alpha_final is within 1 of the best distance seen on the descent path
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        times = np.cumsum(rng.integers(0, 40, size=n))
        tag = int(rng.integers(int(times[0]), int(times[-1]) + 1))
        tr = SearchTrace()
        idx = find_position(tag, times, tr)
        if tr.clamped:
            continue
        d_star = min(abs(int(times[p]) - tag) for p in descent_probes(times, tag))
        assert tr.alpha_final == d_star + 1
        assert abs(int(times[idx]) - tag) <= d_star


def test_split_indices_empty_tags():
    assert list(split_indices([], [10, 20])) == []


def test_split_indices_both_clamps():
    assert list(split_indices([5, 99], [10, 20, 30])) == [0, 2]


def test_split_indices_sorted_and_sound():
    times = [10, 20, 30, 40]
    out = split_indices([15, 35], times)
    assert list(out) == sorted(out)
    for tag, idx in zip([15, 35], out):
        want_idx, want_alpha, clamped = oracle_find(np.asarray(times), tag)
        assert idx == want_idx
        assert abs(times[idx] - tag) < want_alpha


def test_split_indices_monotone_on_random_streams():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        times = np.cumsum(rng.integers(0, 10, size=n))
        m = int(rng.integers(1, 8))
        tags = np.unique(rng.integers(int(times[0]) - 3, int(times[-1]) + 4,
                                      size=m))
        if tags.size == 0:
            continue
        out = split_indices(tags, times)
        assert np.all(np.diff(out) >= 0)


def test_split_indices_rejects_unsorted_tags():
    with pytest.raises(GestemoError, match="tags must be strictly increasing"):
        split_indices([30, 10], [10, 20, 30])


def test_split_indices_rejects_decreasing_times():
    with pytest.raises(GestemoError, match="time list decreases at index 2"):
        split_indices([15], [10, 20, 5])


def test_segment_no_cuts_returns_whole_stream():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 6), seed=0)
    segs = segment_events(s, [])
    assert len(segs) == 1
    assert segs[0] == s


def test_segment_sizes():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 6), seed=0)
    segs = segment_events(s, [2, 4])
    assert [len(x) for x in segs] == [2, 2, 2]


def test_segment_concatenation_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        s = synth_stream(StreamSpec(DAVIS346, 100000, n), seed=int(rng.integers(1e6)))
        m = int(rng.integers(0, 5))
        cuts = np.sort(rng.integers(0, n + 1, size=m))
        segs = segment_events(s, cuts)
        assert len(segs) == m + 1
        glued = np.concatenate([seg.t for seg in segs])
        assert np.array_equal(glued, s.t)


def test_segment_bad_cuts():
    s = synth_stream(StreamSpec(DAVIS346, 1000, 6), seed=0)
    with pytest.raises(GestemoError, match=r"cuts must be sorted within \[0,6\]"):
        segment_events(s, [4, 2])
    with pytest.raises(GestemoError, match=r"cuts must be sorted within \[0,6\]"):
        segment_events(s, [7])

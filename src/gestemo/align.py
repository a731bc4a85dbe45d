"""Locate frame-annotation timestamps inside an event time sequence and cut
streams into labeled segments.

The search is a binary descent: probe the midpoint, recurse on (lo, mid)
when the midpoint is above the tag and on (mid, hi) otherwise, stopping when
the range no longer shrinks.  find_position clamps tags that fall outside
the list and otherwise runs the descent once, returning the first probe at
the smallest distance d seen on the path with alpha_final = d + 1: the
index and tolerance that retrying a descent that stops at the first probe
within alpha of the tag, with alpha = 1, 2, 3, ..., would reach, since the
path never depends on alpha.  A search therefore costs at most ceil(log2 N) + 1 probes, however
far the tag sits from its neighbours.  The result lies within alpha_final of
the tag but is NOT necessarily the globally nearest timestamp.

All indices here are 0-based; clamps return 0 and N-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import GestemoError
from .events import EventStream


@dataclass
class SearchTrace:
    """Instrumentation for one find_position call.

    comparisons counts midpoint probes (one list element examined per probe;
    a reused trace keeps counting); visited records the probe indices of the
    last descent in order.
    """

    comparisons: int = 0
    alpha_final: int = 0
    clamped: bool = False
    visited: List[int] = field(default_factory=list)


def _as_times(times) -> np.ndarray:
    a = np.asarray(times, dtype=np.int64)
    if a.ndim != 1:
        raise GestemoError(f"time list must be 1-D, got shape {a.shape}")
    return a


def validate_times(times) -> np.ndarray:
    a = _as_times(times)
    bad = np.nonzero(np.diff(a) < 0)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise GestemoError(f"time list decreases at index {i}")
    return a


def validate_tags(tags) -> np.ndarray:
    a = np.asarray(tags, dtype=np.int64)
    if a.ndim != 1:
        raise GestemoError(f"tag list must be 1-D, got shape {a.shape}")
    if a.size > 1 and not np.all(np.diff(a) > 0):
        raise GestemoError("tags must be strictly increasing")
    return a


def _descent(a: np.ndarray, lo: int, hi: int, tag: int):
    """Yield the midpoints the descent over a[lo..hi] probes, in order."""
    while True:
        mid = lo + (hi - lo) // 2
        yield mid
        if a[mid] > tag:
            new_lo, new_hi = lo, mid
        else:
            new_lo, new_hi = mid, hi
        if (new_lo, new_hi) == (lo, hi):  # range stopped shrinking
            return
        lo, hi = new_lo, new_hi


def find_position(tag: int, times, trace: Optional[SearchTrace] = None) -> int:
    """Index of a timestamp near tag.

    Below-range tags return 0, above-range tags return N-1.  An in-range tag
    takes one descent over the whole list, which returns the first probe at
    the smallest distance d seen on the path and sets alpha_final = d + 1.
    The descent stops early on an exact hit and otherwise takes at most
    ceil(log2 N) + 1 probes, whatever the gap around the tag.
    """
    a = _as_times(times)
    n = a.shape[0]
    if n == 0:
        raise GestemoError("cannot search an empty time list")
    if trace is None:
        trace = SearchTrace()
    if tag < a[0]:
        trace.clamped = True
        return 0
    if tag > a[n - 1]:
        trace.clamped = True
        return n - 1
    trace.visited.clear()
    best, best_d = 0, None
    for mid in _descent(a, 0, n - 1, tag):
        trace.comparisons += 1
        trace.visited.append(mid)
        d = abs(int(a[mid]) - tag)
        if best_d is None or d < best_d:
            best, best_d = mid, d
            if d == 0:
                break
    trace.alpha_final = best_d + 1
    return best


def split_indices(tags, times) -> np.ndarray:
    """Apply find_position to each annotation tag; output is non-decreasing
    for strictly increasing tags."""
    tag_arr = validate_tags(tags)
    if tag_arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    time_arr = validate_times(times)
    if time_arr.size == 0:
        raise GestemoError("cannot split against an empty time list")
    out = np.array([find_position(int(t), time_arr) for t in tag_arr],
                   dtype=np.int64)
    return out


def segment_events(stream: EventStream, cuts: Sequence[int]) -> List[EventStream]:
    """Cut a stream into len(cuts)+1 contiguous segments.

    Segment k covers event indices [cuts[k-1], cuts[k]) with implicit
    leading 0 and trailing len(stream); concatenating the segments restores
    the stream exactly.
    """
    n = len(stream)
    cut_arr = np.asarray(cuts, dtype=np.int64)
    if cut_arr.size and (np.any(np.diff(cut_arr) < 0)
                         or cut_arr[0] < 0 or cut_arr[-1] > n):
        raise GestemoError(f"cuts must be sorted within [0,{n}], got {list(cut_arr)}")
    bounds = [0, *cut_arr.tolist(), n]
    return [stream.slice(bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1)]

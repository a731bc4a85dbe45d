"""Locating label timestamps inside an event stream.

The search runs one binary descent and keeps the probe closest to the tag,
so it costs at most ceil(log2 N) + 1 probes even when the tag falls in a
long quiet gap; alpha is one more than that probe's distance to the tag.

Run: python3 demos/02_align_tags.py
"""

import numpy as np

from gestemo.align import SearchTrace, find_position, segment_events, split_indices
from gestemo.events import Geometry, StreamSpec, synth_stream

# a dense recording: a mean gap of a few microseconds keeps alpha small
stream = synth_stream(StreamSpec(Geometry(32, 32), 30_000, 5_000), seed=3)
times = stream.t

# one tag per quarter of the recording, plus one before and one after
lo, hi = int(times[0]), int(times[-1])
quarters = [lo + (hi - lo) * q // 4 for q in (1, 2, 3)]
tags = np.array([lo - 50, *quarters, hi + 500])

for tag in tags:
    trace = SearchTrace()
    idx = find_position(int(tag), times, trace)
    kind = "clamped" if trace.clamped else f"alpha={trace.alpha_final}"
    print(f"tag {tag:>9d} -> index {idx:>5d} time {times[idx]:>8d} "
          f"({kind}, {trace.comparisons} probes)")

cuts = split_indices(np.sort(tags), times)
segments = segment_events(stream, cuts)
sizes = [len(s) for s in segments]
print(f"cut indices: {list(cuts)}")
print(f"segment sizes: {sizes} (sum {sum(sizes)} == {len(stream)})")

glued = np.concatenate([s.t for s in segments])
print(f"concatenation reproduces the stream: {np.array_equal(glued, times)}")

"""From a raw event stream to fixed-size spike planes.

Run: python3 demos/01_encode_events.py
"""

import numpy as np

from gestemo.encode import dense_spike_planes, scale_planes
from gestemo.events import Geometry, StreamSpec, synth_stream

# a half-second clip on a small sensor, one of the built-in spatial patterns
stream = synth_stream(StreamSpec(Geometry(64, 48), 500_000, 2_000, pattern=4),
                      seed=7)
print(f"stream: {len(stream)} events over {stream.duration_us() / 1e6:.2f}s "
      f"on {stream.geometry.width}x{stream.geometry.height}")

# twelve planes, split by event count rather than wall time
planes = dense_spike_planes(stream, k=12)
print(f"planes: {planes.counts.shape}  (k, polarity, h, w)")
print(f"per-plane event totals: {planes.per_plane_totals()}")
print(f"conserved: {planes.total} == {len(stream)}")

# binning each event into its 2x2 pixel block keeps every event
small = dense_spike_planes(stream, k=12, factor=2)
print(f"downsampled to {small.geometry.width}x{small.geometry.height}, "
      f"total still {small.total}")

# the network input is usually the binarized version
binary = scale_planes(small, "clip01")
occupancy = binary.mean()
print(f"clip01 occupancy: {occupancy:.3f} of all cells active")

scaled = scale_planes(small, "divide_by_max")
print(f"divide_by_max range: [{scaled.min():.3f}, {scaled.max():.3f}]")

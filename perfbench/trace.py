"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the gestemo modules by rebinding the
name in every module that holds it (for example ``gestemo.training.
snn_forward`` as well as ``gestemo.snn.snn_forward``), records one span
(name, start, end, parent) per call in memory, and writes the spans out
when the run ends.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, function) pairs it wraps
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "dataio.read_events": (("gestemo.dataio", "read_events_file"),),
    "dataio.read_features": (("gestemo.dataio", "read_feature_file"),),
    "dataio.write": (("gestemo.dataio", "write_events_file"),
                     ("gestemo.dataio", "write_feature_file"),
                     ("gestemo.dataio", "write_manifest")),
    "align.split": (("gestemo.align", "split_indices"),),
    "align.segment": (("gestemo.align", "segment_events"),),
    "encode.planes": (("gestemo.encode", "dense_spike_planes"),),
    "encode.downsample": (("gestemo.encode", "downsample_planes"),),
    "encode.scale": (("gestemo.encode", "scale_planes"),),
    "stats.command": (("gestemo.cli", "cmd_stats"),),
    "training.prepare_tensors": (("gestemo.training", "prepare_tensors"),),
    "training.loop": (("gestemo.training", "train"),),
    "training.adam": (("gestemo.training", "adam_update"),),
    "training.evaluate": (("gestemo.training", "evaluate"),),
    "snn.forward": (("gestemo.snn", "snn_forward"),),
    "snn.backward": (("gestemo.snn", "snn_backward_from_output"),),
    "fusion.lstm_forward": (("gestemo.fusion", "recurrent_forward"),),
    "fusion.lstm_backward": (("gestemo.fusion", "recurrent_backward"),),
    "fusion.head": (("gestemo.fusion", "head_forward"),
                    ("gestemo.fusion", "head_backward")),
    "checkpoint.save": (("gestemo.checkpoint", "save_checkpoint"),),
    "checkpoint.load": (("gestemo.checkpoint", "load_checkpoint"),),
}

#: per-layer time metric -> span names whose self times it sums
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "dataio.read_events_s": ("dataio.read_events",),
    "dataio.read_features_s": ("dataio.read_features",),
    "dataio.write_s": ("dataio.write",),
    "align.split_s": ("align.split",),
    "align.segment_s": ("align.segment",),
    "encode.planes_s": ("encode.planes",),
    "encode.downsample_s": ("encode.downsample",),
    "encode.scale_s": ("encode.scale",),
    "stats.command_s": ("stats.command",),
    "training.prepare_tensors_s": ("training.prepare_tensors",),
    "training.loop_s": ("training.loop",),
    "training.adam_s": ("training.adam",),
    "training.evaluate_s": ("training.evaluate",),
    "snn.forward_train_s": ("snn.forward_train",),
    "snn.backward_s": ("snn.backward",),
    "snn.forward_eval_s": ("snn.forward_eval",),
    "fusion.lstm_forward_s": ("fusion.lstm_forward",),
    "fusion.lstm_backward_s": ("fusion.lstm_backward",),
    "fusion.head_s": ("fusion.head",),
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
}

MIB = float(1 << 20)


class Tracer:
    """Records spans while installed; ``paused()`` hides check work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []           # [id, name, start, end, parent]
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.active = False
        self.events_parsed = 0
        self.event_files_read = 0
        self.probes = 0
        self.tape_bytes = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gestemo" or name.startswith("gestemo."))]
        for span, targets in SPANS.items():
            for mod_name, fn_name in targets:
                self._rebind(modules, getattr(sys.modules[mod_name], fn_name),
                             self._wrap(span, getattr(sys.modules[mod_name], fn_name)))
        find = sys.modules["gestemo.align"].find_position
        self._rebind(modules, find, self._count_probes(find))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = span
            if span == "snn.forward":
                name = "snn.forward_train" if kwargs.get("record") else "snn.forward_eval"
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [sid, name, tracer.clock(), 0.0, parent]
            tracer.spans.append(rec)
            tracer._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = tracer.clock()
                tracer._stack.pop()
            tracer._count(name, out)
            return out
        return wrapper

    def _count(self, name: str, out) -> None:
        if name == "dataio.read_events":
            self.event_files_read += 1
            self.events_parsed += len(out)
        elif name == "snn.forward_train":
            tape = out[1]
            arrays = [tape.x, *tape.vpre, *tape.spikes]
            self.tape_bytes = max(self.tape_bytes, sum(a.nbytes for a in arrays))

    def _count_probes(self, fn):
        tracer = self
        from gestemo.align import SearchTrace

        @functools.wraps(fn)
        def wrapper(tag, times, trace: Optional[SearchTrace] = None):
            if not tracer.active:
                return fn(tag, times, trace)
            if trace is None:
                trace = SearchTrace()
            before = trace.comparisons
            out = fn(tag, times, trace)
            tracer.probes += trace.comparisons - before
            return out
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as (value, unit)."""
        st = self.self_times()
        out = {m: (sum(st.get(s, 0.0) for s in spans), "s")
               for m, spans in TIME_METRICS.items()}
        out["dataio.events_parsed"] = (self.events_parsed, "count")
        out["dataio.event_files_read"] = (self.event_files_read, "count")
        out["align.probes"] = (self.probes, "count")
        out["snn.tape_mb"] = (self.tape_bytes / MIB, "MB")
        return out

    def overhead_per_span(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a no-op in this process."""
        def noop():
            return None
        wrapped = self._wrap("trace.calibrate", noop)
        saved = self.spans, self._stack
        self.spans, self._stack = [], []
        was = self.active
        self.active = True
        try:
            t0 = self.clock()
            for _ in range(calls):
                noop()
            bare = self.clock() - t0
            t0 = self.clock()
            for _ in range(calls):
                wrapped()
            traced = self.clock() - t0
        finally:
            self.active = was
            self.spans, self._stack = saved
        return max(traced - bare, 0.0) / calls

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON object per span; times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name,
                                    "start": start - origin, "end": end - origin,
                                    "parent": parent}) + "\n")

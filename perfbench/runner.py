"""One benchmark run: set-up, the timed part, checks, and the result."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from typing import Dict, Optional, Tuple

import numpy as np

from . import pipeline
from .trace import Tracer
from .workloads import WORKLOADS

MIB = float(1 << 20)


def blas_info(requested: int) -> Dict[str, object]:
    """BLAS name, version and thread count; the count is read back from a
    loaded OpenBLAS when one can be found, else left as None."""
    info: Dict[str, object] = {"threads_requested": requested, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()
                    and ln.rstrip().endswith(".so")}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def context(blas_threads: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(blas_threads),
        "platform": platform.platform(),
    }


def main(workload: str, seed: int, seconds: float, trace: bool, results_dir: str,
         *, root: str, import_s: float, blas_threads: int) -> int:
    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[workload].scaled(seconds)
    ctx = context(blas_threads)
    work_dir = os.path.join(root, ".perfbench", "work", f"{w.name}-{seed}-{os.getpid()}")
    tag = f"{w.name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}"
    try:
        rounds, setup_once = pipeline.setup(w, seed, work_dir)
        tracer: Optional[Tracer] = Tracer() if trace else None
        if tracer is None:
            outcome = pipeline.run(w, rounds, seed, work_dir)
        else:
            with tracer:
                origin = time.perf_counter()
                outcome = pipeline.run(w, rounds, seed, work_dir, paused=tracer.paused)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ctx["loadavg_end"] = list(os.getloadavg())

    metrics: Dict[str, Tuple[float, str]] = dict(outcome.metrics)
    metrics["setup_s"] = (import_s + setup_once, "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib * 1024 / MIB, "MB")
    os.makedirs(results_dir, exist_ok=True)
    doc = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "correct": outcome.ops.failed == 0, "attempted": outcome.ops.attempted,
           "failed": outcome.ops.failed, "failures": outcome.ops.failures,
           "rounds": outcome.rounds, "context": ctx,
           "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    reported = metrics
    if tracer is not None:
        spans_path = os.path.join(results_dir, f"{tag}.spans.jsonl")
        tracer.write_spans(spans_path, origin)
        layers = tracer.metrics()
        per_span = tracer.overhead_per_span()
        layers["trace.run_s"] = (metrics["run_s"][0], "s")
        layers["trace.overhead_s"] = (per_span * len(tracer.spans), "s")
        doc["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        doc["spans_file"] = os.path.relpath(spans_path, root)
        print_layer_table(layers, len(tracer.spans), results_dir, w.name, sys.stderr)
        reported = layers
    for failure in outcome.ops.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in reported.items()}}))
    return 0


def print_layer_table(layers: Dict[str, Tuple[float, str]], n_spans: int,
                      results_dir: str, workload: str, out) -> None:
    """Per-layer metrics with their units, then the tracing overhead, both
    as estimated in this run and, when untraced results of the same
    workload sit in results_dir, as traced run_s minus their median."""
    print(f"{'per-layer metric':32s} {'value':>14s}  unit", file=out)
    for name in sorted(layers):
        value, unit = layers[name]
        print(f"{name:32s} {value:14.6f}  {unit}", file=out)
    untraced = []
    for fn in os.listdir(results_dir):
        if fn.startswith(f"{workload}-") and fn.endswith(".json") and "-trace0-" in fn:
            with open(os.path.join(results_dir, fn), encoding="utf-8") as f:
                untraced.append(json.load(f)["end_to_end"]["run_s"]["value"])
    line = (f"tracing overhead: {layers['trace.overhead_s'][0]:.3f} s estimated "
            f"over {n_spans} spans")
    if untraced:
        base = float(np.median(untraced))
        line += (f"; traced run_s {layers['trace.run_s'][0]:.3f} s minus median "
                 f"untraced run_s {base:.3f} s over {len(untraced)} runs = "
                 f"{layers['trace.run_s'][0] - base:+.3f} s")
    print(line, file=out)

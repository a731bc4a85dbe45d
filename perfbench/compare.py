"""Compare two sets of result files, workload by workload.

For every end-to-end metric of BENCHMARK.json, each side's median and
quartiles over its untraced runs, and a verdict on B against A:

* unresolved -- either side's spread (Q3 - Q1, as a share of its median)
  is wider than the metric's bound, and not every run of B beats every
  run of A;
* improved   -- B's median is better than A's by more than A's own spread
  (or every run of B beats every run of A);
* worse      -- B's median is worse than A's by more than the bound;
* unchanged  -- anything else.

Per-layer metrics from traced runs are listed with their medians only:
they have no bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple


def load_results(directory: str) -> List[dict]:
    docs = []
    for fn in sorted(os.listdir(directory)):
        if fn.endswith(".json"):
            with open(os.path.join(directory, fn), encoding="utf-8") as f:
                docs.append(json.load(f))
    return docs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    gain = sign * (b_med - a_med) / abs(a_med)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if all_better:
        return "improved"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if gain > spread(a):
        return "improved"
    if gain < -bound:
        return "worse"
    return "unchanged"


def _values(docs: List[dict], workload: str, section: str, name: str) -> List[float]:
    return [d[section][name]["value"] for d in docs
            if d["workload"] == workload and name in d.get(section, {})
            and (section == "per_layer" or d["trace"] == 0)]


def compare(a_docs: List[dict], b_docs: List[dict], bench: dict, out) -> Dict[str, int]:
    """Prints the comparison table; returns the count of each verdict."""
    tally: Dict[str, int] = {}
    workloads = [w["name"] for w in bench["workloads"]]
    fmt = "{:10s} {:28s} {:>34s} {:>34s}  {}"
    print(fmt.format("workload", "metric", "A median [Q1, Q3] (n)",
                     "B median [Q1, Q3] (n)", "verdict"), file=out)
    for wl in workloads:
        rows = [("end_to_end", m) for m in bench["end_to_end"]]
        rows += [("per_layer", m) for m in bench["per_layer"]]
        for section, m in rows:
            a = _values(a_docs, wl, section, m["name"])
            b = _values(b_docs, wl, section, m["name"])
            if not a or not b:
                continue
            if section == "end_to_end":
                v = verdict(a, b, m["better"], m["bound"])
                tally[v] = tally.get(v, 0) + 1
            else:
                v = "-"
            cells = []
            for vals in (a, b):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(vals)})")
            print(fmt.format(wl, m["name"], cells[0], cells[1], v), file=out)
    return tally


def main(dir_a: str, dir_b: str, bench_path: str) -> int:
    with open(bench_path, encoding="utf-8") as f:
        bench = json.load(f)
    tally = compare(load_results(dir_a), load_results(dir_b), bench, sys.stdout)
    print(", ".join(f"{k}: {v}" for k, v in sorted(tally.items())) or "no common results")
    return 0

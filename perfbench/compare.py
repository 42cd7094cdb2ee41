"""Summarise one recorded result set of the benchmark, or compare two.

Usage, from the repository root::

    python3 perfbench/compare.py perfbench/results/baseline.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file that ``run.py --record`` (or
``sweep.py``) appends to, one line per run.  For each workload and
end-to-end metric the tool prints the median and quartiles over the runs
and their spread (inter-quartile distance over the median).  With two sets
it also prints the change of the median and a verdict against the metric's
bound from ``BENCHMARK.json``:

``worse`` / ``better``
    every change the two quartile ranges allow lies beyond the bound;
``unresolved``
    the range of possible changes straddles the bound, so these runs cannot
    tell whether the change exceeds it;
``ok``
    every possible change lies within the bound.

Metrics without a bound in ``BENCHMARK.json`` (the wall times, the score, request latency and throughput, the failure share) are
summarised without a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import median_quartiles, relative_spread  # noqa: E402

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Printed end-to-end figures that ``BENCHMARK.json`` does not bound.
UNBOUNDED = {
    "setup_wall_s": "lower",
    "run_wall_s": "lower",
    "score": "higher",
    "req_p50_ms": "lower",
    "req_p99_ms": "lower",
    "req_per_s": "higher",
    "failed_frac": "lower",
}


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run]}}``."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, value in record["metrics"].items():
                runs[record["workload"]][name].append(float(value))
    return runs


def verdict(
    base: List[float], new: List[float], better: str, bound: Optional[float]
) -> Tuple[float, str]:
    """Relative change of the median (positive = worse) and the verdict."""
    b_med, b_q1, b_q3 = median_quartiles(base)
    n_med, n_q1, n_q3 = median_quartiles(new)
    if b_med == 0:
        # Only an unbounded figure, such as failed_frac, can sit at zero.
        return (0.0 if n_med == 0 else math.inf), "-"
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (n_med - b_med) / b_med
    if bound is None:
        return change, "-"
    ends = sorted((sign * (n_q1 - b_q3) / b_med, sign * (n_q3 - b_q1) / b_med))
    if ends[0] > bound:
        return change, "worse"
    if ends[1] < -bound:
        return change, "better"
    if ends[1] > bound or ends[0] < -bound:
        return change, "unresolved"
    return change, "ok"


def _summary(values: List[float]) -> str:
    median, q1, q3 = median_quartiles(values)
    spread = relative_spread(values)
    return f"{median:>11.5g} [{q1:.5g}..{q3:.5g}] spread {spread:6.1%} n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, better in UNBOUNDED.items():
        metrics[name] = (better, None)

    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base:
            continue
        print(workload)
        for name, (better, bound) in metrics.items():
            values = base[workload].get(name)
            if not values:
                continue
            bound_text = f"bound {bound:.0%}" if bound is not None else "no bound"
            line = f"  {name:<12} {_summary(values)}  ({better} is better, {bound_text})"
            if new is not None and new.get(workload, {}).get(name):
                change, result = verdict(values, new[workload][name], better, bound)
                line += f"\n  {'':<12} {_summary(new[workload][name])}  change {change:+.1%} {result}"
                if result == "worse":
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())

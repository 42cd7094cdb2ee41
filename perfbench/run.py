"""Run one workload of the FeatAug benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload feataug-lr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each metric is printed on its own line with its unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics listed in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--record FILE`` also appends every printed metric to a
JSON-lines result set that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT))

from perfbench.stats import median_quartiles, percentile  # noqa: E402


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    parser.add_argument(
        "--trace-out",
        default=str(ROOT / "perfbench" / "out"),
        help="directory the traced run writes its spans to",
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-out", args.trace_out,
        ]
        if args.record:
            command += ["--record", args.record]
        status = max(status, subprocess.run(command).returncode)
    return status


def end_to_end(outcome, peak_rss_mb: float) -> dict:
    """Every end-to-end figure of one run, by name: ``(value, unit, note)``.
    The times are missing when no unit ran to its end."""

    def timing(values, unit):
        median, q1, q3 = median_quartiles(values)
        return median, unit, f"quartiles {q1:.4g}..{q3:.4g}, n={len(values)}"

    units = outcome.units
    figures = {"peak_rss_mb": (peak_rss_mb, "MB", "whole process")}
    if units:
        for name in ("setup_s", "run_s", "setup_wall_s", "run_wall_s"):
            figures[name] = timing([getattr(u, name) for u in units], "s")
    attempted = max(outcome.attempted, 1)
    figures["failed_frac"] = (
        outcome.failed / attempted, "frac", f"{outcome.failed} of {outcome.attempted} operations"
    )
    if outcome.scores:
        figures["score"] = (
            statistics.median(outcome.scores), "auc", f"median of {len(outcome.scores)} runs"
        )
    if outcome.latencies_ms:
        n = len(outcome.latencies_ms)
        for name, q in (("req_p50_ms", 50), ("req_p99_ms", 99)):
            value = percentile(outcome.latencies_ms, q)
            if value is not None:
                figures[name] = (value, "ms", f"n={n}")
        if units:
            figures["req_per_s"] = (n / sum(u.run_wall_s for u in units), "1/s", f"n={n}")
    return figures


def result_line(outcome, figures: dict, spec: dict, traced: bool) -> dict:
    """The final JSON object: the end-to-end or the per-layer metrics.  A
    run in which no unit ran to its end still reports its failures."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = outcome.layers if traced else {n: v for n, (v, _, _) in figures.items()}
    return {
        "correct": outcome.failed == 0 and bool(outcome.units),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.units else max(outcome.failed, 1),
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in source
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    # Engine and service knobs fall back on $REPRO_* variables; the
    # benchmark measures the program's defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[args.workload]().run(args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = end_to_end(outcome, peak_rss_mb)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in figures.items():
        print(f"  {name:<14} {value:>12.6g} {unit:<5} ({note})")
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            print(f"  {name:<26} {outcome.layers[name]:>12.6g} {units[name]}")
        os.makedirs(args.trace_out, exist_ok=True)
        outcome.tracer.dump(
            os.path.join(args.trace_out, f"spans-{args.workload}-seed{args.seed}.json")
        )
    for problem in outcome.problems:
        print(problem, file=sys.stderr)

    result = result_line(outcome, figures, spec, bool(args.trace))
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": result["correct"],
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {n: v for n, (v, _, _) in figures.items()},
            "units": [vars(unit) for unit in outcome.units],
            "layers": outcome.layers,
        }
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

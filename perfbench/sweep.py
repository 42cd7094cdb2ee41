"""Run every workload of the benchmark once per seed and record a result set.

Usage, from the repository root::

    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/out/set-a.jsonl

For each seed this runs ``run.py --workload all --seed S --record OUT``, so
every run appends to ``--out``; the summary of ``compare.py`` follows.  A
run that exits non-zero or reports ``"correct": false`` makes the sweep
exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    status = 0
    for seed in args.seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
            "--record", args.out,
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
        correct = done.returncode == 0 and results and all(r["correct"] for r in results)
        print(f"seed {seed}: {'ok' if correct else 'FAILED'}", flush=True)
        if not correct:
            status = 1
            sys.stderr.write(done.stdout + done.stderr)
    subprocess.run([sys.executable, str(HERE / "compare.py"), args.out])
    return status


if __name__ == "__main__":
    sys.exit(main())

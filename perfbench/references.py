"""Recompute the reference AUCs the ``feataug-lr`` workload checks against.

Usage, from the repository root::

    python3 perfbench/references.py

Runs each of the :data:`~perfbench.workloads.DATASET_SEEDS` once and
rewrites ``perfbench/references.json``.  Regenerate only when a change is
meant to alter the scores, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import load_dataset
    from perfbench.workloads import DATASET_SEEDS, PIPELINE_SCALE, REFERENCES_PATH, run_scenario

    auc = {}
    for seed in DATASET_SEEDS:
        result = run_scenario(load_dataset("student", PIPELINE_SCALE, seed), seed)
        auc[str(seed)] = result.metric
        print(seed, result.metric, flush=True)
    document = {
        "about": "Held-out AUC of one FeatAug run with logistic regression per dataset seed "
        "(student, scale 0.25, 12 features); written by perfbench/references.py.",
        "auc": auc,
    }
    with open(REFERENCES_PATH, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

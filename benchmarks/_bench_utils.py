"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper at laptop
scale: the synthetic datasets are smaller and the search budgets lower than
the paper's AWS setup, so absolute numbers differ, but each module prints the
same rows / series the paper reports (plus the paper's value where available)
and writes them to ``benchmarks/results/latest/``.  That directory is
ignored by git, so a test run never rewrites the committed reference tables
in ``benchmarks/results/``; refreshing those is a deliberate copy.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Callable, Tuple

import numpy as np

from repro.core.config import FeatAugConfig
from repro.query.engine import engine_for

#: Where a run persists its printed tables (git-ignored).
RESULTS_DIR = Path(__file__).parent / "results" / "latest"

#: Dataset scale used by the experiment benchmarks (fraction of the default
#: synthetic entity count).
BENCH_SCALE = 0.25

#: Number of features generated per method in the comparison benchmarks (the
#: paper uses 40; we use 9 = 3 templates x 3 queries to keep runtimes small).
BENCH_FEATURES = 9


def bench_config(**overrides) -> FeatAugConfig:
    """The FeatAug configuration used across the benchmark suite."""
    config = FeatAugConfig(
        n_templates=3,
        queries_per_template=3,
        warmup_iterations=15,
        warmup_top_k=5,
        search_iterations=8,
        template_proxy_iterations=8,
        max_template_depth=2,
        beam_width=2,
        tpe_startup_trials=4,
        seed=0,
    )
    return config.with_overrides(**overrides) if overrides else config


def cold_engine(table) -> None:
    """Reset the shared query engine bound to *table*.

    Timing comparisons between pipeline variants must each start from a cold
    engine; otherwise later variants replay the earlier variants' query
    traffic straight out of the shared mask/result caches.
    """
    engine_for(table).reset()


def alternating_ratio(
    baseline: Callable[[], float], candidate: Callable[[], float], repeats: int = 15
) -> Tuple[float, float, float]:
    """Time two sides in turns and summarise ``baseline / candidate``.

    Each side is a callable that builds its own fresh state (a new engine,
    say), runs once and returns the seconds to compare.  The sides run
    alternately, baseline first, *repeats* times each, with a
    ``gc.collect()`` before every stretch so that garbage left by earlier
    work is not collected inside a timed one.  Returns the median of the
    per-pair ratios and its lower and upper quartiles, ``(median, q1, q3)``:
    one short pass is too noisy to hold a speed bar, the median of several
    is not.
    """
    ratios = []
    for _ in range(repeats):
        gc.collect()
        baseline_seconds = baseline()
        gc.collect()
        ratios.append(baseline_seconds / candidate())
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return float(median), float(q1), float(q3)


def write_result(name: str, text: str, append: bool = False) -> None:
    """Persist a printed result table under benchmarks/results/latest/.

    ``append`` adds a section to an existing file instead of replacing it --
    used when several benchmarks in one module contribute to one report.
    A previously appended section with the same title line (the first line of
    *text*) is replaced, so re-running one benchmark alone never duplicates
    its section in the results file.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    if append and path.exists():
        # Sections are blank-line-separated blocks; drop only the block whose
        # first line matches this section's title, keeping every other block.
        title = text.splitlines()[0]
        blocks = [
            block
            for block in path.read_text().split("\n\n")
            if block.strip() and block.strip().splitlines()[0] != title
        ]
        blocks.append(text.rstrip("\n"))
        path.write_text("\n\n".join(block.rstrip("\n") for block in blocks) + "\n")
    else:
        path.write_text(text + "\n")

"""Micro-benchmark of the delta-aware incremental engine (PR 8).

Online-serving scenario: a warm engine has answered one template's 50-query
batch when ~1% of fresh relevant rows arrive (``Table.append_rows``).  Two
ways to serve the next batch:

* ``rebuild``     -- a cold engine over the extended table (what every
  pre-delta caller had to do: every mask, group index, sort order and
  aggregate from scratch),
* ``incremental`` -- the warm engine with ``incremental=True``: masks are
  extended over the appended slice, group indexes remapped, cached lexsort
  orders merged with the delta's sorted run, COUNT / SUM results continued
  additively; only the non-additive aggregates recompute -- against the
  upgraded state.

Acceptance: results bit-identical to the cold rebuild (asserted always,
any host), incremental >= 3x faster than the rebuild on hosts with >= 4
cores (slower hosts report their measured number and skip the bar).  The
flush policy (``incremental=False``) is timed alongside for the report: it
shows what the staleness flush alone costs when every cache re-warms from
scratch.
"""

from __future__ import annotations

import os
import time

import pytest

from _bench_utils import write_result
from repro.datasets.student import make_student
from repro.experiments.reporting import render_table
from repro.query.engine import EngineConfig, QueryEngine
from test_bench_engine import assert_feature_tables_match, make_queries

#: Fraction of the base table arriving as the append.
DELTA_FRACTION = 0.01

#: Timings are best-of-N fresh scenario replays (every replay re-warms its
#: own engine, so nothing leaks between measurements); single-shot timings
#: on a loaded host are too noisy to hold a ratio bar against.
TIMING_REPEATS = 3


def make_tables():
    base = make_student(n_sessions=400, events_per_session=300, seed=0).relevant
    fresh = make_student(n_sessions=400, events_per_session=300, seed=1).relevant
    delta = fresh.head(max(1, int(base.num_rows * DELTA_FRACTION)))
    return base, delta


def timed_requery(incremental: bool):
    """Warm a batch, append the delta, time the re-query (sync included)."""
    queries = make_queries()
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        base, delta = make_tables()
        engine = QueryEngine(
            base, config=EngineConfig(backend="numpy", incremental=incremental)
        )
        engine.execute_batch(queries)
        base.append_rows(delta)
        start = time.perf_counter()
        results = engine.execute_batch(queries)
        best = min(best, time.perf_counter() - start)
        stats = engine.stats.as_dict()
    return results, best, stats


def timed_rebuild():
    """Time the pre-delta answer: a cold engine over the extended table."""
    queries = make_queries()
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        rebuilt, delta = make_tables()
        rebuilt.append_rows(delta)
        cold = QueryEngine(rebuilt, config=EngineConfig(backend="numpy"))
        start = time.perf_counter()
        results = cold.execute_batch(queries)
        best = min(best, time.perf_counter() - start)
    return results, best


def test_incremental_append_requery_vs_rebuild():
    incremental_results, incremental_seconds, stats = timed_requery(True)
    flush_results, flush_seconds, _ = timed_requery(False)
    rebuild_results, rebuild_seconds = timed_rebuild()

    # The bar that matters on every host: append-then-query is exact.
    for incremental_table, rebuild_table in zip(incremental_results, rebuild_results):
        assert_feature_tables_match(incremental_table, rebuild_table)
    for flush_table, rebuild_table in zip(flush_results, rebuild_results):
        assert_feature_tables_match(flush_table, rebuild_table)

    speedup = rebuild_seconds / incremental_seconds
    rows = [
        ["cold rebuild", round(rebuild_seconds, 4), round(speedup, 2)],
        ["flush + rewarm", round(flush_seconds, 4), round(rebuild_seconds / flush_seconds, 2)],
        ["incremental", round(incremental_seconds, 4), 1.0],
    ]
    text = (
        f"Delta-aware engine ({int(DELTA_FRACTION * 100)}% append, "
        "50-query re-batch)\n"
    )
    text += render_table(["variant", "seconds", "speedup vs incremental"], rows)
    text += "\nrefresh stats: " + ", ".join(
        f"{key}={stats[key]}"
        for key in (
            "appended_rows",
            "masks_extended",
            "indexes_extended",
            "runs_merged",
            "results_upgraded",
            "staleness_evictions",
        )
    )
    text += f"\ncpu cores: {os.cpu_count()}"
    print(text)
    write_result("bench_delta", text)

    assert stats["masks_extended"] > 0
    assert stats["indexes_extended"] > 0
    assert stats["results_upgraded"] > 0

    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(
            f"host has {cores} cpu cores; incremental re-query measured "
            f"{speedup:.2f}x vs cold rebuild (results verified bit-identical); "
            "the >= 3x bar applies on >= 4 cores"
        )
    assert speedup >= 3.0, (
        f"expected incremental re-query >= 3x over a cold rebuild, got {speedup:.2f}x"
    )

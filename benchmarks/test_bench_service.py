"""Micro-benchmark of the admission-controlled query service (PR 9).

Serving scenario: four callers arrive concurrently, each wanting one
template's 50-query batch **plus** ten caller-specific level-range queries
(60 per caller, 240 total, 50 of them shared by everyone).  Two ways to
serve them:

* ``per-caller serial`` -- the pre-service world: every caller pays its own
  cold ``execute_batch`` (independent sessions share no engine state), so
  the shared template's masks, sort orders and aggregates are computed four
  times over,
* ``coalesced service`` -- one cold engine behind a :class:`QueryService`:
  the four concurrent submissions coalesce into one fused round, identical
  plans across callers execute once (fan-out of the shared result), and the
  caller-specific remainder shares the round's masks and sort orders.

Acceptance: every caller's service results are bit-identical to its own
serial cold-engine batch (asserted on every run), and the coalesced round
beats the per-caller serial total by >= 1.3x, as the median ratio of
alternating runs, on any host.  The ``service_coalesced`` / ``service_deduped``
counters are asserted and reported: the speedup must come from
cross-request fusion actually firing, not from noise.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List

from _bench_utils import alternating_ratio, write_result
from repro.dataframe.column import DType
from repro.datasets.student import make_student
from repro.experiments.reporting import render_table
from repro.query.engine import QueryEngine
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.service import QueryService, ServiceConfig
from test_bench_engine import AGG_FUNCS, assert_feature_tables_match, make_queries

N_CALLERS = 4

#: Alternating serial / service replays a side behind the speed bar; every
#: replay builds its own cold engines.
SERVICE_REPEATS = 9


def make_relevant():
    return make_student(n_sessions=400, events_per_session=300, seed=0).relevant


def caller_batches() -> List[List[PredicateAwareQuery]]:
    """One 60-query batch per caller: the shared 50-query template batch
    plus ten caller-specific level-range queries."""
    shared = make_queries()
    batches = []
    for caller in range(N_CALLERS):
        private = [
            PredicateAwareQuery(
                func,
                "hover_duration",
                ("session_id",),
                (PredicateAtom(
                    "range", "level", low=float(caller), high=float(caller) + 8.0,
                    dtype=DType.NUMERIC,
                ),),
            )
            for func in AGG_FUNCS
        ]
        batches.append(list(shared) + private)
    return batches


def timed_serial(relevant, batches, runs) -> float:
    """The pre-service cost: each caller's batch on its own cold engine."""
    engines = [QueryEngine(relevant) for _ in range(N_CALLERS)]
    start = time.perf_counter()
    results = [engine.execute_batch(batch) for engine, batch in zip(engines, batches)]
    seconds = time.perf_counter() - start
    runs.append(results)
    return seconds


def timed_service(relevant, batches, runs) -> float:
    """One cold engine behind the service; callers submit concurrently."""
    engine = QueryEngine(relevant)
    baseline = engine.stats.as_dict()
    # Manual dispatch keeps the round formation deterministic: all four
    # callers admit first, then one draining close runs the fused
    # round(s) -- the timing never depends on thread scheduling.
    service = QueryService(engine, ServiceConfig(max_batch=1024), auto_start=False)
    futures = [None] * N_CALLERS
    barrier = threading.Barrier(N_CALLERS)

    def caller(slot):
        barrier.wait(timeout=30)
        futures[slot] = service.submit(batches[slot])

    threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(N_CALLERS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()  # draining close executes the coalesced round(s)
    results = [future.result(timeout=60) for future in futures]
    seconds = time.perf_counter() - start
    stats = {
        key: value
        for key, value in engine.stats.delta_since(baseline).items()
        if key.startswith("service")
    }
    runs.append((results, stats))
    return seconds


def test_coalesced_service_vs_per_caller_serial():
    relevant = make_relevant()
    batches = caller_batches()
    serial_runs, service_runs = [], []
    serial_seconds, service_seconds = [], []

    def serial() -> float:
        serial_seconds.append(timed_serial(relevant, batches, serial_runs))
        return serial_seconds[-1]

    def coalesced() -> float:
        service_seconds.append(timed_service(relevant, batches, service_runs))
        return service_seconds[-1]

    speedup, q1, q3 = alternating_ratio(serial, coalesced, repeats=SERVICE_REPEATS)

    total_queries = sum(len(batch) for batch in batches)
    for serial_results, (service_results, stats) in zip(serial_runs, service_runs):
        # The bar that matters on every host: coalescing is value-invisible.
        for serial_tables, service_tables in zip(serial_results, service_results):
            assert len(serial_tables) == len(service_tables)
            for serial_table, service_table in zip(serial_tables, service_tables):
                assert_feature_tables_match(serial_table, service_table)

        # Cross-request fusion really fired: one shared round, every
        # admitted query coalesced, the three repeat copies of the shared
        # template's 50 queries served by fan-out.
        assert stats["service_rounds"] == 1
        assert stats["service_admitted"] == total_queries
        assert stats["service_coalesced"] == total_queries
        assert stats["service_deduped"] == (N_CALLERS - 1) * len(make_queries())

    rows = [
        ["per-caller serial", round(statistics.median(serial_seconds), 4),
         f"{speedup:.2f} ({q1:.2f}-{q3:.2f})"],
        ["coalesced service", round(statistics.median(service_seconds), 4), "1.0"],
    ]
    text = (
        f"Admission-controlled service ({N_CALLERS} concurrent callers, "
        f"{total_queries} queries, {len(make_queries())} shared)\n"
    )
    text += render_table(
        ["variant", "median seconds", "speedup vs service, median (quartiles)"], rows
    )
    stats = service_runs[-1][1]
    text += "\nservice stats: " + ", ".join(
        f"{key}={stats[key]}"
        for key in (
            "service_admitted",
            "service_rounds",
            "service_coalesced",
            "service_deduped",
            "service_timeouts",
            "service_rejected",
        )
    )
    text += (
        f"\n{SERVICE_REPEATS} alternating runs a side, each on fresh engines; "
        f"cpu cores: {os.cpu_count()}"
    )
    print(text)
    write_result("bench_service", text)

    assert speedup >= 1.3, (
        f"expected the coalesced service >= 1.3x over per-caller serial "
        f"batches, got a median of {speedup:.2f}x (quartiles {q1:.2f}-{q3:.2f})"
    )

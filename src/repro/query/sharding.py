"""Plan-level parallel execution of query plans across backend workers.

The batched engine of :mod:`repro.query.engine` runs every fused plan of an
``execute_batch`` call serially on the calling thread.  TPE search traffic
hammers one engine with 50+ query templates per step, so with
``EngineConfig(num_workers > 1)`` :meth:`ShardScheduler.run_fused_plans`
partitions the batch's pending fused plans across a thread pool.  Each worker
slot holds its **own backend instance** over the shared table (mandatory for
backends that own storage, e.g. one sqlite connection per worker; harmless
for the stateless in-process backends), and plans are assigned
longest-processing-time-first by estimated cost so one heavy plan cannot
serialise the batch: a plan heavier than the ideal per-worker load is split
into aggregate-spec units over one shared context.

Determinism contract (pinned by ``tests/query/test_sharding_equivalence.py``):
sharded execution returns element-wise identical tables to serial execution
for every backend and worker count.  This holds because all engine-shared
state (predicate masks, group indexes, and their statistics) is prepared
**serially on the coordinator thread** via ``ExecutionBackend.plan_context``
before any worker runs, in the same fused order serial execution uses;
workers only aggregate over the prepared (immutable) contexts.  Statistics
counters therefore book identical totals at every worker count.

Threads, not processes: the numpy kernels spend their time inside
GIL-releasing array primitives and the sqlite backend blocks inside the C
library, so a thread pool parallelises both without any serialisation cost
on the table.  Worker count comes from ``EngineConfig(num_workers=...)``,
defaulting to ``$REPRO_ENGINE_WORKERS`` or 1 (fully serial; the scheduler
then never creates a pool).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.query.backends.base import ExecutionBackend, make_backend
from repro.query.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dataframe.table import Table
    from repro.query.engine import QueryEngine

#: Environment variable overriding the default worker count (used by the CI
#: sharded matrix slot to replay the query suites with ``num_workers=4``).
WORKERS_ENV_VAR = "REPRO_ENGINE_WORKERS"


def default_worker_count() -> int:
    """The process-wide default worker count: ``$REPRO_ENGINE_WORKERS`` or 1.

    Raises ``ValueError`` on a malformed or non-positive value -- a silently
    ignored typo would run the whole process serially.
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"${WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ValueError(f"${WORKERS_ENV_VAR} must be a positive integer, got {raw!r}")
    return workers


def split_ranges(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``range(n)``, sizes within 1.

    At most ``n`` non-empty ranges are produced, so fewer items than
    shards simply yields fewer ranges (never empty ones).
    """
    if n <= 0:
        return [(0, 0)]
    shards = max(1, min(int(shards), n))
    return [(i * n // shards, (i + 1) * n // shards) for i in range(shards)]


class ShardScheduler:
    """Owns one engine's worker pool and per-worker backend instances.

    The scheduler is derived state: :meth:`clear` (called by
    ``QueryEngine.clear_caches``) drops the worker backends (and their
    private materialisations) and the thread pool; both are re-created
    lazily.  With ``num_workers == 1`` no pool ever exists and every call
    degenerates to the serial path.
    """

    def __init__(self, engine: "QueryEngine", num_workers: int):
        self.engine = engine
        self.num_workers = int(num_workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._worker_backends: Dict[int, ExecutionBackend] = {}
        self._lock = threading.Lock()

    def plan_parallel_active(self, n_plans: int) -> bool:
        """Whether a batch of *n_plans* fused plans is scheduled on the pool."""
        return self.num_workers > 1 and n_plans > 1

    # ------------------------------------------------------------------
    # Worker resources
    # ------------------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers, thread_name_prefix="repro-shard"
                )
            return self._pool

    def worker_backend(self, slot: int) -> ExecutionBackend:
        """The backend instance owned by worker *slot* (created lazily).

        Every slot gets its own instance: storage-owning backends (sqlite)
        cannot share a connection across threads, and private per-plan state
        (``last_sql``) must never interleave between workers.
        """
        with self._lock:
            backend = self._worker_backends.get(slot)
            if backend is None:
                backend = make_backend(self.engine.backend_name)
                backend.bind(self.engine.table, engine=self.engine)
                self._worker_backends[slot] = backend
            return backend

    @property
    def worker_backends(self) -> List[ExecutionBackend]:
        """Snapshot of the live per-slot backend instances (observability)."""
        with self._lock:
            return list(self._worker_backends.values())

    def clear(self) -> None:
        """Drop worker backends and the pool (both re-created on demand)."""
        with self._lock:
            workers = list(self._worker_backends.values())
            self._worker_backends.clear()
            pool, self._pool = self._pool, None
        for backend in workers:
            backend.clear()
        if pool is not None:
            pool.shutdown(wait=True)

    def refresh(self, old_rows: int) -> None:
        """Propagate a table append to every live worker backend.

        Each per-slot backend instance owns its own materialisation of the
        (now extended) shared table, so each one gets the same
        :meth:`ExecutionBackend.refresh` call the engine's primary backend
        receives -- sqlite workers ``INSERT`` the appended slice, in-process
        workers drop nothing (they read the table lazily).  The pool itself
        is untouched: threads hold no table state.
        """
        with self._lock:
            workers = list(self._worker_backends.values())
        for backend in workers:
            backend.refresh(old_rows)

    # ------------------------------------------------------------------
    # Plan-level scheduling
    # ------------------------------------------------------------------
    def run_fused_plans(self, plans: Sequence[QueryPlan]) -> List[List["Table"]]:
        """Execute fused plans, serial or sharded; one table list per plan.

        The parallel path first computes every plan's execution context
        serially on this (the coordinator) thread via
        ``ExecutionBackend.plan_context`` -- all mutation of engine-shared
        state (mask cache, group index, stats) happens there, in fused
        order, so counters and caches book exactly what serial execution
        books.  Workers then aggregate over the immutable contexts.
        """
        engine = self.engine
        stats = engine.stats
        plans = list(plans)
        if not self.plan_parallel_active(len(plans)):
            results = []
            for plan in plans:
                start = time.perf_counter()
                results.append(engine.backend.run_plan(plan))
                stats.add_split(
                    "backend_seconds", engine.backend_name, time.perf_counter() - start
                )
            return results

        contexts = [engine.backend.plan_context(plan) for plan in plans]
        units = self._split_units(plans, contexts)
        assignments = self._assign_units(units)
        executor = self._executor()
        start = time.perf_counter()
        futures = [
            executor.submit(self._run_chunk, slot, plans, contexts, chunk)
            for slot, chunk in enumerate(assignments)
            if chunk
        ]
        chunk_results = [future.result() for future in futures]
        stats.bump(seconds_sharding=time.perf_counter() - start, sharded_batches=1)
        results: List[List[Optional["Table"]]] = [
            [None] * len(plan.aggregates) for plan in plans
        ]
        for chunk in chunk_results:
            for (i, lo, _hi, _cost), tables in chunk:
                for offset, table in enumerate(tables):
                    results[i][lo + offset] = table
        return results  # type: ignore[return-value]

    def _split_units(
        self, plans: Sequence[QueryPlan], contexts: Sequence[object]
    ) -> List[Tuple[int, int, int, float]]:
        """Break fused plans into ``(plan, spec range)`` scheduling units.

        The unit of work defaults to a whole fused plan (its aggregates then
        share prepared per-attribute state), but a plan whose estimated cost
        exceeds the ideal per-worker load is split into contiguous
        aggregate-spec ranges over the *same* prefetched context -- without
        this, one heavy fused plan (e.g. the no-predicate plan of a template
        batch) bounds the whole batch's makespan.  Exactness is unaffected:
        every spec is computed from the same immutable context either way.
        Returns ``(plan index, spec lo, spec hi, estimated cost)`` tuples.
        """
        costs = [
            self._plan_cost(plan, context) for plan, context in zip(plans, contexts)
        ]
        target = sum(costs) / self.num_workers
        units: List[Tuple[int, int, int, float]] = []
        for i, (plan, cost) in enumerate(zip(plans, costs)):
            n_specs = len(plan.aggregates)
            pieces = 1
            if target > 0.0 and cost > target:
                pieces = min(n_specs, -(-int(cost) // max(1, int(target))))
            for lo, hi in split_ranges(n_specs, pieces):
                units.append((i, lo, hi, cost * (hi - lo) / max(1, n_specs)))
        return units

    def _assign_units(
        self, units: Sequence[Tuple[int, int, int, float]]
    ) -> List[List[Tuple[int, int, int, float]]]:
        """Longest-processing-time-first assignment of units to worker slots.

        Deterministic: ties break on the lower plan index, then the lower
        spec offset, then the lower slot id, so the same batch always
        schedules -- and books its statistics -- identically.
        """
        slots = min(self.num_workers, len(units))
        order = sorted(units, key=lambda unit: (-unit[3], unit[0], unit[1]))
        assignments: List[List[Tuple[int, int, int, float]]] = [[] for _ in range(slots)]
        loads = [0.0] * slots
        for unit in order:
            slot = min(range(slots), key=lambda s: (loads[s], s))
            assignments[slot].append(unit)
            loads[slot] += unit[3]
        return assignments

    def _plan_cost(self, plan: QueryPlan, context: object) -> float:
        """Estimated plan cost: filtered row count x aggregate count.

        The filtered size comes from the prefetched context; backends that
        own their filtering (no context) are charged the full table.
        """
        n_aggregates = max(1, len(plan.aggregates))
        if isinstance(context, dict):
            row_idx = context.get("row_idx")
            rows = len(row_idx) if row_idx is not None else self.engine.table.num_rows
        else:
            rows = self.engine.table.num_rows
        # +1 keeps empty-filter plans from looking free (they still pay the
        # per-plan dispatch and output assembly).
        return float(rows * n_aggregates + 1)

    def _run_chunk(
        self,
        slot: int,
        plans: Sequence[QueryPlan],
        contexts: Sequence[object],
        chunk: Sequence[Tuple[int, int, int, float]],
    ):
        engine = self.engine
        backend = self.worker_backend(slot)
        start = time.perf_counter()
        results = []
        for unit in chunk:
            i, lo, hi, _cost = unit
            plan, context = plans[i], contexts[i]
            if hi - lo != len(plan.aggregates):
                plan = plan.with_aggregates(plan.aggregates[lo:hi])
            if context is None:
                results.append((unit, backend.run_plan(plan)))
            else:
                results.append((unit, backend.run_plan_with_context(plan, context)))
        elapsed = time.perf_counter() - start
        engine.stats.add_split("backend_seconds", engine.backend_name, elapsed)
        engine.stats.add_split("shard_seconds", f"w{slot}", elapsed)
        engine.stats.bump(plan_shards=len(results))
        return results

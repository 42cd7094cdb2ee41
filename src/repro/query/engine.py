"""Batched query-execution engine: plan IR, caches, and pluggable backends.

The Query Template Identification and SQL generation searches execute hundreds
to thousands of candidate queries against the *same* relevant table with the
*same* foreign keys.  Re-deriving everything per query (hash the key column,
re-scan every WHERE predicate) wastes almost all of that work, so a
:class:`QueryEngine` is bound to one relevant table and layered in three:

1. **Logical plan IR** -- :meth:`QueryEngine.plan` lowers every
   :class:`~repro.query.query.PredicateAwareQuery` into a frozen
   :class:`~repro.query.plan.QueryPlan` (predicate atoms, group-by keys,
   aggregate specs).  Everything past that point -- result caching, batching,
   execution -- consumes only plans.
2. **Execution backends** -- the actual filter / group / aggregate work is
   delegated to the :class:`~repro.query.backends.ExecutionBackend` selected
   by :class:`EngineConfig` (``"numpy"`` vectorized grouped kernels by
   default, ``"python"`` per-group reference loop, ``"sqlite"`` generated SQL
   over an in-memory database; third parties register more via
   ``@register_backend``).
3. **Shared derived state** -- a factorized group index per key combination,
   an LRU predicate-mask cache keyed by atom signature, an LRU **sort-order
   cache** keyed by ``(predicate signature, keys, attr)`` (the lexsort that
   dominates the order-statistics kernels runs once per filter/grouping/
   value-column triple and is reused across plans and batches of one
   template) and an LRU result cache keyed by plan signature (TPE frequently
   re-samples identical queries), plus cache / timing statistics
   (:class:`EngineStats`, including the backend name and the per-backend
   wall-clock split) consumed by the Figure 5 benchmarks.
   ``EngineConfig(memory_budget_bytes=...)`` bounds the summed bytes of
   the mask / result / sort-order caches with size-aware cross-cache
   eviction (:class:`CacheBudget`).

Execution is serial: every fused plan runs on the engine's one backend
instance, on the calling thread.  All shared state -- the LRU caches, the
group-index map and every statistics mutation -- is still lock-protected,
because concurrent ``execute_batch`` callers (and the
:class:`~repro.query.service.QueryService` dispatcher) share one engine.

The engine is an optimisation layer only: for the in-process backends its
results are element-wise **bit-for-bit identical** to the naive
filter -> group-by path (:func:`repro.query.executor.execute_query_naive`),
because the Python reference aggregates and ``np.bincount`` share one strict
left-to-right accumulation order (the accumulation-order contract in
:mod:`repro.dataframe.aggregates`).  Backends that own their storage (sqlite)
are held to value equality within ``1e-9``.  The backend-parameterized
equivalence suite in ``tests/query/test_engine_equivalence.py`` enforces
both bars for every registered backend.

State-reset contract (pinned by ``tests/query/test_backends.py``):

* :meth:`QueryEngine.clear_caches` drops every piece of derived state --
  masks, results, group indexes and backend-private
  materialisations -- but leaves all statistics counters untouched (they are
  lifetime counters).
* :meth:`EngineStats.reset` zeroes every counter and timer but preserves the
  engine's identity fields (the backend name).
* :meth:`QueryEngine.reset` composes both: a cold engine whose subsequent
  traffic is indistinguishable from a freshly constructed one.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import column_to_aggregable
from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import (
    group_codes,
    group_positions_from_codes,
    renumber_codes_compact,
)
from repro.dataframe.predicates import Predicate
from repro.dataframe.table import Table
from repro.query.backends import ExecutionBackend, backend_names, make_backend
from repro.query.delta import default_incremental, refresh_engine
from repro.query.plan import QueryPlan, atoms_from_query
from repro.query.query import PredicateAwareQuery

#: Default bound on the number of cached predicate masks per engine.
DEFAULT_MASK_CACHE_SIZE = 256

#: Default bound on the number of cached query results per engine.
DEFAULT_RESULT_CACHE_SIZE = 128

#: Default bound on the number of cached sort orders per engine.  Orders are
#: int64 arrays of filtered-row length (8x a boolean mask), so the bound is
#: deliberately tighter than the mask cache's.
DEFAULT_SORT_CACHE_SIZE = 64

#: Environment variable overriding the default backend name (used by the CI
#: backend matrix to replay the query suites per backend).
BACKEND_ENV_VAR = "REPRO_ENGINE_BACKEND"


def default_backend_name() -> str:
    """The process-wide default backend: ``$REPRO_ENGINE_BACKEND`` or numpy.

    Raises ``ValueError`` when the environment names an unregistered
    backend -- eagerly, so a typo surfaces where the config is resolved
    (engine construction, ``FeatAugConfig.validate``) instead of deep inside
    the registry lookup at the first query.
    """
    raw = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not raw:
        return "numpy"
    if raw not in backend_names():
        raise ValueError(
            f"${BACKEND_ENV_VAR} names an unknown execution backend {raw!r}; "
            f"registered backends: {backend_names()}"
        )
    return raw


@dataclass(frozen=True)
class EngineConfig:
    """Construction-time knobs of a :class:`QueryEngine`.

    ``backend`` of ``None`` resolves to :func:`default_backend_name` at use
    time, so a config built before ``$REPRO_ENGINE_BACKEND`` changes still
    follows the environment.  ``memory_budget_bytes`` imposes one
    global size-aware budget across the mask / result / sort-order caches
    (``None`` = unbounded bytes; the per-cache entry-count bounds always
    apply).
    """

    backend: Optional[str] = None
    mask_cache_size: int = DEFAULT_MASK_CACHE_SIZE
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE
    #: Bound on the engine's shared sort-order cache; ``0`` disables it (the
    #: order-statistics kernels then re-sort per plan, the pre-cache
    #: behaviour -- the benchmark baseline uses this).
    sort_cache_size: int = DEFAULT_SORT_CACHE_SIZE
    #: Global byte budget shared by the mask / result / sort-order caches
    #: (size-aware cross-cache eviction, see :class:`CacheBudget`); ``None``
    #: disables byte-based eviction.
    memory_budget_bytes: Optional[int] = None
    #: Delta-aware refresh of cached state when the bound table's version
    #: bumps (``Table.append_rows``): ``True`` upgrades masks / group
    #: indexes / sort orders / additive results in place
    #: (:mod:`repro.query.delta`), ``False`` flushes every cache on a bump.
    #: ``None`` follows ``$REPRO_ENGINE_INCREMENTAL`` at use time (default
    #: off).
    incremental: Optional[bool] = None

    def __post_init__(self) -> None:
        # An explicitly-named backend is validated eagerly: a typo'd
        # EngineConfig(backend=...) / --engine-backend / FeatAugConfig value
        # should fail where it is written, not at the first query.
        # ``backend=None`` stays lazy by design (the environment default is
        # resolved -- and validated -- at use time).
        if self.backend is not None:
            name = self.backend.strip()
            object.__setattr__(self, "backend", name or None)
            if name and name not in backend_names():
                raise ValueError(
                    f"Unknown execution backend {name!r}; "
                    f"registered backends: {backend_names()}"
                )

    @property
    def backend_name(self) -> str:
        return self.backend or default_backend_name()

    @property
    def incremental_enabled(self) -> bool:
        """The resolved incremental-refresh flag (explicit, else the env default)."""
        if self.incremental is not None:
            return bool(self.incremental)
        return default_incremental()

    def validate(self) -> None:
        """Raise ``ValueError`` on an unknown backend, non-positive
        caches, a non-positive memory budget or a malformed environment
        override."""
        if self.backend_name not in backend_names():
            raise ValueError(
                f"Unknown execution backend {self.backend_name!r}; "
                f"registered backends: {backend_names()}"
            )
        if self.mask_cache_size < 1 or self.result_cache_size < 1:
            raise ValueError("Cache sizes must be >= 1")
        if self.sort_cache_size < 0:
            raise ValueError("sort_cache_size must be >= 0 (0 disables the cache)")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ValueError(
                f"memory_budget_bytes must be >= 1 (or None for unbounded), "
                f"got {self.memory_budget_bytes!r}"
            )
        # A malformed $REPRO_ENGINE_INCREMENTAL raises here, like the other
        # environment-resolved knobs.
        self.incremental_enabled

    def cache_key(self) -> tuple:
        """Identity used to share engines per table (backend resolved)."""
        return (
            self.backend_name,
            self.mask_cache_size,
            self.result_cache_size,
            self.sort_cache_size,
            self.memory_budget_bytes,
            self.incremental_enabled,
        )


@dataclass
class EngineStats:
    """Counters and wall-clock totals exposed for the Fig. 5 benchmarks.

    Thread safety: every mutation goes through :meth:`bump` /
    :meth:`add_split` / :meth:`record_kernel`, which serialise on one
    re-entrant lock, so counters can never tear when concurrent
    ``execute_batch`` callers book concurrently.
    Fields prefixed with an underscore are implementation details and are
    excluded from :meth:`as_dict` / :meth:`reset`.
    """

    #: Name of the engine's execution backend (identity, not a counter:
    #: preserved across :meth:`reset`).
    backend: str = ""
    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    empty_results: int = 0
    mask_hits: int = 0
    mask_misses: int = 0
    mask_evictions: int = 0
    result_hits: int = 0
    result_misses: int = 0
    #: Sort-order cache traffic: one hit or miss per (plan, value column)
    #: that evaluates an order-statistics kernel (see
    #: :meth:`QueryEngine.sort_order`); accumulation-only plans never
    #: consult the cache.
    sort_hits: int = 0
    sort_misses: int = 0
    group_index_builds: int = 0
    group_index_reuses: int = 0
    vectorized_aggregations: int = 0
    python_aggregations: int = 0
    seconds_masking: float = 0.0
    seconds_indexing: float = 0.0
    seconds_grouping: float = 0.0
    seconds_aggregating: float = 0.0
    #: Wall-clock spent computing (code, value) lexsort orders on sort-order
    #: cache misses.  This time used to hide inside the first sort-based
    #: kernel's ``kernel_seconds`` entry; it is now booked here, so the
    #: per-kernel split measures the kernels' own work off the shared order.
    seconds_sorting: float = 0.0
    #: Aggregation seconds split per kernel (canonical aggregate name ->
    #: cumulative wall-clock), maintained by every backend.
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    #: Total wall-clock spent inside ``ExecutionBackend.run_plan`` per
    #: backend name (the per-backend timing split; includes masking /
    #: grouping time the backend booked to the finer-grained counters above).
    backend_seconds: Dict[str, float] = field(default_factory=dict)
    #: Entries evicted by the global memory budget's size-aware cross-cache
    #: eviction (:class:`CacheBudget`); per-cache entry-count evictions keep
    #: booking under ``mask_evictions``.
    budget_evictions: int = 0
    #: Rows the delta-refresh layer (:mod:`repro.query.delta`) observed as
    #: appended to the bound table.  This and the five fields below follow
    #: the carry contract of ``REFRESH_FIELDS``.
    appended_rows: int = 0
    #: Cached predicate masks extended in place over an appended slice.
    masks_extended: int = 0
    #: Group indexes extended in place (appended rows factorized and
    #: remapped into the existing code space, never reshuffled).
    indexes_extended: int = 0
    #: Cached lexsort orders upgraded by merging the appended rows' sorted
    #: run into the existing order.
    runs_merged: int = 0
    #: Cached result tables continued additively (the COUNT / SUM bincount
    #: accumulation family).
    results_upgraded: int = 0
    #: Cache entries dropped because an append made them stale and no exact
    #: in-place upgrade exists (order-statistics results, MAD deviation
    #: orders, ...); with ``incremental`` off, every entry flushed by a
    #: version bump books here.
    staleness_evictions: int = 0
    #: Queries admitted into a :class:`repro.query.service.QueryService`
    #: queue wrapping this engine.  This and the five counters below are
    #: ordinary lifetime counters: zeroed by :meth:`reset`, subtracted by
    #: :meth:`delta_since`.
    service_admitted: int = 0
    #: Queries rejected at admission because the service queue was full
    #: (deterministic backpressure, never a silent drop).
    service_rejected: int = 0
    #: Queries whose deadline expired while they waited in the service
    #: queue (their futures resolve with ``DeadlineExpiredError``).
    service_timeouts: int = 0
    #: Fused micro-batch rounds the service dispatched to the engine.
    service_rounds: int = 0
    #: Queries executed in a round shared by two or more requests -- the
    #: cross-request fusion the admission layer exists for.
    service_coalesced: int = 0
    #: Queries served by fan-out of another request's identical plan in the
    #: same round (one execution, shared result table).
    service_deduped: int = 0
    #: Gauge (not a counter): total bytes currently held across the mask /
    #: result / sort-order caches.  Carried as a current value -- never
    #: subtracted -- through :meth:`delta_since`; zeroed by
    #: ``QueryEngine.clear_caches``.
    bytes_cached: int = 0
    #: Gauge: current bytes per cache (``{"masks": ..., "results": ...,
    #: "sort_orders": ...}``).
    cache_bytes: Dict[str, float] = field(default_factory=dict)
    #: Gauge: queries currently waiting in the service queue (0 when no
    #: service wraps the engine).
    service_queue_depth: int = 0
    #: Gauge: occupancy of the service's most recent micro-batch round
    #: (queries executed / ``max_batch``; can exceed 1.0 when one oversized
    #: request rode alone).
    service_batch_occupancy: float = 0.0
    #: Serialises every mutation (excluded from :meth:`as_dict` / :meth:`reset`).
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    #: Identity fields: carried through :meth:`reset` and :meth:`delta_since`.
    IDENTITY_FIELDS = ("backend",)

    #: Gauge fields: current values, not lifetime counters -- carried
    #: through :meth:`delta_since` unsubtracted and zeroed when the caches
    #: (or service queues) they describe are cleared / drained.
    GAUGE_FIELDS = (
        "bytes_cached",
        "cache_bytes",
        "service_queue_depth",
        "service_batch_occupancy",
    )

    #: Delta-refresh bookkeeping fields.  Like the byte gauges they describe
    #: the engine's *current* table generation rather than one measurement
    #: window, so :meth:`reset` carries them and :meth:`delta_since` passes
    #: them through as current values (never subtracted): a scaling
    #: experiment's per-variant ``reset()`` must not make appends that
    #: happened before the variant look like (or hide) refresh activity of
    #: the window under measurement.  They are not gauges -- they only ever
    #: grow, via :meth:`bump`, and :meth:`set_gauges` rejects them.
    REFRESH_FIELDS = (
        "appended_rows",
        "masks_extended",
        "indexes_extended",
        "runs_merged",
        "results_upgraded",
        "staleness_evictions",
    )

    @property
    def mask_hit_rate(self) -> float:
        total = self.mask_hits + self.mask_misses
        return self.mask_hits / total if total else 0.0

    @property
    def result_hit_rate(self) -> float:
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0

    def bump(self, **deltas) -> None:
        """Atomically add *deltas* to scalar counters / timers."""
        with self._lock:
            for name, amount in deltas.items():
                setattr(self, name, getattr(self, name) + amount)

    def add_split(self, split_name: str, key: str, seconds: float) -> None:
        """Atomically accumulate into one of the ``Dict[str, float]`` splits."""
        with self._lock:
            split = getattr(self, split_name)
            split[key] = split.get(key, 0.0) + seconds

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            out = {k: v for k, v in self.__dict__.items() if not k.startswith("_")}
            out["kernel_seconds"] = dict(self.kernel_seconds)
            out["backend_seconds"] = dict(self.backend_seconds)
            out["cache_bytes"] = dict(self.cache_bytes)
            out["mask_hit_rate"] = self.mask_hit_rate
            out["result_hit_rate"] = self.result_hit_rate
        return out

    def set_gauges(self, **values) -> None:
        """Atomically overwrite gauge fields with their current values."""
        with self._lock:
            for name, value in values.items():
                if name not in self.GAUGE_FIELDS:
                    raise ValueError(f"{name!r} is not a gauge field")
                setattr(self, name, value)

    def record_kernel(
        self, name: str, seconds: float, backend: str, aggregation_only: bool = True
    ) -> None:
        """Account one aggregation evaluation to the per-kernel timing split.

        ``aggregation_only=True`` (the in-process backends, which time the
        aggregation step in isolation) also books the time into
        ``seconds_aggregating``, keeping the aggregation-phase comparison
        between the numpy and python kernels apples-to-apples.  Backends
        whose per-aggregate timing fuses filtering and grouping into one
        statement (sqlite) pass ``False``: their time lands only in
        ``kernel_seconds`` (per-statement split) and, via the engine, in
        ``backend_seconds``.  The legacy vectorized / python aggregation
        counters track the two in-process backends.
        """
        with self._lock:
            if aggregation_only:
                self.seconds_aggregating += seconds
            self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + seconds
            if backend == "numpy":
                self.vectorized_aggregations += 1
            elif backend == "python":
                self.python_aggregations += 1

    def reset(self) -> None:
        """Zero every counter and timer; the identity field (backend),
        the byte gauges and the delta-refresh fields survive --
        gauges describe the caches' *current* contents and the refresh
        fields the table generation the engine is synced to, neither of
        which resetting counters changes (:meth:`QueryEngine.reset` clears
        the caches first, so its gauges genuinely read zero afterwards)."""
        with self._lock:
            carried = {
                name: getattr(self, name)
                for name in self.IDENTITY_FIELDS + self.GAUGE_FIELDS + self.REFRESH_FIELDS
            }
            for name, value in EngineStats().__dict__.items():
                if name.startswith("_"):
                    continue
                setattr(self, name, value)
            for name, value in carried.items():
                setattr(self, name, value)

    def delta_since(self, baseline: Dict[str, float]) -> Dict[str, float]:
        """Counters accumulated since *baseline* (an earlier ``as_dict()``).

        Engines are shared per table, so per-run reports must subtract the
        traffic of earlier runs; derived rates are recomputed from the deltas,
        the identity field (the backend name) is carried through unchanged,
        and gauges (``bytes_cached``, ``cache_bytes``) and the delta-refresh
        fields (``REFRESH_FIELDS``) pass through as current values -- a byte
        gauge difference is meaningless, and refresh activity describes the
        table generation, not the measurement window.  Tolerant of incomplete baselines: a key
        absent from *baseline* (a snapshot captured before a feature --
        the memory budget, the service -- first engaged, or from an older
        engine) is treated as zero rather than raising, and a baseline
        value of the wrong shape is ignored.
        """
        current = self.as_dict()
        baseline = baseline or {}
        delta: Dict[str, float] = {}
        for name, value in current.items():
            if name.endswith("_rate"):
                continue
            if (
                isinstance(value, str)
                or name in self.IDENTITY_FIELDS
                or name in self.GAUGE_FIELDS
                or name in self.REFRESH_FIELDS
            ):
                delta[name] = value
            elif isinstance(value, dict):
                base = baseline.get(name)
                if not isinstance(base, dict):
                    base = {}
                delta[name] = {k: v - base.get(k, 0.0) for k, v in value.items()}
            else:
                base = baseline.get(name, 0)
                if not isinstance(base, (int, float)) or isinstance(base, bool):
                    base = 0
                delta[name] = value - base
        masks = delta["mask_hits"] + delta["mask_misses"]
        delta["mask_hit_rate"] = delta["mask_hits"] / masks if masks else 0.0
        results = delta["result_hits"] + delta["result_misses"]
        delta["result_hit_rate"] = delta["result_hits"] / results if results else 0.0
        return delta


#: Sentinel distinguishing "absent" from a legitimately cached falsy value
#: (``None``, an empty array, an empty table): identity tests against
#: ``_MISS`` are the only presence checks the cache layer uses.
_MISS = object()


def _value_nbytes(value) -> int:
    """Byte cost of one cached value under the global memory budget.

    Masks are bool arrays (1 byte/row), sort orders int64 arrays (8
    bytes/filtered row) -- both fall out of ``ndarray.nbytes``.  Result
    tables cost the sum of their columns' ``Column.nbytes``: 8 bytes per
    row for a float64 or a categorical column, whether or not the
    categorical's values were ever decoded.  Anything else (test fixtures,
    third-party values) is charged 0: the entry-count bound still applies.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, Table):
        return sum(value.column(name).nbytes for name in value.column_names)
    return 0


class CacheBudget:
    """One global size-aware byte budget shared by an engine's LRU caches.

    Every registered :class:`_LRUCache` shares this budget's re-entrant lock
    (so cross-cache eviction needs no lock ordering) and reports per-entry
    byte costs; :meth:`enforce` runs after every insert and evicts LRU
    entries from the **cheapest-benefit** non-empty cache until the summed
    bytes fit the budget again.  Benefit ranks the caches by reuse value per
    byte: sort orders (int64 per filtered row, cheapest to recompute per
    byte) go first, then masks, then result tables -- big tables keep more
    masks than orders.  Deterministic: the victim cache is the non-empty one
    with the smallest ``(benefit_weight, name)`` and eviction is its LRU
    head, so identical traffic always evicts identically.  Budget evictions
    book ``EngineStats.budget_evictions``; the per-cache entry-count bounds
    keep booking their own eviction counters.
    """

    def __init__(self, budget_bytes: int, stats: Optional["EngineStats"] = None):
        self.budget_bytes = int(budget_bytes)
        self.lock = threading.RLock()
        self._caches: List["_LRUCache"] = []
        self._stats = stats

    def register(self, cache: "_LRUCache") -> None:
        with self.lock:
            self._caches.append(cache)

    @property
    def total_bytes(self) -> int:
        with self.lock:
            return sum(cache.bytes for cache in self._caches)

    def enforce(self) -> int:
        """Evict until the summed bytes fit; returns the eviction count."""
        evicted = 0
        with self.lock:
            while sum(cache.bytes for cache in self._caches) > self.budget_bytes:
                victims = [cache for cache in self._caches if len(cache._data)]
                if not victims:
                    break
                victim = min(victims, key=lambda c: (c.benefit_weight, c.name))
                victim._evict_lru()
                evicted += 1
        if evicted and self._stats is not None:
            self._stats.bump(budget_evictions=evicted)
        return evicted


class _LRUCache:
    """A tiny ordered-dict LRU used for masks, sort orders and result tables.

    Thread-safe: recency bookkeeping (``move_to_end`` during ``get``) makes
    even reads mutating, so every operation serialises on one lock --
    concurrent ``execute_batch`` callers can never corrupt
    the order book or evict past the bound.  Cached values (masks, result
    tables) are immutable by contract, so returning them outside the lock is
    safe.  Presence tests use the ``_MISS`` sentinel, so a legitimately
    cached falsy value (``None``, an empty array) is a hit, not a miss.

    Every entry carries its :func:`_value_nbytes` cost and ``self.bytes``
    tracks the exact total.  With a :class:`CacheBudget` attached the cache
    shares the budget's lock and every insert triggers cross-cache
    enforcement; ``benefit_weight`` ranks this cache's entries for the
    budget's cheapest-benefit-first eviction order.
    """

    def __init__(
        self,
        maxsize: int,
        name: str = "cache",
        budget: Optional[CacheBudget] = None,
        benefit_weight: float = 1.0,
    ):
        self.maxsize = int(maxsize)
        self.name = name
        self.benefit_weight = float(benefit_weight)
        self.bytes = 0
        self._budget = budget
        self._lock = budget.lock if budget is not None else threading.Lock()
        self._data: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        if budget is not None:
            budget.register(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key, default=None):
        with self._lock:
            entry = self._data.get(key, _MISS)
            if entry is _MISS:
                return default
            self._data.move_to_end(key)
            return entry[0]

    def put(self, key, value) -> int:
        """Insert and return the number of entry-count evictions (0 or 1).

        Budget-driven evictions are enforced here too (under the same lock)
        but are booked by the budget itself, not in the return value.
        """
        cost = _value_nbytes(value)
        with self._lock:
            old = self._data.get(key, _MISS)
            if old is not _MISS:
                self._data[key] = (value, cost)
                self._data.move_to_end(key)
                self.bytes += cost - old[1]
                evicted = 0
            else:
                self._data[key] = (value, cost)
                self.bytes += cost
                evicted = 0
                if len(self._data) > self.maxsize:
                    self._evict_lru()
                    evicted = 1
            if self._budget is not None:
                self._budget.enforce()
            return evicted

    def _evict_lru(self) -> None:
        """Drop the LRU head; caller holds the lock."""
        _key, (_value, nbytes) = self._data.popitem(last=False)
        self.bytes -= nbytes

    def snapshot(self) -> List[Tuple[object, object]]:
        """``(key, value)`` pairs in LRU-to-MRU order, without touching
        recency (unlike ``get``).  The delta-refresh layer iterates this to
        upgrade or evict entries deterministically."""
        with self._lock:
            return [(key, entry[0]) for key, entry in self._data.items()]

    def replace(self, key, value) -> None:
        """Upgrade an existing entry in place, preserving its recency slot.

        A no-op when the key is absent (it may have been evicted between a
        :meth:`snapshot` and the upgrade).  Byte accounting is adjusted and
        an attached budget re-enforced, exactly like :meth:`put`.
        """
        with self._lock:
            old = self._data.get(key, _MISS)
            if old is _MISS:
                return
            cost = _value_nbytes(value)
            self._data[key] = (value, cost)
            self.bytes += cost - old[1]
            if self._budget is not None:
                self._budget.enforce()

    def discard(self, key) -> bool:
        """Drop one entry (no eviction counters); ``True`` when present."""
        with self._lock:
            entry = self._data.pop(key, _MISS)
            if entry is _MISS:
                return False
            self.bytes -= entry[1]
            return True

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.bytes = 0


class GroupIndex:
    """The factorized grouping of one table by one key combination."""

    def __init__(self, table: Table, keys: Sequence[str]):
        self.keys = tuple(keys)
        codes, first_rows = group_codes(table, self.keys)
        #: int64 group id per row of the table, in first-appearance order.
        self.codes = codes
        self.n_groups = int(first_rows.size)
        # One row per group: each key column taken at the group's first row
        # (categorical keys share the table column's dictionary).
        self._key_columns = [table.column(name).take(first_rows) for name in self.keys]
        self._group_rows: Optional[List[np.ndarray]] = None

    @property
    def group_rows(self) -> List[np.ndarray]:
        """Ascending row positions of every group (built on first use)."""
        group_rows = self._group_rows
        if group_rows is None:
            group_rows = group_positions_from_codes(self.codes, self.n_groups)
            self._group_rows = group_rows
        return group_rows

    def key_columns(self, group_ids: Optional[np.ndarray] = None) -> List[Column]:
        """Output key columns for the given groups (all groups when ``None``)."""
        if group_ids is None:
            return list(self._key_columns)
        return [column.take(group_ids) for column in self._key_columns]

    def extend(self, table: Table, old_rows: int) -> None:
        """Extend the index in place with *table*'s rows ``[old_rows:]``.

        The appended rows are grouped on their own and remapped into the
        existing code space: groups already known keep their codes, brand-new
        groups get fresh codes in first-appearance order -- exactly the ids a
        full rebuild over the extended table would assign, because
        first-appearance numbering is prefix-stable.  Codes are extended,
        never reshuffled, so cached compact renumberings and sort orders
        derived from the old codes stay valid prefixes.  Groups are matched
        on their key codes (dictionary codes, or float values with NaN as
        ``None``), so any label -- hashable or not -- extends.
        """
        if table.num_rows <= old_rows:
            return
        delta = Table([table.column(name).slice(old_rows) for name in self.keys])
        d_codes, d_first = group_codes(delta, self.keys)
        combined = [
            known.concat(delta.column(known.name).take(d_first)) for known in self._key_columns
        ]
        key_tuples = list(zip(*(_key_identity(column) for column in combined)))
        key_to_code = dict(zip(key_tuples[: self.n_groups], range(self.n_groups)))
        mapping = np.empty(d_first.size, dtype=np.int64)
        keep = list(range(self.n_groups))
        for local, key in enumerate(key_tuples[self.n_groups :]):
            code = key_to_code.get(key)
            if code is None:
                code = key_to_code[key] = len(keep)
                keep.append(self.n_groups + local)
            mapping[local] = code
        self.codes = np.concatenate([self.codes, mapping[d_codes]])
        self._key_columns = [column.take(keep) for column in combined]
        self.n_groups = len(keep)
        self._group_rows = None


def _key_identity(column: Column) -> list:
    """Hashable per-row key identity: dictionary codes, or floats with NaN
    as ``None`` (so NaN keys match each other)."""
    if column.is_numeric_like:
        return [None if v != v else v for v in column.values.tolist()]
    return column.codes.tolist()


def _resolve_config(
    config: Optional[EngineConfig],
    mask_cache_size: Optional[int],
    result_cache_size: Optional[int],
) -> EngineConfig:
    """Fold the cache-size keywords into one validated :class:`EngineConfig`."""
    if config is None:
        config = EngineConfig()
    overrides = {}
    if mask_cache_size is not None:
        overrides["mask_cache_size"] = int(mask_cache_size)
    if result_cache_size is not None:
        overrides["result_cache_size"] = int(result_cache_size)
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config


class QueryEngine:
    """Cached, batched execution of query plans on one table.

    ``config`` selects the execution backend, cache sizes, memory budget
    and incremental refresh.
    """

    def __init__(
        self,
        table: Table,
        mask_cache_size: Optional[int] = None,
        result_cache_size: Optional[int] = None,
        weak_table: bool = False,
        config: Optional[EngineConfig] = None,
    ):
        self.config = _resolve_config(config, mask_cache_size, result_cache_size)
        self.backend_name = self.config.backend_name
        self.memory_budget_bytes = self.config.memory_budget_bytes
        # Directly-constructed engines own a strong reference to their table.
        # Registry engines (``engine_for``) hold only a weak one: the registry
        # maps table -> engine, and a strong back-reference from the engine
        # would keep every table ever touched alive for the process lifetime.
        self._table_strong = None if weak_table else table
        self._table_ref = weakref.ref(table)
        #: Delta-refresh bookkeeping: the table generation the caches cover
        #: (see :meth:`sync_with_table` and :mod:`repro.query.delta`).
        self.incremental = self.config.incremental_enabled
        self._sync_lock = threading.RLock()
        self._synced_version = table.version
        self._synced_rows = table.num_rows
        self.stats = EngineStats(backend=self.backend_name)
        self._indexes: Dict[Tuple[str, ...], GroupIndex] = {}
        self._index_lock = threading.Lock()
        #: Global byte budget shared across the three LRU caches (None =
        #: entry-count bounds only).
        self.budget: Optional[CacheBudget] = (
            CacheBudget(self.memory_budget_bytes, self.stats)
            if self.memory_budget_bytes is not None
            else None
        )
        self._masks = _LRUCache(
            self.config.mask_cache_size,
            name="masks",
            budget=self.budget,
            benefit_weight=2.0,
        )
        self._results = _LRUCache(
            self.config.result_cache_size,
            name="results",
            budget=self.budget,
            benefit_weight=4.0,
        )
        # Shared lexsort orders keyed by (predicate signature, keys, attr) --
        # QueryPlan.sort_key -- so queries of one template reuse the
        # order-statistics sort across plans and batches.  None = disabled.
        self._sort_orders: Optional[_LRUCache] = (
            _LRUCache(
                self.config.sort_cache_size,
                name="sort_orders",
                budget=self.budget,
                benefit_weight=1.0,
            )
            if self.config.sort_cache_size > 0
            else None
        )
        self.backend: ExecutionBackend = make_backend(self.backend_name)
        self.backend.bind(table, engine=self)
        self._closed = False
        self._refresh_byte_gauges()

    @property
    def table(self) -> Table:
        if self._table_strong is not None:
            return self._table_strong
        table = self._table_ref()
        if table is None:
            raise ReferenceError(
                "The table this QueryEngine was bound to has been garbage-collected"
            )
        return table

    def sync_with_table(self) -> None:
        """Bring cached state up to date with the bound table's version.

        Cheap when nothing changed (one integer comparison).  After a
        ``table.append_rows`` the refresh layer (:mod:`repro.query.delta`)
        either upgrades cached state in place (``incremental=True``) or
        flushes it (the default); either way, queries issued after an
        append see exactly what a rebuilt-from-scratch engine would
        produce.  Every execution entry point calls this, so explicit calls
        are only needed before touching derived state directly
        (``group_index``, ``plan_mask``, ...).  Appends must be quiesced
        with respect to in-flight queries: the sync lock serialises
        refreshes against each other, not against a batch that already
        passed this check.
        """
        table = self.table
        if table.version == self._synced_version:
            return
        with self._sync_lock:
            if table.version == self._synced_version:
                return
            refresh_engine(self, table)
            self._synced_version = table.version
            self._synced_rows = table.num_rows

    # ------------------------------------------------------------------
    # Plan building
    # ------------------------------------------------------------------
    def plan(self, query: PredicateAwareQuery) -> QueryPlan:
        """Lower *query* into the logical plan IR the backends consume."""
        return QueryPlan.from_query(query)

    @staticmethod
    def predicate_atoms(query: PredicateAwareQuery) -> List[Tuple[Optional[tuple], Predicate]]:
        """The query's WHERE atoms as ``(signature, predicate)`` pairs.

        Compatibility wrapper over :func:`repro.query.plan.atoms_from_query`;
        the signature is ``None`` when an atom's constants are unhashable.
        """
        return [(atom.signature(), atom.to_predicate()) for atom in atoms_from_query(query)]

    def predicate_signature(self, query: PredicateAwareQuery) -> Optional[tuple]:
        """Hashable identity of the query's WHERE clause (``None`` = uncacheable)."""
        return QueryPlan(atoms=atoms_from_query(query)).predicate_signature()

    # ------------------------------------------------------------------
    # Shared derived state (services used by the in-process backends)
    # ------------------------------------------------------------------
    def group_index(self, keys: Sequence[str]) -> GroupIndex:
        """The (cached) factorized group index for one key combination.

        Build-once semantics hold under concurrency: losers of the build race
        wait on the lock and reuse the winner's index, so the build counter
        stays exact with concurrent callers.
        """
        keys = tuple(keys)
        index = self._indexes.get(keys)
        if index is not None:
            self.stats.bump(group_index_reuses=1)
            return index
        with self._index_lock:
            index = self._indexes.get(keys)
            if index is not None:
                self.stats.bump(group_index_reuses=1)
                return index
            start = time.perf_counter()
            index = GroupIndex(self.table, keys)
            self._indexes[keys] = index
            self.stats.bump(
                group_index_builds=1, seconds_indexing=time.perf_counter() - start
            )
        return index

    def agg_values(self, attr: str, row_idx: Optional[np.ndarray]) -> np.ndarray:
        """Aggregable values aligned to the full table for a filtered run.

        Categorical attributes are coded by first appearance *within the
        filter* (exactly what ``column_to_aggregable`` sees on the filtered
        table in the naive path), so code-valued aggregates like MODE stay
        element-wise identical.  Numeric-like attributes are the column's
        own storage.
        """
        return column_to_aggregable(self.table.column(attr), rows=row_idx)

    def sort_order(self, key: Optional[tuple], compute) -> np.ndarray:
        """The cached (code, value) lexsort order under *key*.

        *key* is :meth:`QueryPlan.sort_key`'s ``(predicate signature, keys,
        attr)`` triple (``None`` = uncacheable WHERE clause) and *compute* is
        a zero-argument callable producing the order array for a miss --
        typically :meth:`GroupedAggregator._compute_sort_order` over the
        plan's NaN-stripped filtered rows.  Misses book their wall-clock
        into ``seconds_sorting``; hits skip the lexsort entirely, which is
        the point: TPE template batches re-sort the same (mask, group keys,
        value column) triple once per query without this cache.  Cached
        orders are immutable by the same contract as cached masks.
        """
        if self._sort_orders is not None and key is not None:
            cached = self._sort_orders.get(key, _MISS)
            if cached is not _MISS:
                self.stats.bump(sort_hits=1)
                return cached
        start = time.perf_counter()
        order = compute()
        self.stats.bump(sort_misses=1, seconds_sorting=time.perf_counter() - start)
        if self._sort_orders is not None and key is not None:
            self._sort_orders.put(key, order)
            self._refresh_byte_gauges()
        return order

    def _atom_mask(self, signature: Optional[tuple], predicate: Predicate) -> np.ndarray:
        if signature is not None:
            cached = self._masks.get(signature, _MISS)
            if cached is not _MISS:
                self.stats.bump(mask_hits=1)
                return cached
        start = time.perf_counter()
        mask = predicate.mask(self.table)
        self.stats.bump(mask_misses=1, seconds_masking=time.perf_counter() - start)
        if signature is not None:
            self.stats.bump(mask_evictions=self._masks.put(signature, mask))
            self._refresh_byte_gauges()
        return mask

    def plan_mask(self, plan: QueryPlan) -> Optional[np.ndarray]:
        """Boolean row mask of the plan's WHERE clause (``None`` = all rows).

        Atom masks come from the LRU cache; conjunctions are composed with
        ``&``.  Cached masks are never mutated.
        """
        if not plan.atoms:
            return None
        mask: Optional[np.ndarray] = None
        for atom in plan.atoms:
            atom_mask = self._atom_mask(atom.signature(), atom.to_predicate())
            mask = atom_mask if mask is None else mask & atom_mask
        return mask

    def query_mask(self, query: PredicateAwareQuery) -> Optional[np.ndarray]:
        """Compatibility wrapper: :meth:`plan_mask` of the lowered WHERE clause."""
        return self.plan_mask(QueryPlan(atoms=atoms_from_query(query)))

    def filtered_groups(self, index: GroupIndex, mask: Optional[np.ndarray]):
        """Groups surviving *mask*: ``(group_ids, codes, n_groups, row_idx)``.

        ``group_ids`` are the original index codes of the surviving groups
        (``None`` means "all groups, original order"); ``codes`` is the
        re-numbered group id per surviving row.  Groups are ordered by first
        appearance within the filtered rows (what grouping the filtered table
        from scratch would produce).
        """
        if mask is None:
            return None, index.codes, index.n_groups, None
        start = time.perf_counter()
        row_idx = np.flatnonzero(mask)
        if row_idx.size == 0:
            self.stats.bump(seconds_grouping=time.perf_counter() - start)
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, 0, row_idx
        group_ids, codes, _ = renumber_codes_compact(index.codes[row_idx], index.n_groups)
        self.stats.bump(seconds_grouping=time.perf_counter() - start)
        return group_ids, codes, group_ids.size, row_idx

    def group_rows(self, index: GroupIndex, codes: np.ndarray, n_groups: int,
                   row_idx: Optional[np.ndarray]) -> List[np.ndarray]:
        """Ascending full-table row positions per group (python backend path).

        Materialising one position array per group is what the vectorized
        kernels avoid; it is only computed on demand for the python backend.
        """
        if row_idx is None:
            return index.group_rows
        start = time.perf_counter()
        group_rows = [
            row_idx[positions]
            for positions in group_positions_from_codes(codes, n_groups)
        ]
        self.stats.bump(seconds_grouping=time.perf_counter() - start)
        return group_rows

    def empty_result(self, keys: Sequence[str], feature_name: str) -> Table:
        """The empty feature table, constructed directly (no full-table scan)."""
        self.stats.bump(empty_results=1)
        columns: List[Column] = []
        for name in keys:
            source = self.table.column(name)
            if source.is_numeric_like:
                columns.append(Column(name, np.empty(0, dtype=np.float64), dtype=source.dtype))
            else:
                columns.append(Column(name, np.empty(0, dtype=object), dtype=DType.CATEGORICAL))
        columns.append(Column(feature_name, np.empty(0, dtype=np.float64), dtype=DType.NUMERIC))
        return Table(columns)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: PredicateAwareQuery) -> Table:
        """Run one query; identical to the naive filter -> group-by path."""
        return self.execute_plan(self.plan(query))

    def execute_plan(self, plan: QueryPlan) -> Table:
        """Run one single-aggregate plan through the result cache + backend."""
        if len(plan.aggregates) != 1:
            raise ValueError(
                "execute_plan expects a single-aggregate plan; "
                "use execute_plans for a batch"
            )
        self._closed = False  # any execution transparently re-opens (see close())
        self.sync_with_table()
        key = plan.result_key(0)
        if key is not None:
            cached = self._results.get(key, _MISS)
            if cached is not _MISS:
                self.stats.bump(result_hits=1)
                return cached
        return self._run_fused([plan], batched=False)[0][0]

    def execute_batch(self, queries: Sequence[PredicateAwareQuery]) -> List[Table]:
        """Run many queries, sharing work between them.

        Queries are lowered to plans and fused by (predicate signature, keys):
        each fused plan pays its filter and grouping once and evaluates every
        aggregation function over the shared groups.  Results come back in
        input order and are element-wise identical to per-query execution.
        """
        return self.execute_plans([self.plan(query) for query in queries])

    def execute_plans(self, plans: Sequence[QueryPlan]) -> List[Table]:
        """Batched execution of single-aggregate plans (input order preserved).

        An empty batch returns ``[]`` immediately: no backend touch, no
        table sync, and no counter traffic (``batches`` counts rounds that
        actually carried queries) -- on every backend.
        """
        plans = list(plans)
        if not plans:
            return []
        self._closed = False  # any execution transparently re-opens (see close())
        self.sync_with_table()
        results: List[Optional[Table]] = [None] * len(plans)
        fused: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for i, plan in enumerate(plans):
            if len(plan.aggregates) != 1:
                raise ValueError("execute_plans expects single-aggregate plans")
            group_key = plan.group_key()
            if group_key is None:
                results[i] = self.execute_plan(plan)  # uncacheable WHERE clause
                continue
            fused.setdefault(group_key, []).append(i)

        pending_fused: List[Tuple[QueryPlan, List[int]]] = []
        for positions in fused.values():
            pending: List[int] = []
            for i in positions:
                key = plans[i].result_key(0)
                cached = self._results.get(key, _MISS) if key is not None else _MISS
                if cached is not _MISS:
                    self.stats.bump(result_hits=1)
                    results[i] = cached
                else:
                    pending.append(i)
            if not pending:
                continue
            merged = plans[pending[0]].with_aggregates(
                plans[i].aggregates[0] for i in pending
            )
            pending_fused.append((merged, pending))

        if pending_fused:
            table_lists = self._run_fused(
                [merged for merged, _ in pending_fused], batched=True
            )
            for (merged, pending), tables in zip(pending_fused, table_lists):
                for i, table in zip(pending, tables):
                    results[i] = table
        self.stats.bump(batches=1)
        return results  # type: ignore[return-value]

    def execute_plans_deduped(
        self, plans: Sequence[QueryPlan]
    ) -> Tuple[List[Table], int]:
        """:meth:`execute_plans` with one execution per distinct plan signature.

        The dedup seam of the admission layer
        (:class:`repro.query.service.QueryService`): identical plans --
        same :meth:`QueryPlan.signature` -- submitted by different
        concurrent requests execute **once** and every duplicate position
        receives the shared (immutable) result table by fan-out.  Plans
        with an unhashable WHERE clause (``signature() is None``) are never
        deduped; they execute independently, exactly as before.  Returns
        ``(tables in input order, number of duplicate positions served by
        fan-out)``.  The result-cache layer cannot subsume this: within one
        ``execute_plans`` call duplicate plans both miss the cache and fuse
        into a plan that computes the aggregate twice.
        """
        plans = list(plans)
        unique: List[QueryPlan] = []
        slots: List[int] = []
        seen: Dict[tuple, int] = {}
        for plan in plans:
            signature = plan.signature()
            slot = seen.get(signature) if signature is not None else None
            if slot is None:
                slot = len(unique)
                unique.append(plan)
                if signature is not None:
                    seen[signature] = slot
            slots.append(slot)
        tables = self.execute_plans(unique)
        return [tables[slot] for slot in slots], len(plans) - len(unique)

    def _run_fused(self, plans: List[QueryPlan], batched: bool) -> List[List[Table]]:
        """Run fused plans on the backend; book stats and the result cache.

        Each fused plan pays its mask / grouping once and yields one table
        per aggregate spec.  Plans run one after another on the engine's
        backend, in fused order.  Results are written to the result cache
        but never read from it (callers check the cache first).
        """
        table_lists = []
        for plan in plans:
            start = time.perf_counter()
            table_lists.append(self.backend.run_plan(plan))
            self.stats.add_split(
                "backend_seconds", self.backend_name, time.perf_counter() - start
            )
        cached_any = False
        for plan, tables in zip(plans, table_lists):
            for position, table in enumerate(tables):
                self.stats.bump(queries=1, batched_queries=1 if batched else 0)
                key = plan.result_key(position)
                if key is not None:
                    self.stats.bump(result_misses=1)
                    self._results.put(key, table)
                    cached_any = True
        if cached_any:
            self._refresh_byte_gauges()
        return table_lists

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _refresh_byte_gauges(self) -> None:
        """Re-read the caches' byte totals into the stats gauges.

        Called after every insert and clear; reading the ``bytes`` ints
        without the cache locks is safe (they are plain attribute reads and
        gauges are best-effort current values).
        """
        cache_bytes = {
            "masks": float(self._masks.bytes),
            "results": float(self._results.bytes),
            "sort_orders": float(
                self._sort_orders.bytes if self._sort_orders is not None else 0
            ),
        }
        self.stats.set_gauges(
            bytes_cached=int(sum(cache_bytes.values())), cache_bytes=cache_bytes
        )

    @property
    def cached_bytes(self) -> int:
        """Current bytes held across the mask / result / sort-order caches."""
        return (
            self._masks.bytes
            + self._results.bytes
            + (self._sort_orders.bytes if self._sort_orders is not None else 0)
        )

    @property
    def mask_cache_len(self) -> int:
        return len(self._masks)

    @property
    def result_cache_len(self) -> int:
        return len(self._results)

    @property
    def sort_cache_len(self) -> int:
        return len(self._sort_orders) if self._sort_orders is not None else 0

    def clear_caches(self) -> None:
        """Drop all derived state: masks, results, sort orders, indexes and
        the backend's private materialisations.  Statistics counters are
        lifetime counters and are deliberately left untouched (the byte
        *gauges* drop to zero with the caches they describe); use
        :meth:`reset` for a fully cold engine."""
        self._masks.clear()
        self._results.clear()
        if self._sort_orders is not None:
            self._sort_orders.clear()
        self._indexes.clear()
        self.backend.clear()
        # A cache-less engine is trivially in sync: everything rebuilds from
        # the table's current generation on the next query.
        table = self._table_strong if self._table_strong is not None else self._table_ref()
        if table is not None:
            with self._sync_lock:
                self._synced_version = table.version
                self._synced_rows = table.num_rows
        self._refresh_byte_gauges()

    @property
    def closed(self) -> bool:
        """``True`` between :meth:`close` and the next execution.

        A closed engine holds no backend / OS resources; the first
        ``execute`` / ``execute_batch`` / ``execute_plans`` call after a
        close transparently re-opens it (the documented lazy re-creation
        path, pinned by ``tests/query/test_engine_lifecycle.py``).
        """
        return self._closed

    def close(self) -> None:
        """Release every backend / OS resource the engine owns.

        Drops all caches and backend materialisations (sqlite connections
        included).  Idempotent, callable from ``engine_for``'s table finalizer (it never
        touches ``self.table``), and the engine remains usable afterwards:
        the next execution transparently re-opens it, re-creating backend
        materialisations lazily.  Statistics counters
        survive a close/re-open cycle unchanged -- they are lifetime
        counters, exactly as across :meth:`clear_caches`.
        """
        self.clear_caches()
        self._closed = True

    def reset(self) -> None:
        """Return the engine to a cold state: drop all caches, zero the stats
        (the backend name survives, see :meth:`EngineStats.reset`).

        Timing comparisons between pipeline variants sharing one table must
        call this between variants, or later variants replay earlier traffic
        straight out of the caches.
        """
        self.clear_caches()
        self.stats.reset()


#: Per-table shared engines (one per engine config), keyed by table identity.
#: Engines only hold a weak reference back to their table, so entries
#: (engine, caches and all) disappear once the table is garbage-collected,
#: and a held-out relevant table can never see masks or results computed
#: against a different table.
_ENGINE_REGISTRY: "weakref.WeakKeyDictionary[Table, Dict[tuple, QueryEngine]]" = (
    weakref.WeakKeyDictionary()
)

#: Serialises registry lookups/creation so concurrent ``engine_for`` callers
#: can never race two engines into the same (table, config) slot.
_REGISTRY_LOCK = threading.Lock()


def _close_registry_engines(per_table: Dict[tuple, "QueryEngine"]) -> None:
    """Finalizer for one table's registry slot: release engine resources.

    Runs when the table is garbage-collected (the WeakKeyDictionary entry is
    going away anyway); explicit ``close()`` guarantees sqlite connections
    are released deterministically instead of waiting on the engines' own
    collection.
    """
    for engine in list(per_table.values()):
        try:
            engine.close()
        except Exception:  # pragma: no cover - finalizers must never raise
            pass
    per_table.clear()


def engine_for(table: Table, config: Optional[EngineConfig] = None) -> QueryEngine:
    """The process-wide shared :class:`QueryEngine` bound to *table*.

    Keyed by object identity: every distinct ``Table`` object gets its own
    engine per :class:`EngineConfig`, and all call sites touching the same
    relevant table with the same config share one.
    """
    config = _resolve_config(config, None, None)
    key = config.cache_key()
    with _REGISTRY_LOCK:
        per_table = _ENGINE_REGISTRY.get(table)
        if per_table is None:
            per_table = {}
            _ENGINE_REGISTRY[table] = per_table
            weakref.finalize(table, _close_registry_engines, per_table)
        engine = per_table.get(key)
    if engine is None:
        # Construct outside the registry lock: engine construction can be
        # expensive (backend bind) and must not serialise
        # unrelated tables' lookups behind one global lock.  The slot is
        # double-checked under the lock before insertion, so concurrent
        # first access yields exactly one registered engine; every loser
        # closes its candidate immediately so no backend resource (sqlite
        # connection) can leak from the race.
        candidate = QueryEngine(table, weak_table=True, config=config)
        with _REGISTRY_LOCK:
            engine = per_table.get(key)
            if engine is None:
                engine = candidate
                per_table[key] = engine
        if engine is not candidate:
            candidate.close()
    # A version bump must never serve state keyed to the old generation:
    # refresh outside the registry lock (refreshes of different tables'
    # engines need not serialise on it).
    engine.sync_with_table()
    return engine


def resolve_engine(table: Table, engine: Optional[QueryEngine] = None) -> QueryEngine:
    """*engine* if given (validated against *table*), else the shared engine.

    Every component that optionally accepts an engine goes through this:
    masks and group indexes must never be reused across tables, so a supplied
    engine bound to a different table is an error, not a fallback.
    """
    if engine is None:
        return engine_for(table)
    if engine.table is not table:
        raise ValueError("The supplied QueryEngine is bound to a different relevant table")
    return engine

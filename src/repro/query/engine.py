"""Batched query-execution engine: plan IR, caches and the grouped kernels.

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
2. **Plan execution** -- :meth:`QueryEngine._run_plan` runs one fused plan:
   group index -> predicate mask -> filtered groups -> one
   :class:`~repro.dataframe.grouped_kernels.GroupedAggregator` per value
   column, whose vectorized kernels evaluate every aggregate of the plan for
   all groups at once.
3. **Shared derived state** -- a factorized group index per key combination,
   an LRU predicate-mask cache keyed by atom signature, one **value rank**
   per numeric-like value column and table version (each row's stable rank
   in the column's value order, plus the values in rank order; a plan's
   values sorted by (group, value) come from one in-place sort of its
   rows' packed ``group code << 32 | rank`` keys, see
   :meth:`QueryEngine.value_rank`), an LRU **sort-order cache**
   keyed by ``(predicate signature, keys, attr)`` (each plan's sorted
   values are built once per filter/grouping/value-column triple and reused
   across plans and batches of one template) and an LRU result cache keyed by plan
   signature (TPE frequently re-samples identical queries), plus cache /
   timing statistics (:class:`EngineStats`) consumed by the Figure 5
   benchmarks.  Each LRU is bounded by its entry count; the bytes it holds
   are reported as gauges.

Execution is serial: every fused plan runs on the calling thread.  All
shared state -- the LRU caches, the group-index map and every statistics
mutation -- is still lock-protected, because concurrent ``execute_batch``
callers (and the :class:`~repro.query.service.QueryService` dispatcher)
share one engine.

The engine is an optimisation layer only: its results are element-wise
**bit-for-bit identical** to the naive filter -> group-by path
(:func:`repro.query.executor.execute_query_naive`), because the Python
reference aggregates and ``np.bincount`` share one strict left-to-right
accumulation order (the accumulation-order contract in
:mod:`repro.dataframe.aggregates`).  The equivalence suite in
``tests/query/test_engine_equivalence.py`` enforces it.

State-reset contract (pinned by ``tests/query/test_engine_config.py``):

* :meth:`QueryEngine.clear_caches` drops every piece of derived state --
  masks, results, sort orders, value ranks and group indexes -- but leaves
  all statistics counters untouched (they are lifetime counters).
* :meth:`EngineStats.reset` zeroes every counter and timer; the gauges
  survive (they describe the caches' current contents).
* :meth:`QueryEngine.reset` composes both: a cold engine whose subsequent
  traffic is indistinguishable from a freshly constructed one.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import column_to_aggregable
from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import group_codes, renumber_codes_compact
from repro.dataframe.grouped_kernels import (
    SORT_BASED_KERNELS,
    GroupedAggregator,
    rank_values,
)
from repro.dataframe.predicates import Predicate
from repro.dataframe.table import Table
from repro.query.plan import QueryPlan
from repro.query.query import PredicateAwareQuery

#: Default bound on the number of cached predicate masks per engine.
DEFAULT_MASK_CACHE_SIZE = 256

#: Default bound on the number of cached query results per engine.
DEFAULT_RESULT_CACHE_SIZE = 128

#: Default bound on the number of cached sort results per engine.  They are
#: float64 sorted values or int64 orders of filtered-row length (8x a
#: boolean mask), so the bound is deliberately tighter than the mask cache's.
DEFAULT_SORT_CACHE_SIZE = 64

@dataclass(frozen=True)
class EngineConfig:
    """Construction-time knobs of a :class:`QueryEngine`: the cache bounds."""

    mask_cache_size: int = DEFAULT_MASK_CACHE_SIZE
    result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE
    #: Bound on the engine's shared sort-order cache; ``0`` disables it (the
    #: order-statistics kernels then re-sort per plan, the pre-cache
    #: behaviour -- the benchmark baseline uses this).
    sort_cache_size: int = DEFAULT_SORT_CACHE_SIZE

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range cache bounds."""
        if self.mask_cache_size < 1 or self.result_cache_size < 1:
            raise ValueError("Cache sizes must be >= 1")
        if self.sort_cache_size < 0:
            raise ValueError("sort_cache_size must be >= 0 (0 disables the cache)")


@dataclass
class EngineStats:
    """Counters and wall-clock totals exposed for the Fig. 5 benchmarks.

    Thread safety: every mutation goes through :meth:`bump` /
    :meth:`set_gauges` / :meth:`record_kernel`, which serialise on one
    re-entrant lock, so counters can never tear when concurrent
    ``execute_batch`` callers book concurrently.
    Fields prefixed with an underscore are implementation details and are
    excluded from :meth:`as_dict` / :meth:`reset`.
    """

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
    seconds_masking: float = 0.0
    seconds_indexing: float = 0.0
    seconds_grouping: float = 0.0
    seconds_aggregating: float = 0.0
    #: Wall-clock spent sorting on sort-order cache misses: packed-key sorts
    #: over a column's value ranks, MAD's deviation sorts, the lexsorts that
    #: remain (categorical values), and the value ranks themselves.  Booked
    #: here rather than in the first sort-based kernel's ``kernel_seconds``
    #: entry, so the per-kernel split measures the kernels' own work off the
    #: shared sorted values.
    seconds_sorting: float = 0.0
    #: Aggregation seconds split per kernel (canonical aggregate name ->
    #: cumulative wall-clock).
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    #: Cache entries (masks, results, sort orders, group indexes) flushed
    #: because a ``Table.append_rows`` that added rows made them stale (see
    #: :meth:`QueryEngine.sync_with_table`).
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

    #: Gauge fields: current values, not lifetime counters -- carried
    #: through :meth:`delta_since` unsubtracted and zeroed when the caches
    #: (or service queues) they describe are cleared / drained.
    GAUGE_FIELDS = (
        "bytes_cached",
        "cache_bytes",
        "service_queue_depth",
        "service_batch_occupancy",
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

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            out = {k: v for k, v in self.__dict__.items() if not k.startswith("_")}
            out["kernel_seconds"] = dict(self.kernel_seconds)
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

    def record_kernel(self, name: str, seconds: float) -> None:
        """Book one aggregation into ``seconds_aggregating`` and the
        per-kernel timing split."""
        with self._lock:
            self.seconds_aggregating += seconds
            self.kernel_seconds[name] = self.kernel_seconds.get(name, 0.0) + seconds

    def reset(self) -> None:
        """Zero every counter and timer; the gauges survive -- they
        describe the caches' *current* contents, which resetting counters
        does not change (:meth:`QueryEngine.reset` clears the caches first,
        so its gauges genuinely read zero afterwards)."""
        with self._lock:
            carried = {name: getattr(self, name) for name in self.GAUGE_FIELDS}
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
        and gauges (``bytes_cached``, ``cache_bytes``) pass through as
        current values -- a byte gauge difference is meaningless.  Tolerant
        of incomplete baselines: a key absent from *baseline* (a snapshot
        captured before a feature -- the service -- first engaged, or from
        an older engine) is treated as zero rather than raising, and a
        baseline value of the wrong shape is ignored.
        """
        current = self.as_dict()
        baseline = baseline or {}
        delta: Dict[str, float] = {}
        for name, value in current.items():
            if name.endswith("_rate"):
                continue
            if name in self.GAUGE_FIELDS:
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
    """Byte cost of one cached value, summed into the ``bytes_cached`` gauge.

    Masks are bool arrays (1 byte/row), sorted values and MAD orders 8-byte
    arrays (8 bytes/filtered row) -- both fall out of ``ndarray.nbytes``.  Result
    tables cost the sum of their columns' ``Column.nbytes``: 8 bytes per
    row for a float64 or a categorical column, whether or not the
    categorical's values were ever decoded.  Anything else (test fixtures,
    third-party values) is charged 0.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, Table):
        return sum(value.column(name).nbytes for name in value.column_names)
    return 0


class _LRUCache:
    """A tiny ordered-dict LRU used for masks, sort orders and result tables.

    Thread-safe: recency bookkeeping (``move_to_end`` during ``get``) makes
    even reads mutating, so every operation serialises on one lock --
    concurrent ``execute_batch`` callers can never corrupt
    the order book or evict past the bound.  Cached values (masks, result
    tables) are immutable by contract, so returning them outside the lock is
    safe.  Presence tests use the ``_MISS`` sentinel, so a legitimately
    cached falsy value (``None``, an empty array) is a hit, not a miss.

    The cache is bounded by its entry count only.  Every entry carries its
    :func:`_value_nbytes` cost and ``self.bytes`` tracks the exact total,
    which the engine reports as a gauge.
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self.bytes = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()

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
        """Insert and return the number of entry-count evictions (0 or 1)."""
        cost = _value_nbytes(value)
        with self._lock:
            old = self._data.get(key, _MISS)
            self._data[key] = (value, cost)
            if old is not _MISS:
                self._data.move_to_end(key)
                self.bytes += cost - old[1]
                return 0
            self.bytes += cost
            if len(self._data) <= self.maxsize:
                return 0
            _key, (_value, nbytes) = self._data.popitem(last=False)
            self.bytes -= nbytes
            return 1

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

    def key_columns(self, group_ids: Optional[np.ndarray] = None) -> List[Column]:
        """Output key columns for the given groups (all groups when ``None``)."""
        if group_ids is None:
            return list(self._key_columns)
        return [column.take(group_ids) for column in self._key_columns]


class QueryEngine:
    """Cached, batched execution of query plans on one table.

    ``config`` sets the cache sizes.
    """

    def __init__(
        self,
        table: Table,
        config: Optional[EngineConfig] = None,
        weak_table: bool = False,
    ):
        self.config = config if config is not None else EngineConfig()
        self.config.validate()
        # Directly-constructed engines own a strong reference to their table.
        # Registry engines (``engine_for``) hold only a weak one: the registry
        # maps table -> engine, and a strong back-reference from the engine
        # would keep every table ever touched alive for the process lifetime.
        self._table_strong = None if weak_table else table
        self._table_ref = weakref.ref(table)
        #: The table generation the caches cover (see :meth:`sync_with_table`).
        self._sync_lock = threading.RLock()
        self._synced_version = table.version
        self._synced_rows = table.num_rows
        self.stats = EngineStats()
        self._indexes: Dict[Tuple[str, ...], GroupIndex] = {}
        self._index_lock = threading.Lock()
        self._masks = _LRUCache(self.config.mask_cache_size)
        self._results = _LRUCache(self.config.result_cache_size)
        # Values sorted by (code, value), keyed by (predicate signature,
        # keys, attr) -- QueryPlan.sort_key -- so queries of one template
        # reuse the order-statistics sort across plans and batches; MAD's
        # deviation orders sit beside them.  None = disabled.
        self._sort_orders: Optional[_LRUCache] = (
            _LRUCache(self.config.sort_cache_size)
            if self.config.sort_cache_size > 0
            else None
        )
        # (value rank, values in rank order) of numeric-like value columns,
        # by attribute (see value_rank()); dropped with every other cache.
        self._value_ranks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._rank_lock = threading.Lock()
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
        ``table.append_rows`` that added rows every cached mask, result,
        sort order and group index is counted into
        ``EngineStats.staleness_evictions`` and dropped with
        :meth:`clear_caches`, so queries issued after an append see exactly
        what a rebuilt-from-scratch engine would produce.  An empty append
        bumps the version over bit-identical columns and keeps the caches.
        Every execution entry point calls this, so explicit calls are only
        needed before touching derived state directly (``group_index``,
        ``plan_mask``, ...).  Appends must be quiesced with respect to
        in-flight queries: the sync lock serialises flushes against each
        other, not against a batch that already passed this check.
        """
        table = self.table
        if table.version == self._synced_version:
            return
        with self._sync_lock:
            if table.version == self._synced_version:
                return
            if table.num_rows != self._synced_rows:
                with self._index_lock:
                    stale = len(self._indexes)
                stale += len(self._masks) + len(self._results) + self.sort_cache_len
                self.stats.bump(staleness_evictions=stale)
                self.clear_caches()
            self._synced_version = table.version
            self._synced_rows = table.num_rows

    # ------------------------------------------------------------------
    # Plan building
    # ------------------------------------------------------------------
    def plan(self, query: PredicateAwareQuery) -> QueryPlan:
        """Lower *query* into the logical plan IR the engine executes."""
        return QueryPlan.from_query(query)

    # ------------------------------------------------------------------
    # Shared derived state
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

    def value_rank(self, attr: str) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.dataframe.grouped_kernels.rank_values` of the
        numeric-like column *attr*: each row's stable value rank and the
        values in rank order.

        Built once per attribute and table generation: :meth:`clear_caches`
        drops them, and so does the flush after a ``Table.append_rows`` that
        added rows (:meth:`sync_with_table`).  :meth:`_run_plan` decodes
        each plan's sorted values from them
        (:meth:`GroupedAggregator.derive_sorted_values`), reading only the
        plan's own rows.  The bytes are reported by :attr:`presorted_bytes`.
        """
        with self._rank_lock:
            ranked = self._value_ranks.get(attr)
            if ranked is None:
                column = self.table.column(attr)
                if not column.is_numeric_like:
                    raise TypeError(
                        f"Only numeric-like columns are ranked, "
                        f"{column.dtype.value} column {attr!r} is not"
                    )
                ranked = self._value_ranks[attr] = rank_values(column.values)
        return ranked

    def sort_order(self, key: Optional[tuple], compute) -> np.ndarray:
        """The cached sort result under *key*.

        *key* is :meth:`QueryPlan.sort_key` (a plan's sorted values) or
        :meth:`QueryPlan.mad_sort_key` (MAD's deviation order); ``None`` =
        uncacheable WHERE clause.  *compute* is a zero-argument callable
        producing the array for a miss.  Misses book their wall-clock into
        ``seconds_sorting``; hits skip the computation entirely, so queries
        of one template that share a (mask, group keys, value column)
        triple sort once.
        Cached arrays are immutable by the same contract as cached masks.
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
        """Run one single-aggregate plan through the result cache."""
        if len(plan.aggregates) != 1:
            raise ValueError(
                "execute_plan expects a single-aggregate plan; "
                "use execute_plans for a batch"
            )
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

        An empty batch returns ``[]`` immediately: no table sync and no
        counter traffic (``batches`` counts rounds that actually carried
        queries).
        """
        plans = list(plans)
        if not plans:
            return []
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
        """Run fused plans; book stats and the result cache.

        Each fused plan pays its mask / grouping once and yields one table
        per aggregate spec.  Plans run one after another, in fused order.
        Results are written to the result cache but never read from it
        (callers check the cache first).
        """
        table_lists = [self._run_plan(plan) for plan in plans]
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

    def _run_plan(self, plan: QueryPlan) -> List[Table]:
        """Execute one (possibly fused) plan: one table per aggregate spec.

        The plan's filtered grouping is built once; then every spec of one
        value column aggregates off a single :class:`GroupedAggregator`,
        whose intermediates -- above all the values sorted by (code, value)
        that the order-statistics family shares -- are built once.  Those
        come from the shared :meth:`sort_order` cache (keyed by
        ``QueryPlan.sort_key``, so queries of one template reuse them across
        plans and batches); on a miss, a numeric-like column's are one
        in-place sort of the plan rows' packed ``code << 32 | rank`` keys
        decoded through :meth:`value_rank`, and a categorical column's a
        lexsort gather (its filter-local codes are not in dictionary
        order).  MAD's deviation order has its own key,
        ``QueryPlan.mad_sort_key``.
        """
        index = self.group_index(plan.keys)
        mask = self.plan_mask(plan)
        group_ids, codes, n_groups, row_idx = self.filtered_groups(index, mask)
        key_columns: Optional[List[Column]] = None
        results: List[Optional[Table]] = [None] * len(plan.aggregates)
        for attr, positioned in plan.specs_by_attr().items():
            column = self.table.column(attr)  # KeyError for unknown attributes
            if n_groups == 0:
                for position, spec in positioned:
                    results[position] = self.empty_result(plan.keys, spec.feature_name)
                continue
            # Aligned to the full table.  Categorical values are coded by
            # first appearance *within the filter* (what the naive path's
            # column_to_aggregable sees on the filtered table), so
            # code-valued aggregates like MODE stay element-wise identical.
            aligned = column_to_aggregable(column, rows=row_idx)
            values = aligned if row_idx is None else aligned[row_idx]
            aggregator = GroupedAggregator(codes, values, n_groups)
            if column.is_numeric_like:
                aggregator.value_rank = (partial(self.value_rank, attr), row_idx)
            sort_key, mad_sort_key = plan.sort_key(attr), plan.mad_sort_key(attr)
            aggregator.sorted_cache = partial(self.sort_order, sort_key)
            aggregator.mad_order_cache = partial(self.sort_order, mad_sort_key)
            for position, spec in positioned:
                # Resolve the shared sorts outside the kernel timer, so
                # their construction books once, into seconds_sorting, and
                # kernel_seconds measures the kernel's own work.
                # Accumulation-only plans never sort at all.
                if spec.func in SORT_BASED_KERNELS:
                    aggregator.sorted_values()
                if spec.func == "MAD":
                    aggregator.mad_sort_order()
                start = time.perf_counter()
                feature = aggregator.compute(spec.func)
                self.stats.record_kernel(spec.func, time.perf_counter() - start)
                if key_columns is None:
                    key_columns = index.key_columns(group_ids)
                results[position] = Table(
                    list(key_columns)
                    + [Column(spec.feature_name, feature, dtype=DType.NUMERIC)]
                )
        return results  # type: ignore[return-value]

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
    def presorted_bytes(self) -> int:
        """Bytes held now by the :meth:`value_rank` arrays (ranks and
        values in rank order).  They sit outside the three LRU caches, so
        :attr:`cached_bytes` (the ``bytes_cached`` gauge) does not count
        them."""
        with self._rank_lock:
            return int(
                sum(a.nbytes for ranked in self._value_ranks.values() for a in ranked)
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
        """Drop all derived state: masks, results, sort orders, value
        ranks and group indexes.  Statistics counters are lifetime counters and are deliberately left
        untouched (the byte *gauges* drop to zero with the caches they
        describe); use :meth:`reset` for a fully cold engine."""
        self._masks.clear()
        self._results.clear()
        if self._sort_orders is not None:
            self._sort_orders.clear()
        with self._rank_lock:
            self._value_ranks.clear()
        self._indexes.clear()
        # A cache-less engine is trivially in sync: everything rebuilds from
        # the table's current generation on the next query.
        table = self._table_strong if self._table_strong is not None else self._table_ref()
        if table is not None:
            with self._sync_lock:
                self._synced_version = table.version
                self._synced_rows = table.num_rows
        self._refresh_byte_gauges()

    def reset(self) -> None:
        """Return the engine to a cold state: drop all caches, zero the stats
        (see :meth:`EngineStats.reset`).

        Timing comparisons between pipeline variants sharing one table must
        call this between variants, or later variants replay earlier traffic
        straight out of the caches.
        """
        self.clear_caches()
        self.stats.reset()


#: Per-table shared engines, keyed by table identity.
#: Engines only hold a weak reference back to their table, so entries
#: (engine, caches and all) disappear once the table is garbage-collected,
#: and a held-out relevant table can never see masks or results computed
#: against a different table.
_ENGINE_REGISTRY: "weakref.WeakKeyDictionary[Table, QueryEngine]" = (
    weakref.WeakKeyDictionary()
)

#: Serialises registry lookups/creation so concurrent ``engine_for`` callers
#: can never race two engines into the same table's slot.
_REGISTRY_LOCK = threading.Lock()


def engine_for(table: Table) -> QueryEngine:
    """The process-wide shared :class:`QueryEngine` bound to *table*.

    Keyed by object identity: every distinct ``Table`` object gets its own
    engine (at the default :class:`EngineConfig`), and all call sites
    touching the same relevant table share it.
    """
    with _REGISTRY_LOCK:
        engine = _ENGINE_REGISTRY.get(table)
    if engine is None:
        # Construct outside the registry lock, so unrelated tables' lookups
        # never serialise behind one construction.  The slot is
        # double-checked under the lock before insertion, so concurrent
        # first access yields exactly one registered engine; a losing
        # candidate is simply dropped.
        candidate = QueryEngine(table, weak_table=True)
        with _REGISTRY_LOCK:
            engine = _ENGINE_REGISTRY.setdefault(table, candidate)
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

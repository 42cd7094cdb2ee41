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
   all groups at once.  Its results stay on the key domain: one
   :class:`AggregateResult` per aggregate, the values of the surviving
   groups of the plan's :class:`GroupIndex`, which
   :meth:`QueryEngine.plan_results` returns as they are (candidate scoring
   gathers them through :meth:`GroupIndex.row_groups` codes) and the
   ``execute*`` entry points turn into result tables on demand, once per
   result.
3. **Shared derived state** -- a factorized group index per key combination,
   an LRU predicate-mask cache keyed by atom signature, one **value rank**
   per numeric-like value column and table version (each row's stable rank
   in the column's value order, plus the values in rank order; a plan's
   values sorted by (group, value) come from one in-place sort of its
   rows' packed ``group code << 32 | rank`` keys, see
   :meth:`QueryEngine.value_rank`), an LRU **sort-order cache**
   keyed by ``(predicate signature, keys, attr)`` (each plan's sorted
   values are built once per filter/grouping/value-column triple and reused
   across plans and batches of one template) and an LRU result cache of
   :class:`AggregateResult`\\ s keyed by plan signature (TPE frequently
   re-samples identical queries), plus the
   lifetime cache / timing counters of :class:`EngineStats`, read by the
   Figure 5 benchmarks.  Each LRU is bounded by its entry count; the
   ``bytes_cached`` gauge reads the bytes they hold when the stats are read.

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
* :meth:`EngineStats.reset` zeroes every counter and timer;
  ``bytes_cached`` still reads the caches' current contents.
* :meth:`QueryEngine.reset` composes both: a cold engine whose subsequent
  traffic is indistinguishable from a freshly constructed one.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.dataframe.table import Table, _join_match
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


#: Every lifetime counter and timer of :class:`EngineStats`, declared once
#: with its zero (the five ``seconds_*`` phase timers are floats).  Attribute
#: reads, :meth:`~EngineStats.bump`, ``as_dict``, ``reset`` and
#: ``delta_since`` all come from this table.
_COUNTERS: Dict[str, float] = {
    "queries": 0,
    "batches": 0,
    "batched_queries": 0,
    "empty_results": 0,
    "mask_hits": 0,
    "mask_misses": 0,
    "mask_evictions": 0,
    "result_hits": 0,
    "result_misses": 0,
    # One hit or miss per (plan, value column) that evaluates an
    # order-statistics kernel (see QueryEngine.sort_order).
    "sort_hits": 0,
    "sort_misses": 0,
    "group_index_builds": 0,
    "group_index_reuses": 0,
    # Cache entries flushed because an append added rows (see
    # QueryEngine.sync_with_table).
    "staleness_evictions": 0,
    "seconds_masking": 0.0,
    "seconds_indexing": 0.0,
    "seconds_grouping": 0.0,
    "seconds_aggregating": 0.0,
    # Sorting on sort-order cache misses (packed-key sorts, MAD's deviation
    # sorts, categorical lexsorts, value ranks), outside the kernel timer.
    "seconds_sorting": 0.0,
    # Booked by a QueryService wrapping the engine: queries admitted,
    # rejected at a full queue and expired in the queue; fused rounds run;
    # queries run in a round shared by two or more requests; duplicates
    # served by fan-out of another request's identical plan.
    "service_admitted": 0,
    "service_rejected": 0,
    "service_timeouts": 0,
    "service_rounds": 0,
    "service_coalesced": 0,
    "service_deduped": 0,
}


class EngineStats:
    """An engine's lifetime counters and its one gauge, ``bytes_cached``.

    The counters are the :data:`_COUNTERS` table, read as attributes
    (``stats.sort_misses``) and mutated only through :meth:`bump`, which
    serialises on one lock, so counters never tear under concurrent
    ``execute_batch`` callers.  ``bytes_cached`` is not stored: it is read
    live from *caches* (anything with a ``bytes`` attribute) whenever the
    stats are read, so it always describes what the caches hold now.
    """

    def __init__(self, caches: Iterable[object] = ()):
        self._caches = tuple(caches)
        self._lock = threading.Lock()
        self._counts = dict(_COUNTERS)

    def __getattr__(self, name: str):
        # Only reached for names that are not ordinary attributes.
        try:
            return self.__dict__["_counts"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def bytes_cached(self) -> int:
        """Bytes held now across the caches the stats were given."""
        return sum(cache.bytes for cache in self._caches)

    def bump(self, **deltas: float) -> None:
        """Atomically add *deltas* to declared counters (``KeyError`` for
        any other name)."""
        with self._lock:
            for name, amount in deltas.items():
                self._counts[name] += amount

    def as_dict(self) -> Dict[str, float]:
        """Every counter, ``bytes_cached`` and the mask / result hit rates."""
        with self._lock:
            counts = dict(self._counts)
        return self._with_gauge_and_rates(counts)

    def _with_gauge_and_rates(self, counts: Dict[str, float]) -> Dict[str, float]:
        counts["bytes_cached"] = self.bytes_cached
        for kind in ("mask", "result"):
            hits, misses = counts[f"{kind}_hits"], counts[f"{kind}_misses"]
            counts[f"{kind}_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        return counts

    def reset(self) -> None:
        """Zero every counter.  ``bytes_cached`` is unaffected: it reads
        the caches, which resetting counters does not touch."""
        with self._lock:
            self._counts = dict(_COUNTERS)

    def delta_since(self, baseline: Dict[str, float]) -> Dict[str, float]:
        """The counters booked since *baseline*, an earlier :meth:`as_dict`
        of these stats (``{}`` counts from zero).

        Engines are shared per table, so per-run reports subtract the
        traffic of earlier runs.  ``bytes_cached`` passes through as the
        current value and the rates are recomputed from the deltas.  A
        baseline with other keys raises ``ValueError``.
        """
        current = self.as_dict()
        if baseline == {}:
            return current
        if baseline.keys() != current.keys():
            raise ValueError(
                "baseline is not an as_dict() of EngineStats; differing keys: "
                f"{sorted(baseline.keys() ^ current.keys())}"
            )
        counts = {name: current[name] - baseline[name] for name in _COUNTERS}
        return self._with_gauge_and_rates(counts)

    def merge(self, delta: Dict[str, float]) -> None:
        """Add the counters of *delta*, a :meth:`delta_since` taken by a
        copy of these stats in a forked process, so that these stats also
        count that process's traffic.  Its gauge and rates are not counters
        and are ignored."""
        self.bump(**{name: delta[name] for name in _COUNTERS})


#: Sentinel distinguishing "absent" from a legitimately cached falsy value
#: (``None``, an empty array, an empty table): identity tests against
#: ``_MISS`` are the only presence checks the cache layer uses.
_MISS = object()


def _value_nbytes(value) -> int:
    """Byte cost of one cached value, summed into the ``bytes_cached`` gauge.

    Masks are bool arrays (1 byte/row), sorted values and MAD orders 8-byte
    arrays (8 bytes/filtered row) -- both fall out of ``ndarray.nbytes``.
    Cached query results cost :attr:`AggregateResult.nbytes`: their group
    ids and values, plus the key columns of their table once one is built
    (``Column.nbytes``: 8 bytes per row for a float64 or a categorical
    column, whether or not the categorical's values were ever decoded).
    Anything else (test fixtures, third-party values) is charged 0.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, AggregateResult):
        return value.nbytes
    return 0


class _LRUCache:
    """A tiny ordered-dict LRU used for masks, sort orders and query results.

    Thread-safe: recency bookkeeping (``move_to_end`` during ``get``) makes
    even reads mutating, so every operation serialises on one lock --
    concurrent ``execute_batch`` callers can never corrupt
    the order book or evict past the bound.  Cached values (masks, sort
    orders, results) are immutable by contract, so returning them outside
    the lock is safe.  Presence tests use the ``_MISS`` sentinel, so a legitimately
    cached falsy value (``None``, an empty array) is a hit, not a miss.

    The cache is bounded by its entry count only.  Every entry carries its
    :func:`_value_nbytes` cost and ``self.bytes`` tracks the exact total,
    which ``EngineStats.bytes_cached`` reads.
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

    def recharge(self, key) -> None:
        """Re-read the cost of the entry under *key* (absent: no-op), after
        its value grew in place (a result whose table was built)."""
        with self._lock:
            entry = self._data.get(key, _MISS)
            if entry is _MISS:
                return
            cost = _value_nbytes(entry[0])
            self._data[key] = (entry[0], cost)
            self.bytes += cost - entry[1]

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

    def row_groups(self, table: Table) -> np.ndarray:
        """The group of each row of *table*, matched on the key columns.

        The matching is ``Table.left_join``'s (missing keys match missing
        keys, numeric and categorical keys as it codes them); a row whose
        key matches no group gets ``n_groups``.  Every group has a distinct
        key, so a row matches at most one group, and it matches group ``g``
        exactly when a left join onto a result table holding ``g``'s row
        would match that row.
        """
        codes = _join_match(table, Table(self._key_columns), self.keys)
        codes[codes < 0] = self.n_groups
        return codes


class AggregateResult:
    """One aggregate of one plan, on the key domain of the plan's index.

    ``values[i]`` is the aggregate of group ``group_ids[i]`` of *index*,
    groups in first appearance within the filtered rows (the row order of
    the result table); ``group_ids`` is ``None`` for a plan without a
    WHERE clause, whose values cover every group in index order.
    :meth:`gather` reads the values through :meth:`GroupIndex.row_groups`
    codes, with no table; :meth:`table` builds the ``keys + feature`` table
    once, on demand.  Immutable by the same contract as every other cached
    value (the memoised table aside).
    """

    __slots__ = ("index", "group_ids", "values", "feature_name", "_table")

    def __init__(
        self,
        index: GroupIndex,
        group_ids: Optional[np.ndarray],
        values: np.ndarray,
        feature_name: str,
    ):
        self.index = index
        self.group_ids = group_ids
        self.values = values
        self.feature_name = feature_name
        self._table: Optional[Table] = None

    @property
    def has_table(self) -> bool:
        return self._table is not None

    def table(self) -> Table:
        """The result table: the groups' key columns plus the feature."""
        table = self._table
        if table is None:
            feature = Column(self.feature_name, self.values, dtype=DType.NUMERIC)
            table = self._table = Table(self.index.key_columns(self.group_ids) + [feature])
        return table

    def gather(self, group_codes: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The value of each entry's group, NaN for a group without one, for
        each array of *group_codes*.

        The codes are codes of :attr:`index` as :meth:`GroupIndex.row_groups`
        returns them (``n_groups`` = no group): each vector equals the
        feature column a left join of the :meth:`table` onto those rows
        would add, bit for bit.  The values are scattered over the groups
        once, then read through every code array.
        """
        dense = np.full(self.index.n_groups + 1, np.nan)
        if self.group_ids is None:
            dense[:-1] = self.values
        else:
            dense[self.group_ids] = self.values
        return [dense.take(codes) for codes in group_codes]

    @property
    def nbytes(self) -> int:
        """Bytes held: group ids and values, plus the table's key columns
        once it is built (its feature column is :attr:`values`)."""
        held = self.values.nbytes
        if self.group_ids is not None:
            held += self.group_ids.nbytes
        table = self._table
        if table is not None:
            held += sum(table.column(name).nbytes for name in self.index.keys)
        return int(held)


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
        caches = (self._masks, self._results, self._sort_orders)
        self.stats = EngineStats(cache for cache in caches if cache is not None)

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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: PredicateAwareQuery) -> Table:
        """Run one query; identical to the naive filter -> group-by path."""
        return self.execute_plan(self.plan(query))

    def execute_plan(self, plan: QueryPlan) -> Table:
        """Run one single-aggregate plan through the result cache."""
        return self._table_of(plan, self._plan_result(plan))

    def execute_batch(self, queries: Sequence[PredicateAwareQuery]) -> List[Table]:
        """Run many queries, sharing work between them.

        Queries are lowered to plans and fused by (predicate signature, keys):
        each fused plan pays its filter and grouping once and evaluates every
        aggregation function over the shared groups.  Results come back in
        input order and are element-wise identical to per-query execution.
        """
        return self.execute_plans([self.plan(query) for query in queries])

    def execute_plans(self, plans: Sequence[QueryPlan]) -> List[Table]:
        """Batched execution of single-aggregate plans (input order
        preserved): the tables of :meth:`plan_results`."""
        plans = list(plans)
        return [
            self._table_of(plan, result)
            for plan, result in zip(plans, self.plan_results(plans))
        ]

    def _table_of(self, plan: QueryPlan, result: AggregateResult) -> Table:
        """*result*'s table, built once per result; a cached result's cost
        is re-read when its table is built."""
        if not result.has_table:
            result.table()
            key = plan.result_key(0)
            if key is not None:
                self._results.recharge(key)
        return result.table()

    def _plan_result(self, plan: QueryPlan) -> AggregateResult:
        """The result of one single-aggregate plan, through the result cache."""
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
        return self._run_plan(plan, batched=False)[0]

    def plan_results(self, plans: Sequence[QueryPlan]) -> List[AggregateResult]:
        """Batched execution of single-aggregate plans on the key domain:
        one :class:`AggregateResult` per plan, in input order, and no table.

        Plans are fused by :meth:`QueryPlan.group_key`; the result cache is
        read first and holds what this returns.  An empty batch returns
        ``[]`` immediately: no table sync and no counter traffic
        (``batches`` counts rounds that actually carried queries).
        """
        plans = list(plans)
        if not plans:
            return []
        self.sync_with_table()
        results: List[Optional[AggregateResult]] = [None] * len(plans)
        fused: Dict[tuple, List[int]] = {}
        for i, plan in enumerate(plans):
            if len(plan.aggregates) != 1:
                raise ValueError("execute_plans expects single-aggregate plans")
            group_key = plan.group_key()
            if group_key is None:
                results[i] = self._plan_result(plan)  # uncacheable WHERE clause
                continue
            fused.setdefault(group_key, []).append(i)

        hits = 0
        pending_fused: List[Tuple[QueryPlan, List[int]]] = []
        for positions in fused.values():
            pending: List[int] = []
            for i in positions:
                cached = self._results.get(plans[i].result_key(0), _MISS)
                if cached is not _MISS:
                    hits += 1
                    results[i] = cached
                else:
                    pending.append(i)
            if len(pending) == 1:
                pending_fused.append((plans[pending[0]], pending))
            elif pending:
                merged = plans[pending[0]].with_aggregates(
                    plans[i].aggregates[0] for i in pending
                )
                pending_fused.append((merged, pending))

        for merged, pending in pending_fused:
            for i, result in zip(pending, self._run_plan(merged, batched=True)):
                results[i] = result
        self.stats.bump(batches=1, result_hits=hits)
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

    def _run_plan(self, plan: QueryPlan, batched: bool) -> List[AggregateResult]:
        """Execute one (possibly fused) plan: one result per aggregate spec,
        each written to the result cache (callers read the cache first) and
        the plan's counters booked in one bump.

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
        ``QueryPlan.mad_sort_key``.  The results stay on the key domain of
        the plan's :class:`GroupIndex`: no key column is gathered here.
        """
        index = self.group_index(plan.keys)
        mask = self.plan_mask(plan)
        group_ids, codes, n_groups, row_idx = self.filtered_groups(index, mask)
        results: List[Optional[AggregateResult]] = [None] * len(plan.aggregates)
        aggregating = 0.0
        for attr, positioned in plan.specs_by_attr().items():
            column = self.table.column(attr)  # KeyError for unknown attributes
            if n_groups == 0:
                for position, spec in positioned:
                    results[position] = AggregateResult(
                        index, group_ids, np.empty(0, dtype=np.float64), spec.feature_name
                    )
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
                # seconds_aggregating measures the kernels' own work.
                # Accumulation-only plans never sort at all.
                if spec.func in SORT_BASED_KERNELS:
                    aggregator.sorted_values()
                if spec.func == "MAD":
                    aggregator.mad_sort_order()
                start = time.perf_counter()
                feature = aggregator.compute(spec.func)
                aggregating += time.perf_counter() - start
                results[position] = AggregateResult(index, group_ids, feature, spec.feature_name)
        keyed = 0
        for position, result in enumerate(results):
            key = plan.result_key(position)
            if key is not None:
                keyed += 1
                self._results.put(key, result)
        n = len(results)
        self.stats.bump(
            queries=n,
            batched_queries=n if batched else 0,
            result_misses=keyed,
            empty_results=0 if n_groups else n,
            seconds_aggregating=aggregating,
        )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    @property
    def presorted_bytes(self) -> int:
        """Bytes held now by the :meth:`value_rank` arrays (ranks and
        values in rank order).  They sit outside the three LRU caches, so
        :attr:`cached_bytes` does not count them."""
        with self._rank_lock:
            return int(
                sum(a.nbytes for ranked in self._value_ranks.values() for a in ranked)
            )

    @property
    def cached_bytes(self) -> int:
        """Current bytes held across the mask / result / sort-order caches."""
        return self.stats.bytes_cached

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
        ranks and group indexes.  Statistics counters are lifetime counters
        and are deliberately left untouched (``bytes_cached`` reads the
        now-empty caches); use :meth:`reset` for a fully cold engine."""
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

"""Engine states and entry points the query suites run their cases under.

A query's result must not depend on what the engine did before it, nor on
which entry point submitted it.  The suites replay their cases along two
axes and compare every result against ``execute_query_naive`` or a fresh
engine:

* :data:`ENGINE_STATES` -- ``"cold"``: a freshly constructed engine;
  ``"warm"``: an engine whose group index, masks, value ranks and sort
  orders were built by sibling queries (same WHERE clause, keys and value
  column, other aggregates), so the query runs over cached derived state;
  ``"appended"``: an engine warmed on the first half of the rows, after
  which the second half arrives through ``Table.append_rows``, so the query
  runs right after the flush.
* :data:`ENTRY_POINTS` -- ``"batch"`` (``execute_batch``, plans fused per
  WHERE clause), ``"single"`` (one ``execute`` per query) and ``"deduped"``
  (``execute_plans_deduped``, the service's round entry).

:data:`CACHE_PROFILES` are the engine cache configurations several suites
add as a third axis.
"""

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAwareQuery

ENGINE_STATES = ("cold", "warm", "appended")
ENTRY_POINTS = ("batch", "single", "deduped")

#: ``EngineConfig`` fields per profile: the defaults, every cache squeezed
#: to one entry with the sort-order cache off (plans re-mask and re-sort),
#: and caches of a few entries each, where eviction is partial and LRU
#: recency decides which masks, results and sort orders survive.
CACHE_PROFILES = {
    "default": {},
    "tight": {"mask_cache_size": 1, "result_cache_size": 1, "sort_cache_size": 0},
    "small": {"mask_cache_size": 2, "result_cache_size": 3, "sort_cache_size": 2},
}

#: Aggregates the warm-up runs beside each query: an accumulation, the
#: shared (code, value) order (MEDIAN) and MAD's deviation order.
WARM_FUNCS = ("SUM", "MEDIAN", "MAD")


def sibling_queries(queries: Sequence[PredicateAwareQuery]) -> List[PredicateAwareQuery]:
    """Each query's WHERE clause, keys and value column under
    :data:`WARM_FUNCS`."""
    return [replace(query, agg_func=func) for query in queries for func in WARM_FUNCS]


def engine_in_state(
    table: Table,
    state: str,
    warm_queries: Sequence[PredicateAwareQuery] = (),
    config: Optional[EngineConfig] = None,
) -> Tuple[QueryEngine, Table]:
    """An engine in *state* and the table it is bound to.

    The returned table holds *table*'s rows in *table*'s order; for
    ``"appended"`` it is a new table grown by ``append_rows``, so *table*
    itself is never mutated.
    """
    if state == "cold":
        return QueryEngine(table, config=config), table
    if state == "warm":
        engine = QueryEngine(table, config=config)
        engine.execute_batch(list(warm_queries))
        return engine, table
    if state == "appended":
        split = table.num_rows // 2
        grown = table.take(np.arange(split))
        engine = QueryEngine(grown, config=config)
        engine.execute_batch(list(warm_queries))
        grown.append_rows(table.take(np.arange(split, table.num_rows)))
        return engine, grown
    raise ValueError(f"unknown engine state {state!r}")


def run_entry(
    engine: QueryEngine, queries: Sequence[PredicateAwareQuery], entry: str
) -> List[Table]:
    """Execute *queries* through the engine entry point *entry*."""
    if entry == "batch":
        return engine.execute_batch(queries)
    if entry == "single":
        return [engine.execute(query) for query in queries]
    if entry == "deduped":
        return engine.execute_plans_deduped([engine.plan(query) for query in queries])[0]
    raise ValueError(f"unknown entry point {entry!r}")

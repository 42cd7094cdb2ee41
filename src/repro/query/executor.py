"""Execute predicate-aware queries against the relevant table."""

from __future__ import annotations

from repro.dataframe.groupby import group_by_aggregate
from repro.dataframe.table import Table
from repro.query.engine import QueryEngine, resolve_engine
from repro.query.query import PredicateAwareQuery


def execute_query(
    query: PredicateAwareQuery, relevant_table: Table, engine: QueryEngine | None = None
) -> Table:
    """Run ``q(R)``: filter by the WHERE clause, then group-by aggregate.

    Returns a table with the query's key columns plus one numeric column named
    ``query.feature_name``.  An empty filter result yields an empty table (the
    join will then fill the feature with missing values for every training
    row).

    This is a thin compatibility wrapper over the shared
    :class:`~repro.query.engine.QueryEngine` bound to *relevant_table*: the
    query is lowered to a :class:`~repro.query.plan.QueryPlan` and executed
    by the engine's vectorized grouped kernels, with the group index,
    predicate masks and recent results cached across calls.  The output is
    element-wise bit-for-bit identical to :func:`execute_query_naive` (see
    the accumulation-order contract in
    :mod:`repro.dataframe.grouped_kernels`).
    """
    return resolve_engine(relevant_table, engine).execute(query)


def execute_query_naive(query: PredicateAwareQuery, relevant_table: Table) -> Table:
    """Reference implementation: filter, then group-by aggregate, per query.

    No caching and no sharing between queries.  Kept as the executable
    specification of query semantics: the equivalence suite asserts that the
    engine's fast path produces element-wise identical tables, and the
    engine micro-benchmark measures its speedup against this path.
    """
    predicate = query.build_predicate()
    mask = predicate.mask(relevant_table)
    filtered = relevant_table.filter(mask)
    if filtered.num_rows == 0:
        # Construct the empty projection directly instead of filtering the
        # full-length table with an all-False mask a second time.
        empty = relevant_table.select(list(query.keys) + [query.agg_attr]).head(0)
        return group_by_aggregate(
            empty, list(query.keys), query.agg_attr, query.agg_func, query.feature_name
        )
    return group_by_aggregate(
        filtered, list(query.keys), query.agg_attr, query.agg_func, query.feature_name
    )

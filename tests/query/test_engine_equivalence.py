"""Executor-equivalence suite: the engine vs the naive path.

``QueryEngine.execute`` / ``execute_batch`` must produce tables equivalent to
``execute_query_naive`` for every query the search can generate -- NaN keys,
empty filter results, categorical aggregation attributes and all 15 aggregate
functions -- in every engine state (cold, warmed by sibling queries, and
right after the flush that follows an append; see ``_engine_paths``).

The bar is element-wise **bit-for-bit identity** (same columns, dtypes and
values, NaN included): the grouped kernels honour the accumulation-order
contract of :mod:`repro.dataframe.aggregates` (strict left-to-right sums,
the order ``np.bincount`` accumulates in), so no float tolerance is needed.
It also holds under squeezed cache profiles (every cache at one entry with
the sort-order cache off, and caches of two or three entries that evict by
LRU recency) and on a NaN / None-bearing table, so cache churn never
changes a result.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.executor import execute_query, execute_query_naive
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import CACHE_PROFILES, ENGINE_STATES, engine_in_state, sibling_queries

AGG_FUNCS = list(AGGREGATE_FUNCTIONS)
#: No filter, a value present in ``cat`` and one absent from it.
CAT_FILTERS = (
    (),
    (PredicateAtom("eq", "cat", value="x"),),
    (PredicateAtom("eq", "cat", value="missing"),),
)


finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def engine_with(
    table: Table, state: str, queries=(), cache: str = "default", warm_queries=None
):
    """An engine in *state* and its table, warmed by *queries*' siblings
    (or by *warm_queries* when given)."""
    if warm_queries is None:
        warm_queries = sibling_queries(queries)
    return engine_in_state(
        table, state, warm_queries, config=EngineConfig(**CACHE_PROFILES[cache])
    )


def assert_tables_match(actual: Table, expected: Table) -> None:
    """Same column names/order, same dtypes, bit-identical values."""
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype is right.dtype, f"{name}: {left.dtype} != {right.dtype}"
        assert left == right, f"column {name!r} differs"


@st.composite
def random_tables(draw):
    """Small tables with NaN-bearing numeric/categorical keys and attributes."""
    n = draw(st.integers(min_value=1, max_value=50))

    def rows(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return Table(
        [
            Column(
                "k_num",
                rows(st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 4.0]))),
                dtype=DType.NUMERIC,
            ),
            Column(
                "k_cat",
                rows(st.sampled_from(["a", "b", "c", None])),
                dtype=DType.CATEGORICAL,
            ),
            Column("cat", rows(st.sampled_from(["x", "y", "z", None])), dtype=DType.CATEGORICAL),
            Column("num", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
            Column("val", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
        ]
    )


@st.composite
def random_queries(draw):
    keys = draw(st.sampled_from([("k_num",), ("k_cat",), ("k_num", "k_cat")]))
    agg_func = draw(st.sampled_from(AGG_FUNCS))
    # Include a categorical aggregation attribute: its integer coding depends
    # on the filter (codes by first appearance within the filtered rows).
    agg_attr = draw(st.sampled_from(["val", "num", "cat"]))
    atoms = []
    if draw(st.booleans()):
        # "q" never occurs, so empty filter results are generated regularly.
        atoms.append(PredicateAtom("eq", "cat", value=draw(st.sampled_from(["x", "y", "q"]))))
    if draw(st.booleans()):
        low = draw(st.one_of(st.none(), finite_floats))
        high = draw(st.one_of(st.none(), finite_floats))
        if low is not None and high is not None and low > high:
            low, high = high, low
        if low is not None or high is not None:
            atoms.append(PredicateAtom("range", "num", low=low, high=high, dtype=DType.NUMERIC))
    return PredicateAwareQuery(agg_func, agg_attr, keys, tuple(atoms))


@pytest.mark.parametrize("state", ENGINE_STATES)
class TestExecuteEquivalence:
    @given(table=random_tables(), query=random_queries())
    @settings(max_examples=50, deadline=None)
    def test_engine_matches_naive(self, state, table, query):
        engine, table = engine_with(table, state, [query])
        expected = execute_query_naive(query, table)
        assert_tables_match(engine.execute(query), expected)
        # Second run is served from the result cache and must be identical too.
        assert_tables_match(engine.execute(query), expected)

    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_naive(self, state, table, queries):
        engine, table = engine_with(table, state, queries)
        results = engine.execute_batch(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert_tables_match(result, execute_query_naive(query, table))


@pytest.mark.parametrize("state", ENGINE_STATES)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestCacheProfileEquivalence:
    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_naive(self, state, cache, table, queries):
        engine, table = engine_with(table, state, queries, cache)
        expected = [execute_query_naive(query, table) for query in queries]
        # The second pass is served from whatever the caches kept.
        for _ in range(2):
            results = engine.execute_batch(queries)
            assert len(results) == len(queries)
            for result, want in zip(results, expected):
                assert_tables_match(result, want)


#: Group counts of the edge-case tables: one group, a handful, and a prime
#: count that leaves the row pattern uneven.
GROUP_COUNTS = (1, 2, 3, 4, 7)
#: Row counts of the single-group table, down to one row (zero-variance
#: and one-sample order statistics).
SINGLE_GROUP_ROWS = (1, 2, 3, 5, 12)


@pytest.mark.parametrize("state", ENGINE_STATES)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestCacheProfileEdgeCases:
    def run_batch(self, table, state, cache):
        queries = []
        for atoms in CAT_FILTERS:
            for func in ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS"):
                queries.append(PredicateAwareQuery(func, "val", ("key",), atoms))
        engine, table = engine_with(table, state, queries, cache)
        results = engine.execute_batch(queries)
        for query, result in zip(queries, results):
            assert_tables_match(result, execute_query_naive(query, table))

    @pytest.mark.parametrize("n_groups", GROUP_COUNTS)
    def test_empty_filter_results(self, state, cache, n_groups):
        rng = np.random.default_rng(0)
        keys = rng.permutation(np.arange(30) % n_groups).astype(np.float64)
        table = Table(
            [
                Column("key", keys, dtype=DType.NUMERIC),
                Column("cat", ["y"] * 30, dtype=DType.CATEGORICAL),  # "x" never matches
                Column("val", rng.normal(size=30), dtype=DType.NUMERIC),
            ]
        )
        self.run_batch(table, state, cache)

    @pytest.mark.parametrize("n_rows", SINGLE_GROUP_ROWS)
    def test_single_group_table(self, state, cache, n_rows):
        table = Table(
            [
                Column("key", [1.0] * n_rows, dtype=DType.NUMERIC),
                Column("cat", [("x", "y")[i % 2] for i in range(n_rows)], dtype=DType.CATEGORICAL),
                Column("val", [float(i) for i in range(n_rows)], dtype=DType.NUMERIC),
            ]
        )
        self.run_batch(table, state, cache)

    @pytest.mark.parametrize("n_groups", GROUP_COUNTS)
    def test_few_group_table(self, state, cache, n_groups):
        """A handful of rows per group, one NaN value and one group whose
        rows all miss the ``cat = 'x'`` filter when there is more than one."""
        n = 2 * n_groups + 1
        keys = [float(i % n_groups + 1) for i in range(n)]
        cats = ["y" if k == 2.0 else "x" for k in keys]
        vals = [0.5 * i - 1.5 for i in range(n)]
        vals[n // 2] = float("nan")
        table = Table(
            [
                Column("key", keys, dtype=DType.NUMERIC),
                Column("cat", cats, dtype=DType.CATEGORICAL),
                Column("val", vals, dtype=DType.NUMERIC),
            ]
        )
        self.run_batch(table, state, cache)


def none_bearing_table(seed: int = 3) -> Table:
    """NaN / None-bearing table: NaN values, a None categorical level and
    categorical aggregation attributes in one batch."""
    rng = np.random.default_rng(seed)
    n = 120
    return Table(
        [
            Column("key", rng.integers(0, 11, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [["x", "y", "z", None][i] for i in rng.integers(0, 4, size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column(
                "val",
                np.where(rng.random(n) < 0.15, np.nan, rng.normal(size=n)),
                dtype=DType.NUMERIC,
            ),
        ]
    )


def none_bearing_batch():
    queries = []
    for atoms in CAT_FILTERS:
        for func in ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS", "MAD"):
            queries.append(PredicateAwareQuery(func, "val", ("key",), atoms))
    queries.append(
        PredicateAwareQuery("MODE", "cat", ("key",), (PredicateAtom("eq", "cat", value="x"),))
    )
    queries.append(PredicateAwareQuery("COUNT_DISTINCT", "cat", ("key",)))
    return queries


#: Integer counters a query batch books on the coordinator, independent of
#: how each plan's kernels ran.
RESULT_COUNTERS = ("queries", "batches", "batched_queries", "result_hits", "result_misses")


def int_counters(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if isinstance(v, int) and not isinstance(v, bool)}


def int_delta(engine, baseline: dict) -> dict:
    return int_counters(engine.stats.delta_since(baseline))


@pytest.mark.parametrize("state", ENGINE_STATES)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestNoneBearingTable:
    def test_matches_naive_and_accounts_every_query(self, state, cache):
        queries = none_bearing_batch()
        engine, table = engine_with(none_bearing_table(), state, queries, cache)
        expected = [execute_query_naive(query, table) for query in queries]
        for batch_pass in range(2):
            baseline = engine.stats.as_dict()
            for result, want in zip(engine.execute_batch(queries), expected):
                assert_tables_match(result, want)
            # Every query of the pass was a result-cache hit or booked
            # exactly one miss; with default caches the second pass is
            # served entirely from the result cache.
            delta = int_delta(engine, baseline)
            assert delta["result_hits"] + delta["result_misses"] == len(queries)
            assert delta["queries"] == delta["result_misses"]
            if cache == "default" and batch_pass == 1:
                assert delta["result_hits"] == len(queries)

    def test_counters_deterministic_across_runs(self, state, cache):
        """Two identical runs on fresh engines brought into the same state
        book identical integer counters."""
        snapshots = []
        for _ in range(2):
            engine, _table = engine_with(
                none_bearing_table(), state, none_bearing_batch(), cache
            )
            baseline = engine.stats.as_dict()
            engine.execute_batch(none_bearing_batch())
            snapshots.append(int_delta(engine, baseline))
        assert snapshots[0] == snapshots[1]
        served = snapshots[0]["queries"] + snapshots[0]["result_hits"]
        assert served == len(none_bearing_batch())

    def test_result_accounting_independent_of_cache_sizes(self, state, cache):
        """Squeezed caches change what is reused, never how a first pass is
        booked: a batch on a cold engine, or right after the flush that
        follows an append, books the same query / batch / result counters
        under every cache profile.  A warm engine serves what its caches
        kept, so there only the per-query accounting is fixed."""
        counts = []
        for profile in ("default", cache):
            engine, _table = engine_with(
                none_bearing_table(), state, none_bearing_batch(), profile
            )
            baseline = engine.stats.as_dict()
            engine.execute_batch(none_bearing_batch())
            delta = int_delta(engine, baseline)
            counts.append({name: delta[name] for name in RESULT_COUNTERS})
        for count in counts:
            assert count["result_hits"] + count["result_misses"] == len(none_bearing_batch())
            assert count["queries"] == count["result_misses"]
        if state != "warm":
            assert counts[0] == counts[1]
            assert counts[1]["result_misses"] == len(none_bearing_batch())


class TestCompatibilityWrapper:
    @given(table=random_tables(), query=random_queries())
    @settings(max_examples=30, deadline=None)
    def test_compatibility_wrapper_matches_naive(self, table, query):
        # execute_query goes through the table's shared registry engine.
        assert_tables_match(execute_query(query, table), execute_query_naive(query, table))


class TestEngineStatesAgree:
    """Every engine state produces identical tables for the same batch."""

    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_all_states_agree_on_batches(self, table, queries):
        reference = [execute_query_naive(query, table) for query in queries]
        for state in ENGINE_STATES:
            engine, _table = engine_with(table, state, queries)
            for got, want in zip(engine.execute_batch(queries), reference):
                assert_tables_match(got, want)


@pytest.mark.parametrize("state", ENGINE_STATES)
class TestAllAggregateFunctions:
    @pytest.fixture
    def table(self, rng):
        n = 120
        return Table(
            [
                Column(
                    "key",
                    [None if rng.random() < 0.15 else float(rng.integers(0, 6)) for _ in range(n)],
                    dtype=DType.NUMERIC,
                ),
                Column(
                    "cat",
                    [None if rng.random() < 0.15 else str(rng.choice(list("uvw"))) for _ in range(n)],
                    dtype=DType.CATEGORICAL,
                ),
                Column(
                    "val",
                    [float("nan") if rng.random() < 0.2 else float(rng.normal()) for _ in range(n)],
                    dtype=DType.NUMERIC,
                ),
            ]
        )

    @pytest.mark.parametrize("agg_func", AGG_FUNCS)
    def test_numeric_attribute(self, state, table, agg_func):
        query = PredicateAwareQuery(
            agg_func, "val", ("key",), (PredicateAtom("eq", "cat", value="u"),)
        )
        engine, table = engine_with(table, state, [query])
        assert_tables_match(engine.execute(query), execute_query_naive(query, table))

    @pytest.mark.parametrize("agg_func", AGG_FUNCS)
    def test_categorical_attribute_under_filter(self, state, table, agg_func):
        """Filtered categorical coding (MODE returns codes!) must match."""
        query = PredicateAwareQuery(
            agg_func, "cat", ("key",),
            (PredicateAtom("range", "val", low=-0.4, high=2.0, dtype=DType.NUMERIC),),
        )
        engine, table = engine_with(table, state, [query])
        assert_tables_match(engine.execute(query), execute_query_naive(query, table))

    @pytest.mark.parametrize("agg_func", AGG_FUNCS)
    def test_batch_of_all_functions_shares_one_plan(self, state, table, agg_func):
        queries = [
            PredicateAwareQuery(f, "val", ("key",), (PredicateAtom("eq", "cat", value="v"),))
            for f in AGG_FUNCS
        ]
        target = AGG_FUNCS.index(agg_func)
        engine, table = engine_with(table, state, [queries[target]])
        results = engine.execute_batch(queries)
        assert_tables_match(results[target], execute_query_naive(queries[target], table))


#: Value-column sequences of one fused plan: a single column, two
#: interleaved columns, three columns with the categorical first, and one
#: column repeated.  The plan groups its specs per column, so results must
#: still come back in spec-position order.
ATTR_MIXES = {
    "one": ("val",),
    "interleaved": ("val", "cat", "val", "cat"),
    "three": ("cat", "val", "num", "val", "cat", "num"),
    "repeated": ("num",) * 6,
}
#: One WHERE clause that keeps some rows and one that keeps none.
FUSED_FILTERS = {"some": "u", "none": "missing"}


def three_column_table(seed: int = 11) -> Table:
    rng = np.random.default_rng(seed)
    n = 90
    return Table(
        [
            Column("key", rng.integers(0, 8, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [[None, "u", "v", "w"][i] for i in rng.integers(0, 4, size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column(
                "val",
                np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)),
                dtype=DType.NUMERIC,
            ),
            Column("num", rng.integers(0, 5, size=n).astype(np.float64), dtype=DType.NUMERIC),
        ]
    )


@pytest.mark.parametrize("state", ENGINE_STATES)
@pytest.mark.parametrize("mix", ATTR_MIXES)
@pytest.mark.parametrize("where", FUSED_FILTERS)
class TestFusedPlanShapes:
    def test_fused_plan_matches_naive(self, state, mix, where):
        queries = [
            PredicateAwareQuery(
                AGG_FUNCS[(7 * i) % len(AGG_FUNCS)], attr, ("key",),
                (PredicateAtom("eq", "cat", value=FUSED_FILTERS[where]),),
            )
            for i, attr in enumerate(ATTR_MIXES[mix])
        ]
        engine, table = engine_with(three_column_table(), state, queries)
        baseline = engine.stats.as_dict()
        results = engine.execute_batch(queries)
        for query, result in zip(queries, results):
            assert_tables_match(result, execute_query_naive(query, table))
        delta = engine.stats.delta_since(baseline)
        # One WHERE clause and one key tuple: a single fused plan, so at
        # most one atom mask is built and one group index looked up.
        assert delta["mask_misses"] + delta["mask_hits"] <= 1
        assert delta["group_index_builds"] + delta["group_index_reuses"] <= 1
        assert delta["queries"] + delta["result_hits"] == len(queries)
        if where == "none":
            assert all(result.num_rows == 0 for result in results)
            assert delta["empty_results"] == delta["queries"]


#: A valid query over ``logs_table`` that warms engines for the error cases.
LOGS_WARM_QUERY = PredicateAwareQuery("SUM", "pprice", ("cname",))


@pytest.mark.parametrize("state", ENGINE_STATES)
class TestEdgeCases:
    def test_nan_keys_form_their_own_group(self, state):
        table = Table(
            [
                Column("key", [1.0, float("nan"), 1.0, float("nan")], dtype=DType.NUMERIC),
                Column("val", [1.0, 2.0, 3.0, 4.0], dtype=DType.NUMERIC),
            ]
        )
        query = PredicateAwareQuery("SUM", "val", ("key",))
        engine, table = engine_with(table, state, [query])
        result = engine.execute(query)
        assert_tables_match(result, execute_query_naive(query, table))
        assert result.num_rows == 2
        assert np.isnan(result.column("key").values).sum() == 1

    def test_empty_filter_result(self, state, logs_table):
        query = PredicateAwareQuery(
            "AVG",
            "pprice",
            ("cname",),
            (PredicateAtom("eq", "department", value="does-not-exist"),),
        )
        engine, table = engine_with(logs_table, state, [query])
        empties = engine.stats.empty_results
        result = engine.execute(query)
        assert_tables_match(result, execute_query_naive(query, table))
        assert result.num_rows == 0
        assert result.column_names == ["cname", "feature"]
        assert engine.stats.empty_results == empties + 1

    def test_empty_table(self, state):
        table = Table(
            [
                Column("key", [], dtype=DType.NUMERIC),
                Column("val", [], dtype=DType.NUMERIC),
            ]
        )
        query = PredicateAwareQuery("COUNT", "val", ("key",))
        engine, table = engine_with(table, state, [query])
        assert_tables_match(engine.execute(query), execute_query_naive(query, table))

    def test_datetime_and_multi_key(self, state, logs_table):
        from repro.dataframe.column import parse_datetime

        query = PredicateAwareQuery(
            "MAX",
            "pprice",
            ("cname", "pname"),
            (PredicateAtom(
                "range", "timestamp", low=parse_datetime("2023-05-01"), dtype=DType.DATETIME
            ),),
        )
        engine, table = engine_with(logs_table, state, [query])
        assert_tables_match(engine.execute(query), execute_query_naive(query, table))

    def test_unknown_aggregate_raises(self, state, logs_table):
        query = PredicateAwareQuery("NOPE", "pprice", ("cname",))
        engine, _table = engine_with(logs_table, state, warm_queries=[LOGS_WARM_QUERY])
        with pytest.raises(KeyError):
            engine.execute(query)

    def test_unknown_attribute_raises(self, state, logs_table):
        query = PredicateAwareQuery("SUM", "missing", ("cname",))
        engine, _table = engine_with(logs_table, state, warm_queries=[LOGS_WARM_QUERY])
        with pytest.raises(KeyError):
            engine.execute(query)

    def test_range_predicate_on_categorical_raises(self, state, logs_table):
        query = PredicateAwareQuery(
            "SUM", "pprice", ("cname",),
            (PredicateAtom("range", "department", low=0.0, high=1.0, dtype=DType.NUMERIC),),
        )
        engine, table = engine_with(logs_table, state, warm_queries=[LOGS_WARM_QUERY])
        with pytest.raises(TypeError):
            engine.execute(query)
        with pytest.raises(TypeError):
            execute_query_naive(query, table)


def test_kernel_timing_lands_in_stats(logs_table):
    engine = QueryEngine(logs_table)
    engine.execute(PredicateAwareQuery("SUM", "pprice", ("cname",)))
    assert set(engine.stats.kernel_seconds) == {"SUM"}
    assert engine.stats.kernel_seconds["SUM"] >= 0.0
    delta = engine.stats.delta_since(engine.stats.as_dict())
    assert delta["kernel_seconds"]["SUM"] == 0.0

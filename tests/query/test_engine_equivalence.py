"""Executor-equivalence suite: every registered backend vs the naive path.

``QueryEngine.execute`` / ``execute_batch`` must produce tables equivalent to
``execute_query_naive`` for every query the search can generate -- NaN keys,
empty filter results, categorical aggregation attributes and all 15 aggregate
functions -- on **every registered execution backend**.  The suite reads the
backend registry, so a newly registered backend inherits the whole
equivalence suite for free.

Two equivalence bars:

* the in-process backends (``numpy``, ``python``) must be element-wise
  **bit-for-bit identical** (same columns, dtypes and values, NaN included):
  both honour the accumulation-order contract of
  :mod:`repro.dataframe.aggregates` (strict left-to-right sums, the order
  ``np.bincount`` accumulates in), so no float tolerance is needed;
* backends that own their storage and re-accumulate floats in their own
  order (``sqlite``) are held to value equality within ``1e-9`` on feature
  values, with key columns, dtypes, group order and NaN placement exact.

Both bars also hold under squeezed cache profiles (every cache at one entry
with the sort-order cache off, and caches of two or three entries that evict
by LRU recency) and on a NaN / None-bearing table, so cache churn never
changes a result.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine, default_backend_name
from repro.query.executor import execute_query, execute_query_naive
from repro.query.query import PredicateAwareQuery, WindowConstraint

#: All plain aggregate names plus spelled parameterized family members; every
#: backend must agree on them exactly like on the historical fifteen.
AGG_FUNCS = list(AGGREGATE_FUNCTIONS) + [
    "QUANTILE:0.25",
    "QUANTILE:0.5",
    "TOP_K_SHARE:2",
]
PREDICATE_DTYPES = {"cat": DType.CATEGORICAL, "num": DType.NUMERIC}

#: Every registered backend runs the full suite.
BACKENDS = tuple(backend_names())

#: Backends whose results must match the reference bit-for-bit.  Everything
#: else (storage-owning backends, third-party registrations) is held to
#: value equality within this tolerance on the feature column.
EXACT_BACKENDS = ("numpy", "python")
VALUE_TOLERANCE = 1e-9

#: Cache configurations engines are checked under: the defaults, every
#: cache squeezed to one entry with the sort-order cache off (plans re-mask
#: and re-sort), and caches of a few entries each, where eviction is partial
#: and LRU recency decides which masks, results and sort orders survive.
CACHE_PROFILES = {
    "default": {},
    "tight": {"mask_cache_size": 1, "result_cache_size": 1, "sort_cache_size": 0},
    "small": {"mask_cache_size": 2, "result_cache_size": 3, "sort_cache_size": 2},
}

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def engine_with(table: Table, backend: str, cache: str = "default") -> QueryEngine:
    return QueryEngine(
        table, config=EngineConfig(backend=backend, **CACHE_PROFILES[cache])
    )


def assert_tables_match(actual: Table, expected: Table, exact: bool = True) -> None:
    """Same column names/order, same dtypes; values exact or within 1e-9.

    Group order and NaN placement are always exact -- only float magnitudes
    may differ (by accumulation order) on non-exact backends.
    """
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype is right.dtype, f"{name}: {left.dtype} != {right.dtype}"
        if exact or not left.is_numeric_like:
            assert left == right, f"column {name!r} differs"
        else:
            a, b = left.values, right.values
            assert a.shape == b.shape, f"column {name!r}: shape mismatch"
            assert np.array_equal(np.isnan(a), np.isnan(b)), f"column {name!r}: NaN placement"
            assert np.allclose(a, b, rtol=0.0, atol=VALUE_TOLERANCE, equal_nan=True), (
                f"column {name!r} differs beyond {VALUE_TOLERANCE}"
            )


def assert_backend_matches_naive(backend: str, actual: Table, expected: Table) -> None:
    assert_tables_match(actual, expected, exact=backend in EXACT_BACKENDS)


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
    # on the filter, which is exactly the subtle case every backend must
    # honour (sqlite recodes collected groups by first appearance).
    agg_attr = draw(st.sampled_from(["val", "num", "cat"]))
    predicates = {}
    if draw(st.booleans()):
        # "q" never occurs, so empty filter results are generated regularly --
        # both for scalar equality and inside IN-lists.
        predicates["cat"] = draw(
            st.one_of(
                st.sampled_from(["x", "y", "q"]),
                st.lists(
                    st.sampled_from(["x", "y", "z", "q"]), min_size=1, max_size=3
                ).map(tuple),
            )
        )
    if draw(st.booleans()):
        low = draw(st.one_of(st.none(), finite_floats))
        high = draw(st.one_of(st.none(), finite_floats))
        if low is not None and high is not None and low > high:
            low, high = high, low
        if low is not None and high is not None and draw(st.booleans()):
            # Half-open window over the numeric event column.
            predicates["num"] = WindowConstraint(low, high)
        elif low is not None or high is not None:
            predicates["num"] = (low, high)
    dtypes = {attr: PREDICATE_DTYPES[attr] for attr in predicates}
    return PredicateAwareQuery(agg_func, agg_attr, keys, predicates, dtypes)


@pytest.mark.parametrize("backend", BACKENDS)
class TestExecuteEquivalence:
    @given(table=random_tables(), query=random_queries())
    @settings(max_examples=50, deadline=None)
    def test_engine_matches_naive(self, backend, table, query):
        engine = engine_with(table, backend)
        expected = execute_query_naive(query, table)
        assert_backend_matches_naive(backend, engine.execute(query), expected)
        # Second run is served from the result cache and must be identical too.
        assert_backend_matches_naive(backend, engine.execute(query), expected)

    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_naive(self, backend, table, queries):
        engine = engine_with(table, backend)
        results = engine.execute_batch(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert_backend_matches_naive(backend, result, execute_query_naive(query, table))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestCacheProfileEquivalence:
    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_naive(self, backend, cache, table, queries):
        engine = engine_with(table, backend, cache)
        expected = [execute_query_naive(query, table) for query in queries]
        # The second pass is served from whatever the caches kept.
        for _ in range(2):
            results = engine.execute_batch(queries)
            assert len(results) == len(queries)
            for result, want in zip(results, expected):
                assert_backend_matches_naive(backend, result, want)


#: Group counts of the edge-case tables: one group, a handful, and a prime
#: count that leaves the row pattern uneven.
GROUP_COUNTS = (1, 2, 3, 4, 7)
#: Row counts of the single-group table, down to one row (zero-variance
#: and one-sample order statistics).
SINGLE_GROUP_ROWS = (1, 2, 3, 5, 12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestCacheProfileEdgeCases:
    def run_batch(self, table, backend, cache):
        queries = []
        for predicates in ({}, {"cat": "x"}, {"cat": "missing"}):
            for func in ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS"):
                queries.append(
                    PredicateAwareQuery(
                        func, "val", ("key",), dict(predicates),
                        {k: DType.CATEGORICAL for k in predicates},
                    )
                )
        results = engine_with(table, backend, cache).execute_batch(queries)
        for query, result in zip(queries, results):
            assert_backend_matches_naive(backend, result, execute_query_naive(query, table))

    @pytest.mark.parametrize("n_groups", GROUP_COUNTS)
    def test_empty_filter_results(self, backend, cache, n_groups):
        rng = np.random.default_rng(0)
        keys = rng.permutation(np.arange(30) % n_groups).astype(np.float64)
        table = Table(
            [
                Column("key", keys, dtype=DType.NUMERIC),
                Column("cat", ["y"] * 30, dtype=DType.CATEGORICAL),  # "x" never matches
                Column("val", rng.normal(size=30), dtype=DType.NUMERIC),
            ]
        )
        self.run_batch(table, backend, cache)

    @pytest.mark.parametrize("n_rows", SINGLE_GROUP_ROWS)
    def test_single_group_table(self, backend, cache, n_rows):
        table = Table(
            [
                Column("key", [1.0] * n_rows, dtype=DType.NUMERIC),
                Column("cat", [("x", "y")[i % 2] for i in range(n_rows)], dtype=DType.CATEGORICAL),
                Column("val", [float(i) for i in range(n_rows)], dtype=DType.NUMERIC),
            ]
        )
        self.run_batch(table, backend, cache)

    @pytest.mark.parametrize("n_groups", GROUP_COUNTS)
    def test_few_group_table(self, backend, cache, n_groups):
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
        self.run_batch(table, backend, cache)


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
    for predicates in ({}, {"cat": "x"}, {"cat": "missing"}):
        for func in ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS", "MAD"):
            queries.append(
                PredicateAwareQuery(
                    func, "val", ("key",), dict(predicates),
                    {k: DType.CATEGORICAL for k in predicates},
                )
            )
    queries.append(
        PredicateAwareQuery("MODE", "cat", ("key",), {"cat": "x"}, {"cat": DType.CATEGORICAL})
    )
    queries.append(PredicateAwareQuery("COUNT_DISTINCT", "cat", ("key",), {}, {}))
    return queries


#: Integer counters a query batch books on the coordinator, independent of
#: how each plan's kernels ran.
RESULT_COUNTERS = ("queries", "batches", "batched_queries", "result_hits", "result_misses")


def int_counters(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if isinstance(v, int) and not isinstance(v, bool)}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestNoneBearingTable:
    def test_matches_naive_and_accounts_every_query(self, backend, cache):
        table = none_bearing_table()
        queries = none_bearing_batch()
        expected = [execute_query_naive(query, table) for query in queries]
        engine = engine_with(table, backend, cache)
        try:
            for _ in range(2):
                for result, want in zip(engine.execute_batch(queries), expected):
                    assert_backend_matches_naive(backend, result, want)
            # Every query of both passes was a result-cache hit or booked
            # exactly one miss; with default caches the second pass is
            # served entirely from the result cache.
            stats = engine.stats
            assert stats.result_hits + stats.result_misses == 2 * len(queries)
            assert stats.queries == stats.result_misses
            if cache == "default":
                assert stats.result_hits == len(queries)
        finally:
            engine.close()
            engine.close()  # idempotent

    def test_counters_deterministic_across_runs(self, backend, cache):
        """Two identical runs on fresh engines book identical integer
        counters."""
        snapshots = []
        for _ in range(2):
            engine = engine_with(none_bearing_table(), backend, cache)
            try:
                engine.execute_batch(none_bearing_batch())
                snapshots.append(int_counters(engine.stats.as_dict()))
            finally:
                engine.close()
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["queries"] == len(none_bearing_batch())

    def test_result_accounting_independent_of_cache_sizes(self, backend, cache):
        """Squeezed caches change what is reused, never how a first pass is
        booked: a cold batch books the same query / batch / result counters
        under every cache profile."""
        counts = []
        for profile in ("default", cache):
            engine = engine_with(none_bearing_table(), backend, profile)
            try:
                engine.execute_batch(none_bearing_batch())
                counts.append({name: getattr(engine.stats, name) for name in RESULT_COUNTERS})
            finally:
                engine.close()
        assert counts[0] == counts[1]
        assert counts[1]["result_misses"] == len(none_bearing_batch())


class TestCompatibilityWrapper:
    @given(table=random_tables(), query=random_queries())
    @settings(max_examples=30, deadline=None)
    def test_compatibility_wrapper_matches_naive(self, table, query):
        # execute_query goes through the shared engine on the process-default
        # backend (possibly overridden by $REPRO_ENGINE_BACKEND).
        assert_backend_matches_naive(
            default_backend_name(),
            execute_query(query, table),
            execute_query_naive(query, table),
        )


class TestBackendsAgree:
    """All backends produce equivalent tables for the same batch."""

    @given(table=random_tables(), queries=st.lists(random_queries(), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_all_backends_agree_on_batches(self, table, queries):
        engines = {backend: engine_with(table, backend) for backend in BACKENDS}
        batches = {backend: engine.execute_batch(queries) for backend, engine in engines.items()}
        reference = batches["numpy"]
        for backend in BACKENDS:
            exact = backend in EXACT_BACKENDS
            for got, want in zip(batches[backend], reference):
                assert_tables_match(got, want, exact=exact)
        # The legacy kernel counters track exactly the two in-process paths.
        assert engines["python"].stats.vectorized_aggregations == 0
        assert engines["numpy"].stats.python_aggregations == 0


@pytest.mark.parametrize("backend", BACKENDS)
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
    def test_numeric_attribute(self, backend, table, agg_func):
        engine = engine_with(table, backend)
        query = PredicateAwareQuery(
            agg_func, "val", ("key",), {"cat": "u"}, {"cat": DType.CATEGORICAL}
        )
        assert_backend_matches_naive(
            backend, engine.execute(query), execute_query_naive(query, table)
        )

    @pytest.mark.parametrize("agg_func", AGG_FUNCS)
    def test_categorical_attribute_under_filter(self, backend, table, agg_func):
        """Filtered categorical coding (MODE returns codes!) must match."""
        engine = engine_with(table, backend)
        query = PredicateAwareQuery(
            agg_func, "cat", ("key",), {"val": (-0.4, 2.0)}, {"val": DType.NUMERIC}
        )
        assert_backend_matches_naive(
            backend, engine.execute(query), execute_query_naive(query, table)
        )

    @pytest.mark.parametrize("agg_func", AGG_FUNCS)
    def test_batch_of_all_functions_shares_one_plan(self, backend, table, agg_func):
        engine = engine_with(table, backend)
        queries = [
            PredicateAwareQuery(f, "val", ("key",), {"cat": "v"}, {"cat": DType.CATEGORICAL})
            for f in AGG_FUNCS
        ]
        results = engine.execute_batch(queries)
        target = AGG_FUNCS.index(agg_func)
        assert_backend_matches_naive(
            backend, results[target], execute_query_naive(queries[target], table)
        )


class TestEdgeCases:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_keys_form_their_own_group(self, backend):
        table = Table(
            [
                Column("key", [1.0, float("nan"), 1.0, float("nan")], dtype=DType.NUMERIC),
                Column("val", [1.0, 2.0, 3.0, 4.0], dtype=DType.NUMERIC),
            ]
        )
        query = PredicateAwareQuery("SUM", "val", ("key",))
        result = engine_with(table, backend).execute(query)
        assert_backend_matches_naive(backend, result, execute_query_naive(query, table))
        assert result.num_rows == 2
        assert np.isnan(result.column("key").values).sum() == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_filter_result(self, backend, logs_table):
        query = PredicateAwareQuery(
            "AVG",
            "pprice",
            ("cname",),
            {"department": "does-not-exist"},
            {"department": DType.CATEGORICAL},
        )
        engine = engine_with(logs_table, backend)
        result = engine.execute(query)
        assert_backend_matches_naive(backend, result, execute_query_naive(query, logs_table))
        assert result.num_rows == 0
        assert result.column_names == ["cname", "feature"]
        assert engine.stats.empty_results == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_table(self, backend):
        table = Table(
            [
                Column("key", [], dtype=DType.NUMERIC),
                Column("val", [], dtype=DType.NUMERIC),
            ]
        )
        query = PredicateAwareQuery("COUNT", "val", ("key",))
        assert_backend_matches_naive(
            backend,
            engine_with(table, backend).execute(query),
            execute_query_naive(query, table),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_datetime_and_multi_key(self, backend, logs_table):
        from repro.dataframe.column import parse_datetime

        query = PredicateAwareQuery(
            "MAX",
            "pprice",
            ("cname", "pname"),
            {"timestamp": (parse_datetime("2023-05-01"), None)},
            {"timestamp": DType.DATETIME},
        )
        assert_backend_matches_naive(
            backend,
            engine_with(logs_table, backend).execute(query),
            execute_query_naive(query, logs_table),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_aggregate_raises(self, backend, logs_table):
        query = PredicateAwareQuery("NOPE", "pprice", ("cname",))
        with pytest.raises(KeyError):
            engine_with(logs_table, backend).execute(query)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_attribute_raises(self, backend, logs_table):
        query = PredicateAwareQuery("SUM", "missing", ("cname",))
        with pytest.raises(KeyError):
            engine_with(logs_table, backend).execute(query)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_predicate_on_categorical_raises(self, backend, logs_table):
        query = PredicateAwareQuery(
            "SUM", "pprice", ("cname",), {"department": (0.0, 1.0)}, {"department": DType.NUMERIC}
        )
        with pytest.raises(TypeError):
            engine_with(logs_table, backend).execute(query)
        with pytest.raises(TypeError):
            execute_query_naive(query, logs_table)

    def test_kernel_timing_lands_in_stats(self, logs_table):
        engine = QueryEngine(logs_table)
        engine.execute(PredicateAwareQuery("SUM", "pprice", ("cname",)))
        assert set(engine.stats.kernel_seconds) == {"SUM"}
        assert engine.stats.kernel_seconds["SUM"] >= 0.0
        assert engine.stats.backend == engine.backend_name
        assert list(engine.stats.backend_seconds) == [engine.backend_name]
        delta = engine.stats.delta_since(engine.stats.as_dict())
        assert delta["kernel_seconds"]["SUM"] == 0.0
        assert delta["backend"] == engine.backend_name

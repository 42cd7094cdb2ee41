"""Shard-equivalence suite: serial vs plan-sharded execution on every backend.

The quality benchmarks depend on one canonical numeric trajectory, so sharded
execution must never perturb a result: for every registered backend and
every worker count, ``execute_batch`` must return tables element-wise
identical to the same engine running serially (``num_workers=1``).  The
in-process backends (numpy / python) are held to **bit-for-bit** identity:
workers aggregate over contexts the coordinator prepared serially, so every
kernel sees exactly the rows, in exactly the order, serial execution sees.
The sqlite backend (whose per-worker instances re-materialise their own
database) is held to the storage-owning value bar of ``1e-9``, exactly like
its serial-vs-naive bar.

Edge cases pinned explicitly: empty filter results (empty groups),
single-group tables, group counts smaller than the worker count and a
NaN / None-bearing table with categorical aggregation attributes.  The
equivalence bars hold under every cache profile (default caches, caches
squeezed to one entry with the sort-order cache off, and a byte budget that
evicts on every insert), so cache churn under a worker pool never changes a
result.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAwareQuery, WindowConstraint
from repro.query.sharding import split_ranges

#: Plain aggregates plus spelled parameterized family members: sharding must
#: stay bit-identical for the parameterized sort-based kernels too.
AGG_FUNCS = list(AGGREGATE_FUNCTIONS) + [
    "QUANTILE:0.25",
    "QUANTILE:0.5",
    "TOP_K_SHARE:2",
]
BACKENDS = tuple(backend_names())
#: In-process backends: serial and sharded results must be bit-identical.
EXACT_BACKENDS = ("numpy", "python")
SHARD_COUNTS = (1, 2, 3, 4, 7)
VALUE_TOLERANCE = 1e-9
#: Cache configurations the sharded engine runs under: the defaults, every
#: entry-bounded cache squeezed to one entry with the sort-order cache off
#: (plans re-mask and re-sort), and a byte budget small enough to evict on
#: every insert.
CACHE_PROFILES = {
    "default": {},
    "tight": {"mask_cache_size": 1, "result_cache_size": 1, "sort_cache_size": 0},
    "budget": {"memory_budget_bytes": 1},
}

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def serial_engine(table: Table, backend: str) -> QueryEngine:
    return QueryEngine(table, config=EngineConfig(backend=backend, num_workers=1))


def sharded_engine(
    table: Table, backend: str, workers: int, cache: str = "default"
) -> QueryEngine:
    return QueryEngine(
        table,
        config=EngineConfig(backend=backend, num_workers=workers, **CACHE_PROFILES[cache]),
    )


def assert_tables_match(actual: Table, expected: Table, exact: bool) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype is right.dtype
        if exact or not left.is_numeric_like:
            assert left == right, f"column {name!r} differs"
        else:
            a, b = left.values, right.values
            assert a.shape == b.shape
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.allclose(a, b, rtol=0.0, atol=VALUE_TOLERANCE, equal_nan=True)


def assert_batches_match(backend: str, actual, expected) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_tables_match(got, want, exact=backend in EXACT_BACKENDS)


@st.composite
def random_tables(draw):
    """Small tables with NaN-bearing keys; group counts vary from 1 to ~20."""
    n = draw(st.integers(min_value=1, max_value=40))
    key_space = draw(st.sampled_from([[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]))

    def rows(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return Table(
        [
            Column("key", rows(st.one_of(st.none(), st.sampled_from(key_space))), dtype=DType.NUMERIC),
            Column("cat", rows(st.sampled_from(["x", "y", "z", None])), dtype=DType.CATEGORICAL),
            Column("num", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
            Column("val", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
        ]
    )


@st.composite
def random_queries(draw):
    agg_func = draw(st.sampled_from(AGG_FUNCS))
    agg_attr = draw(st.sampled_from(["val", "num", "cat"]))
    predicates = {}
    if draw(st.booleans()):
        # "q" never occurs, so empty filter results are generated regularly
        # -- both for scalar equality and inside IN-lists.
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
            predicates["num"] = WindowConstraint(low, high)
        elif low is not None or high is not None:
            predicates["num"] = (low, high)
    dtypes = {attr: (DType.CATEGORICAL if attr == "cat" else DType.NUMERIC) for attr in predicates}
    return PredicateAwareQuery(agg_func, agg_attr, ("key",), predicates, dtypes)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestShardEquivalenceProperty:
    @given(
        table=random_tables(),
        queries=st.lists(random_queries(), min_size=1, max_size=6),
        workers=st.sampled_from(SHARD_COUNTS),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_batch_matches_serial(self, backend, cache, table, queries, workers):
        expected = serial_engine(table, backend).execute_batch(queries)
        sharded = sharded_engine(table, backend, workers, cache)
        assert_batches_match(backend, sharded.execute_batch(queries), expected)
        # A second pass is served from whatever the caches kept and must
        # match too.
        assert_batches_match(backend, sharded.execute_batch(queries), expected)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", SHARD_COUNTS)
@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestShardEquivalenceEdgeCases:
    def batch(self):
        queries = []
        for predicates in ({}, {"cat": "x"}, {"cat": "missing"}):
            for func in ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS"):
                queries.append(
                    PredicateAwareQuery(
                        func, "val", ("key",), dict(predicates),
                        {k: DType.CATEGORICAL for k in predicates},
                    )
                )
        return queries

    def run_both(self, table, backend, workers, cache):
        queries = self.batch()
        expected = serial_engine(table, backend).execute_batch(queries)
        actual = sharded_engine(table, backend, workers, cache).execute_batch(queries)
        assert_batches_match(backend, actual, expected)

    def test_empty_filter_results(self, backend, workers, cache):
        rng = np.random.default_rng(0)
        table = Table(
            [
                Column("key", rng.integers(0, 5, size=30).astype(np.float64), dtype=DType.NUMERIC),
                Column("cat", ["y"] * 30, dtype=DType.CATEGORICAL),  # "x" never matches
                Column("val", rng.normal(size=30), dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, cache)

    def test_single_group_table(self, backend, workers, cache):
        table = Table(
            [
                Column("key", [1.0] * 12, dtype=DType.NUMERIC),
                Column("cat", ["x", "y"] * 6, dtype=DType.CATEGORICAL),
                Column("val", [float(i) for i in range(12)], dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, cache)

    def test_fewer_groups_than_workers(self, backend, workers, cache):
        table = Table(
            [
                Column("key", [1.0, 2.0, 1.0, 2.0, 1.0], dtype=DType.NUMERIC),
                Column("cat", ["x", "x", "y", "x", "x"], dtype=DType.CATEGORICAL),
                Column("val", [0.5, -1.5, 2.5, float("nan"), 3.5], dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, cache)


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", (1, 2, 4))
class TestNoneBearingTableEquivalence:
    def test_matches_serial_and_reuses_results(self, backend, workers):
        table = none_bearing_table()
        queries = none_bearing_batch()
        expected = serial_engine(table, backend).execute_batch(queries)
        engine = sharded_engine(table, backend, workers)
        try:
            assert_batches_match(backend, engine.execute_batch(queries), expected)
            # A second pass is served from the coordinator's result cache.
            assert_batches_match(backend, engine.execute_batch(queries), expected)
            assert engine.stats.result_hits == len(queries)
        finally:
            engine.close()
            engine.close()  # idempotent


class TestSplitRanges:
    @given(n=st.integers(min_value=0, max_value=200), shards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_contiguous_balanced_cover(self, n, shards):
        ranges = split_ranges(n, shards)
        # Contiguous cover of [0, n) with no gaps or overlaps.
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        if n > 0:
            # Never more ranges than groups, never an empty range, balanced.
            assert len(ranges) == min(shards, n)
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1

    def test_empty_input(self):
        assert split_ranges(0, 4) == [(0, 0)]


class TestShardStats:
    def table(self):
        rng = np.random.default_rng(1)
        return Table(
            [
                Column("key", rng.integers(0, 8, size=80).astype(np.float64), dtype=DType.NUMERIC),
                Column("cat", [str(c) for c in rng.choice(list("abc"), size=80)], dtype=DType.CATEGORICAL),
                Column("val", rng.normal(size=80), dtype=DType.NUMERIC),
            ]
        )

    def batch(self):
        return [
            PredicateAwareQuery(func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL})
            for value in "abc"
            for func in ("SUM", "MEDIAN")
        ]

    def test_plan_sharding_books_observability_counters(self):
        engine = sharded_engine(self.table(), "numpy", 3)
        engine.execute_batch(self.batch())
        stats = engine.stats
        assert stats.workers == 3
        assert stats.sharded_batches == 1
        # Three fused plans, all dispatched; heavy plans may split into
        # aggregate-spec units, so the unit count can exceed the plan count.
        assert stats.plan_shards >= 3
        assert stats.seconds_sharding > 0.0
        assert stats.shard_seconds and all(k.startswith("w") for k in stats.shard_seconds)
        assert 0.0 < stats.worker_utilisation <= 1.0
        assert stats.as_dict()["worker_utilisation"] == stats.worker_utilisation

    def test_stats_counters_identical_serial_vs_sharded(self):
        """The determinism contract: int counters match at any worker count."""
        table = self.table()
        counter_names = (
            "queries", "batches", "batched_queries", "empty_results",
            "mask_hits", "mask_misses", "mask_evictions",
            "result_hits", "result_misses",
            "group_index_builds", "group_index_reuses",
        )
        baselines = None
        for workers in (1, 2, 4):
            engine = sharded_engine(table, "numpy", workers)
            engine.execute_batch(self.batch())
            engine.execute_batch(self.batch())  # second pass: result-cache hits
            counts = {name: getattr(engine.stats, name) for name in counter_names}
            if baselines is None:
                baselines = counts
            else:
                assert counts == baselines

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_counters_deterministic_across_runs(self, backend, workers):
        """Two identical runs on fresh sharded engines book identical
        integer counters."""
        snapshots = []
        for _ in range(2):
            engine = sharded_engine(none_bearing_table(), backend, workers)
            try:
                engine.execute_batch(none_bearing_batch())
                stats = engine.stats.as_dict()
            finally:
                engine.close()
            snapshots.append(
                {
                    k: v
                    for k, v in stats.items()
                    if isinstance(v, int) and not isinstance(v, bool)
                }
            )
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["queries"] == len(none_bearing_batch())
        assert snapshots[0]["workers"] == workers

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_result_accounting_matches_serial(self, backend, workers):
        """Result-cache accounting is coordinator-side: a sharded engine
        books the same query / batch / result counters as a serial one."""
        names = ("queries", "batches", "batched_queries", "result_hits", "result_misses")
        counts = []
        for engine in (
            serial_engine(none_bearing_table(), backend),
            sharded_engine(none_bearing_table(), backend, workers),
        ):
            try:
                engine.execute_batch(none_bearing_batch())
                engine.execute_batch(none_bearing_batch())
                counts.append({name: getattr(engine.stats, name) for name in names})
            finally:
                engine.close()
        assert counts[0] == counts[1]
        assert counts[1]["result_hits"] == len(none_bearing_batch())

    def test_delta_since_carries_workers_and_utilisation(self):
        engine = sharded_engine(self.table(), "numpy", 2)
        baseline = engine.stats.as_dict()
        engine.execute_batch(self.batch())
        delta = engine.stats.delta_since(baseline)
        assert delta["workers"] == 2
        assert delta["sharded_batches"] == 1
        assert 0.0 <= delta["worker_utilisation"] <= 1.0

    def test_reset_preserves_workers_identity(self):
        engine = sharded_engine(self.table(), "numpy", 2)
        engine.execute_batch(self.batch())
        engine.stats.reset()
        assert engine.stats.workers == 2
        assert engine.stats.sharded_batches == 0
        assert engine.stats.shard_seconds == {}

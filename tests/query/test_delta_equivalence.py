"""Delta-equivalence suite: append-then-query must equal rebuild-from-scratch.

The bar of the delta-aware engine (:mod:`repro.query.delta`): after any
sequence of ``Table.append_rows`` calls, a warm engine -- whatever it
upgraded in place and whatever it evicted -- must return exactly what a
fresh engine over the fully rebuilt table returns.  The in-process backends
(numpy / python) are held to **bit-for-bit** identity at every worker
count; the storage-owning
sqlite backend (which ``INSERT``\\ s the appended slice into its
materialised database) keeps its usual ``1e-9`` value bar.

Covered append shapes: empty appends (version bump, zero-row delta), new
categorical labels, NaN / missing rows, rows creating brand-new groups, and
repeated appends between query batches.  The hypothesis property generates
the base/delta split; the fixed matrix replays one adversarial append on
every backend x worker-count combination, in incremental mode under every
cache profile (default caches, one-entry caches with the sort-order cache
off, and a byte budget that evicts on every insert -- a refresh must upgrade
whatever survived eviction and nothing else).

Also pinned here: the refresh counters (``EngineStats.REFRESH_FIELDS``)
book deterministically -- extensions and merges in incremental mode, pure
``staleness_evictions`` in flush mode -- and follow the PR 7 gauge-style
carry contract through ``reset()`` / ``delta_since`` without being gauges
(``set_gauges`` rejects them) -- and a refresh fails loudly: an unexpected
error raised while upgrading propagates instead of becoming an eviction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.predicates import Equals
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.delta import INCREMENTAL_ENV_VAR, default_incremental
from repro.query.engine import EngineConfig, EngineStats, QueryEngine
from repro.query.query import PredicateAwareQuery, WindowConstraint

BACKENDS = tuple(backend_names())
#: In-process backends: append-then-query must be bit-identical to rebuild.
EXACT_BACKENDS = ("numpy", "python")
VALUE_TOLERANCE = 1e-9
WORKER_COUNTS = (1, 2, 4)
#: Cache configurations the warm engine runs under before the append.
CACHE_PROFILES = {
    "default": {},
    "tight": {"mask_cache_size": 1, "result_cache_size": 1, "sort_cache_size": 0},
    "budget": {"memory_budget_bytes": 1},
}

#: Aggregates spanning every upgrade class: additive continuation (COUNT,
#: SUM), sort-order consumers (MEDIAN, MAD), evict-and-recompute moments
#: (AVG, VAR), order statistics (MIN, MAX), the code-valued MODE, and the
#: parameterized families (whose 6-tuple result keys bypass the additive
#: upgrade and evict via ``staleness_evictions`` by construction).
AGG_FUNCS = (
    "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR", "MODE", "MAD",
    "QUANTILE:0.25", "TOP_K_SHARE:2",
)

USERS = ["u0", "u1", "u2", "u3", "u4", None]
CATS = ["a", "b", "c", None]
#: Labels only the appended rows may introduce (new groups, new domains).
NEW_USERS = ["u5", "u6"]
NEW_CATS = ["zz"]


def build_table(rows) -> Table:
    """rows: list of (user, cat, x) tuples."""
    return Table(
        [
            Column("user", [r[0] for r in rows], dtype=DType.CATEGORICAL),
            Column("cat", [r[1] for r in rows], dtype=DType.CATEGORICAL),
            Column(
                "x",
                np.asarray([r[2] for r in rows], dtype=np.float64)
                if rows
                else np.empty(0, dtype=np.float64),
                dtype=DType.NUMERIC,
            ),
        ]
    )


def query_battery():
    queries = []
    for func in AGG_FUNCS:
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"cat": "a"}, {"cat": DType.CATEGORICAL}
            )
        )
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"x": (0.2, 0.8)}, {"x": DType.NUMERIC}
            )
        )
        queries.append(PredicateAwareQuery(func, "x", ("user",), {}, {}))
        queries.append(
            PredicateAwareQuery(func, "cat", ("user", "cat"), {}, {})
        )
        # IN-list including a label only the delta introduces: the cached
        # membership mask must extend correctly over the appended slice.
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"cat": ("a", "zz")}, {"cat": DType.CATEGORICAL}
            )
        )
        # Half-open window over the event column.
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"x": WindowConstraint(0.2, 0.8)},
                {"x": DType.NUMERIC},
            )
        )
    return queries


def assert_tables_equal(result: Table, reference: Table, tolerance: float, tag):
    assert result.column_names == reference.column_names, tag
    for name in result.column_names:
        got = result.column(name).values
        want = reference.column(name).values
        if result.column(name).is_numeric_like:
            assert got.shape == want.shape, (tag, name)
            if tolerance == 0.0:
                assert np.array_equal(got, want, equal_nan=True), (tag, name, got, want)
            else:
                both_nan = np.isnan(got) & np.isnan(want)
                close = np.abs(got - want) <= tolerance
                assert bool(np.all(both_nan | close)), (tag, name, got, want)
        else:
            assert list(got) == list(want), (tag, name, got, want)


def assert_equivalent(results, references, tolerance: float, tag):
    assert len(results) == len(references), tag
    for i, (result, reference) in enumerate(zip(results, references)):
        assert_tables_equal(result, reference, tolerance, (tag, i))


def rebuilt_results(rows, backend: str, queries):
    engine = QueryEngine(build_table(rows), config=EngineConfig(backend=backend))
    try:
        return engine.execute_batch(queries)
    finally:
        engine.close()


def fixed_base_rows(n: int = 240, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        (
            USERS[int(rng.integers(0, len(USERS)))],
            CATS[int(rng.integers(0, len(CATS)))],
            float(v) if v < 0.9 else float("nan"),
        )
        for v in rng.random(n)
    ]


def fixed_delta_rows(n: int = 30, seed: int = 7):
    """An adversarial delta: new labels, new groups, NaNs, missing keys."""
    rng = np.random.default_rng(seed)
    pool_users = USERS + NEW_USERS
    pool_cats = CATS + NEW_CATS
    return [
        (
            pool_users[int(rng.integers(0, len(pool_users)))],
            pool_cats[int(rng.integers(0, len(pool_cats)))],
            float(v) if v < 0.8 else float("nan"),
        )
        for v in rng.random(n)
    ]


def run_append_scenario(backend, workers, incremental, cache="default"):
    """Warm an engine, append (adversarial delta + an empty append), requery."""
    base = fixed_base_rows()
    delta = fixed_delta_rows()
    table = build_table(base)
    queries = query_battery()
    config = EngineConfig(
        backend=backend,
        num_workers=workers,
        incremental=incremental,
        **CACHE_PROFILES[cache],
    )
    engine = QueryEngine(table, config=config)
    try:
        engine.execute_batch(queries)  # warm every cache layer
        table.append_rows(build_table(delta))
        table.append_rows({"user": [], "cat": [], "x": []})
        results = engine.execute_batch(queries)
        stats = engine.stats.as_dict()
    finally:
        engine.close()
    tolerance = 0.0 if backend in EXACT_BACKENDS else VALUE_TOLERANCE
    tag = (backend, workers, incremental, cache)
    assert_equivalent(
        results, rebuilt_results(base + delta, backend, queries), tolerance, tag
    )
    return stats


class TestDefaultIncremental:
    def test_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv(INCREMENTAL_ENV_VAR, raising=False)
        assert default_incremental() is False
        assert EngineConfig().incremental_enabled is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_boolean_words(self, monkeypatch, raw, expected):
        monkeypatch.setenv(INCREMENTAL_ENV_VAR, raw)
        assert default_incremental() is expected
        assert EngineConfig().incremental_enabled is expected

    def test_malformed_value_raises_at_config_validation(self, monkeypatch):
        monkeypatch.setenv(INCREMENTAL_ENV_VAR, "sideways")
        with pytest.raises(ValueError, match="REPRO_ENGINE_INCREMENTAL"):
            EngineConfig().validate()

    def test_explicit_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv(INCREMENTAL_ENV_VAR, "1")
        assert EngineConfig(incremental=False).incremental_enabled is False

    def test_incremental_is_part_of_the_cache_key(self):
        assert (
            EngineConfig(incremental=True).cache_key()
            != EngineConfig(incremental=False).cache_key()
        )


class TestAppendEquivalence:
    """Every backend x worker count (x cache profile in incremental mode)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cache", CACHE_PROFILES)
    def test_incremental_append_equals_rebuild(self, backend, workers, cache):
        run_append_scenario(backend, workers, True, cache)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_flush_append_equals_rebuild(self, backend, workers):
        run_append_scenario(backend, workers, False)

    def test_repeated_appends_between_batches(self):
        base = fixed_base_rows(120, seed=3)
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(
            table,
            config=EngineConfig(backend="numpy", incremental=True),
        )
        rows = list(base)
        try:
            engine.execute_batch(queries)
            for step in range(3):
                delta = fixed_delta_rows(10, seed=20 + step)
                table.append_rows(build_table(delta))
                rows += delta
                results = engine.execute_batch(queries)
                assert_equivalent(
                    results,
                    rebuilt_results(rows, "numpy", queries),
                    0.0,
                    ("repeated", step),
                )
        finally:
            engine.close()


class TestRefreshFailsLoudly:
    """An error the refresh does not expect is a bug: it must surface from
    the refresh, not turn into a silent cache eviction."""

    def test_mask_error_during_incremental_refresh_propagates(self, monkeypatch):
        base = fixed_base_rows(120, seed=9)
        delta = fixed_delta_rows(10, seed=11)
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(
            table, config=EngineConfig(backend="numpy", incremental=True)
        )
        try:
            engine.execute_batch(queries)  # caches an Equals mask on "cat"

            def broken_mask(self, table):
                raise RuntimeError("mask failed")

            table.append_rows(build_table(delta))
            with monkeypatch.context() as patch:
                patch.setattr(Equals, "mask", broken_mask)
                with pytest.raises(RuntimeError, match="mask failed"):
                    engine.sync_with_table()
            # The failed refresh left no half-upgraded entry behind: the
            # next batch rebuilds from the table and matches a fresh engine.
            assert engine.mask_cache_len == 0
            assert_equivalent(
                engine.execute_batch(queries),
                rebuilt_results(base + delta, "numpy", queries),
                0.0,
                "after failed refresh",
            )
        finally:
            engine.close()


class TestRefreshCounters:
    def test_incremental_counters_book_extensions(self):
        stats = run_append_scenario("numpy", 1, True)
        assert stats["appended_rows"] == len(fixed_delta_rows())
        assert stats["masks_extended"] > 0
        assert stats["indexes_extended"] > 0
        assert stats["runs_merged"] > 0
        assert stats["results_upgraded"] > 0
        assert stats["staleness_evictions"] > 0  # the non-additive results

    def test_flush_counters_book_pure_evictions(self):
        stats = run_append_scenario("numpy", 1, False)
        assert stats["appended_rows"] == len(fixed_delta_rows())
        assert stats["masks_extended"] == 0
        assert stats["indexes_extended"] == 0
        assert stats["runs_merged"] == 0
        assert stats["results_upgraded"] == 0
        assert stats["staleness_evictions"] > 0

    def test_empty_append_books_no_refresh_work(self):
        table = build_table(fixed_base_rows(60, seed=5))
        engine = QueryEngine(
            table,
            config=EngineConfig(backend="numpy", incremental=True),
        )
        queries = query_battery()
        try:
            warm = engine.execute_batch(queries)
            table.append_rows({"user": [], "cat": [], "x": []})
            again = engine.execute_batch(queries)
            assert_equivalent(again, warm, 0.0, "empty-append")
            stats = engine.stats
            assert stats.appended_rows == 0
            assert stats.staleness_evictions == 0
            assert stats.masks_extended == 0
            # The version probe resynced without touching any cache: the
            # second batch was answered entirely from the result cache.
            assert stats.result_hits >= len(queries)
        finally:
            engine.close()

    def test_sync_happens_once_per_version_bump(self):
        table = build_table(fixed_base_rows(60, seed=6))
        engine = QueryEngine(
            table,
            config=EngineConfig(backend="numpy", incremental=True),
        )
        queries = query_battery()
        try:
            engine.execute_batch(queries)
            table.append_rows(build_table(fixed_delta_rows(8, seed=9)))
            engine.execute_batch(queries)
            booked = engine.stats.appended_rows
            engine.execute_batch(queries)  # no new version: no refresh work
            assert engine.stats.appended_rows == booked
        finally:
            engine.close()


class TestRefreshFieldsStatsContract:
    """Satellite: REFRESH_FIELDS follow the PR 7 gauge carry contract."""

    def make_stats(self) -> EngineStats:
        stats = EngineStats(backend="numpy", workers=1)
        stats.bump(
            queries=4,
            appended_rows=30,
            masks_extended=2,
            indexes_extended=1,
            runs_merged=3,
            results_upgraded=5,
            staleness_evictions=7,
        )
        return stats

    def test_reset_carries_refresh_fields_and_zeroes_counters(self):
        stats = self.make_stats()
        stats.reset()
        assert stats.queries == 0
        assert stats.appended_rows == 30
        assert stats.masks_extended == 2
        assert stats.indexes_extended == 1
        assert stats.runs_merged == 3
        assert stats.results_upgraded == 5
        assert stats.staleness_evictions == 7

    def test_delta_since_passes_refresh_fields_through_unsubtracted(self):
        stats = self.make_stats()
        baseline = {name: 10**6 for name in EngineStats.REFRESH_FIELDS}
        baseline["queries"] = 1
        delta = stats.delta_since(baseline)
        assert delta["queries"] == 3
        for name in EngineStats.REFRESH_FIELDS:
            assert delta[name] == getattr(stats, name)

    def test_refresh_fields_are_not_gauges(self):
        stats = self.make_stats()
        for name in EngineStats.REFRESH_FIELDS:
            with pytest.raises(ValueError, match="not a gauge"):
                stats.set_gauges(**{name: 0})


# ----------------------------------------------------------------------
# Hypothesis property: arbitrary base/delta splits, numpy serial engine.
# ----------------------------------------------------------------------
row_strategy = st.tuples(
    st.sampled_from(USERS + NEW_USERS),
    st.sampled_from(CATS + NEW_CATS),
    st.one_of(
        st.just(float("nan")),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32),
    ),
)


class TestAppendProperty:
    @given(
        base=st.lists(row_strategy, min_size=1, max_size=40),
        deltas=st.lists(
            st.lists(row_strategy, min_size=0, max_size=12),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_append_then_query_equals_rebuild(self, base, deltas):
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(
            table,
            config=EngineConfig(backend="numpy", incremental=True),
        )
        rows = list(base)
        try:
            engine.execute_batch(queries)
            for delta in deltas:
                table.append_rows(build_table(delta))
                rows += delta
            results = engine.execute_batch(queries)
        finally:
            engine.close()
        assert_equivalent(
            results, rebuilt_results(rows, "numpy", queries), 0.0, "property"
        )

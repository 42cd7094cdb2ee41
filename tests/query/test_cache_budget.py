"""The global size-aware cache budget and its satellite regressions.

``EngineConfig(memory_budget_bytes=N)`` attaches one :class:`CacheBudget` to
the engine's mask / result / sort-order LRUs: every entry carries its
:func:`_value_nbytes` cost, the summed bytes are a hard ceiling, and when an
insert overflows it the budget evicts LRU entries from the
cheapest-benefit-per-byte cache first (sort orders, then masks, then result
tables) -- deterministically, so identical traffic always evicts
identically.

Satellite regressions pinned here:

* ``_LRUCache`` distinguishes a cached falsy value (``None``, an empty
  array, ``0``) from a miss via an internal sentinel.
* ``EngineStats.delta_since`` tolerates baselines missing counter keys (or
  carrying malformed values) instead of raising.
* ``QueryEngine.close()`` is idempotent, releases backend resources (the
  sqlite connection), and runs automatically for registry engines when
  their table is garbage-collected.
"""

import gc

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import (
    CacheBudget,
    EngineConfig,
    QueryEngine,
    _LRUCache,
    _value_nbytes,
    engine_for,
)
from repro.query.query import PredicateAwareQuery


def make_relevant(seed: int, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column("key", rng.integers(0, 9, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [str(v) for v in rng.choice(list("abcdef"), size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column("val", rng.normal(size=n), dtype=DType.NUMERIC),
        ]
    )


def query_with(value: str, agg_func: str = "SUM") -> PredicateAwareQuery:
    return PredicateAwareQuery(
        agg_func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
    )


def budgeted_engine(table: Table, budget: int, **overrides) -> QueryEngine:
    overrides.setdefault("backend", "numpy")
    return QueryEngine(
        table, config=EngineConfig(memory_budget_bytes=budget, **overrides)
    )


class TestValueNbytes:
    def test_ndarray_costs_its_buffer(self):
        assert _value_nbytes(np.zeros(10, dtype=np.bool_)) == 10
        assert _value_nbytes(np.zeros(10, dtype=np.int64)) == 80

    def test_table_costs_the_sum_of_its_columns(self):
        table = Table(
            [
                Column("a", np.zeros(5), dtype=DType.NUMERIC),
                Column("b", np.zeros(5), dtype=DType.NUMERIC),
            ]
        )
        assert _value_nbytes(table) == 2 * 5 * 8

    def test_unknown_values_cost_zero(self):
        assert _value_nbytes("whatever") == 0
        assert _value_nbytes(None) == 0

    def test_categorical_costs_eight_bytes_per_row_in_every_representation(self):
        """Raw, coded, coded-only and decoded categoricals cost the same."""
        raw = Column("k", ["a", "b", None, "a", "c"], dtype=DType.CATEGORICAL)
        assert _value_nbytes(Table([raw])) == 5 * 8
        raw.coding  # coding adds the codes, not to the charge
        assert _value_nbytes(Table([raw])) == 5 * 8
        derived = raw.take(np.array([0, 1, 2, 3, 4]))
        assert derived._values is None  # codes only
        assert _value_nbytes(Table([derived])) == 5 * 8
        derived.values  # decoding does not move the charge either
        assert _value_nbytes(Table([derived])) == 5 * 8

    def test_result_bytes_do_not_depend_on_decoding(self):
        """Cached result tables hold coded key columns; reading their values
        (as a caller comparing results would) must not change the gauge."""
        table = Table(
            [
                Column("key", [f"s{i % 7}" for i in range(60)], dtype=DType.CATEGORICAL),
                Column("cat", [str(v) for v in "abc" * 20], dtype=DType.CATEGORICAL),
                Column("val", np.arange(60, dtype=np.float64), dtype=DType.NUMERIC),
            ]
        )
        engine = QueryEngine(table, config=EngineConfig(memory_budget_bytes=1 << 20))
        query = PredicateAwareQuery(
            "SUM", "val", ("key",), {"cat": "a"}, {"cat": DType.CATEGORICAL}
        )
        result = engine.execute(query)
        before = engine.cached_bytes
        assert result.column("key").values.tolist()  # decode the key column
        engine._refresh_byte_gauges()
        assert engine.cached_bytes == before
        # One 7-row result: key and feature columns at 8 B a row each.
        assert engine.stats.cache_bytes["results"] == 7 * 8 * 2


class TestLRUCacheSentinel:
    """Satellite: falsy / None cached values are hits, not misses."""

    def test_cached_falsy_values_are_hits(self):
        cache = _LRUCache(maxsize=4)
        sentinel = object()
        cache.put("none", None)
        cache.put("empty", np.array([], dtype=np.bool_))
        cache.put("zero", 0)
        assert cache.get("none", sentinel) is None
        got = cache.get("empty", sentinel)
        assert isinstance(got, np.ndarray) and got.size == 0
        assert cache.get("zero", sentinel) == 0
        assert cache.get("really-missing", sentinel) is sentinel
        assert cache.get("really-missing") is None  # default default

    def test_falsy_entries_keep_lru_recency(self):
        cache = _LRUCache(maxsize=2)
        cache.put("a", None)
        cache.put("b", 0)
        cache.get("a", object())  # refresh "a": "b" is now the LRU head
        cache.put("c", None)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_engine_empty_results_hit_the_result_cache(self):
        """An empty result table (falsy-ish value) must be served from the
        result cache on repeat, not recomputed as a miss."""
        engine = QueryEngine(make_relevant(0))
        query = query_with("never-matches")
        first = engine.execute(query)
        assert first.num_rows == 0
        assert engine.execute(query) is first
        assert (engine.stats.result_hits, engine.stats.result_misses) == (1, 1)

    def test_engine_all_false_masks_hit_the_mask_cache(self):
        engine = budgeted_engine(make_relevant(0), budget=1 << 30)
        engine.execute(query_with("never-matches", "SUM"))
        engine.execute(query_with("never-matches", "AVG"))  # shares the atom
        assert (engine.stats.mask_misses, engine.stats.mask_hits) == (1, 1)


class TestCacheBudgetMechanics:
    def make_trio(self, budget_bytes: int):
        budget = CacheBudget(budget_bytes)
        # Construction self-registers each cache with the budget.
        sort = _LRUCache(16, name="sort_orders", budget=budget, benefit_weight=1.0)
        mask = _LRUCache(16, name="masks", budget=budget, benefit_weight=2.0)
        result = _LRUCache(16, name="results", budget=budget, benefit_weight=4.0)
        return budget, sort, mask, result

    def test_cheapest_benefit_cache_evicts_first(self):
        budget, sort, mask, result = self.make_trio(1000)
        result.put("r", np.zeros(50, dtype=np.int64))  # 400 B
        mask.put("m", np.zeros(400, dtype=np.bool_))  # 400 B
        sort.put("s", np.zeros(50, dtype=np.int64))  # 400 B -> 1200 B total
        # Overflow resolved from the cheapest-benefit cache: sort orders.
        assert len(sort) == 0
        assert len(mask) == 1 and len(result) == 1
        assert budget.total_bytes == 800

    def test_eviction_escalates_once_cheaper_caches_are_empty(self):
        budget, sort, mask, result = self.make_trio(500)
        result.put("r", np.zeros(50, dtype=np.int64))  # 400 B
        mask.put("m", np.zeros(400, dtype=np.bool_))  # 400 B: sort empty -> masks
        assert len(mask) == 0 and len(result) == 1

    def test_oversized_insert_evicts_itself(self):
        budget, sort, mask, result = self.make_trio(100)
        sort.put("huge", np.zeros(1000, dtype=np.int64))
        assert len(sort) == 0 and sort.bytes == 0
        assert budget.total_bytes == 0

    def test_budget_is_a_hard_ceiling_under_churn(self):
        budget, sort, mask, result = self.make_trio(4096)
        rng = np.random.default_rng(0)
        caches = (sort, mask, result)
        for i in range(300):
            cache = caches[i % 3]
            cache.put(("k", i), np.zeros(int(rng.integers(1, 120)), dtype=np.int64))
            assert budget.total_bytes <= 4096
        # Byte accounting stayed exact through mixed entry-count and
        # budget-driven evictions.
        for cache in caches:
            assert cache.bytes == sum(nb for _, nb in cache._data.values())

    def test_update_in_place_adjusts_bytes(self):
        budget, sort, _mask, _result = self.make_trio(10_000)
        sort.put("k", np.zeros(100, dtype=np.int64))
        assert sort.bytes == 800
        sort.put("k", np.zeros(10, dtype=np.int64))
        assert sort.bytes == 80 and len(sort) == 1
        assert budget.total_bytes == 80


class TestEngineBudgetIntegration:
    BUDGET = 8 * 1024

    def run_traffic(self, engine: QueryEngine) -> None:
        batch = [
            query_with(value, func)
            for value in "abcdef"
            for func in ("SUM", "MEDIAN", "MAD")
        ]
        engine.execute_batch(batch)

    def test_budget_holds_and_gauges_track_contents(self):
        engine = budgeted_engine(make_relevant(1), budget=self.BUDGET)
        self.run_traffic(engine)
        assert engine.cached_bytes <= self.BUDGET
        assert engine.budget.total_bytes == engine.cached_bytes
        assert engine.stats.budget_evictions > 0
        stats = engine.stats.as_dict()
        assert stats["bytes_cached"] == engine.cached_bytes
        assert set(stats["cache_bytes"]) == {"masks", "results", "sort_orders"}
        assert sum(stats["cache_bytes"].values()) == float(stats["bytes_cached"])

    def test_unbudgeted_engine_has_no_budget_but_reports_gauges(self):
        engine = QueryEngine(
            make_relevant(1), config=EngineConfig(backend="numpy")
        )
        assert engine.budget is None
        self.run_traffic(engine)
        assert engine.stats.budget_evictions == 0
        assert engine.stats.bytes_cached == engine.cached_bytes > 0

    def test_clear_caches_resets_gauges_keeps_counters(self):
        engine = budgeted_engine(make_relevant(1), budget=self.BUDGET)
        self.run_traffic(engine)
        evictions = engine.stats.budget_evictions
        queries = engine.stats.queries
        engine.clear_caches()
        assert engine.cached_bytes == 0
        assert engine.stats.bytes_cached == 0
        assert all(v == 0.0 for v in engine.stats.cache_bytes.values())
        assert engine.stats.budget_evictions == evictions
        assert engine.stats.queries == queries

    def test_deterministic_eviction_identical_traffic(self):
        snapshots = []
        for _ in range(2):
            engine = budgeted_engine(make_relevant(1), budget=self.BUDGET)
            self.run_traffic(engine)
            snapshots.append(
                (
                    engine.stats.budget_evictions,
                    engine.cached_bytes,
                    engine.mask_cache_len,
                    engine.result_cache_len,
                    engine.sort_cache_len,
                )
            )
        assert snapshots[0] == snapshots[1]

    def test_results_stay_correct_under_heavy_eviction(self):
        """A budget small enough to thrash every cache never changes results."""
        table = make_relevant(2)
        expected = QueryEngine(
            table, config=EngineConfig(backend="numpy")
        ).execute_batch([query_with(v, "MEDIAN") for v in "abc"])
        engine = budgeted_engine(table, budget=64)  # everything evicts
        got = engine.execute_batch([query_with(v, "MEDIAN") for v in "abc"])
        for a, b in zip(got, expected):
            for name in b.column_names:
                assert a.column(name) == b.column(name)
        assert engine.cached_bytes <= 64

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(memory_budget_bytes=0).validate()
        EngineConfig(memory_budget_bytes=1).validate()
        EngineConfig(memory_budget_bytes=None).validate()


class TestDeltaSinceTolerance:
    """Satellite: ``delta_since`` must not raise on incomplete baselines."""

    def traffic(self) -> QueryEngine:
        engine = QueryEngine(
            make_relevant(3), config=EngineConfig(backend="numpy")
        )
        engine.execute(query_with("a", "MEDIAN"))
        engine.execute(query_with("a", "MEDIAN"))
        return engine

    def test_empty_baseline_equals_lifetime_counters(self):
        engine = self.traffic()
        delta = engine.stats.delta_since({})
        assert delta["queries"] == engine.stats.queries
        assert delta["result_hits"] == engine.stats.result_hits
        assert delta["kernel_seconds"] == engine.stats.kernel_seconds

    def test_none_baseline_is_tolerated(self):
        engine = self.traffic()
        delta = engine.stats.delta_since(None)
        assert delta["queries"] == engine.stats.queries

    def test_partial_baseline_missing_keys_treated_as_zero(self):
        engine = self.traffic()
        baseline = {"queries": 1}  # every other counter absent
        delta = engine.stats.delta_since(baseline)
        assert delta["queries"] == engine.stats.queries - 1
        assert delta["result_misses"] == engine.stats.result_misses

    def test_malformed_baseline_values_are_ignored(self):
        engine = self.traffic()
        baseline = {
            "queries": "garbage",
            "kernel_seconds": 7,  # dict counter with a scalar baseline
            "seconds_masking": {"oops": 1.0},  # scalar counter with a dict
            "result_hits": True,  # bool is not a counter baseline
        }
        delta = engine.stats.delta_since(baseline)
        assert delta["queries"] == engine.stats.queries
        assert delta["kernel_seconds"] == engine.stats.kernel_seconds
        assert delta["result_hits"] == engine.stats.result_hits

    def test_gauges_pass_through_as_current_values(self):
        engine = self.traffic()
        delta = engine.stats.delta_since({"bytes_cached": 10**9})
        assert delta["bytes_cached"] == engine.stats.bytes_cached
        assert delta["cache_bytes"] == engine.stats.cache_bytes


class TestCloseAndRegistry:
    """Satellite: ``close()`` releases backend resources, idempotently."""

    def test_close_is_idempotent_and_engine_stays_usable(self):
        engine = QueryEngine(
            make_relevant(4), config=EngineConfig(backend="numpy")
        )
        first = engine.execute(query_with("a"))
        engine.close()
        engine.close()
        # Resources are re-created lazily: the engine still answers queries.
        again = engine.execute(query_with("a"))
        assert again.column("feature") == first.column("feature")

    def test_close_releases_the_sqlite_connection(self):
        engine = QueryEngine(
            make_relevant(4), config=EngineConfig(backend="sqlite")
        )
        engine.execute(query_with("a"))
        assert engine.backend._conn is not None
        engine.close()
        assert engine.backend._conn is None

    def test_registry_finalizer_closes_engines_when_table_dies(self):
        table = make_relevant(5)
        engine = engine_for(
            table, config=EngineConfig(backend="sqlite")
        )
        engine.execute(query_with("a"))
        assert engine.backend._conn is not None
        del table
        gc.collect()
        assert engine._closed
        assert engine.backend._conn is None

    def test_registry_never_serves_state_keyed_to_an_old_table_version(self):
        """PR 8 satellite: after ``append_rows`` bumps ``table.version``, the
        registry hands back the same engine object but synced -- a lookup
        must never return an engine whose caches still cover the old rows."""
        table = make_relevant(6)
        config = EngineConfig(backend="numpy")
        engine = engine_for(table, config=config)
        stale = engine.execute(query_with("a", "COUNT"))
        assert engine._synced_version == 0
        table.append_rows(
            {"key": [0.0, 1.0], "cat": ["a", "a"], "val": [1.0, 2.0]}
        )
        again = engine_for(table, config=config)
        assert again is engine
        assert again._synced_version == table.version
        assert again._synced_rows == table.num_rows
        fresh = again.execute(query_with("a", "COUNT"))
        rebuilt = QueryEngine(table, config=config).execute(
            query_with("a", "COUNT")
        )
        assert fresh.column("feature") == rebuilt.column("feature")
        assert fresh.column("feature") != stale.column("feature")

    def test_registry_finalizer_still_fires_after_appends(self):
        """The version-sync path must not resurrect a strong table ref that
        would defeat the weakref finalizer."""
        table = make_relevant(7)
        engine = engine_for(
            table, config=EngineConfig(backend="sqlite")
        )
        engine.execute(query_with("a"))
        table.append_rows({"key": [2.0], "cat": ["b"], "val": [0.5]})
        engine_for(table, config=EngineConfig(backend="sqlite"))
        engine.execute(query_with("a"))
        del table
        gc.collect()
        assert engine._closed
        assert engine.backend._conn is None

"""Byte accounting of the engine's LRU caches, and cache-layer regressions.

The mask / result / sort-order LRUs are bounded by entry count only.  Every
entry carries its :func:`_value_nbytes` cost, each cache keeps the exact
total, and ``EngineStats.bytes_cached`` reads the sum live.

Regressions pinned here:

* ``_LRUCache`` distinguishes a cached falsy value (``None``, an empty
  array, ``0``) from a miss via an internal sentinel.
* ``EngineStats.delta_since`` takes only an earlier ``as_dict()`` of the
  same stats (or ``{}``): a partial or foreign baseline raises.
* ``QueryEngine.clear_caches()`` is idempotent and leaves the engine
  usable; the ``engine_for`` registry holds its table weakly, so a
  registry engine is released once its table is garbage-collected.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import (
    EngineConfig,
    QueryEngine,
    _LRUCache,
    _value_nbytes,
    engine_for,
)
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import ENTRY_POINTS, run_entry


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
        agg_func, "val", ("key",), (PredicateAtom("eq", "cat", value=value),)
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
        engine = QueryEngine(table)
        query = PredicateAwareQuery(
            "SUM", "val", ("key",), (PredicateAtom("eq", "cat", value="a"),)
        )
        result = engine.execute(query)
        before = engine.cached_bytes
        assert result.column("key").values.tolist()  # decode the key column
        assert engine.cached_bytes == before
        # One 7-row result: key and feature columns at 8 B a row each.
        assert engine._results.bytes == 7 * 8 * 2


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
        engine = QueryEngine(make_relevant(0))
        engine.execute(query_with("never-matches", "SUM"))
        engine.execute(query_with("never-matches", "AVG"))  # shares the atom
        assert (engine.stats.mask_misses, engine.stats.mask_hits) == (1, 1)


class TestLRUCacheBytes:
    def test_entry_count_bound_evicts_the_lru_head(self):
        cache = _LRUCache(maxsize=2)
        assert cache.put("a", np.zeros(10, dtype=np.int64)) == 0
        assert cache.put("b", np.zeros(5, dtype=np.int64)) == 0
        assert cache.put("c", np.zeros(1, dtype=np.int64)) == 1
        assert "a" not in cache and len(cache) == 2
        assert cache.bytes == 6 * 8

    def test_byte_accounting_stays_exact_under_churn(self):
        cache = _LRUCache(maxsize=16)
        rng = np.random.default_rng(0)
        for i in range(300):
            cache.put(("k", i % 40), np.zeros(int(rng.integers(1, 120)), dtype=np.int64))
            assert len(cache) <= 16
        assert cache.bytes == sum(nb for _, nb in cache._data.values())

    def test_update_in_place_adjusts_bytes(self):
        cache = _LRUCache(maxsize=4)
        cache.put("k", np.zeros(100, dtype=np.int64))
        assert cache.bytes == 800
        assert cache.put("k", np.zeros(10, dtype=np.int64)) == 0
        assert cache.bytes == 80 and len(cache) == 1


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestLiveByteGauge:
    @pytest.fixture(autouse=True)
    def _entry(self, entry):
        self.entry = entry

    def run_traffic(self, engine: QueryEngine) -> None:
        batch = [
            query_with(value, func)
            for value in "abcdef"
            for func in ("SUM", "MEDIAN", "MAD")
        ]
        run_entry(engine, batch, self.entry)

    def test_gauge_reads_the_three_caches(self):
        engine = QueryEngine(make_relevant(1))
        self.run_traffic(engine)
        held = engine._masks.bytes + engine._results.bytes + engine._sort_orders.bytes
        assert engine._sort_orders.bytes > 0
        assert engine.stats.as_dict()["bytes_cached"] == engine.cached_bytes == held

    def test_clear_caches_zeroes_the_gauge_keeps_counters(self):
        engine = QueryEngine(make_relevant(1))
        self.run_traffic(engine)
        queries = engine.stats.queries
        engine.clear_caches()
        assert engine.cached_bytes == 0
        assert engine.stats.bytes_cached == 0
        assert engine.stats.queries == queries

    def test_stats_reset_keeps_the_gauge(self):
        engine = QueryEngine(make_relevant(1))
        self.run_traffic(engine)
        held = engine.cached_bytes
        engine.stats.reset()
        assert engine.stats.queries == 0
        assert engine.stats.bytes_cached == engine.cached_bytes == held > 0
        engine.reset()
        assert engine.stats.bytes_cached == engine.cached_bytes == 0

    def test_gauge_without_a_sort_cache(self):
        engine = QueryEngine(make_relevant(1), config=EngineConfig(sort_cache_size=0))
        self.run_traffic(engine)
        held = engine._masks.bytes + engine._results.bytes
        assert engine.stats.bytes_cached == engine.cached_bytes == held > 0

    def test_append_flush_zeroes_the_gauges(self):
        """The flush after an append that adds rows drops every cache, so
        the byte gauges fall to zero with it; requerying refills them."""
        table = make_relevant(2)
        engine = QueryEngine(table)
        self.run_traffic(engine)
        assert engine.cached_bytes > 0
        table.append_rows(make_relevant(3, n=20))
        engine.sync_with_table()
        assert engine.cached_bytes == 0
        assert engine.stats.bytes_cached == 0
        assert engine.stats.staleness_evictions > 0
        self.run_traffic(engine)
        assert engine.stats.bytes_cached == engine.cached_bytes > 0

    def test_empty_append_keeps_the_gauges(self):
        table = make_relevant(2)
        engine = QueryEngine(table)
        self.run_traffic(engine)
        held = engine.cached_bytes
        assert held > 0
        table.append_rows({"key": [], "cat": [], "val": []})
        engine.sync_with_table()
        assert engine.cached_bytes == held
        assert engine.stats.staleness_evictions == 0


class TestDeltaSinceStrict:
    """``delta_since`` subtracts an earlier ``as_dict()`` of the same stats
    and refuses anything else."""

    def traffic(self) -> QueryEngine:
        engine = QueryEngine(make_relevant(3))
        engine.execute(query_with("a", "MEDIAN"))
        engine.execute(query_with("a", "MEDIAN"))
        return engine

    def test_counters_subtract_gauge_passes_through_rates_recomputed(self):
        engine = self.traffic()
        baseline = engine.stats.as_dict()
        engine.execute(query_with("b", "MEDIAN"))
        engine.execute(query_with("b", "MEDIAN"))
        engine.execute(query_with("b", "MEDIAN"))
        delta = engine.stats.delta_since(baseline)
        assert delta.keys() == baseline.keys()
        assert (delta["queries"], delta["result_hits"], delta["result_misses"]) == (1, 2, 1)
        assert delta["result_hit_rate"] == pytest.approx(2 / 3)
        assert delta["bytes_cached"] == engine.cached_bytes > baseline["bytes_cached"]

    def test_empty_baseline_counts_from_zero(self):
        engine = self.traffic()
        assert engine.stats.delta_since({}) == engine.stats.as_dict()

    def test_partial_baseline_raises(self):
        engine = self.traffic()
        with pytest.raises(ValueError, match="result_hits"):
            engine.stats.delta_since({"queries": 1})

    def test_foreign_baseline_raises(self):
        engine = self.traffic()
        foreign = dict(engine.stats.as_dict(), kernel_seconds={"SUM": 0.0})
        with pytest.raises(ValueError, match="kernel_seconds"):
            engine.stats.delta_since(foreign)

    def test_none_baseline_raises(self):
        engine = self.traffic()
        with pytest.raises(AttributeError):
            engine.stats.delta_since(None)


class TestClearAndRegistry:
    """``clear_caches()`` is idempotent; registry engines die with their
    table."""

    def test_clear_caches_is_idempotent_and_engine_stays_usable(self):
        engine = QueryEngine(make_relevant(4))
        first = engine.execute(query_with("a"))
        engine.clear_caches()
        engine.clear_caches()
        # Derived state is rebuilt on demand: the engine still answers.
        again = engine.execute(query_with("a"))
        assert again.column("feature") == first.column("feature")
        assert engine.stats.group_index_builds == 2

    def test_registry_engine_lives_as_long_as_its_table(self):
        table = make_relevant(5)
        engine = engine_for(table)
        engine.execute(query_with("a"))
        ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert ref() is engine_for(table)  # the registry holds it
        del table
        gc.collect()
        assert ref() is None  # released with the table

    def test_registry_never_serves_state_keyed_to_an_old_table_version(self):
        """PR 8 satellite: after ``append_rows`` bumps ``table.version``, the
        registry hands back the same engine object but synced -- a lookup
        must never return an engine whose caches still cover the old rows."""
        table = make_relevant(6)
        engine = engine_for(table)
        stale = engine.execute(query_with("a", "COUNT"))
        assert engine._synced_version == 0
        table.append_rows(
            {"key": [0.0, 1.0], "cat": ["a", "a"], "val": [1.0, 2.0]}
        )
        again = engine_for(table)
        assert again is engine
        assert again._synced_version == table.version
        assert again._synced_rows == table.num_rows
        fresh = again.execute(query_with("a", "COUNT"))
        rebuilt = QueryEngine(table).execute(
            query_with("a", "COUNT")
        )
        assert fresh.column("feature") == rebuilt.column("feature")
        assert fresh.column("feature") != stale.column("feature")

    def test_registry_releases_the_engine_after_appends(self):
        """The version-sync path must not resurrect a strong table ref that
        would keep the registry entry alive."""
        table = make_relevant(7)
        engine = engine_for(table)
        engine.execute(query_with("a"))
        table.append_rows({"key": [2.0], "cat": ["b"], "val": [0.5]})
        assert engine_for(table) is engine
        engine.execute(query_with("a"))
        ref = weakref.ref(engine)
        del engine, table
        gc.collect()
        assert ref() is None

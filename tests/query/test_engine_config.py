"""Engine configuration, the ``engine_for`` registry, the stats the engine
exposes and the engine's state-reset contract."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import (
    _COUNTERS,
    EngineConfig,
    EngineStats,
    QueryEngine,
    engine_for,
)
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import CACHE_PROFILES


def make_relevant(seed: int) -> Table:
    rng = np.random.default_rng(seed)
    n = 60
    return Table(
        [
            Column("key", rng.integers(0, 6, size=n).astype(np.float64), dtype=DType.NUMERIC),
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


class TestEngineConfig:
    def test_cache_sizes_flow_from_config(self):
        engine = QueryEngine(
            make_relevant(0), config=EngineConfig(mask_cache_size=4, result_cache_size=3)
        )
        for i in range(10):
            engine.execute(query_with(f"value-{i}"))
        assert engine.mask_cache_len <= 4
        assert engine.result_cache_len <= 3

    @pytest.mark.parametrize("keyword", ["mask_cache_size", "result_cache_size"])
    def test_cache_sizes_are_set_through_the_config_only(self, keyword):
        with pytest.raises(TypeError):
            QueryEngine(make_relevant(0), **{keyword: 2})

    def test_invalid_cache_sizes_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine(make_relevant(0), config=EngineConfig(mask_cache_size=0))

    def test_negative_sort_cache_size_rejected(self):
        with pytest.raises(ValueError, match="sort_cache_size"):
            QueryEngine(make_relevant(0), config=EngineConfig(sort_cache_size=-1))

    def test_zero_sort_cache_size_disables_the_cache(self):
        engine = QueryEngine(make_relevant(0), config=EngineConfig(sort_cache_size=0))
        engine.execute(query_with("a", "MEDIAN"))
        engine.execute(query_with("a", "MIN"))
        assert engine.sort_cache_len == 0
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (2, 0)


class TestEngineForConfig:
    def test_one_engine_per_table_at_the_default_config(self):
        table = make_relevant(0)
        default = engine_for(table)
        assert engine_for(table) is default
        assert default.config == EngineConfig()

    def test_registry_engines_never_cross_tables(self):
        a, b = make_relevant(0), make_relevant(1)
        assert engine_for(a) is not engine_for(b)
        assert engine_for(a).table is a and engine_for(b).table is b

    def test_a_configured_engine_stays_outside_the_registry(self):
        """``engine_for`` takes no config: an engine at other cache sizes
        is built directly and never replaces the table's shared one."""
        table = make_relevant(0)
        with pytest.raises(TypeError):
            engine_for(table, EngineConfig(sort_cache_size=8))
        custom = QueryEngine(table, config=EngineConfig(sort_cache_size=8))
        shared = engine_for(table)
        assert shared is not custom
        assert shared.config == EngineConfig() != custom.config
        assert engine_for(table) is shared


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"mask_cache_size": 0}, "Cache sizes must be >= 1"),
            ({"mask_cache_size": -4}, "Cache sizes must be >= 1"),
            ({"result_cache_size": 0}, "Cache sizes must be >= 1"),
            ({"result_cache_size": -1}, "Cache sizes must be >= 1"),
            ({"mask_cache_size": 0, "result_cache_size": 0}, "Cache sizes must be >= 1"),
            ({"sort_cache_size": -1}, "sort_cache_size must be >= 0"),
            ({"sort_cache_size": -7}, "sort_cache_size must be >= 0"),
        ],
    )
    def test_out_of_range_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EngineConfig(**kwargs).validate()
        with pytest.raises(ValueError, match=message):
            QueryEngine(make_relevant(0), config=EngineConfig(**kwargs))

    def test_disabled_sort_cache_is_valid(self):
        EngineConfig(sort_cache_size=0).validate()


@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestStateResetContract:
    """clear_caches keeps counters; stats.reset keeps the gauges; reset =
    both."""

    def warmed_engine(self, cache: str) -> QueryEngine:
        engine = QueryEngine(make_relevant(0), config=EngineConfig(**CACHE_PROFILES[cache]))
        engine.execute_batch(
            [
                query_with("a"),
                query_with("a", "AVG"),
                query_with("a", "MEDIAN"),  # warms the sort-order cache
                query_with("b"),
            ]
        )
        engine.execute(query_with("a"))  # result-cache hit
        return engine

    def test_clear_caches_drops_state_but_keeps_counters(self, cache):
        engine = self.warmed_engine(cache)
        before = engine.stats.as_dict()
        engine.clear_caches()
        assert engine.mask_cache_len == 0
        assert engine.result_cache_len == 0
        assert engine.sort_cache_len == 0
        # Counters are lifetime counters; only the byte gauge drops to zero
        # with the now-empty caches it reads.
        after = engine.stats.as_dict()
        assert after.pop("bytes_cached") == 0 < before.pop("bytes_cached")
        assert after == before
        # Re-running the same query misses every cache again (cold derived state).
        hits = engine.stats.result_hits
        engine.execute(query_with("a"))
        assert engine.stats.result_hits == hits

    def test_clear_caches_drops_group_indexes_and_value_ranks(self, cache):
        engine = self.warmed_engine(cache)
        assert engine._indexes and engine.presorted_bytes > 0
        builds = engine.stats.group_index_builds
        engine.clear_caches()
        assert not engine._indexes
        assert engine.presorted_bytes == 0
        # The next plan rebuilds both: one new group index, one new rank.
        engine.execute(query_with("c", "MEDIAN"))
        assert engine.stats.group_index_builds == builds + 1
        assert engine.presorted_bytes > 0

    def test_stats_reset_zeroes_counters_but_keeps_the_gauge(self, cache):
        engine = self.warmed_engine(cache)
        cached = engine.cached_bytes
        engine.stats.reset()
        fresh = QueryEngine(make_relevant(1), config=EngineConfig(**CACHE_PROFILES[cache]))
        # Counters replay a fresh engine's; the byte gauge still reads the
        # warm caches, which a counter reset does not touch
        # (engine.reset() clears the caches first).
        after, expected = engine.stats.as_dict(), fresh.stats.as_dict()
        assert after.pop("bytes_cached") == cached > 0
        assert expected.pop("bytes_cached") == 0
        assert after == expected

    def test_reset_restores_a_fresh_engine_trajectory(self, cache):
        """After reset, the counter trajectory replays a fresh engine's."""
        config = EngineConfig(**CACHE_PROFILES[cache])
        queries = [query_with("a"), query_with("a", "AVG"), query_with("b")]
        engine = QueryEngine(make_relevant(0), config=config)
        engine.execute_batch(queries)
        engine.reset()
        engine.execute_batch(queries)
        fresh = QueryEngine(make_relevant(0), config=config)
        fresh.execute_batch(queries)
        reset_counts = {
            k: v for k, v in engine.stats.as_dict().items()
            if not isinstance(v, (dict, float)) or isinstance(v, int)
        }
        fresh_counts = {
            k: v for k, v in fresh.stats.as_dict().items()
            if not isinstance(v, (dict, float)) or isinstance(v, int)
        }
        assert reset_counts == fresh_counts


def perfbench_engine_counters():
    """The ``EngineStats`` keys the whole-run benchmark's layer accounting
    reads, taken from ``perfbench/workloads.py`` itself."""
    root = str(Path(__file__).resolve().parents[2])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import _LayerAccumulator

    return tuple(_LayerAccumulator._ENGINE_COUNTERS) + ("bytes_cached",)


class TestStatsKeys:
    def test_as_dict_carries_every_counter_perfbench_reads(self):
        counters = perfbench_engine_counters()
        assert "seconds_sorting" in counters  # the list really was read
        missing = [name for name in counters if name not in EngineStats().as_dict()]
        assert not missing, f"EngineStats.as_dict() lacks {missing}"

    def test_perfbench_counters_are_numbers_after_traffic(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN"), query_with("b")])
        stats = engine.stats.as_dict()
        for name in perfbench_engine_counters():
            assert isinstance(stats[name], (int, float)), name
        assert stats["queries"] == 2 and stats["sort_misses"] == 1

    def test_as_dict_keys_are_stable_across_traffic_and_reset(self):
        engine = QueryEngine(make_relevant(0))
        keys = set(engine.stats.as_dict())
        engine.execute_batch([query_with("a", "MAD"), query_with("b", "COUNT")])
        assert set(engine.stats.as_dict()) == keys
        assert set(engine.stats.delta_since({})) == keys
        engine.reset()
        assert set(engine.stats.as_dict()) == keys


class TestStatsTable:
    """The surface of ``EngineStats``: declared counters, one live gauge,
    two derived rates, nothing else."""

    def test_as_dict_keys_are_the_counters_the_gauge_and_the_rates(self):
        keys = set(_COUNTERS) | {"bytes_cached", "mask_hit_rate", "result_hit_rate"}
        assert set(EngineStats().as_dict()) == keys
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN"), query_with("b")])
        assert set(engine.stats.as_dict()) == keys

    def test_timers_are_floats_and_counters_ints(self):
        stats = EngineStats().as_dict()
        for name in _COUNTERS:
            assert type(stats[name]) is (float if name.startswith("seconds_") else int), name

    def test_bump_of_an_undeclared_name_raises(self):
        stats = EngineStats()
        with pytest.raises(KeyError, match="kernel_seconds"):
            stats.bump(kernel_seconds=1.0)
        with pytest.raises(AttributeError):
            stats.service_queue_depth
        assert stats.as_dict() == EngineStats().as_dict()

    def test_attribute_reads_follow_bump_and_reset(self):
        stats = EngineStats()
        stats.bump(sort_misses=2, seconds_sorting=0.5)
        assert (stats.sort_misses, stats.seconds_sorting) == (2, 0.5)
        stats.reset()
        assert (stats.sort_misses, stats.seconds_sorting) == (0, 0.0)

    def test_merge_adds_another_copys_counters_and_not_its_gauge(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN")])
        copy = QueryEngine(make_relevant(0))
        baseline = copy.stats.as_dict()
        copy.execute_batch([query_with("a", "MEDIAN"), query_with("b")])
        delta = copy.stats.delta_since(baseline)
        before = engine.stats.as_dict()
        engine.stats.merge(delta)
        after = engine.stats.as_dict()
        for name in _COUNTERS:
            assert after[name] == before[name] + delta[name], name
        assert after["bytes_cached"] == before["bytes_cached"]


class TestStatsPhaseSplit:
    def test_kernels_book_the_aggregation_phase(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch(
            [query_with("a", func) for func in ("SUM", "MEDIAN", "MODE", "MAD")]
        )
        assert engine.stats.seconds_aggregating > 0.0

    def test_order_construction_books_to_the_sorting_phase(self):
        """The shared order is resolved outside the kernel timer: a cold
        MEDIAN books one sort miss (with its seconds), a second
        order-statistics kernel of the same plan none."""
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN"), query_with("a", "MIN")])
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (1, 0)
        assert engine.stats.seconds_sorting > 0.0

    def test_accumulation_only_plans_never_sort(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch([query_with("a", func) for func in ("SUM", "AVG", "COUNT")])
        assert engine.stats.sort_misses == engine.stats.sort_hits == 0
        assert engine.stats.seconds_sorting == 0.0
        assert engine.sort_cache_len == 0


class TestPlanConsumingAPI:
    def test_execute_plan_matches_execute(self):
        table = make_relevant(0)
        engine = QueryEngine(table)
        query = query_with("a")
        plan = engine.plan(query)
        assert engine.execute_plan(plan).column("feature") == engine.execute(query).column("feature")
        assert engine.stats.result_hits == 1  # second call hit the plan's cache key

    def test_execute_plans_matches_execute_batch(self):
        table = make_relevant(0)
        queries = [query_with("a"), query_with("b", "AVG"), query_with("a", "MEDIAN")]
        batch = QueryEngine(table).execute_batch(queries)
        engine = QueryEngine(table)
        plans = [engine.plan(q) for q in queries]
        for got, want in zip(engine.execute_plans(plans), batch):
            assert got.column("feature") == want.column("feature")

    def test_fused_plans_are_rejected_in_single_plan_api(self):
        engine = QueryEngine(make_relevant(0))
        plan = engine.plan(query_with("a"))
        fused = plan.with_aggregates(plan.aggregates * 2)
        with pytest.raises(ValueError, match="single-aggregate"):
            engine.execute_plan(fused)
        with pytest.raises(ValueError, match="single-aggregate"):
            engine.execute_plans([fused])

"""Engine configuration, the ``engine_for`` registry, the stats the engine
exposes and the engine's state-reset contract."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, EngineStats, QueryEngine, engine_for
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
        # Counters are lifetime counters; only the byte gauges drop to zero
        # with the now-empty caches they describe.
        gauges = set(EngineStats.GAUGE_FIELDS)
        after = engine.stats.as_dict()
        assert {k: v for k, v in after.items() if k not in gauges} == {
            k: v for k, v in before.items() if k not in gauges
        }
        assert after["bytes_cached"] == 0
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

    def test_stats_reset_zeroes_counters_but_keeps_gauges(self, cache):
        engine = self.warmed_engine(cache)
        cached = engine.cached_bytes
        engine.stats.reset()
        fresh = QueryEngine(make_relevant(1), config=EngineConfig(**CACHE_PROFILES[cache]))
        # Counters replay a fresh engine's; the byte gauges survive the
        # reset -- they describe the still-warm caches, which a counter
        # reset does not touch (engine.reset() clears caches first).
        gauges = set(EngineStats.GAUGE_FIELDS)
        assert {k: v for k, v in engine.stats.as_dict().items() if k not in gauges} == {
            k: v for k, v in fresh.stats.as_dict().items() if k not in gauges
        }
        assert engine.stats.bytes_cached == cached

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


class TestStatsPhaseSplit:
    def test_kernel_seconds_sum_to_the_aggregation_phase(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute_batch(
            [query_with("a", func) for func in ("SUM", "MEDIAN", "MODE", "MAD")]
        )
        stats = engine.stats
        assert set(stats.kernel_seconds) == {"SUM", "MEDIAN", "MODE", "MAD"}
        assert stats.seconds_aggregating == pytest.approx(
            sum(stats.kernel_seconds.values()), rel=1e-12, abs=1e-15
        )

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

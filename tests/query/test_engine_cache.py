"""Cache behaviour of the query engine: hit/miss counters, LRU bounds, and
that engines are strictly bound to one table (no stale masks across tables).
"""

import numpy as np
import pytest

from repro.core.feataug import FeatAugResult
from repro.core.sql_generation import GeneratedQuery
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine, engine_for
from repro.query.executor import execute_query, execute_query_naive
from repro.query.query import PredicateAtom, PredicateAwareQuery


def configured_engine(table: Table, **config_overrides) -> QueryEngine:
    """An engine with *config_overrides* applied to the default config."""
    return QueryEngine(table, config=EngineConfig(**config_overrides))


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


class TestMaskCache:
    def test_shared_atom_hits(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a", "SUM"))
        assert (engine.stats.mask_misses, engine.stats.mask_hits) == (1, 0)
        engine.execute(query_with("a", "AVG"))
        assert (engine.stats.mask_misses, engine.stats.mask_hits) == (1, 1)
        engine.execute(query_with("b", "SUM"))
        assert (engine.stats.mask_misses, engine.stats.mask_hits) == (2, 1)

    def test_conjunction_reuses_atom_masks(self):
        engine = configured_engine(make_relevant(0))
        both = PredicateAwareQuery(
            "SUM",
            "val",
            ("key",),
            (
                PredicateAtom("eq", "cat", value="a"),
                PredicateAtom("range", "val", low=0.0, dtype=DType.NUMERIC),
            ),
        )
        engine.execute(both)
        assert engine.stats.mask_misses == 2
        # A query sharing only one atom still hits the cache for it.
        engine.execute(query_with("a", "AVG"))
        assert engine.stats.mask_misses == 2
        assert engine.stats.mask_hits == 1

    def test_lru_eviction_bound(self):
        engine = configured_engine(make_relevant(0), mask_cache_size=4)
        for i in range(10):
            engine.execute(query_with(f"value-{i}"))
        assert engine.mask_cache_len <= 4
        assert engine.stats.mask_evictions == 6
        assert engine.stats.mask_misses == 10

    def test_group_index_built_once_per_key_combination(self):
        engine = configured_engine(make_relevant(0))
        for value in "abc":
            engine.execute(query_with(value))
        assert engine.stats.group_index_builds == 1
        assert engine.stats.group_index_reuses == 2


class TestResultCache:
    def test_identical_query_served_from_cache(self):
        engine = QueryEngine(make_relevant(0))
        first = engine.execute(query_with("a"))
        second = engine.execute(query_with("a"))
        assert second is first
        assert engine.stats.result_hits == 1
        assert engine.stats.result_misses == 1

    def test_result_cache_is_bounded(self):
        engine = configured_engine(make_relevant(0), result_cache_size=3)
        for i in range(8):
            engine.execute(query_with(f"value-{i}"))
        assert engine.result_cache_len <= 3

    def test_batch_reuses_cached_results(self):
        engine = QueryEngine(make_relevant(0))
        engine.execute(query_with("a", "SUM"))
        results = engine.execute_batch([query_with("a", "SUM"), query_with("a", "AVG")])
        assert engine.stats.result_hits == 1
        for query, result in zip([query_with("a", "SUM"), query_with("a", "AVG")], results):
            naive = execute_query_naive(query, engine.table)
            assert result.column("feature") == naive.column("feature")

    def test_result_key_distinguishes_predicate_dtypes(self):
        """The predicate dtype decides the atom kind in ``QueryPool.decode``:
        a range atom and an equality atom over the same constant have
        distinct signatures (``("range", ...)`` vs ``("eq", ...)``), so the
        result cache can never hand one the other's table.
        """
        engine = QueryEngine(make_relevant(0))
        range_query = PredicateAwareQuery(
            "SUM", "val", ("key",),
            (PredicateAtom("range", "val", low=10.0, high=10.0, dtype=DType.NUMERIC),),
        )
        engine.execute(range_query)
        eq_query = PredicateAwareQuery(
            "SUM", "val", ("key",), (PredicateAtom("eq", "val", value=10.0),)
        )
        result = engine.execute(eq_query)
        assert engine.stats.result_hits == 0
        naive = execute_query_naive(eq_query, engine.table)
        assert result.column("feature") == naive.column("feature")

    def test_clear_caches(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a"))
        engine.clear_caches()
        assert engine.mask_cache_len == 0
        assert engine.result_cache_len == 0
        engine.execute(query_with("a"))
        assert engine.stats.mask_misses == 2


class TestSortOrderCache:
    """Semantics of the shared sort-order cache."""

    def test_one_miss_per_fused_plan_and_value_column(self):
        engine = configured_engine(make_relevant(0))
        # One fused plan (same predicate, keys): the order-statistics
        # kernels share a single lexsort -> exactly one miss, no hits.
        engine.execute_batch(
            [query_with("a", "MEDIAN"), query_with("a", "MODE"), query_with("a", "MIN")]
        )
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (1, 0)
        assert engine.sort_cache_len == 1

    def test_hits_across_batches_of_one_template(self):
        engine = configured_engine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN"), query_with("b", "MEDIAN")])
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (2, 0)
        # New functions, same (predicate, keys, value column) triples: the
        # result cache misses but the main orders come from the sort cache.
        # MAD's deviation order over predicate "a" is new -- one fresh miss
        # under the (sort key, MEDIAN) entry.
        engine.execute_batch([query_with("a", "MAD"), query_with("b", "ENTROPY")])
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (3, 2)

    def test_mad_deviation_order_is_cached_per_sort_key(self):
        engine = configured_engine(make_relevant(0), result_cache_size=1)
        # A cold MAD pays two sorts: the main (value, code) order plus the
        # deviation order, cached under sort_key + ("MEDIAN",).
        engine.execute(query_with("a", "MAD"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (2, 0)
        assert engine.sort_cache_len == 2
        # A different predicate shares neither order.
        engine.execute(query_with("b", "MAD"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (4, 0)
        assert engine.sort_cache_len == 4
        # The one-entry result cache has evicted query "a": re-running it
        # misses the result cache but hits both cached orders.
        engine.execute(query_with("a", "MAD"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (4, 2)
        assert engine.stats.result_misses == 3

    def test_misses_across_different_masks_and_keys(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a", "MEDIAN"))
        engine.execute(query_with("b", "MEDIAN"))  # different predicate
        engine.execute(  # different group-by keys
            PredicateAwareQuery(
                "MEDIAN", "val", ("key", "cat"), (PredicateAtom("eq", "cat", value="a"),)
            )
        )
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (3, 0)
        assert engine.sort_cache_len == 3

    def test_accumulation_only_plans_never_consult_the_cache(self):
        engine = configured_engine(make_relevant(0))
        engine.execute_batch([query_with("a", "SUM"), query_with("a", "AVG")])
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (0, 0)
        assert engine.sort_cache_len == 0

    def test_repeated_identical_queries_hit_the_result_cache_first(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a", "MEDIAN"))
        engine.execute(query_with("a", "MEDIAN"))  # result hit: no sort traffic
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (1, 0)

    def test_cache_is_bounded_lru(self):
        engine = configured_engine(make_relevant(0), sort_cache_size=2)
        for value in "abcd":
            engine.execute(query_with(value, "MEDIAN"))
        assert engine.sort_cache_len <= 2
        assert engine.stats.sort_misses == 4

    def test_disabled_cache_recomputes_per_plan(self):
        engine = configured_engine(make_relevant(0), sort_cache_size=0)
        engine.execute(query_with("a", "MEDIAN"))
        # MAD re-sorts the main order (nothing is cached) and additionally
        # pays its deviation sort: two misses for the one query.
        engine.execute(query_with("a", "MAD"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (3, 0)
        assert engine.sort_cache_len == 0
        # seconds_sorting books the per-plan lexsorts either way.
        assert engine.stats.seconds_sorting > 0.0

    def test_clear_caches_drops_orders_but_keeps_counters(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a", "MEDIAN"))
        before = engine.stats.as_dict()
        assert before["bytes_cached"] > 0
        engine.clear_caches()
        assert engine.sort_cache_len == 0
        # Lifetime counters survive; only the byte *gauges* drop to zero
        # with the now-empty caches.
        after = engine.stats.as_dict()
        gauges = {"bytes_cached", "cache_bytes"}
        assert {k: v for k, v in after.items() if k not in gauges} == {
            k: v for k, v in before.items() if k not in gauges
        }
        assert after["bytes_cached"] == 0
        assert all(v == 0.0 for v in after["cache_bytes"].values())
        # Cold orders: MAD misses both its main and its deviation order.
        engine.execute(query_with("a", "MAD"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (3, 0)

    def test_reset_composes_clear_and_counter_reset(self):
        engine = configured_engine(make_relevant(0))
        engine.execute_batch([query_with("a", "MEDIAN"), query_with("a", "MAD")])
        engine.execute(query_with("a", "MODE"))
        assert engine.stats.sort_hits > 0
        engine.reset()
        assert engine.sort_cache_len == 0
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (0, 0)
        assert engine.stats.seconds_sorting == 0.0
        # Post-reset traffic replays a fresh engine's trajectory.
        engine.execute(query_with("a", "MEDIAN"))
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (1, 0)

    def test_one_lookup_per_plan_and_value_column(self):
        """Every sort-based spec of a fused plan shares one order: the
        engine cache is consulted exactly once per (plan, value column),
        plus once for MAD's deviation order."""
        table = make_relevant(0)
        batch = [
            query_with(value, func)
            for value in "ab"
            for func in ("MEDIAN", "MAD", "MODE", "ENTROPY", "MIN", "MAX", "SUM")
        ]
        engine = QueryEngine(table)
        engine.execute_batch(batch)
        # One shared main order plus one MAD deviation order per fused plan.
        assert (engine.stats.sort_misses, engine.stats.sort_hits) == (4, 0)


class TestRegistryAndStats:
    def test_registry_does_not_keep_tables_alive(self):
        import gc
        import weakref

        table = make_relevant(5)
        ref = weakref.ref(table)
        engine_for(table).execute(query_with("a"))
        del table
        gc.collect()
        assert ref() is None

    def test_weak_engine_raises_after_table_collected(self):
        import gc

        table = make_relevant(6)
        engine = QueryEngine(table, weak_table=True)
        del table
        gc.collect()
        with pytest.raises(ReferenceError):
            engine.table

    def test_direct_engine_keeps_its_table_alive(self):
        engine = QueryEngine(make_relevant(6))  # temporary table: engine owns it
        assert engine.execute(query_with("a")).num_rows >= 0

    def test_stats_delta_since_reports_per_run_traffic(self):
        engine = configured_engine(make_relevant(0))
        engine.execute(query_with("a"))
        baseline = engine.stats.as_dict()
        engine.execute(query_with("a"))  # result-cache hit
        engine.execute(query_with("b"))
        delta = engine.stats.delta_since(baseline)
        assert delta["queries"] == 1
        assert delta["result_hits"] == 1
        assert delta["mask_misses"] == 1
        assert delta["result_hit_rate"] == 0.5
        # Lifetime counters keep accumulating regardless.
        assert engine.stats.queries == 2


class TestEngineTableBinding:
    def test_engine_for_is_identity_keyed(self):
        a, b = make_relevant(0), make_relevant(1)
        assert engine_for(a) is engine_for(a)
        assert engine_for(a) is not engine_for(b)

    def test_execute_query_rejects_mismatched_engine(self):
        a, b = make_relevant(0), make_relevant(1)
        with pytest.raises(ValueError):
            execute_query(query_with("a"), b, engine=QueryEngine(a))

    def test_feataug_apply_does_not_reuse_training_masks(self, user_table):
        """``FeatAugResult.apply`` against a held-out relevant table must hit
        that table's own engine, not the training-time engine's stale masks."""
        train_relevant = make_relevant(0)
        held_out_relevant = make_relevant(99)
        query = query_with("a", "SUM")
        # Warm the training-time engine's mask and result caches.
        training_engine = engine_for(train_relevant)
        training_engine.execute(query)

        train = Table(
            [
                Column("key", [0.0, 1.0, 2.0, 3.0], dtype=DType.NUMERIC),
                Column("label", [0.0, 1.0, 0.0, 1.0], dtype=DType.NUMERIC),
            ]
        )
        result = FeatAugResult(
            queries=[GeneratedQuery(query=query, loss=0.0, metric=0.0)],
            templates=[],
            augmented_table=train,
            feature_names=["feataug_0"],
            relevant_table=held_out_relevant,
        )
        applied = result.apply(train)
        expected = train.left_join(
            execute_query_naive(query, held_out_relevant).rename({"feature": "feataug_0"}),
            on=["key"],
        )
        got = applied.column("feataug_0").values
        want = expected.column("feataug_0").values
        assert np.array_equal(got, want, equal_nan=True)
        # Sanity: the held-out values genuinely differ from the training-time
        # table's, so a stale-mask bug could not slip through this assertion.
        stale = train.left_join(
            execute_query_naive(query, train_relevant).rename({"feature": "feataug_0"}),
            on=["key"],
        ).column("feataug_0").values
        assert not np.allclose(got, stale, rtol=0.0, atol=1e-9, equal_nan=True)

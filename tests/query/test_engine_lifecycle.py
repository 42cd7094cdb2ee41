"""Engine lifecycle under concurrency: registry races, empty batches,
cache clears.

Pinned here:

* **`engine_for` first-access race** -- two threads looking up the same
  table's slot concurrently may both construct a candidate engine
  (construction happens outside the global registry lock so unrelated
  tables never serialise on it), but the slot is double-checked before
  insertion: every caller gets the **same** registered engine, and the
  losing candidate is dropped.  First lookups of two different tables
  construct concurrently and get one engine each.
* **Empty batches are free** -- ``execute_batch([])`` / ``execute_plans([])``
  return ``[]`` without syncing the table or bumping any counter
  (``batches`` counts rounds that carried queries), under every cache
  profile, whether the engine is fresh, warm, behind its table or freshly
  cleared.
* **Clear / rebuild** -- after ``clear_caches()`` the next execution
  rebuilds the derived state with results identical to a never-cleared
  engine, and lifetime counters survive the clear, under every cache
  profile.
"""

import threading

import numpy as np
import pytest

import repro.query.engine as engine_module
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine, engine_for
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import CACHE_PROFILES


def make_engine(table: Table, cache: str) -> QueryEngine:
    return QueryEngine(table, config=EngineConfig(**CACHE_PROFILES[cache]))


def make_relevant(seed: int, n: int = 60) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column("key", rng.integers(0, 5, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [str(v) for v in rng.choice(list("abc"), size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column("val", rng.normal(size=n), dtype=DType.NUMERIC),
        ]
    )


def small_batch():
    return [
        PredicateAwareQuery(
            func, "val", ("key",), (PredicateAtom("eq", "cat", value="a"),)
        )
        for func in ("SUM", "COUNT", "MEDIAN")
    ]


def multi_plan_batch():
    """Six queries over three fused plans (three distinct predicates)."""
    return [
        PredicateAwareQuery(
            func, "val", ("key",), (PredicateAtom("eq", "cat", value=value),)
        )
        for value in "abc"
        for func in ("SUM", "COUNT")
    ]


def assert_tables_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.column_names == want.column_names
        for name in want.column_names:
            assert got.column(name) == want.column(name)


class TestEngineForRace:
    def test_barrier_start_yields_one_engine_and_drops_the_loser(
        self, monkeypatch
    ):
        """Both threads are forced through construction concurrently (the
        barrier inside ``__init__`` only releases once both candidates
        exist), so exactly one insertion can win -- the regression this
        pins is two engines racing into one registry slot."""
        n_threads = 2
        construction_barrier = threading.Barrier(n_threads)
        instances = []

        class TrackedEngine(QueryEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)
                construction_barrier.wait(timeout=10)

        monkeypatch.setattr(engine_module, "QueryEngine", TrackedEngine)
        table = make_relevant(0)
        results = [None] * n_threads
        errors = []
        start_barrier = threading.Barrier(n_threads)

        def lookup(slot):
            try:
                start_barrier.wait(timeout=10)
                results[slot] = engine_for(table)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=lookup, args=(slot,)) for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        # Every caller got the same registered engine...
        assert results[0] is results[1]
        # ...although the race really constructed two candidates...
        assert len(instances) == n_threads
        winner = results[0]
        assert sum(engine is winner for engine in instances) == 1
        # ...and later lookups keep returning the winner.
        assert engine_for(table) is winner

    def test_racing_tables_get_one_engine_each(self, monkeypatch):
        """Concurrent first lookups of two tables construct their engines
        at the same time (the barrier inside ``__init__`` only releases
        once both exist, so construction under the registry lock would
        break it) and fill two slots, one engine each, each bound to its
        table."""
        construction_barrier = threading.Barrier(2)
        instances = []

        class TrackedEngine(QueryEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)
                construction_barrier.wait(timeout=10)

        monkeypatch.setattr(engine_module, "QueryEngine", TrackedEngine)
        tables = (make_relevant(1), make_relevant(2))
        results = [None, None]
        errors = []

        def lookup(slot):
            try:
                results[slot] = engine_for(tables[slot])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=lookup, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        assert results[0] is not results[1]
        assert len(instances) == 2
        for engine, table in zip(results, tables):
            assert engine.table is table
            assert engine.config == EngineConfig()
            assert engine_for(table) is engine

    def test_sequential_lookups_construct_exactly_once(self, monkeypatch):
        constructed = []
        real_engine = QueryEngine

        class CountingEngine(real_engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed.append(self)

        monkeypatch.setattr(engine_module, "QueryEngine", CountingEngine)
        table = make_relevant(2)
        first = engine_for(table)
        second = engine_for(table)
        assert first is second
        assert len(constructed) == 1


@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestEmptyBatch:
    def test_empty_batch_is_free_serial(self, cache):
        engine = make_engine(make_relevant(3), cache)
        before = engine.stats.as_dict()
        assert engine.execute_batch([]) == []
        assert engine.execute_plans([]) == []
        assert engine.execute_plans_deduped([]) == ([], 0)
        assert engine.stats.as_dict() == before  # no counter drift at all

    @pytest.mark.parametrize("state", ("fresh", "warm", "stale", "cleared"))
    @pytest.mark.parametrize(
        "entry,expected",
        [
            ("execute_batch", []),
            ("execute_plans", []),
            ("execute_plans_deduped", ([], 0)),
        ],
    )
    def test_empty_batch_is_free_in_every_state(self, cache, state, entry, expected):
        """Each empty entry point is free on a fresh engine, on a warm one,
        on one whose table has grown since its last sync and on one whose
        caches were just cleared."""
        table = make_relevant(3)
        engine = make_engine(table, cache)
        if state != "fresh":
            engine.execute_batch(multi_plan_batch())
        if state == "stale":
            table.append_rows({"key": [1.0], "cat": ["a"], "val": [0.25]})
        if state == "cleared":
            engine.clear_caches()
        synced = engine._synced_version
        before = engine.stats.as_dict()
        assert getattr(engine, entry)([]) == expected
        assert engine.stats.as_dict() == before
        assert engine._synced_version == synced

    def test_empty_batch_keeps_a_cleared_engine_cold(self, cache):
        """An empty batch builds nothing: a cleared engine handed one still
        holds no mask, result, sort order or group index."""
        engine = make_engine(make_relevant(3), cache)
        engine.execute_batch(small_batch())
        engine.clear_caches()
        assert engine.execute_batch([]) == []
        assert engine.mask_cache_len == engine.result_cache_len == 0
        assert engine.sort_cache_len == 0
        assert not engine._indexes

    def test_empty_batch_does_not_sync_a_stale_table(self, cache):
        """The empty path returns before ``sync_with_table``: version drift
        is observed by the next real execution, not by a no-op."""
        table = make_relevant(3)
        engine = make_engine(table, cache)
        engine.execute_batch(small_batch())
        synced = engine._synced_version
        table.append_rows({"key": [1.0], "cat": ["a"], "val": [0.25]})
        engine.execute_batch([])
        assert engine._synced_version == synced  # untouched by the no-op
        engine.execute_batch(small_batch())
        assert engine._synced_version == table.version


@pytest.mark.parametrize("cache", CACHE_PROFILES)
class TestClearCachesRebuild:
    def test_batch_after_clear_matches_a_fresh_engine(self, cache):
        table = make_relevant(4)
        queries = multi_plan_batch()
        expected = QueryEngine(table).execute_batch(queries)
        engine = make_engine(table, cache)
        assert_tables_equal(engine.execute_batch(queries), expected)
        engine.clear_caches()
        # The derived state is rebuilt on demand by the next batch.
        assert_tables_equal(engine.execute_batch(queries), expected)

    def test_counters_survive_a_clear(self, cache):
        engine = make_engine(make_relevant(4), cache)
        engine.execute_batch(small_batch())
        queries_before = engine.stats.queries
        batches_before = engine.stats.batches
        assert queries_before > 0
        engine.clear_caches()
        engine.execute_batch(small_batch())
        # Lifetime counters accumulate across the clear (the re-run
        # re-executes: the clear dropped the result cache).
        assert engine.stats.queries == 2 * queries_before
        assert engine.stats.batches == batches_before + 1

    def test_single_query_after_clear(self, cache):
        engine = make_engine(make_relevant(4), cache)
        query = small_batch()[0]
        first = engine.execute(query)
        engine.clear_caches()
        again = engine.execute(query)
        assert again.column_names == first.column_names
        for name in first.column_names:
            assert again.column(name) == first.column(name)

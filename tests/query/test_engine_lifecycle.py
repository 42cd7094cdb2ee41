"""Engine lifecycle under concurrency: registry races, empty batches,
close/re-open.

The three PR 9 engine satellites, pinned:

* **`engine_for` first-access race** -- two threads looking up the same
  (table, config) slot concurrently may both construct a candidate engine
  (construction happens outside the global registry lock so unrelated
  tables never serialise on it), but the slot is double-checked before
  insertion: every caller gets the **same** registered engine and the
  race's loser ``close()``s its candidate immediately, so no backend
  resource -- sqlite connection, worker pool -- leaks.
* **Empty batches are free** -- ``execute_batch([])`` / ``execute_plans([])``
  return ``[]`` without touching the backend, syncing the table or bumping
  any counter (``batches`` counts rounds that carried queries), on every
  backend, serial or sharded.  A closed engine stays closed.
* **Close / lazy re-open** -- ``close()`` releases everything; the next
  execution transparently re-opens the engine with results identical to a
  never-closed one, and lifetime counters survive the cycle, on every
  backend.
"""

import threading

import numpy as np
import pytest

import repro.query.engine as engine_module
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine, engine_for
from repro.query.query import PredicateAwareQuery

BACKENDS = tuple(backend_names())


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
            func, "val", ("key",), {"cat": "a"}, {"cat": DType.CATEGORICAL}
        )
        for func in ("SUM", "COUNT", "MEDIAN")
    ]


def multi_plan_batch():
    """Six queries over three fused plans -- enough distinct predicates that
    plan-level sharding genuinely dispatches to the worker pool."""
    return [
        PredicateAwareQuery(
            func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
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
    def test_barrier_start_yields_one_engine_and_closes_the_loser(
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
        config = EngineConfig(backend="numpy")
        results = [None] * n_threads
        errors = []
        start_barrier = threading.Barrier(n_threads)

        def lookup(slot):
            try:
                start_barrier.wait(timeout=10)
                results[slot] = engine_for(table, config=config)
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
        losers = [engine for engine in instances if engine is not winner]
        assert len(losers) == n_threads - 1
        # ...and the loser was closed so nothing it owns can leak.
        assert all(loser.closed for loser in losers)
        assert not winner.closed

    def test_losing_sqlite_candidate_releases_its_connection(self, monkeypatch):
        """Same race with a storage-owning backend: the loser's close must
        actually release the backend resource, not just mark a flag."""
        construction_barrier = threading.Barrier(2)
        instances = []

        class TrackedEngine(QueryEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # Materialise the connection so there is something to leak.
                self.backend._ensure_materialized()
                instances.append(self)
                construction_barrier.wait(timeout=10)

        monkeypatch.setattr(engine_module, "QueryEngine", TrackedEngine)
        table = make_relevant(1)
        config = EngineConfig(backend="sqlite")
        results = [None, None]
        errors = []

        def lookup(slot):
            try:
                results[slot] = engine_for(table, config=config)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=lookup, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        assert results[0] is results[1]
        losers = [engine for engine in instances if engine is not results[0]]
        assert len(losers) == 1
        assert losers[0].backend._conn is None  # connection released
        assert results[0].backend._conn is not None  # winner untouched

    def test_sequential_lookups_construct_exactly_once(self, monkeypatch):
        constructed = []
        real_engine = QueryEngine

        class CountingEngine(real_engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                constructed.append(self)

        monkeypatch.setattr(engine_module, "QueryEngine", CountingEngine)
        table = make_relevant(2)
        config = EngineConfig(backend="numpy")
        first = engine_for(table, config=config)
        second = engine_for(table, config=config)
        assert first is second
        assert len(constructed) == 1


@pytest.mark.parametrize("backend", BACKENDS)
class TestEmptyBatch:
    def test_empty_batch_is_free_serial(self, backend):
        engine = QueryEngine(
            make_relevant(3), config=EngineConfig(backend=backend, num_workers=1)
        )
        before = engine.stats.as_dict()
        assert engine.execute_batch([]) == []
        assert engine.execute_plans([]) == []
        assert engine.execute_plans_deduped([]) == ([], 0)
        assert engine.stats.as_dict() == before  # no counter drift at all

    @pytest.mark.parametrize("workers", (2, 3, 4))
    @pytest.mark.parametrize(
        "entry,expected",
        [
            ("execute_batch", []),
            ("execute_plans", []),
            ("execute_plans_deduped", ([], 0)),
        ],
    )
    def test_empty_batch_is_free_sharded(self, backend, workers, entry, expected):
        engine = QueryEngine(
            make_relevant(3), config=EngineConfig(backend=backend, num_workers=workers)
        )
        try:
            before = engine.stats.as_dict()
            assert getattr(engine, entry)([]) == expected
            assert engine.stats.as_dict() == before
        finally:
            engine.close()

    def test_empty_batch_does_not_reopen_a_closed_engine(self, backend):
        """No backend touch also means no lazy re-open: a closed engine
        handed an empty batch stays closed (and pays nothing)."""
        engine = QueryEngine(
            make_relevant(3), config=EngineConfig(backend=backend, num_workers=1)
        )
        engine.execute_batch(small_batch())
        engine.close()
        assert engine.execute_batch([]) == []
        assert engine.closed

    def test_empty_batch_does_not_sync_a_stale_table(self, backend):
        """The empty path returns before ``sync_with_table``: version drift
        is observed by the next real execution, not by a no-op."""
        table = make_relevant(3)
        engine = QueryEngine(table, config=EngineConfig(backend=backend, num_workers=1))
        engine.execute_batch(small_batch())
        synced = engine._synced_version
        table.append_rows({"key": [1.0], "cat": ["a"], "val": [0.25]})
        engine.execute_batch([])
        assert engine._synced_version == synced  # untouched by the no-op
        engine.execute_batch(small_batch())
        assert engine._synced_version == table.version


@pytest.mark.parametrize("backend", BACKENDS)
class TestClosedEngineReopen:
    def test_batch_on_closed_engine_reopens_transparently(self, backend):
        table = make_relevant(4)
        queries = multi_plan_batch()  # multi-plan: sharding really dispatches
        expected = QueryEngine(
            table, config=EngineConfig(backend=backend, num_workers=1)
        ).execute_batch(queries)
        engine = QueryEngine(
            table,
            config=EngineConfig(backend=backend, num_workers=2),
        )
        try:
            assert_tables_equal(engine.execute_batch(queries), expected)
            engine.close()
            assert engine.closed
            # The documented lazy re-creation path: the next batch re-opens
            # the engine, re-creating its worker pool on demand.
            assert_tables_equal(engine.execute_batch(queries), expected)
            assert not engine.closed
        finally:
            engine.close()

    def test_counters_survive_a_close_reopen_cycle(self, backend):
        engine = QueryEngine(
            make_relevant(4),
            config=EngineConfig(backend=backend, num_workers=2),
        )
        try:
            engine.execute_batch(small_batch())
            queries_before = engine.stats.queries
            batches_before = engine.stats.batches
            assert queries_before > 0
            engine.close()
            engine.execute_batch(small_batch())
            # Lifetime counters accumulate across the cycle (the re-run
            # re-executes: close dropped the result cache).
            assert engine.stats.queries == 2 * queries_before
            assert engine.stats.batches == batches_before + 1
        finally:
            engine.close()

    def test_single_query_reopens_too(self, backend):
        engine = QueryEngine(
            make_relevant(4),
            config=EngineConfig(backend=backend, num_workers=2),
        )
        try:
            query = small_batch()[0]
            first = engine.execute(query)
            engine.close()
            again = engine.execute(query)
            assert again.column_names == first.column_names
            for name in first.column_names:
                assert again.column(name) == first.column(name)
            assert not engine.closed
        finally:
            engine.close()

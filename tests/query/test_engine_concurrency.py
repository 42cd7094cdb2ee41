"""Thread-safety of the engine's shared state under concurrent traffic.

Nothing stops callers from hitting one shared engine from several threads
of their own (the query service's dispatcher is one more), so the
LRU predicate-mask / result caches, the group-index map and every
``EngineStats`` counter must behave under concurrency:

* **no torn stats** -- counter updates are atomic (`EngineStats.bump` /
  ``add_split`` / ``record_kernel`` serialise on one lock), so hammering
  them from many threads loses no increments;
* **no cross-thread cache corruption** -- the LRU caches keep their bound
  and their entries stay internally consistent while readers and writers
  interleave;
* **deterministic results** -- every ``execute_batch`` call returns tables
  element-wise identical to serial execution no matter how many threads
  call concurrently, on every registered backend (the sqlite backend
  serialises its shared connection internally), with exact accounting
  invariants over the result-cache counters.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, EngineStats, QueryEngine, _LRUCache
from repro.query.query import PredicateAwareQuery

BACKENDS = tuple(backend_names())
N_THREADS = 4
N_ROUNDS = 3


def make_relevant(seed: int, n: int = 80) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column("key", rng.integers(0, 7, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [str(v) for v in rng.choice(list("abcd"), size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column("val", rng.normal(size=n), dtype=DType.NUMERIC),
        ]
    )


def make_batch():
    """Eight queries over three fused plans (shared atoms across plans)."""
    queries = []
    for value in "ab":
        for func in ("SUM", "AVG", "MEDIAN"):
            queries.append(
                PredicateAwareQuery(
                    func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
                )
            )
    queries.append(PredicateAwareQuery("COUNT", "val", ("key",)))
    queries.append(PredicateAwareQuery("MODE", "val", ("key",)))
    return queries


def assert_batch_equal(actual, expected, exact: bool):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.column_names == want.column_names
        for name in want.column_names:
            left, right = got.column(name), want.column(name)
            if exact or not left.is_numeric_like:
                assert left == right
            else:
                assert np.allclose(
                    left.values, right.values, rtol=0.0, atol=1e-9, equal_nan=True
                )


class TestStatsAtomicity:
    def test_bump_loses_no_increments(self):
        stats = EngineStats()
        per_thread, threads = 2000, 8

        def hammer():
            for _ in range(per_thread):
                stats.bump(queries=1, seconds_masking=1.0)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert stats.queries == per_thread * threads
        # 1.0-increments are exact in float64 far beyond this total.
        assert stats.seconds_masking == float(per_thread * threads)

    def test_add_split_and_record_kernel_lose_no_updates(self):
        stats = EngineStats()
        per_thread, threads = 1000, 6

        def hammer(i):
            for _ in range(per_thread):
                stats.add_split("backend_seconds", f"b{i % 2}", 1.0)
                stats.record_kernel("SUM", 1.0, backend="numpy")

        workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert sum(stats.backend_seconds.values()) == float(per_thread * threads)
        assert stats.kernel_seconds["SUM"] == float(per_thread * threads)
        assert stats.vectorized_aggregations == per_thread * threads

    def test_as_dict_snapshot_is_consistent_under_writes(self):
        """Paired counters bumped atomically never tear in a snapshot."""
        stats = EngineStats()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                stats.bump(mask_hits=1, mask_misses=1)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snapshot = stats.as_dict()
                assert snapshot["mask_hits"] == snapshot["mask_misses"]
        finally:
            stop.set()
            thread.join()


class TestLRUCacheConcurrency:
    def test_bound_holds_and_no_entries_corrupt(self):
        cache = _LRUCache(maxsize=16)
        threads = 8

        def hammer(tid):
            for i in range(500):
                key = (tid % 4, i % 24)
                value = cache.get(key)
                if value is not None:
                    # An entry must always be the value its key names.
                    assert value == key
                cache.put(key, key)
            assert len(cache) <= 16

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(hammer, t) for t in range(threads)]:
                future.result()  # surfaces assertion errors / corruption
        assert len(cache) <= 16


@pytest.mark.parametrize("backend", BACKENDS)
class TestConcurrentExecuteBatch:
    def stress(self, engine: QueryEngine, expected, exact: bool, threads: int = N_THREADS):
        queries = make_batch()
        errors = []

        def caller():
            try:
                for _ in range(N_ROUNDS):
                    assert_batch_equal(engine.execute_batch(queries), expected, exact)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=caller) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors, errors[0]

    def expected_for(self, table: Table, backend: str):
        return QueryEngine(
            table, config=EngineConfig(backend=backend)
        ).execute_batch(make_batch())

    def test_concurrent_batches_are_deterministic(self, backend):
        table = make_relevant(0)
        expected = self.expected_for(table, backend)
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        self.stress(engine, expected, exact=True)  # same engine: bit-identical
        # Accounting invariant: every query of every batch was either a
        # result-cache hit or booked exactly one miss -- torn counters would
        # break this sum even when the interleaving varies run to run.
        stats = engine.stats
        total = N_THREADS * N_ROUNDS * len(make_batch())
        assert stats.result_hits + stats.result_misses == total
        assert stats.queries == stats.result_misses
        assert stats.batches == N_THREADS * N_ROUNDS

    @pytest.mark.parametrize("threads", (2, 3, 8))
    def test_concurrent_batches_under_one_entry_caches(self, backend, threads):
        """Every entry-bounded cache at one entry and the sort-order cache
        off: each batch evicts what the other callers just cached, and
        results and result accounting still hold at any caller count."""
        table = make_relevant(1)
        expected = self.expected_for(table, backend)
        engine = QueryEngine(
            table,
            config=EngineConfig(
                backend=backend, mask_cache_size=1, result_cache_size=1, sort_cache_size=0
            ),
        )
        try:
            self.stress(engine, expected, exact=True, threads=threads)
            stats = engine.stats
            total = threads * N_ROUNDS * len(make_batch())
            assert stats.result_hits + stats.result_misses == total
            assert stats.queries == stats.result_misses
            assert stats.batches == threads * N_ROUNDS
        finally:
            engine.close()

    def test_mask_cache_stays_bounded_and_correct(self, backend):
        """Eviction churn from many threads never corrupts mask reuse."""
        if backend == "sqlite":
            pytest.skip("sqlite owns its filtering; the engine mask cache is idle")
        table = make_relevant(3)
        engine = QueryEngine(
            table,
            config=EngineConfig(backend=backend, mask_cache_size=2),
        )
        expected = self.expected_for(table, backend)
        self.stress(engine, expected, exact=True)
        assert engine.mask_cache_len <= 2


class TestMemoryBudgetConcurrency:
    """The global byte budget holds under concurrent traffic: no interleaving
    of hits, puts and cross-cache evictions ever leaves the caches over
    budget or the byte accounting out of sync with the cache contents."""

    BUDGET = 8 * 1024

    def make_engine(self):
        return QueryEngine(
            make_relevant(4, n=2000),
            config=EngineConfig(
                backend="numpy",
                memory_budget_bytes=self.BUDGET,
            ),
        )

    def budget_batch(self):
        return [
            PredicateAwareQuery(
                func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
            )
            for value in "abcd"
            for func in ("SUM", "MEDIAN", "MAD")
        ]

    def test_budget_never_exceeded_under_concurrent_traffic(self):
        engine = self.make_engine()
        queries = self.budget_batch()
        errors = []

        def caller():
            try:
                for _ in range(N_ROUNDS):
                    engine.execute_batch(queries)
                    # Sampled mid-flight from every caller: the budget is a
                    # hard ceiling, not an eventually-consistent target.
                    assert engine.budget.total_bytes <= self.BUDGET
                    assert engine.cached_bytes <= self.BUDGET
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        # The workload genuinely overflows the budget (sort orders alone are
        # ~4 KiB per predicate value), so evictions must have happened.
        assert engine.stats.budget_evictions > 0
        # Byte accounting stayed exact: the incremental `.bytes` totals match
        # a from-scratch recomputation over the surviving entries.
        with engine.budget.lock:
            for cache in engine.budget._caches:
                recomputed = sum(nbytes for _, nbytes in cache._data.values())
                assert cache.bytes == recomputed
        assert engine.cached_bytes == engine.budget.total_bytes

    def test_clear_caches_zeroes_gauges_keeps_eviction_counter(self):
        engine = self.make_engine()
        engine.execute_batch(self.budget_batch())
        evictions = engine.stats.budget_evictions
        assert evictions > 0
        engine.clear_caches()
        assert engine.cached_bytes == 0
        assert engine.stats.bytes_cached == 0
        assert engine.stats.budget_evictions == evictions  # lifetime counter

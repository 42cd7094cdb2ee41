"""Thread-safety of the engine's shared state under concurrent traffic.

Nothing stops callers from hitting one shared engine from several threads
of their own (the query service's dispatcher is one more), so the
LRU predicate-mask / result caches, the group-index map and every
``EngineStats`` counter must behave under concurrency:

* **no torn stats** -- counter updates are atomic (``EngineStats.bump``
  serialises on one lock), so hammering it from many threads loses no
  increments;
* **no cross-thread cache corruption** -- the LRU caches keep their bound
  and their entries stay internally consistent while readers and writers
  interleave;
* **deterministic results** -- every ``execute_batch`` / ``execute`` /
  ``execute_plans_deduped`` call returns tables element-wise identical to
  serial execution no matter how many threads call concurrently, with exact
  accounting invariants over the result-cache counters.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import (
    EngineConfig,
    EngineStats,
    QueryEngine,
    _LRUCache,
    _value_nbytes,
)
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import ENTRY_POINTS, run_entry

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
                    func, "val", ("key",), (PredicateAtom("eq", "cat", value=value),)
                )
            )
    queries.append(PredicateAwareQuery("COUNT", "val", ("key",)))
    queries.append(PredicateAwareQuery("MODE", "val", ("key",)))
    return queries


def assert_batch_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.column_names == want.column_names
        for name in want.column_names:
            assert got.column(name) == want.column(name)


def expected_for(table: Table):
    """The batch on a fresh engine, run serially."""
    return QueryEngine(table).execute_batch(make_batch())


def batches_booked(entry: str, calls: int) -> int:
    """``batches`` a run of *calls* entry-point calls books: one per call,
    except one-query ``execute`` calls, which book none."""
    return 0 if entry == "single" else calls


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


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestConcurrentExecuteBatch:
    def stress(self, engine: QueryEngine, expected, entry: str, threads: int = N_THREADS):
        queries = make_batch()
        errors = []

        def caller():
            try:
                for _ in range(N_ROUNDS):
                    assert_batch_equal(run_entry(engine, queries, entry), expected)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=caller) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors, errors[0]

    def test_concurrent_batches_are_deterministic(self, entry):
        table = make_relevant(0)
        expected = expected_for(table)
        engine = QueryEngine(table)
        self.stress(engine, expected, entry)
        # Accounting invariant: every query of every batch was either a
        # result-cache hit or booked exactly one miss -- torn counters would
        # break this sum even when the interleaving varies run to run.
        stats = engine.stats
        total = N_THREADS * N_ROUNDS * len(make_batch())
        assert stats.result_hits + stats.result_misses == total
        assert stats.queries == stats.result_misses
        assert stats.batches == batches_booked(entry, N_THREADS * N_ROUNDS)

    @pytest.mark.parametrize("threads", (2, 3, 8))
    def test_concurrent_batches_under_one_entry_caches(self, entry, threads):
        """Every entry-bounded cache at one entry and the sort-order cache
        off: each batch evicts what the other callers just cached, and
        results and result accounting still hold at any caller count."""
        table = make_relevant(1)
        expected = expected_for(table)
        engine = QueryEngine(
            table,
            config=EngineConfig(mask_cache_size=1, result_cache_size=1, sort_cache_size=0),
        )
        self.stress(engine, expected, entry, threads=threads)
        stats = engine.stats
        total = threads * N_ROUNDS * len(make_batch())
        assert stats.result_hits + stats.result_misses == total
        assert stats.queries == stats.result_misses
        assert stats.batches == batches_booked(entry, threads * N_ROUNDS)

    def test_mask_cache_stays_bounded_and_correct(self, entry):
        """Eviction churn from many threads never corrupts mask reuse."""
        table = make_relevant(3)
        engine = QueryEngine(table, config=EngineConfig(mask_cache_size=2))
        self.stress(engine, expected_for(table), entry)
        assert engine.mask_cache_len <= 2


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("threads", (2, 3, 8))
class TestByteGaugesUnderConcurrency:
    """Each cache's byte total stays exact under concurrent traffic: no
    interleaving of hits, puts and entry-count evictions leaves ``bytes``
    out of step with the entries the cache holds, or a cache over its
    entry bound."""

    def test_byte_totals_match_the_surviving_entries(self, entry, threads):
        table = make_relevant(4, n=400)
        expected = expected_for(table)
        engine = QueryEngine(
            table,
            config=EngineConfig(mask_cache_size=2, result_cache_size=3, sort_cache_size=2),
        )
        queries = make_batch()
        errors = []

        def caller():
            try:
                for _ in range(N_ROUNDS):
                    assert_batch_equal(run_entry(engine, queries, entry), expected)
                    assert engine.mask_cache_len <= 2
                    assert engine.result_cache_len <= 3
                    assert engine.sort_cache_len <= 2
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=caller) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors, errors[0]
        caches = (engine._masks, engine._results, engine._sort_orders)
        for cache in caches:
            assert cache.bytes == sum(nbytes for _, nbytes in cache._data.values())
        assert engine.cached_bytes == sum(cache.bytes for cache in caches)


@pytest.mark.parametrize("maxsize", (1, 4, 16))
def test_lru_byte_total_is_exact_after_concurrent_puts(maxsize):
    """Concurrent puts of values of different sizes, including in-place
    updates of a live key, keep ``bytes`` equal to the held entries' costs."""
    cache = _LRUCache(maxsize=maxsize)

    def hammer(tid):
        rng = np.random.default_rng(tid)
        for i in range(400):
            size = int(rng.integers(1, 64))
            cache.put((tid % 3, i % 10), np.zeros(size, dtype=np.int64))
            assert len(cache) <= maxsize

    with ThreadPoolExecutor(max_workers=6) as pool:
        for future in [pool.submit(hammer, t) for t in range(6)]:
            future.result()
    assert len(cache) <= maxsize
    assert cache.bytes == sum(nbytes for _, nbytes in cache._data.values())


def test_concurrent_table_builds_keep_result_charges_exact():
    """Results cached on the key domain get their tables built lazily by
    whichever caller reads them first.  Six threads (more than this host's
    cores, with a short switch interval) race to build and re-charge the
    same entries: every table equals the serial one, and every entry's
    recorded charge is what it holds afterwards, tables included."""
    table = make_relevant(11)
    expected = expected_for(table)
    engine = QueryEngine(table)
    queries = make_batch()
    plans = [engine.plan(query) for query in queries]
    errors = []
    start = threading.Barrier(6)

    def caller():
        try:
            start.wait(timeout=10)
            for _ in range(N_ROUNDS):
                engine.plan_results(plans)
                assert_batch_equal(engine.execute_batch(queries), expected)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        engine.plan_results(plans)  # cached without tables
        workers = [threading.Thread(target=caller) for _ in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert not errors, errors[0]
    entries = list(engine._results._data.values())
    assert len(entries) == len(queries)
    assert all(result.has_table for result, _ in entries)
    assert all(nbytes == _value_nbytes(result) for result, nbytes in entries)
    assert engine._results.bytes == sum(nbytes for _, nbytes in entries)

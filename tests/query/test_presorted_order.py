"""Packed-key order statistics: a plan's values sorted by (group, value),
one in-place sort of ``code << 32 | rank`` keys over a per-attribute value
rank decoded through the column's values in rank order, must be bit for bit
``values[np.lexsort((values, codes))]``.

Two layers are pinned here:

* the derivation itself (:meth:`GroupedAggregator.derive_sorted_values`),
  by hypothesis properties over NaN, +-inf, -0.0/0.0, huge magnitudes and
  heavy ties, arbitrary ascending row subsets, empty filters, empty groups,
  all-NaN columns, a single group and more than 65,536 groups;
* the engine's value ranks (:meth:`QueryEngine.value_rank`): the inverse of
  ``np.argsort(kind="stable")`` with the values in that order (a hypothesis
  property over the same values), one per attribute and table generation,
  ``int32``, reported by ``presorted_bytes`` outside ``bytes_cached``, and
  never reused across a ``Table.append_rows`` that adds rows (the flush) or
  ``clear_caches()``.
"""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.grouped_kernels import GroupedAggregator
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.executor import execute_query_naive
from repro.query.query import PredicateAtom, PredicateAwareQuery

#: Value pools: a handful of values so ties are heavy, plus every float the
#: ordering has to get right (signed zeros compare equal and must keep row
#: order; infinities and the largest finite magnitudes sort at the ends; NaN
#: is stripped).
MAX = np.finfo(np.float64).max
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, MAX, -MAX, 1e300, -1e300]
VALUE = st.one_of(
    st.sampled_from(SPECIAL + [1.0, -1.0, 2.5]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
#: Group counts up to and past 65,536 (the keys' code range).
N_GROUPS = st.sampled_from([1, 2, 3, 7, 40, 1 << 16, (1 << 16) + 1, 100_000])


def value_rank(base: np.ndarray) -> np.ndarray:
    """Each row's rank in *base*'s stable value order (NaN ranks last)."""
    rank = np.empty(base.shape[0], dtype=np.int32)
    rank[np.argsort(base, kind="stable")] = np.arange(base.shape[0])
    return rank


def ranked(base: np.ndarray):
    """The reference ``(value rank, values in rank order)`` pair."""
    return value_rank(base), base[np.argsort(base, kind="stable")]


def stripped_sorted(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``values[np.lexsort((values, codes))]`` over the non-NaN rows."""
    valid = ~np.isnan(values)
    values, codes = values[valid], codes[valid]
    return values[np.lexsort((values, codes))]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def plans(draw):
    """A base column, a row filter over it and group codes for the kept rows."""
    n = draw(st.integers(0, 60))
    base = np.array(draw(st.lists(VALUE, min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):
        base[:] = np.nan  # all-NaN column
    n_groups = draw(N_GROUPS)
    filtered = draw(st.booleans())
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    rows = np.flatnonzero(mask) if filtered else None
    kept = n if rows is None else rows.shape[0]
    codes = np.array(
        draw(st.lists(st.integers(0, n_groups - 1), min_size=kept, max_size=kept)),
        dtype=np.int64,
    )
    return base, rows, codes, n_groups


@st.composite
def subset_plans(draw):
    """A base column with duplicates, an arbitrary ascending row subset of
    it (any size, any spacing) and group codes for the subset's rows."""
    pool = draw(st.lists(VALUE, min_size=1, max_size=6))
    n = draw(st.integers(0, 80))
    base = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    picked = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    rows = np.array(sorted(picked), dtype=np.int64)
    n_groups = draw(N_GROUPS)
    codes = np.array(
        draw(
            st.lists(
                st.integers(0, n_groups - 1),
                min_size=rows.shape[0],
                max_size=rows.shape[0],
            )
        ),
        dtype=np.int64,
    )
    return base, rows, codes, n_groups


class TestDerivation:
    @settings(max_examples=300, deadline=None)
    @given(plans())
    def test_derived_sorted_values_equal_lexsort_gather(self, plan):
        base, rows, codes, n_groups = plan
        values = base if rows is None else base[rows]
        aggregator = GroupedAggregator(codes, values, n_groups)
        derived = aggregator.derive_sorted_values(*ranked(base), rows)
        assert derived.dtype == np.float64
        assert same_bits(derived, stripped_sorted(values, codes))

    @settings(max_examples=300, deadline=None)
    @given(subset_plans())
    def test_packed_keys_equal_lexsort_gather_on_row_subsets(self, plan):
        """Bit for bit, over duplicates drawn from a small pool of NaN,
        signed zeros, huge magnitudes and arbitrary floats: tied -0.0 and
        0.0 keep their row order, as ``np.lexsort`` keeps it."""
        base, rows, codes, n_groups = plan
        values = base[rows]
        aggregator = GroupedAggregator(codes, values, n_groups)
        derived = aggregator.derive_sorted_values(*ranked(base), rows)
        assert same_bits(derived, stripped_sorted(values, codes))
        # The kernels read nothing else: every order statistic matches the
        # lexsort-driven path.
        for name in ("MIN", "MAX", "MEDIAN", "MODE", "COUNT_DISTINCT"):
            local = GroupedAggregator(codes, values, n_groups).compute(name)
            injected = GroupedAggregator(codes, values, n_groups)
            injected.sorted_cache = lambda compute: derived
            assert same_bits(injected.compute(name), local)

    @pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
    def test_more_groups_than_uint16_holds(self, share):
        """Codes above 65,535 must not wrap in the packed keys."""
        rng = np.random.default_rng(7)
        n = 5000
        base = rng.integers(0, 50, size=n).astype(np.float64)
        base[rng.random(n) < 0.05] = np.nan
        rows = None if share == 1.0 else np.flatnonzero(rng.random(n) < share)
        kept = n if rows is None else rows.shape[0]
        n_groups = 70_000
        codes = rng.integers(0, n_groups, size=kept)
        codes[: min(kept, 3)] = [n_groups - 1, 1 << 16, 0][: min(kept, 3)]
        values = base if rows is None else base[rows]
        aggregator = GroupedAggregator(codes, values, n_groups)
        derived = aggregator.derive_sorted_values(*ranked(base), rows)
        assert same_bits(derived, stripped_sorted(values, codes))

    def test_empty_filter_and_single_group(self):
        base = np.array([3.0, np.nan, -0.0, 0.0, 3.0, -np.inf])
        empty = np.empty(0, dtype=np.int64)
        aggregator = GroupedAggregator(empty, base[empty], 1)
        assert aggregator.derive_sorted_values(*ranked(base), empty).size == 0
        aggregator = GroupedAggregator(np.zeros(6, dtype=np.int64), base, 1)
        # One group: the stable value order over the stripped rows, with
        # -0.0 (row 2) before 0.0 (row 3) because they tie.
        derived = aggregator.derive_sorted_values(*ranked(base))
        assert same_bits(derived, [-np.inf, -0.0, 0.0, 3.0, 3.0])
        # Swapped zeros keep their own row order.
        swapped = base[[0, 1, 3, 2, 4, 5]]
        aggregator = GroupedAggregator(np.zeros(6, dtype=np.int64), swapped, 1)
        derived = aggregator.derive_sorted_values(*ranked(swapped))
        assert same_bits(derived, [-np.inf, 0.0, -0.0, 3.0, 3.0])


def make_table(n: int = 400, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(-5, 6, size=n).astype(np.float64)
    x[rng.random(n) < 0.1] = np.nan
    x[:4] = [-0.0, 0.0, np.inf, -np.inf]
    users = [f"u{i}" for i in rng.integers(0, 30, size=n)]
    cats = [str(c) for c in rng.choice(list("abc"), size=n)]
    return Table(
        [
            Column("user", users, dtype=DType.CATEGORICAL),
            Column("cat", cats, dtype=DType.CATEGORICAL),
            Column("x", x, dtype=DType.NUMERIC),
        ]
    )


def median_query(cat=None, func: str = "MEDIAN") -> PredicateAwareQuery:
    atoms = () if cat is None else (PredicateAtom("eq", "cat", value=cat),)
    return PredicateAwareQuery(func, "x", ("user",), atoms)


def appended_rows(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    x = rng.integers(-9, 9, size=n).astype(np.float64)
    x[0] = -100.0  # a new minimum: the old ranks would be wrong
    x[1] = np.nan
    return {
        "user": [f"u{i}" for i in rng.integers(0, 40, size=n)],
        "cat": [str(c) for c in rng.choice(list("abcd"), size=n)],
        "x": x,
    }


def expected_sorted(engine: QueryEngine, query: PredicateAwareQuery) -> np.ndarray:
    """The lexsort gather over the plan's filtered, NaN-stripped rows."""
    plan = engine.plan(query)
    index = engine.group_index(plan.keys)
    _, codes, _, row_idx = engine.filtered_groups(index, engine.plan_mask(plan))
    values = engine.table.column("x").values
    return stripped_sorted(values if row_idx is None else values[row_idx], codes)


def assert_ranked(pair, base: np.ndarray) -> None:
    """*pair* is the reference ``(value rank, values in rank order)``."""
    rank, by_rank = pair
    want_rank, want_by_rank = ranked(base)
    assert rank.dtype == np.int32
    assert np.array_equal(rank, want_rank)
    assert same_bits(by_rank, want_by_rank)


class RankSpy:
    """Records every ``(value rank, values in rank order)`` pair the engine
    hands to a derivation."""

    def __init__(self, engine: QueryEngine):
        self.used = []
        original = engine.value_rank

        def value_rank(attr):
            rank = original(attr)
            self.used.append((engine.table.version, rank))
            return rank

        engine.value_rank = value_rank


def numpy_engine(table: Table, **overrides) -> QueryEngine:
    return QueryEngine(table, config=EngineConfig(**overrides))


#: Columns the engine ranks: heavy ties, signed zeros, infinities, NaN.
RANK_COLUMNS = st.lists(VALUE, max_size=80)


class TestEngineValueRank:
    @settings(max_examples=200, deadline=None)
    @given(RANK_COLUMNS)
    def test_ranks_invert_the_stable_argsort(self, xs):
        """The engine's ranks are the inverse of ``np.argsort(kind="stable")``
        and its second array the values in that order, bit for bit."""
        base = np.array(xs, dtype=np.float64)
        table = Table([Column("x", base, dtype=DType.NUMERIC)])
        assert_ranked(numpy_engine(table).value_rank("x"), base)

    def test_one_int32_rank_per_attribute(self):
        table = make_table()
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        engine.execute_batch([median_query(), median_query("a"), median_query("b")])
        assert engine.stats.sort_misses == 3
        assert len(spy.used) == 3
        assert all(p is spy.used[0][1] for _, p in spy.used)
        assert_ranked(spy.used[0][1], table.column("x").values)
        for cat in (None, "a", "b"):
            query = median_query(cat)
            key = engine.plan(query).sort_key("x")
            assert same_bits(engine._sort_orders.get(key), expected_sorted(engine, query))

    def test_presorted_bytes_sit_outside_bytes_cached(self):
        table = make_table()
        engine = numpy_engine(table)
        assert engine.presorted_bytes == 0
        engine.execute(median_query("a"))
        # One int32 rank and one float64 value in rank order per row, NaN
        # rows included.
        assert engine.presorted_bytes == 12 * table.num_rows
        cached = sum(engine.stats.cache_bytes.values())
        assert cached == engine.cached_bytes == engine.stats.bytes_cached
        assert set(engine.stats.cache_bytes) == {"masks", "results", "sort_orders"}
        engine.clear_caches()
        assert engine.presorted_bytes == 0

    def test_categorical_columns_lexsort(self):
        table = make_table()
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        query = PredicateAwareQuery("MODE", "cat", ("user",))
        result = engine.execute(query)
        assert engine.stats.sort_misses == 1
        assert spy.used == []
        assert engine.presorted_bytes == 0
        with pytest.raises(TypeError, match="numeric-like"):
            engine.value_rank("cat")
        naive = execute_query_naive(query, table)
        assert np.array_equal(
            result.column(result.column_names[-1]).values,
            naive.column(naive.column_names[-1]).values,
        )

    @pytest.mark.parametrize("splits", (1, 2, 4))
    def test_appends_never_reuse_an_older_rank(self, splits):
        """Each step's rows land in ``splits`` ``append_rows`` calls; the one
        flush before the next query covers every version bump."""
        table = make_table()
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        queries = [median_query(), median_query("a")]
        engine.execute_batch(queries)
        old = spy.used[-1][1]
        # A plan new to the engine misses the sort-order cache, so its
        # sorted values are derived after every append.
        unseen = [
            median_query("c"),
            median_query("b"),
            PredicateAwareQuery("MEDIAN", "x", ("cat",)),
        ]
        for step, fresh in enumerate(unseen):
            delta = appended_rows(25, seed=step)
            for part in np.array_split(np.arange(25), splits):
                table.append_rows(
                    {
                        "user": [delta["user"][i] for i in part],
                        "cat": [delta["cat"][i] for i in part],
                        "x": delta["x"][part],
                    }
                )
            spy.used.clear()
            results = engine.execute_batch(queries + [fresh])
            assert spy.used, "a miss after the append must derive its sorted values"
            current = table.column("x").values
            for version, pair in spy.used:
                assert version == table.version
                assert pair is not old
                assert_ranked(pair, current)
            for query in queries + [fresh]:
                key = engine.plan(query).sort_key("x")
                svals = engine._sort_orders.get(key)
                assert svals is not None
                assert same_bits(svals, expected_sorted(engine, query))
            for query, result in zip(queries + [fresh], results):
                naive = execute_query_naive(query, table)
                assert np.array_equal(
                    result.column(result.column_names[-1]).values,
                    naive.column(naive.column_names[-1]).values,
                    equal_nan=True,
                )
            old = spy.used[-1][1]
            assert engine.presorted_bytes == 12 * table.num_rows

    @pytest.mark.parametrize("empty_appends", (1, 2, 4))
    def test_empty_append_keeps_the_rank(self, empty_appends):
        """An empty append moves the version over bit-identical columns, so
        the ranks stay, however many of them land before the next
        query; a miss after them derives from the same one."""
        table = make_table()
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        engine.execute(median_query("a"))
        old = spy.used[-1][1]
        for _ in range(empty_appends):
            table.append_rows({"user": [], "cat": [], "x": np.empty(0)})
        spy.used.clear()
        result = engine.execute(median_query("b"))
        [(_, rank)] = spy.used
        assert rank is old
        naive = execute_query_naive(median_query("b"), table)
        assert np.array_equal(
            result.column(result.column_names[-1]).values,
            naive.column(naive.column_names[-1]).values,
            equal_nan=True,
        )

    def test_clear_caches_drops_every_rank(self):
        table = make_table()
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        engine.execute(median_query("a"))
        old = spy.used[-1][1]
        engine.clear_caches()
        assert engine.presorted_bytes == 0
        spy.used.clear()
        engine.execute(median_query("a"))
        [(_, pair)] = spy.used
        assert pair is not old
        assert_ranked(pair, table.column("x").values)
        assert engine.stats.sort_misses == 2

    def test_plans_leave_no_reference_cycles(self):
        """Each plan's aggregator must be freed by reference counting: a
        cycle through its order hooks would keep every intermediate array
        alive until the cyclic collector ran, which shows as peak RSS."""
        engine = numpy_engine(make_table())
        engine.execute(median_query("a"))
        gc.collect()
        gc.disable()
        try:
            for func in ("MEDIAN", "MAD", "MODE", "ENTROPY"):
                for cat in (None, "a", "b", "c"):
                    engine.execute(median_query(cat, func))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_concurrent_callers_share_one_rank(self):
        """More threads than cores derive orders at once from a cold engine,
        with fast thread switching: one rank is built and every
        result equals the naive path."""
        table = make_table(n=3000, seed=3)
        engine = numpy_engine(table)
        spy = RankSpy(engine)
        queries = [
            median_query(cat, func)
            for cat in (None, "a", "b", "c")
            for func in ("MEDIAN", "MIN", "MAX")
        ]
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def run(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = engine.execute_batch(queries[slot:] + queries[:slot])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len({id(rank) for _, rank in spy.used}) == 1
        expected = {id(query): execute_query_naive(query, table) for query in queries}
        for slot, tables in enumerate(results):
            for query, result in zip(queries[slot:] + queries[:slot], tables):
                naive = expected[id(query)]
                assert np.array_equal(
                    result.column(result.column_names[-1]).values,
                    naive.column(naive.column_names[-1]).values,
                    equal_nan=True,
                )

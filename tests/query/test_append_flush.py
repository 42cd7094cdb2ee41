"""Append-then-query must equal rebuild-from-scratch.

After any sequence of ``Table.append_rows`` calls, a warm engine must return
exactly what a fresh engine over the fully rebuilt table returns.  The
engine gets there by flushing: the first query after an append that added
rows counts every cached mask, result, sort order and group index into
``EngineStats.staleness_evictions`` and drops them
(``QueryEngine.sync_with_table``).  Results are held to **bit-for-bit**
identity, through every engine entry point (``execute_batch``, one
``execute`` per query, and ``execute_plans_deduped``; see ``_engine_paths``).

Covered append shapes: empty appends (version bump, zero-row delta), new
categorical labels, NaN / missing rows, rows creating brand-new groups, and
repeated appends between query batches.  The hypothesis property generates
the base/delta split; the fixed matrix replays one adversarial append
through every entry point under every cache profile (default caches, one-entry caches
with the sort-order cache off, and caches of a few entries that evict by LRU
recency), with the delta landing in one, two
or four ``append_rows`` calls before the next query (one flush spans every
version bump).

Also pinned here: the flush books ``staleness_evictions`` once per sync, an
empty append keeps every cache, and ``staleness_evictions`` is an ordinary
lifetime counter -- zeroed by ``reset()`` and subtracted by ``delta_since``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAtom, PredicateAwareQuery

from _engine_paths import CACHE_PROFILES, ENTRY_POINTS, run_entry

#: The adversarial delta lands in this many consecutive ``append_rows``
#: calls before the next query: one flush must cover every slice.
APPEND_SPLITS = (1, 2, 4)

#: Aggregates spanning every kernel family: accumulations (COUNT, SUM),
#: sort-order consumers (MEDIAN, MAD), moments (AVG, VAR), order statistics
#: (MIN, MAX) and the code-valued MODE.
AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR", "MODE", "MAD")

USERS = ["u0", "u1", "u2", "u3", "u4", None]
CATS = ["a", "b", "c", None]
#: Labels only the appended rows may introduce (new groups, new domains).
NEW_USERS = ["u5", "u6"]
NEW_CATS = ["zz"]


def build_table(rows) -> Table:
    """rows: list of (user, cat, x) tuples."""
    return Table(
        [
            Column("user", [r[0] for r in rows], dtype=DType.CATEGORICAL),
            Column("cat", [r[1] for r in rows], dtype=DType.CATEGORICAL),
            Column(
                "x",
                np.asarray([r[2] for r in rows], dtype=np.float64)
                if rows
                else np.empty(0, dtype=np.float64),
                dtype=DType.NUMERIC,
            ),
        ]
    )


def query_battery():
    queries = []
    for func in AGG_FUNCS:
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), (PredicateAtom("eq", "cat", value="a"),)
            )
        )
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",),
                (PredicateAtom("range", "x", low=0.2, high=0.8, dtype=DType.NUMERIC),),
            )
        )
        queries.append(PredicateAwareQuery(func, "x", ("user",)))
        queries.append(
            PredicateAwareQuery(func, "cat", ("user", "cat"))
        )
        # A label only the delta introduces: the mask rebuilt after the
        # flush must pick it up.
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), (PredicateAtom("eq", "cat", value="zz"),)
            )
        )
    return queries


def assert_tables_equal(result: Table, reference: Table, tag):
    assert result.column_names == reference.column_names, tag
    for name in result.column_names:
        got = result.column(name).values
        want = reference.column(name).values
        if result.column(name).is_numeric_like:
            assert got.shape == want.shape, (tag, name)
            assert np.array_equal(got, want, equal_nan=True), (tag, name, got, want)
        else:
            assert list(got) == list(want), (tag, name, got, want)


def assert_equivalent(results, references, tag):
    assert len(results) == len(references), tag
    for i, (result, reference) in enumerate(zip(results, references)):
        assert_tables_equal(result, reference, (tag, i))


def rebuilt_results(rows, queries):
    return QueryEngine(build_table(rows)).execute_batch(queries)


def fixed_base_rows(n: int = 240, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        (
            USERS[int(rng.integers(0, len(USERS)))],
            CATS[int(rng.integers(0, len(CATS)))],
            float(v) if v < 0.9 else float("nan"),
        )
        for v in rng.random(n)
    ]


def fixed_delta_rows(n: int = 30, seed: int = 7):
    """An adversarial delta: new labels, new groups, NaNs, missing keys."""
    rng = np.random.default_rng(seed)
    pool_users = USERS + NEW_USERS
    pool_cats = CATS + NEW_CATS
    return [
        (
            pool_users[int(rng.integers(0, len(pool_users)))],
            pool_cats[int(rng.integers(0, len(pool_cats)))],
            float(v) if v < 0.8 else float("nan"),
        )
        for v in rng.random(n)
    ]


def cached_entries(engine: QueryEngine) -> int:
    """Entries a flush drops: masks, results, sort orders, group indexes."""
    return (
        engine.mask_cache_len
        + engine.result_cache_len
        + engine.sort_cache_len
        + len(engine._indexes)
    )


def run_append_scenario(entry, cache="default", splits=1):
    """Warm an engine, append (adversarial delta in ``splits`` slices + an
    empty append), requery.  Returns the stats after the requery and the
    number of cache entries the engine held before the append."""
    base = fixed_base_rows()
    delta = fixed_delta_rows()
    table = build_table(base)
    queries = query_battery()
    engine = QueryEngine(table, config=EngineConfig(**CACHE_PROFILES[cache]))
    run_entry(engine, queries, entry)  # warm every cache layer
    held = cached_entries(engine)
    for part in np.array_split(np.arange(len(delta)), splits):
        table.append_rows(build_table([delta[i] for i in part]))
    table.append_rows({"user": [], "cat": [], "x": []})
    results = run_entry(engine, queries, entry)
    stats = engine.stats.as_dict()
    tag = (entry, cache, splits)
    assert_equivalent(results, rebuilt_results(base + delta, queries), tag)
    return stats, held


class TestAppendEquivalence:
    """Every entry point x cache profile x append split."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("cache", CACHE_PROFILES)
    @pytest.mark.parametrize("splits", APPEND_SPLITS)
    def test_flush_append_equals_rebuild(self, entry, cache, splits):
        run_append_scenario(entry, cache, splits)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_repeated_appends_between_batches(self, entry):
        base = fixed_base_rows(120, seed=3)
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(table)
        rows = list(base)
        run_entry(engine, queries, entry)
        for step in range(3):
            delta = fixed_delta_rows(10, seed=20 + step)
            table.append_rows(build_table(delta))
            rows += delta
            results = run_entry(engine, queries, entry)
            assert_equivalent(
                results, rebuilt_results(rows, queries), ("repeated", entry, step)
            )


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestFlushCounters:
    @pytest.mark.parametrize("splits", APPEND_SPLITS)
    def test_flush_books_every_held_entry_once(self, entry, splits):
        """One sync covers every version bump since the last query, and it
        books exactly the entries the engine held."""
        stats, held = run_append_scenario(entry, splits=splits)
        assert held > 0
        assert stats["staleness_evictions"] == held

    def test_empty_append_keeps_every_cache(self, entry):
        table = build_table(fixed_base_rows(60, seed=5))
        engine = QueryEngine(table)
        queries = query_battery()
        warm = run_entry(engine, queries, entry)
        table.append_rows({"user": [], "cat": [], "x": []})
        again = run_entry(engine, queries, entry)
        assert_equivalent(again, warm, "empty-append")
        stats = engine.stats
        assert stats.staleness_evictions == 0
        # The version probe resynced without touching any cache: the
        # second batch was answered entirely from the result cache.
        assert stats.result_hits >= len(queries)

    def test_sync_happens_once_per_version_bump(self, entry):
        table = build_table(fixed_base_rows(60, seed=6))
        engine = QueryEngine(table)
        queries = query_battery()
        run_entry(engine, queries, entry)
        table.append_rows(build_table(fixed_delta_rows(8, seed=9)))
        run_entry(engine, queries, entry)
        booked = engine.stats.staleness_evictions
        assert booked > 0
        run_entry(engine, queries, entry)  # no new version: no flush
        assert engine.stats.staleness_evictions == booked

    def test_staleness_evictions_is_an_ordinary_counter(self, entry):
        """``reset()`` zeroes it and ``delta_since`` subtracts it, like any
        other lifetime counter."""
        table = build_table(fixed_base_rows(60, seed=4))
        engine = QueryEngine(table)
        queries = query_battery()
        run_entry(engine, queries, entry)
        table.append_rows(build_table(fixed_delta_rows(8, seed=5)))
        run_entry(engine, queries, entry)
        first = engine.stats.staleness_evictions
        assert first > 0
        baseline = engine.stats.as_dict()
        table.append_rows(build_table(fixed_delta_rows(8, seed=6)))
        run_entry(engine, queries, entry)
        second = engine.stats.staleness_evictions - first
        assert second > 0
        delta = engine.stats.delta_since(baseline)
        assert delta["staleness_evictions"] == second
        engine.stats.reset()
        assert engine.stats.staleness_evictions == 0


# ----------------------------------------------------------------------
# Hypothesis property: arbitrary base/delta splits, every entry point.
# ----------------------------------------------------------------------
row_strategy = st.tuples(
    st.sampled_from(USERS + NEW_USERS),
    st.sampled_from(CATS + NEW_CATS),
    st.one_of(
        st.just(float("nan")),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32),
    ),
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestAppendProperty:
    @given(
        base=st.lists(row_strategy, min_size=1, max_size=40),
        deltas=st.lists(
            st.lists(row_strategy, min_size=0, max_size=12),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_append_then_query_equals_rebuild(self, entry, base, deltas):
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(table)
        rows = list(base)
        run_entry(engine, queries, entry)
        for delta in deltas:
            table.append_rows(build_table(delta))
            rows += delta
        results = run_entry(engine, queries, entry)
        assert_equivalent(results, rebuilt_results(rows, queries), ("property", entry))

"""Append-then-query must equal rebuild-from-scratch.

After any sequence of ``Table.append_rows`` calls, a warm engine must return
exactly what a fresh engine over the fully rebuilt table returns.  The
engine gets there by flushing: the first query after an append that added
rows counts every cached mask, result, sort order and group index into
``EngineStats.staleness_evictions`` and drops them
(``QueryEngine.sync_with_table``).  The in-process backends (numpy / python)
are held to **bit-for-bit** identity; the storage-owning sqlite backend,
which re-materialises its database after the flush, keeps its usual
``1e-9`` value bar.

Covered append shapes: empty appends (version bump, zero-row delta), new
categorical labels, NaN / missing rows, rows creating brand-new groups, and
repeated appends between query batches.  The hypothesis property generates
the base/delta split; the fixed matrix replays one adversarial append on
every backend under every cache profile (default caches, one-entry caches
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
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAwareQuery, WindowConstraint

BACKENDS = tuple(backend_names())
#: In-process backends: append-then-query must be bit-identical to rebuild.
EXACT_BACKENDS = ("numpy", "python")
VALUE_TOLERANCE = 1e-9
#: The adversarial delta lands in this many consecutive ``append_rows``
#: calls before the next query: one flush must cover every slice.
APPEND_SPLITS = (1, 2, 4)
#: Cache configurations the warm engine runs under before the append.
CACHE_PROFILES = {
    "default": {},
    "tight": {"mask_cache_size": 1, "result_cache_size": 1, "sort_cache_size": 0},
    "small": {"mask_cache_size": 2, "result_cache_size": 3, "sort_cache_size": 2},
}

#: Aggregates spanning every kernel family: accumulations (COUNT, SUM),
#: sort-order consumers (MEDIAN, MAD), moments (AVG, VAR), order statistics
#: (MIN, MAX), the code-valued MODE, and the parameterized families.
AGG_FUNCS = (
    "COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "VAR", "MODE", "MAD",
    "QUANTILE:0.25", "TOP_K_SHARE:2",
)

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
                func, "x", ("user",), {"cat": "a"}, {"cat": DType.CATEGORICAL}
            )
        )
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"x": (0.2, 0.8)}, {"x": DType.NUMERIC}
            )
        )
        queries.append(PredicateAwareQuery(func, "x", ("user",), {}, {}))
        queries.append(
            PredicateAwareQuery(func, "cat", ("user", "cat"), {}, {})
        )
        # IN-list including a label only the delta introduces: the mask
        # rebuilt after the flush must pick it up.
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"cat": ("a", "zz")}, {"cat": DType.CATEGORICAL}
            )
        )
        # Half-open window over the event column.
        queries.append(
            PredicateAwareQuery(
                func, "x", ("user",), {"x": WindowConstraint(0.2, 0.8)},
                {"x": DType.NUMERIC},
            )
        )
    return queries


def assert_tables_equal(result: Table, reference: Table, tolerance: float, tag):
    assert result.column_names == reference.column_names, tag
    for name in result.column_names:
        got = result.column(name).values
        want = reference.column(name).values
        if result.column(name).is_numeric_like:
            assert got.shape == want.shape, (tag, name)
            if tolerance == 0.0:
                assert np.array_equal(got, want, equal_nan=True), (tag, name, got, want)
            else:
                both_nan = np.isnan(got) & np.isnan(want)
                close = np.abs(got - want) <= tolerance
                assert bool(np.all(both_nan | close)), (tag, name, got, want)
        else:
            assert list(got) == list(want), (tag, name, got, want)


def assert_equivalent(results, references, tolerance: float, tag):
    assert len(results) == len(references), tag
    for i, (result, reference) in enumerate(zip(results, references)):
        assert_tables_equal(result, reference, tolerance, (tag, i))


def rebuilt_results(rows, backend: str, queries):
    engine = QueryEngine(build_table(rows), config=EngineConfig(backend=backend))
    try:
        return engine.execute_batch(queries)
    finally:
        engine.close()


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


def run_append_scenario(backend, cache="default", splits=1):
    """Warm an engine, append (adversarial delta in ``splits`` slices + an
    empty append), requery.  Returns the stats after the requery and the
    number of cache entries the engine held before the append."""
    base = fixed_base_rows()
    delta = fixed_delta_rows()
    table = build_table(base)
    queries = query_battery()
    config = EngineConfig(backend=backend, **CACHE_PROFILES[cache])
    engine = QueryEngine(table, config=config)
    try:
        engine.execute_batch(queries)  # warm every cache layer
        held = cached_entries(engine)
        for part in np.array_split(np.arange(len(delta)), splits):
            table.append_rows(build_table([delta[i] for i in part]))
        table.append_rows({"user": [], "cat": [], "x": []})
        results = engine.execute_batch(queries)
        stats = engine.stats.as_dict()
    finally:
        engine.close()
    tolerance = 0.0 if backend in EXACT_BACKENDS else VALUE_TOLERANCE
    tag = (backend, cache, splits)
    assert_equivalent(
        results, rebuilt_results(base + delta, backend, queries), tolerance, tag
    )
    return stats, held


class TestAppendEquivalence:
    """Every backend x cache profile x append split."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cache", CACHE_PROFILES)
    @pytest.mark.parametrize("splits", APPEND_SPLITS)
    def test_flush_append_equals_rebuild(self, backend, cache, splits):
        run_append_scenario(backend, cache, splits)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_appends_between_batches(self, backend):
        base = fixed_base_rows(120, seed=3)
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        rows = list(base)
        tolerance = 0.0 if backend in EXACT_BACKENDS else VALUE_TOLERANCE
        try:
            engine.execute_batch(queries)
            for step in range(3):
                delta = fixed_delta_rows(10, seed=20 + step)
                table.append_rows(build_table(delta))
                rows += delta
                results = engine.execute_batch(queries)
                assert_equivalent(
                    results,
                    rebuilt_results(rows, backend, queries),
                    tolerance,
                    ("repeated", backend, step),
                )
        finally:
            engine.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestFlushCounters:
    @pytest.mark.parametrize("splits", APPEND_SPLITS)
    def test_flush_books_every_held_entry_once(self, backend, splits):
        """One sync covers every version bump since the last query, and it
        books exactly the entries the engine held."""
        stats, held = run_append_scenario(backend, splits=splits)
        assert held > 0
        assert stats["staleness_evictions"] == held

    def test_empty_append_keeps_every_cache(self, backend):
        table = build_table(fixed_base_rows(60, seed=5))
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        queries = query_battery()
        try:
            warm = engine.execute_batch(queries)
            table.append_rows({"user": [], "cat": [], "x": []})
            again = engine.execute_batch(queries)
            assert_equivalent(again, warm, 0.0, "empty-append")
            stats = engine.stats
            assert stats.staleness_evictions == 0
            # The version probe resynced without touching any cache: the
            # second batch was answered entirely from the result cache.
            assert stats.result_hits >= len(queries)
        finally:
            engine.close()

    def test_sync_happens_once_per_version_bump(self, backend):
        table = build_table(fixed_base_rows(60, seed=6))
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        queries = query_battery()
        try:
            engine.execute_batch(queries)
            table.append_rows(build_table(fixed_delta_rows(8, seed=9)))
            engine.execute_batch(queries)
            booked = engine.stats.staleness_evictions
            assert booked > 0
            engine.execute_batch(queries)  # no new version: no flush
            assert engine.stats.staleness_evictions == booked
        finally:
            engine.close()

    def test_staleness_evictions_is_an_ordinary_counter(self, backend):
        """``reset()`` zeroes it and ``delta_since`` subtracts it, like any
        other lifetime counter."""
        table = build_table(fixed_base_rows(60, seed=4))
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        queries = query_battery()
        try:
            engine.execute_batch(queries)
            table.append_rows(build_table(fixed_delta_rows(8, seed=5)))
            engine.execute_batch(queries)
            first = engine.stats.staleness_evictions
            assert first > 0
            baseline = engine.stats.as_dict()
            table.append_rows(build_table(fixed_delta_rows(8, seed=6)))
            engine.execute_batch(queries)
            second = engine.stats.staleness_evictions - first
            assert second > 0
            delta = engine.stats.delta_since(baseline)
            assert delta["staleness_evictions"] == second
            engine.stats.reset()
            assert engine.stats.staleness_evictions == 0
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Hypothesis property: arbitrary base/delta splits, every backend.
# ----------------------------------------------------------------------
row_strategy = st.tuples(
    st.sampled_from(USERS + NEW_USERS),
    st.sampled_from(CATS + NEW_CATS),
    st.one_of(
        st.just(float("nan")),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=32),
    ),
)


@pytest.mark.parametrize("backend", BACKENDS)
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
    def test_append_then_query_equals_rebuild(self, backend, base, deltas):
        queries = query_battery()
        table = build_table(base)
        engine = QueryEngine(table, config=EngineConfig(backend=backend))
        rows = list(base)
        try:
            engine.execute_batch(queries)
            for delta in deltas:
                table.append_rows(build_table(delta))
                rows += delta
            results = engine.execute_batch(queries)
        finally:
            engine.close()
        tolerance = 0.0 if backend in EXACT_BACKENDS else VALUE_TOLERANCE
        assert_equivalent(
            results,
            rebuilt_results(rows, backend, queries),
            tolerance,
            ("property", backend),
        )

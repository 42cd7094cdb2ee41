"""The execution-backend API: registry, config plumbing and the engine's
state-reset contract."""

from dataclasses import replace

import numpy as np
import pytest

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import (
    BACKEND_REGISTRY,
    ExecutionBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.query.engine import (
    BACKEND_ENV_VAR,
    EngineConfig,
    EngineStats,
    QueryEngine,
    default_backend_name,
    engine_for,
)
from repro.query.executor import execute_query_naive
from repro.query.query import PredicateAwareQuery


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
        agg_func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"numpy", "python", "sqlite"} <= set(backend_names())

    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="Unknown execution backend"):
            make_backend("duckdb")

    def test_engine_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="Unknown execution backend"):
            QueryEngine(make_relevant(0), config=EngineConfig(backend="duckdb"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_backend("numpy")
            class Impostor(ExecutionBackend):
                def run_plan(self, plan):  # pragma: no cover - never runs
                    return []

    def test_third_party_backend_runs_through_the_engine(self):
        """A registered subclass is selectable by name like the built-ins."""

        @register_backend("_test_delegating")
        class Delegating(ExecutionBackend):
            """Delegates to the python reference path (registration demo)."""

            def run_plan(self, plan):
                inner = make_backend("python")
                inner.bind(self.table, engine=self.engine)
                return inner.run_plan(plan)

        try:
            table = make_relevant(0)
            engine = QueryEngine(table, config=EngineConfig(backend="_test_delegating"))
            query = query_with("a")
            assert engine.execute(query).column("feature") == execute_query_naive(
                query, table
            ).column("feature")
            assert engine.stats.backend == "_test_delegating"
        finally:
            BACKEND_REGISTRY.pop("_test_delegating", None)

    def test_backend_without_engine_refuses_shared_state(self):
        backend = make_backend("numpy")
        backend.bind(make_relevant(0))
        with pytest.raises(RuntimeError, match="owning QueryEngine"):
            backend.engine


class TestEngineConfig:
    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "numpy"
        assert EngineConfig().backend_name == "numpy"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        assert default_backend_name() == "sqlite"
        assert QueryEngine(make_relevant(0)).backend_name == "sqlite"

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend="numpy"))
        assert engine.backend_name == "numpy"

    def test_cache_sizes_flow_from_config(self):
        engine = QueryEngine(
            make_relevant(0), config=EngineConfig(mask_cache_size=4, result_cache_size=3)
        )
        for i in range(10):
            engine.execute(query_with(f"value-{i}"))
        assert engine.mask_cache_len <= 4
        assert engine.result_cache_len <= 3

    def test_cache_size_keywords_override_config(self):
        engine = QueryEngine(make_relevant(0), mask_cache_size=2)
        assert engine.config.mask_cache_size == 2

    def test_invalid_cache_sizes_rejected(self):
        with pytest.raises(ValueError):
            QueryEngine(make_relevant(0), config=EngineConfig(mask_cache_size=0))

    def test_negative_sort_cache_size_rejected(self):
        with pytest.raises(ValueError, match="sort_cache_size"):
            QueryEngine(make_relevant(0), config=EngineConfig(sort_cache_size=-1))

    def test_zero_sort_cache_size_disables_the_cache(self):
        engine = QueryEngine(make_relevant(0), config=EngineConfig(sort_cache_size=0))
        assert engine.sort_cache_len == 0

    def test_engine_for_is_keyed_by_sort_cache_size(self):
        table = make_relevant(0)
        assert engine_for(table) is not engine_for(table, EngineConfig(sort_cache_size=8))


class TestBackendValidationEagerness:
    """Unknown backend names fail at config resolution, naming the registered
    backends -- not at the first query deep inside the registry lookup."""

    def test_explicit_unknown_backend_fails_at_config_construction(self):
        with pytest.raises(ValueError, match=r"Unknown execution backend 'duckdb'.*numpy"):
            EngineConfig(backend="duckdb")

    @pytest.mark.parametrize("raw", ["garbage", "  garbage  ", "NUMPY", "numpy python"])
    def test_explicit_garbage_values_rejected(self, raw):
        with pytest.raises(ValueError, match="Unknown execution backend"):
            EngineConfig(backend=raw)

    def test_explicit_backend_whitespace_is_stripped(self):
        config = EngineConfig(backend="  sqlite  ")
        assert config.backend == "sqlite"
        assert config.backend_name == "sqlite"

    def test_blank_explicit_backend_falls_back_to_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        for raw in ("", "   "):
            config = EngineConfig(backend=raw)
            assert config.backend is None
            assert config.backend_name == "numpy"

    @pytest.mark.parametrize("raw", ["garbage", "  garbage  ", "duckdb"])
    def test_env_var_garbage_rejected_at_resolution(self, monkeypatch, raw):
        monkeypatch.setenv(BACKEND_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"REPRO_ENGINE_BACKEND.*{raw.strip()}"):
            default_backend_name()
        with pytest.raises(ValueError, match="REPRO_ENGINE_BACKEND"):
            EngineConfig().validate()
        with pytest.raises(ValueError, match="REPRO_ENGINE_BACKEND"):
            QueryEngine(make_relevant(0))

    @pytest.mark.parametrize("raw", ["", "   "])
    def test_blank_env_value_means_the_numpy_default(self, monkeypatch, raw):
        monkeypatch.setenv(BACKEND_ENV_VAR, raw)
        assert default_backend_name() == "numpy"

    def test_whitespace_env_value_parses(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  sqlite  ")
        assert default_backend_name() == "sqlite"

    def test_feataug_config_validates_env_backend_eagerly(self, monkeypatch):
        from repro.core.config import FeatAugConfig

        monkeypatch.setenv(BACKEND_ENV_VAR, "garbage")
        with pytest.raises(ValueError, match="REPRO_ENGINE_BACKEND"):
            FeatAugConfig().validate()
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="Unknown execution backend"):
            FeatAugConfig(engine_backend="garbage").validate()


class TestEngineForConfig:
    def test_shared_per_table_and_config(self):
        table = make_relevant(0)
        default = engine_for(table)
        assert engine_for(table) is default
        assert engine_for(table, EngineConfig()) is default
        # A backend other than the process default gets its own engine.
        other_name = next(n for n in ("sqlite", "numpy") if n != default_backend_name())
        other = engine_for(table, EngineConfig(backend=other_name))
        assert other is not default
        assert engine_for(table, EngineConfig(backend=other_name)) is other

    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend", "python"),
            ("backend", "sqlite"),
            ("mask_cache_size", 7),
            ("mask_cache_size", 1),
            ("result_cache_size", 7),
            ("result_cache_size", 1),
            ("sort_cache_size", 0),
            ("sort_cache_size", 1),
        ],
    )
    def test_every_cache_key_field_selects_its_own_engine(self, field, value):
        table = make_relevant(0)
        base = EngineConfig(backend="numpy")
        changed = replace(base, **{field: value})
        assert changed.cache_key() != base.cache_key()
        shared = engine_for(table, base)
        other = engine_for(table, changed)
        assert other is not shared
        assert engine_for(table, changed) is other

    def test_registry_engines_never_cross_tables(self):
        a, b = make_relevant(0), make_relevant(1)
        assert engine_for(a, EngineConfig(backend="sqlite")) is not engine_for(
            b, EngineConfig(backend="sqlite")
        )


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
            ({"backend": "no-such-backend"}, "Unknown execution backend"),
        ],
    )
    def test_out_of_range_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EngineConfig(**kwargs).validate()
        with pytest.raises(ValueError, match=message):
            QueryEngine(make_relevant(0), config=EngineConfig(**kwargs))

    def test_disabled_sort_cache_is_valid(self):
        EngineConfig(sort_cache_size=0).validate()


class TestStateResetContract:
    """clear_caches keeps counters; stats.reset keeps identity; reset = both."""

    def warmed_engine(self, backend: str) -> QueryEngine:
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend=backend))
        engine.execute_batch(
            [
                query_with("a"),
                query_with("a", "AVG"),
                query_with("a", "MEDIAN"),  # warms the sort-order cache (numpy)
                query_with("b"),
            ]
        )
        engine.execute(query_with("a"))  # result-cache hit
        return engine

    @pytest.mark.parametrize("backend", ["numpy", "sqlite"])
    def test_clear_caches_drops_state_but_keeps_counters(self, backend):
        engine = self.warmed_engine(backend)
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

    def test_clear_caches_resets_backend_materialisation(self):
        engine = self.warmed_engine("sqlite")
        assert engine.backend._conn is not None
        engine.clear_caches()
        assert engine.backend._conn is None  # re-materialised on next plan
        engine.execute(query_with("a"))
        assert engine.backend._conn is not None

    @pytest.mark.parametrize("backend", ["numpy", "sqlite"])
    def test_stats_reset_zeroes_counters_but_keeps_identity(self, backend):
        engine = self.warmed_engine(backend)
        cached = engine.cached_bytes
        engine.stats.reset()
        fresh = QueryEngine(make_relevant(1), config=EngineConfig(backend=backend))
        # Counters and identity replay a fresh engine's; the byte gauges
        # survive the reset -- they describe the still-warm caches, which a
        # counter reset does not touch (engine.reset() clears caches first).
        gauges = set(EngineStats.GAUGE_FIELDS)
        assert {k: v for k, v in engine.stats.as_dict().items() if k not in gauges} == {
            k: v for k, v in fresh.stats.as_dict().items() if k not in gauges
        }
        assert engine.stats.backend == backend
        assert engine.stats.bytes_cached == cached

    @pytest.mark.parametrize("backend", ["numpy", "python", "sqlite"])
    def test_reset_restores_a_fresh_engine_trajectory(self, backend):
        """After reset, the counter trajectory replays a fresh engine's."""
        queries = [query_with("a"), query_with("a", "AVG"), query_with("b")]
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend=backend))
        engine.execute_batch(queries)
        engine.reset()
        engine.execute_batch(queries)
        fresh = QueryEngine(make_relevant(0), config=EngineConfig(backend=backend))
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


class TestStatsBackendSplit:
    @pytest.mark.parametrize("backend", ["numpy", "python", "sqlite"])
    def test_backend_name_and_seconds_exposed(self, backend):
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend=backend))
        engine.execute(query_with("a"))
        stats = engine.stats.as_dict()
        assert stats["backend"] == backend
        assert set(stats["backend_seconds"]) == {backend}
        assert stats["backend_seconds"][backend] >= 0.0
        assert stats["kernel_seconds"]["SUM"] >= 0.0

    def test_sqlite_timing_stays_out_of_the_aggregation_phase(self):
        """One SQL statement fuses filter+group+aggregate, so its time must
        not pollute the aggregation-phase counter the in-process kernels
        compare on (it lands in kernel_seconds / backend_seconds instead)."""
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend="sqlite"))
        engine.execute(query_with("a"))
        assert engine.stats.seconds_aggregating == 0.0
        assert engine.stats.kernel_seconds["SUM"] > 0.0
        assert engine.stats.backend_seconds["sqlite"] > 0.0

    def test_sqlite_owns_filtering_and_grouping(self):
        """The sqlite backend never touches the engine's mask cache or group
        index -- it runs generated SQL against its own storage."""
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend="sqlite"))
        engine.execute(query_with("a"))
        assert engine.stats.mask_hits == engine.stats.mask_misses == 0
        assert engine.stats.group_index_builds == 0
        assert engine.backend.last_sql  # the plan ran as generated SQL
        assert any("GROUP BY" in sql for sql in engine.backend.last_sql)

    def test_sqlite_native_aggregates_run_in_sql(self):
        engine = QueryEngine(make_relevant(0), config=EngineConfig(backend="sqlite"))
        engine.execute(PredicateAwareQuery("SUM", "val", ("key",)))
        assert any("SUM(" in sql for sql in engine.backend.last_sql)
        engine.execute(PredicateAwareQuery("COUNT_DISTINCT", "val", ("key",)))
        assert any("COUNT(DISTINCT" in sql for sql in engine.backend.last_sql)


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

"""Unit tests for the FeatAug facade."""

import numpy as np
import pytest

from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug


@pytest.fixture
def facade(tiny_student, fast_config):
    bundle = tiny_student
    return FeatAug(
        label=bundle.label_col,
        keys=bundle.keys,
        task=bundle.task,
        model="LR",
        config=fast_config,
    )


class TestFeatAugFacade:
    def test_augment_with_template_identification(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs,
        )
        assert len(result.queries) >= 1
        assert result.augmented_table.num_rows == bundle.train.num_rows
        for name in result.feature_names:
            assert name in result.augmented_table

    def test_augment_with_explicit_template_skips_qti(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type", "level"], agg_attrs=bundle.agg_attrs,
        )
        assert result.qti_seconds == 0.0
        assert len(result.templates) == 1
        assert result.templates[0].template.predicate_attrs == ("event_type", "level")

    def test_apply_reproduces_features_on_same_table(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        reapplied = result.apply(bundle.train)
        for name in result.feature_names:
            original = result.augmented_table.column(name).values
            recomputed = reapplied.column(name).values
            both_nan = np.isnan(original) & np.isnan(recomputed)
            assert np.all((original == recomputed) | both_nan)

    def test_sql_listing(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        sql = result.sql()
        assert len(sql) == len(result.queries)
        assert all("GROUP BY" in s for s in sql)

    def test_n_features_respected(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=3,
        )
        assert len(result.queries) <= 3

    def test_missing_attrs_raises(self, facade, tiny_student):
        bundle = tiny_student
        with pytest.raises(ValueError):
            facade.augment(bundle.train, bundle.relevant)

    def test_no_qti_config_requires_candidate_attrs(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR",
            config=fast_config.with_overrides(use_template_identification=False),
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        # Without QTI all candidate attributes form a single template.
        assert len(result.templates) == 1
        assert set(result.templates[0].template.predicate_attrs) == set(bundle.candidate_attrs)

    def test_default_agg_attrs_are_numeric_columns(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=fast_config
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], n_features=2,
        )
        numeric = {
            n for n in bundle.relevant.column_names
            if n not in bundle.keys and bundle.relevant.column(n).is_numeric_like
        }
        assert set(result.templates[0].template.agg_attrs) == numeric

    def test_engine_stats_expose_backend(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        from repro.query.engine import default_backend_name

        assert result.engine_stats["backend"] == default_backend_name()
        # The engine is shared per table, so earlier runs may have warmed the
        # result cache: count executed and cache-served queries together.
        assert result.engine_stats["queries"] + result.engine_stats["result_hits"] > 0
        assert default_backend_name() in result.engine_stats["backend_seconds"]

    def test_engine_backend_config_selects_the_backend(self, tiny_student, fast_config):
        """FeatAugConfig.engine_backend is threaded through to the engine."""
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR",
            config=fast_config.with_overrides(engine_backend="python"),
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=1,
        )
        assert result.engine_stats["backend"] == "python"
        assert result.engine_stats["backend_seconds"].get("python", 0.0) > 0.0

    def test_unknown_engine_backend_rejected(self, fast_config):
        with pytest.raises(ValueError):
            fast_config.with_overrides(engine_backend="duckdb")

    def test_timings_accumulate(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        assert result.qti_seconds > 0
        assert result.warmup_seconds > 0
        assert result.generate_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.qti_seconds + result.warmup_seconds + result.generate_seconds
        )

    def test_regression_task(self, tiny_merchant, fast_config):
        bundle = tiny_merchant
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=fast_config
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        assert len(result.queries) >= 1
        assert all(np.isfinite(g.loss) for g in result.queries)

    def test_string_model_name_accepted(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(label=bundle.label_col, keys=bundle.keys, task="binary", model="RF", config=fast_config)
        assert feataug.model is not None

"""Unit tests for the FeatAug facade."""

import numpy as np
import pytest

from repro.core.feataug import VALIDATION_FRACTION, FeatAug
from repro.core.sql_generation import GeneratedQuery
from repro.query.query import PredicateAtom, PredicateAwareQuery


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

    def test_engine_stats_report_this_runs_traffic(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        from repro.query.engine import EngineStats

        assert set(result.engine_stats) == set(EngineStats().as_dict())
        # The engine is shared per table, so earlier runs may have warmed the
        # result cache: count executed and cache-served queries together.
        assert result.engine_stats["queries"] + result.engine_stats["result_hits"] > 0
        assert result.engine_stats["seconds_aggregating"] >= 0.0

    def test_run_uses_the_shared_engine_of_the_relevant_table(self, tiny_student, fast_config):
        """The run's traffic lands on ``engine_for(relevant)``, the engine
        every other component touching the table shares."""
        from repro.query.engine import engine_for

        bundle = tiny_student
        engine = engine_for(bundle.relevant)
        before = engine.stats.queries + engine.stats.result_hits
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR",
            config=fast_config,
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=1,
        )
        served = result.engine_stats["queries"] + result.engine_stats["result_hits"]
        assert served > 0
        assert engine.stats.queries + engine.stats.result_hits == before + served

    def test_engine_backend_is_not_a_config_field(self, fast_config):
        with pytest.raises(TypeError):
            fast_config.with_overrides(engine_backend="numpy")

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


class TestValidationSplit:
    def test_search_holds_out_a_quarter_of_the_training_rows(self, facade, tiny_student):
        """The search scores on ``VALIDATION_FRACTION`` of the training
        table (the paper's D_valid), split by the config's seed."""
        from repro.ml.preprocessing import train_valid_test_split

        bundle = tiny_student
        evaluator = facade._build_evaluator(bundle.train, bundle.relevant)
        fit, valid, _ = train_valid_test_split(
            bundle.train, (0.75, 0.25, 0.0), seed=facade.config.seed
        )
        assert VALIDATION_FRACTION == 0.25
        assert valid.num_rows == round(0.25 * bundle.train.num_rows) > 0
        assert evaluator._train_table.num_rows == fit.num_rows
        assert evaluator._valid_table.num_rows == valid.num_rows
        for name in bundle.keys:
            assert evaluator._valid_table.column(name) == valid.column(name)


def generated(loss, atoms=()):
    query = PredicateAwareQuery("MAD", "hover_duration", ("session_id",), atoms)
    return GeneratedQuery(query=query, loss=loss, metric=-loss)


class TestDedupe:
    def test_unpredicated_queries_from_different_templates_are_one_feature(self):
        """The query identity is the SQL it computes, so the WHERE-less
        queries that two templates over different attributes both propose
        are one feature, with the lower loss."""
        unique = FeatAug._dedupe([generated(0.3), generated(0.2)])
        assert [g.loss for g in unique] == [0.2]

    def test_same_query_keeps_the_lowest_loss(self):
        level_1 = PredicateAtom("eq", "level", value=1)
        unique = FeatAug._dedupe([
            generated(0.5, (level_1,)),
            generated(0.1, (level_1,)),
            generated(0.3),
        ])
        assert [g.loss for g in unique] == [0.1, 0.3]

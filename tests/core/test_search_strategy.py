"""Unit tests for the pluggable pool-search strategy (TPE vs random)."""

import pytest

from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug
from repro.hpo.random_search import RandomSearchOptimizer
from repro.hpo.tpe import TPEOptimizer


class TestSearchStrategyConfig:
    def test_default_is_tpe(self):
        assert FeatAugConfig().search_strategy == "tpe"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            FeatAugConfig(search_strategy="grid").validate()

    def test_generator_uses_random_optimizer(self, tiny_student, fast_config):
        from repro.core.evaluation import ModelEvaluator
        from repro.core.sql_generation import SQLQueryGenerator
        from repro.ml.model_zoo import make_model
        from repro.ml.preprocessing import train_valid_test_split
        from repro.query.template import QueryTemplate

        bundle = tiny_student
        train, valid, _ = train_valid_test_split(bundle.train, (0.75, 0.25, 0.0), seed=0)
        evaluator = ModelEvaluator(
            train, valid, label=bundle.label_col, base_features=["grade", "prior_accuracy"],
            model=make_model("LR", "binary"), task="binary", relevant_table=bundle.relevant,
        )
        template = QueryTemplate(["SUM", "AVG"], bundle.agg_attrs, ["event_type"], bundle.keys)
        random_config = fast_config.with_overrides(search_strategy="random")
        tpe_config = fast_config.with_overrides(search_strategy="tpe")
        random_generator = SQLQueryGenerator(template, bundle.relevant, evaluator, config=random_config)
        tpe_generator = SQLQueryGenerator(template, bundle.relevant, evaluator, config=tpe_config)
        assert isinstance(random_generator._make_optimizer(0), RandomSearchOptimizer)
        assert isinstance(tpe_generator._make_optimizer(0), TPEOptimizer)

    def test_tpe_generator_runs_at_the_optimizer_defaults(self, tiny_student, fast_config):
        """The generator passes no TPE shape knobs: every pool search uses
        ``TPEOptimizer``'s own gamma and candidate count."""
        from repro.core.evaluation import ModelEvaluator
        from repro.core.sql_generation import SQLQueryGenerator
        from repro.ml.model_zoo import make_model
        from repro.ml.preprocessing import train_valid_test_split
        from repro.query.template import QueryTemplate

        bundle = tiny_student
        train, valid, _ = train_valid_test_split(bundle.train, (0.75, 0.25, 0.0), seed=0)
        evaluator = ModelEvaluator(
            train, valid, label=bundle.label_col, base_features=["grade"],
            model=make_model("LR", "binary"), task="binary", relevant_table=bundle.relevant,
        )
        template = QueryTemplate(["SUM"], bundle.agg_attrs, ["event_type"], bundle.keys)
        generator = SQLQueryGenerator(template, bundle.relevant, evaluator, config=fast_config)
        optimizer = generator._make_optimizer(0)
        reference = TPEOptimizer(generator.pool.space)
        assert (optimizer.gamma, optimizer.n_candidates) == (0.15, 24)
        assert (optimizer.gamma, optimizer.n_candidates) == (
            reference.gamma, reference.n_candidates
        )
        assert optimizer.n_startup_trials == fast_config.tpe_startup_trials

    def test_end_to_end_with_random_strategy(self, tiny_student, fast_config):
        bundle = tiny_student
        config = fast_config.with_overrides(search_strategy="random")
        feataug = FeatAug(label=bundle.label_col, keys=bundle.keys, task="binary", model="LR", config=config)
        result = feataug.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        assert len(result.queries) >= 1

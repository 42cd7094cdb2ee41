"""Unit tests for the SQL Query Generation component (TPE + warm-up)."""

import numpy as np
import pytest

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.sql_generation import SQLQueryGenerator
from repro.dataframe.table import Table
from repro.hpo.random_search import RandomSearchOptimizer
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegression
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.preprocessing import train_valid_test_split
from repro.query.template import QueryTemplate


@pytest.fixture(scope="module")
def planted_setup():
    """Label depends on SUM(amount) restricted to category == 'target'.

    Only a predicate-aware query can expose the full signal, which is the
    scenario the SQL-generation component is designed for.
    """
    rng = np.random.default_rng(7)
    n_users = 260
    users = [f"u{i}" for i in range(n_users)]
    base = rng.normal(size=n_users)
    n_events = n_users * 8
    event_users = list(rng.choice(users, size=n_events))
    categories = list(rng.choice(["target", "other_a", "other_b", "other_c"], size=n_events))
    amount = rng.normal(1.0, 1.0, size=n_events)
    totals = {u: 0.0 for u in users}
    for u, c, a in zip(event_users, categories, amount):
        if c == "target":
            totals[u] += a
    signal = np.asarray([totals[u] for u in users])
    label = (signal + 0.2 * base + rng.normal(0, 0.5, size=n_users) > np.median(signal)).astype(float)

    train_table = Table.from_dict({"uid": users, "base": base, "label": label})
    relevant = Table.from_dict({"uid": event_users, "category": categories, "amount": amount})
    train, valid, _ = train_valid_test_split(train_table, (0.7, 0.3, 0.0), seed=0)
    evaluator = ModelEvaluator(
        train, valid, label="label", base_features=["base"],
        model=LogisticRegression(n_iter=120), task="binary", relevant_table=relevant,
    )
    template = QueryTemplate(["SUM", "AVG", "COUNT"], ["amount"], ["category"], ["uid"])
    return template, relevant, evaluator


@pytest.fixture
def fast_generation_config():
    return FeatAugConfig(
        warmup_iterations=15,
        warmup_top_k=5,
        search_iterations=8,
        tpe_startup_trials=4,
        seed=0,
    )


class TestSQLQueryGenerator:
    def test_generate_returns_requested_count(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        results = generator.generate(n_queries=3)
        assert 1 <= len(results) <= 3

    def test_results_sorted_by_loss(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        results = generator.generate(n_queries=3)
        losses = [r.loss for r in results]
        assert losses == sorted(losses)

    def test_results_unique_signatures(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        results = generator.generate(n_queries=4)
        signatures = [r.query.signature() for r in results]
        assert len(signatures) == len(set(signatures))

    def test_best_query_beats_baseline(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        best = generator.generate(n_queries=1)[0]
        baseline = evaluator.evaluate_baseline()
        assert best.metric > baseline.metric

    def test_report_timings_populated(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        generator.generate(n_queries=1)
        assert generator.report.warmup_seconds > 0
        assert generator.report.generate_seconds > 0
        assert generator.report.n_proxy_evaluations == fast_generation_config.warmup_iterations
        assert generator.report.n_model_evaluations >= fast_generation_config.warmup_top_k

    def test_no_warmup_spends_budget_on_real_iterations(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        config = fast_generation_config.with_overrides(use_warmup=False)
        generator = SQLQueryGenerator(template, relevant, evaluator, config=config)
        generator.generate(n_queries=1)
        assert generator.report.n_proxy_evaluations == 0
        expected_real = config.search_iterations + config.warmup_top_k
        assert generator.report.n_model_evaluations == expected_real

    def test_best_loss_history_monotone_nonincreasing(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        generator.generate(n_queries=1)
        history = generator.report.best_loss_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_best_proxy_score_positive_for_planted_signal(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        assert generator.best_proxy_score(n_iterations=8) > 0.0

    def test_best_real_score_bounded(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        score = generator.best_real_score(n_iterations=4)
        assert -1.0 <= score <= 0.0  # negated (1 - AUC) loss

    def test_generated_queries_reference_template_attributes(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        generator = SQLQueryGenerator(template, relevant, evaluator, config=fast_generation_config)
        for result in generator.generate(n_queries=3):
            assert result.query.agg_attr in template.agg_attrs
            assert result.query.agg_func in template.agg_funcs


class TestBatchedSearchLoop:
    """The ask/tell batch protocol driving the generator's search."""

    def test_counters_are_logical_at_any_batch_size(self, planted_setup, fast_generation_config):
        """Every suggested candidate counts as one evaluation, batched or not."""
        template, relevant, evaluator = planted_setup
        config = fast_generation_config.with_overrides(search_batch_size=8)
        generator = SQLQueryGenerator(template, relevant, evaluator, config=config)
        generator.generate(n_queries=1)
        assert generator.report.n_proxy_evaluations == config.warmup_iterations
        assert generator.report.n_model_evaluations == config.search_iterations + config.warmup_top_k

    def test_history_length_independent_of_batch_size(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        config = fast_generation_config.with_overrides(search_batch_size=6)
        generator = SQLQueryGenerator(template, relevant, evaluator, config=config)
        generator.generate(n_queries=1)
        history = generator.report.best_loss_history
        assert len(history) == config.search_iterations
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_fixed_seed_batched_run_is_deterministic(self, planted_setup, fast_generation_config):
        template, relevant, evaluator = planted_setup
        config = fast_generation_config.with_overrides(search_batch_size=5)

        def run():
            generator = SQLQueryGenerator(template, relevant, evaluator, config=config)
            results = generator.generate(n_queries=3)
            return (
                [(r.query.signature(), r.loss) for r in results],
                generator.report.best_loss_history,
            )

        assert run() == run()

    def test_dedup_never_executes_a_signature_twice(self, planted_setup, fast_generation_config):
        """In-batch and cross-round duplicates are answered from the memo."""
        template, relevant, evaluator = planted_setup
        config = fast_generation_config.with_overrides(search_batch_size=8)
        generator = SQLQueryGenerator(template, relevant, evaluator, config=config)

        executed_batches = []
        original = evaluator.feature_vectors_for_queries

        def recording(queries, *args, **kwargs):
            executed_batches.append([q.signature() for q in queries])
            return original(queries, *args, **kwargs)

        evaluator.feature_vectors_for_queries = recording
        try:
            generator.generate(n_queries=1)
        finally:
            evaluator.feature_vectors_for_queries = original

        for batch in executed_batches:
            assert len(batch) == len(set(batch))
        n_executed = sum(len(batch) for batch in executed_batches)
        report = generator.report
        assert n_executed == (report.n_proxy_evaluations - report.n_proxy_dedup_hits) + (
            report.n_model_evaluations - report.n_model_dedup_hits
        )

    def test_batch_size_one_matches_default_run(self, planted_setup, fast_generation_config):
        """search_batch_size=1 is exactly the classic sequential trajectory."""
        template, relevant, evaluator = planted_setup

        def run(config):
            generator = SQLQueryGenerator(template, relevant, evaluator, config=config)
            results = generator.generate(n_queries=3)
            # NaN proxy scores (query never seen in warm-up) are normalised
            # because NaN != NaN would fail an otherwise identical trajectory.
            return (
                [
                    (r.query.signature(), r.loss, None if np.isnan(r.proxy_score) else r.proxy_score)
                    for r in results
                ],
                generator.report.best_loss_history,
            )

        explicit = fast_generation_config.with_overrides(search_batch_size=1)
        assert run(fast_generation_config) == run(explicit)

    @pytest.mark.parametrize(
        "model",
        [
            LogisticRegression(n_iter=120),
            DecisionTreeClassifier(max_depth=3),
            RandomForestClassifier(n_estimators=4, max_depth=3, random_state=0),
        ],
        ids=["LR", "tree", "RF"],
    )
    def test_batched_losses_equal_separate_evaluations(self, planted_setup, model):
        """One batched objective call gives each candidate the loss of its own
        ``evaluate_matrix`` call, whichever model trains."""
        template, relevant, planted = planted_setup
        evaluator = ModelEvaluator(
            planted._train_table, planted._valid_table, label="label", base_features=["base"],
            model=model, task="binary", relevant_table=relevant,
        )
        generator = SQLQueryGenerator(template, relevant, evaluator, config=FeatAugConfig(seed=3))
        params = RandomSearchOptimizer(generator.pool.space, seed=5).suggest_batch(12)
        losses = generator._model_objective_batch(params)
        queries = [generator.pool.decode(p) for p in params]
        train_vecs, valid_vecs = evaluator.feature_vectors_for_queries(queries, relevant)
        for loss, train_vec, valid_vec in zip(losses, train_vecs, valid_vecs):
            assert loss == evaluator.evaluate_matrix(train_vec, valid_vec).loss
        assert len(set(losses)) > 1

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            FeatAugConfig(search_batch_size=0).validate()

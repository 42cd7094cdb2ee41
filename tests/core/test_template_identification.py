"""Unit tests for the Query Template Identification component (beam search)."""

import numpy as np
import pytest

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.template_identification import QueryTemplateIdentifier
from repro.dataframe.table import Table
from repro.ml.linear import LogisticRegression
from repro.ml.preprocessing import train_valid_test_split


@pytest.fixture(scope="module")
def qti_setup():
    """Planted signal visible only through the 'category' attribute.

    The candidate attribute set contains 'category' plus pure-noise attributes;
    a correct identification should rank templates containing 'category' high.
    """
    rng = np.random.default_rng(11)
    n_users = 220
    users = [f"u{i}" for i in range(n_users)]
    base = rng.normal(size=n_users)
    n_events = n_users * 6
    event_users = list(rng.choice(users, size=n_events))
    category = list(rng.choice(["hit", "miss_a", "miss_b"], size=n_events))
    noise_attr = list(rng.choice(["x", "y", "z"], size=n_events))
    amount = rng.normal(1.0, 1.0, size=n_events)
    totals = {u: 0.0 for u in users}
    for u, c, a in zip(event_users, category, amount):
        if c == "hit":
            totals[u] += a
    signal = np.asarray([totals[u] for u in users])
    label = (signal + rng.normal(0, 0.4, size=n_users) > np.median(signal)).astype(float)

    train_table = Table.from_dict({"uid": users, "base": base, "label": label})
    relevant = Table.from_dict(
        {"uid": event_users, "category": category, "noise_attr": noise_attr, "amount": amount}
    )
    train, valid, _ = train_valid_test_split(train_table, (0.7, 0.3, 0.0), seed=0)
    evaluator = ModelEvaluator(
        train, valid, label="label", base_features=["base"],
        model=LogisticRegression(n_iter=100), task="binary", relevant_table=relevant,
    )
    return relevant, evaluator


@pytest.fixture
def qti_config():
    return FeatAugConfig(
        beam_width=1,
        max_template_depth=2,
        template_proxy_iterations=8,
        template_real_iterations=3,
        tpe_startup_trials=3,
        seed=0,
    )


def make_identifier(qti_setup, config):
    relevant, evaluator = qti_setup
    return QueryTemplateIdentifier(
        relevant, evaluator, agg_attrs=["amount"], keys=["uid"],
        agg_funcs=["SUM", "AVG", "COUNT"], config=config,
    )


class TestBeamSearch:
    def test_returns_requested_number(self, qti_setup, qti_config):
        identifier = make_identifier(qti_setup, qti_config)
        results = identifier.identify(["category", "noise_attr"], n_templates=2)
        assert len(results) == 2

    def test_results_sorted_by_score(self, qti_setup, qti_config):
        identifier = make_identifier(qti_setup, qti_config)
        results = identifier.identify(["category", "noise_attr"], n_templates=3)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_signal_attribute_ranked_first(self, qti_setup, qti_config):
        identifier = make_identifier(qti_setup, qti_config)
        results = identifier.identify(["category", "noise_attr"], n_templates=2)
        assert "category" in results[0].template.predicate_attrs

    def test_report_counts_evaluations(self, qti_setup, qti_config):
        identifier = make_identifier(qti_setup, qti_config)
        identifier.identify(["category", "noise_attr"], n_templates=2)
        assert identifier.report.n_evaluated_templates >= 2
        assert identifier.report.seconds > 0

    def test_report_engine_stats_carry_every_counter(self, qti_setup, qti_config):
        from repro.query.engine import EngineStats

        identifier = make_identifier(qti_setup, qti_config)
        identifier.identify(["category", "noise_attr"], n_templates=2)
        stats = identifier.report.engine_stats
        assert set(stats) == set(EngineStats().as_dict())
        # The engine is shared per table: earlier tests may have warmed the
        # result cache, so count executed and cache-served queries together.
        assert stats["queries"] + stats["result_hits"] > 0
        assert all(seconds >= 0.0 for seconds in stats["kernel_seconds"].values())

    def test_beam_explores_fewer_templates_than_brute_force(self, qti_setup, qti_config):
        """The cost reduction claimed in Section VI.B/VI.C: brute force
        scores every non-empty attribute subset, ``2**n - 1`` templates."""
        config = qti_config.with_overrides(beam_width=1, max_template_depth=2)
        candidate_attrs = ["category", "noise_attr", "amount"]
        beam = make_identifier(qti_setup, config)
        beam.identify(candidate_attrs, n_templates=2)
        assert beam.report.n_evaluated_templates <= 2 ** len(candidate_attrs) - 1

    def test_predictor_pruning_reduces_evaluations(self, qti_setup, qti_config):
        candidate_attrs = ["category", "noise_attr", "amount"]
        with_pred = make_identifier(qti_setup, qti_config.with_overrides(use_template_predictor=True, beam_width=1, max_template_depth=3))
        with_pred.identify(candidate_attrs, n_templates=2)
        without_pred = make_identifier(qti_setup, qti_config.with_overrides(use_template_predictor=False, beam_width=1, max_template_depth=3))
        without_pred.identify(candidate_attrs, n_templates=2)
        assert with_pred.report.n_evaluated_templates <= without_pred.report.n_evaluated_templates

    def test_real_evaluation_mode_runs(self, qti_setup, qti_config):
        config = qti_config.with_overrides(use_low_cost_proxy=False)
        identifier = make_identifier(qti_setup, config)
        results = identifier.identify(["category"], n_templates=1)
        assert len(results) == 1

    def test_empty_candidate_attrs_raises(self, qti_setup, qti_config):
        identifier = make_identifier(qti_setup, qti_config)
        with pytest.raises(ValueError):
            identifier.identify([], n_templates=1)

    def test_layer_depth_bounded(self, qti_setup, qti_config):
        config = qti_config.with_overrides(max_template_depth=1)
        identifier = make_identifier(qti_setup, config)
        results = identifier.identify(["category", "noise_attr"], n_templates=4)
        assert all(len(r.template.predicate_attrs) == 1 for r in results)

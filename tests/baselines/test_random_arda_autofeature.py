"""Unit tests for the Random, ARDA and AutoFeature baselines."""

import numpy as np
import pytest

from repro.baselines.arda import ARDA
from repro.baselines.autofeature import AutoFeatureDQN, AutoFeatureMAB
from repro.baselines.random_baseline import RandomAugmenter
from repro.core.evaluation import ModelEvaluator
from repro.dataframe.table import Table
from repro.ml.linear import LogisticRegression
from repro.ml.preprocessing import train_valid_test_split


class TestRandomAugmenter:
    def test_generates_requested_count(self, logs_table):
        augmenter = RandomAugmenter(
            keys=["cname"], agg_attrs=["pprice"], n_templates=3, queries_per_template=4, seed=0
        )
        queries = augmenter.generate(logs_table, ["department", "pname", "timestamp"])
        assert len(queries) == 12

    def test_queries_are_executable(self, logs_table):
        from repro.query.executor import execute_query

        augmenter = RandomAugmenter(keys=["cname"], agg_attrs=["pprice"], n_templates=2, queries_per_template=2, seed=1)
        for query in augmenter.generate(logs_table, ["department", "timestamp"]):
            result = execute_query(query, logs_table)
            assert "feature" in result

    def test_deterministic_given_seed(self, logs_table):
        def run(seed):
            augmenter = RandomAugmenter(keys=["cname"], agg_attrs=["pprice"], n_templates=2, queries_per_template=2, seed=seed)
            return [q.signature() for q in augmenter.generate(logs_table, ["department", "timestamp"])]

        assert run(4) == run(4)

    def test_predicate_attrs_drawn_from_candidates(self, logs_table):
        augmenter = RandomAugmenter(keys=["cname"], agg_attrs=["pprice"], n_templates=4, queries_per_template=1, seed=2)
        queries = augmenter.generate(logs_table, ["department"])
        for query in queries:
            assert {atom.attr for atom in query.atoms} <= {"department"}


@pytest.fixture(scope="module")
def one_to_one_problem():
    rng = np.random.default_rng(9)
    n = 260
    informative_a = rng.normal(size=n)
    informative_b = rng.normal(size=n)
    noise = rng.normal(size=(n, 4))
    y = (informative_a + informative_b + rng.normal(0, 0.3, size=n) > 0).astype(float)
    X = np.column_stack([informative_a, informative_b, noise])
    names = ["info_a", "info_b", "noise_0", "noise_1", "noise_2", "noise_3"]

    # Keep the candidate features inside the split tables so the train/valid
    # matrices stay row-aligned with the evaluator's labels.
    data = {"base": rng.normal(size=n)}
    for j, name in enumerate(names):
        data[name] = X[:, j]
    data["label"] = y
    table = Table.from_dict(data)
    train, valid, _ = train_valid_test_split(table, (0.7, 0.3, 0.0), seed=0)
    evaluator = ModelEvaluator(
        train.select(["base", "label"]), valid.select(["base", "label"]),
        label="label", base_features=["base"],
        model=LogisticRegression(n_iter=100), task="binary",
    )
    X_train = np.column_stack([train.column(name).values for name in names])
    X_valid = np.column_stack([valid.column(name).values for name in names])
    return X, names, y, evaluator, X_train, X_valid


class TestARDA:
    def test_selects_k_features(self, one_to_one_problem):
        X, names, y, *_ = one_to_one_problem
        chosen = ARDA(seed=0, n_estimators=5).select(X, y, names, k=3)
        assert len(chosen) == 3

    def test_informative_features_survive_injection(self, one_to_one_problem):
        X, names, y, *_ = one_to_one_problem
        chosen = ARDA(seed=0, n_estimators=8).select(X, y, names, k=2)
        assert set(chosen) & {"info_a", "info_b"}

    def test_regression_task_runs(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(150, 3))
        y = X[:, 0] * 2 + rng.normal(0, 0.2, size=150)
        chosen = ARDA(seed=0, n_estimators=5).select(X, y, ["a", "b", "c"], k=1, task="regression")
        assert chosen == ["a"]

    def test_handles_nan(self, one_to_one_problem):
        X, names, y, *_ = one_to_one_problem
        X = X.copy()
        X[::7, 0] = np.nan
        chosen = ARDA(seed=0, n_estimators=5).select(X, y, names, k=2)
        assert len(chosen) == 2


class TestAutoFeatureMAB:
    def test_selects_k_features(self, one_to_one_problem):
        _, names, _, evaluator, X_train, X_valid = one_to_one_problem
        chosen = AutoFeatureMAB(n_iterations=12, seed=0).select(evaluator, X_train, X_valid, names, k=2)
        assert len(chosen) == 2

    def test_prefers_informative(self, one_to_one_problem):
        _, names, _, evaluator, X_train, X_valid = one_to_one_problem
        chosen = AutoFeatureMAB(n_iterations=15, seed=0).select(evaluator, X_train, X_valid, names, k=2)
        assert set(chosen) & {"info_a", "info_b"}

    def test_empty_candidates(self, one_to_one_problem):
        _, _, _, evaluator, X_train, X_valid = one_to_one_problem
        assert AutoFeatureMAB(seed=0).select(evaluator, X_train[:, :0], X_valid[:, :0], [], k=2) == []


class TestAutoFeatureDQN:
    def test_selects_at_most_k(self, one_to_one_problem):
        _, names, _, evaluator, X_train, X_valid = one_to_one_problem
        chosen = AutoFeatureDQN(n_episodes=2, seed=0).select(evaluator, X_train, X_valid, names, k=3)
        assert 0 < len(chosen) <= 3

    def test_deterministic_given_seed(self, one_to_one_problem):
        _, names, _, evaluator, X_train, X_valid = one_to_one_problem

        def run(seed):
            return AutoFeatureDQN(n_episodes=2, seed=seed).select(evaluator, X_train, X_valid, names, k=2)

        assert run(5) == run(5)

    def test_empty_candidates(self, one_to_one_problem):
        _, _, _, evaluator, X_train, X_valid = one_to_one_problem
        assert AutoFeatureDQN(seed=0).select(evaluator, X_train[:, :0], X_valid[:, :0], [], k=2) == []

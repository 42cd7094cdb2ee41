"""Unit tests for ModelEvaluator."""

import numpy as np
import pytest

from repro.core.evaluation import ModelEvaluator
from repro.dataframe.table import Table
from repro.ml.linear import LinearRegression, LogisticRegression
from repro.ml.preprocessing import train_valid_test_split
from repro.dataframe.aggregates import DEFAULT_AGGREGATES
from repro.dataframe.column import DType
from repro.query.augment import augment_training_table
from repro.query.engine import AggregateResult, GroupIndex, resolve_engine
from repro.query.query import PredicateAtom, PredicateAwareQuery


@pytest.fixture
def binary_setup(rng):
    """A training table whose label depends on a relevant-table aggregate."""
    n_users = 240
    users = [f"u{i}" for i in range(n_users)]
    base = rng.normal(size=n_users)
    n_events = n_users * 6
    event_users = list(rng.choice(users, size=n_events))
    amount = rng.normal(size=n_events)
    relevant = Table.from_dict({"uid": event_users, "amount": amount})
    totals = {u: 0.0 for u in users}
    for u, a in zip(event_users, amount):
        totals[u] += a
    label = np.asarray([1.0 if totals[u] + 0.3 * b > 0 else 0.0 for u, b in zip(users, base)])
    train_table = Table.from_dict({"uid": users, "base": base, "label": label})
    train, valid, _ = train_valid_test_split(train_table, (0.7, 0.3, 0.0), seed=0)
    evaluator = ModelEvaluator(
        train,
        valid,
        label="label",
        base_features=["base"],
        model=LogisticRegression(n_iter=150),
        task="binary",
        relevant_table=relevant,
    )
    return evaluator, relevant


class TestBinaryEvaluation:
    def test_baseline_returns_auc(self, binary_setup):
        evaluator, _ = binary_setup
        result = evaluator.evaluate_baseline()
        assert result.metric_name == "auc"
        assert 0.0 <= result.metric <= 1.0
        assert result.loss == pytest.approx(1.0 - result.metric)

    def test_good_feature_improves_over_baseline(self, binary_setup):
        evaluator, relevant = binary_setup
        query = PredicateAwareQuery(agg_func="SUM", agg_attr="amount", keys=("uid",))
        baseline = evaluator.evaluate_baseline()
        augmented = evaluator.evaluate_queries([query], relevant)
        assert augmented.metric > baseline.metric + 0.05

    def test_feature_vectors_align_with_rows(self, binary_setup):
        evaluator, relevant = binary_setup
        query = PredicateAwareQuery(agg_func="COUNT", agg_attr="amount", keys=("uid",))
        (train_vec,), (valid_vec,) = evaluator.feature_vectors_for_queries([query], relevant)
        assert train_vec.shape[0] == evaluator.y_train.shape[0]
        assert valid_vec.shape[0] == evaluator.y_valid.shape[0]

    def test_train_only_vectors_skip_the_validation_joins(self, binary_setup, monkeypatch):
        evaluator, relevant = binary_setup
        queries = [
            PredicateAwareQuery(agg_func="SUM", agg_attr="amount", keys=("uid",)),
            PredicateAwareQuery(agg_func="MAX", agg_attr="amount", keys=("uid",)),
        ]
        matched, gathered = [], []
        original_match, original_gather = GroupIndex.row_groups, AggregateResult.gather

        def counting_match(index, table):
            matched.append(table)
            return original_match(index, table)

        def counting_gather(result, group_codes):
            gathered.append([codes.shape[0] for codes in group_codes])
            return original_gather(result, group_codes)

        monkeypatch.setattr(GroupIndex, "row_groups", counting_match)
        monkeypatch.setattr(AggregateResult, "gather", counting_gather)
        # A fresh evaluator: the train-only call matches the train split alone...
        train_only, none = evaluator.feature_vectors_for_queries(queries, relevant, valid=False)
        assert none is None
        assert matched == [evaluator._train_table]
        assert gathered == [[evaluator.y_train.shape[0]]] * len(queries)
        # ...and a call with the validation split matches only that one more.
        train_vecs, valid_vecs = evaluator.feature_vectors_for_queries(queries, relevant)
        assert matched == [evaluator._train_table, evaluator._valid_table]
        for ours, full in zip(train_only, train_vecs):
            assert ours.tobytes() == full.tobytes()
        assert len(valid_vecs) == len(queries)

    @pytest.mark.parametrize("agg_func", DEFAULT_AGGREGATES)
    def test_feature_vectors_are_the_left_joined_columns(self, binary_setup, agg_func):
        evaluator, relevant = binary_setup
        queries = [
            PredicateAwareQuery(agg_func=agg_func, agg_attr="amount", keys=("uid",)),
            PredicateAwareQuery(
                agg_func=agg_func, agg_attr="amount", keys=("uid",),
                atoms=(PredicateAtom("range", "amount", low=0.5, dtype=DType.NUMERIC),),
            ),
        ]
        train_vecs, valid_vecs = evaluator.feature_vectors_for_queries(queries, relevant)
        tables = resolve_engine(relevant).execute_batch(queries)
        for query, table, train_vec, valid_vec in zip(queries, tables, train_vecs, valid_vecs):
            for split, vector in ((evaluator._train_table, train_vec), (evaluator._valid_table, valid_vec)):
                joined = augment_training_table(split, table, query.keys, query.feature_name, "f")
                assert vector.tobytes() == joined.column("f").values.tobytes()

    def test_evaluate_matrices_equal_evaluate_matrix(self, binary_setup):
        evaluator, relevant = binary_setup
        rng = np.random.default_rng(2)
        n_train, n_valid = evaluator.y_train.shape[0], evaluator.y_valid.shape[0]
        trains = [rng.normal(size=n_train) for _ in range(4)] + [np.full(n_train, np.nan)]
        valids = [rng.normal(size=n_valid) for _ in range(4)] + [np.full(n_valid, np.nan)]
        batch = evaluator.evaluate_matrices(trains, valids)
        for result, train, valid in zip(batch, trains, valids):
            assert result == evaluator.evaluate_matrix(train, valid)

    def test_evaluate_queries_multiple_features(self, binary_setup):
        evaluator, relevant = binary_setup
        queries = [
            PredicateAwareQuery(agg_func="SUM", agg_attr="amount", keys=("uid",)),
            PredicateAwareQuery(agg_func="AVG", agg_attr="amount", keys=("uid",)),
        ]
        result = evaluator.evaluate_queries(queries, relevant)
        assert 0.0 <= result.metric <= 1.0

    def test_evaluate_matrix_with_nan_column(self, binary_setup):
        evaluator, _ = binary_setup
        n_train = evaluator.y_train.shape[0]
        n_valid = evaluator.y_valid.shape[0]
        extra_train = np.full((n_train, 1), np.nan)
        extra_valid = np.full((n_valid, 1), np.nan)
        result = evaluator.evaluate_matrix(extra_train, extra_valid)
        assert np.isfinite(result.loss)

    def test_missing_relevant_table_raises(self, binary_setup, rng):
        evaluator, _ = binary_setup
        evaluator.relevant_table = None
        query = PredicateAwareQuery(agg_func="SUM", agg_attr="amount", keys=("uid",))
        with pytest.raises(ValueError):
            evaluator.feature_vectors_for_queries([query])

    def test_unknown_task_rejected(self, binary_setup):
        evaluator, _ = binary_setup
        with pytest.raises(ValueError):
            ModelEvaluator(
                evaluator._train_table,
                evaluator._valid_table,
                label="label",
                base_features=["base"],
                model=LogisticRegression(),
                task="ranking",
            )


class TestRegressionEvaluation:
    def test_rmse_loss(self, rng):
        n = 120
        X = rng.normal(size=n)
        y = 2 * X + rng.normal(0, 0.1, size=n)
        table = Table.from_dict({"uid": [f"u{i}" for i in range(n)], "x": X, "label": y})
        train, valid, _ = train_valid_test_split(table, (0.7, 0.3, 0.0), seed=0)
        evaluator = ModelEvaluator(
            train, valid, label="label", base_features=["x"], model=LinearRegression(), task="regression"
        )
        result = evaluator.evaluate_baseline()
        assert result.metric_name == "rmse"
        assert result.loss == result.metric
        assert result.metric < 0.5


class TestMulticlassEvaluation:
    def test_f1_metric(self, rng):
        n = 150
        X = rng.normal(size=(n, 2))
        label = np.argmax(np.column_stack([X[:, 0], X[:, 1], -X.sum(axis=1)]), axis=1).astype(float)
        table = Table.from_dict({"a": X[:, 0], "b": X[:, 1], "label": label})
        train, valid, _ = train_valid_test_split(table, (0.7, 0.3, 0.0), seed=0)
        evaluator = ModelEvaluator(
            train, valid, label="label", base_features=["a", "b"],
            model=LogisticRegression(n_iter=150), task="multiclass",
        )
        result = evaluator.evaluate_baseline()
        assert result.metric_name == "f1"
        assert result.metric > 0.6

    def test_categorical_label_encoded(self, rng):
        n = 100
        x = rng.normal(size=n)
        label = ["yes" if v > 0 else "no" for v in x]
        table = Table.from_dict({"x": x, "label": label})
        train, valid, _ = train_valid_test_split(table, (0.7, 0.3, 0.0), seed=0)
        evaluator = ModelEvaluator(
            train, valid, label="label", base_features=["x"],
            model=LogisticRegression(n_iter=100), task="binary",
        )
        assert evaluator.evaluate_baseline().metric > 0.8

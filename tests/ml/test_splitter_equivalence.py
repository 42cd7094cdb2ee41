"""The shared splitter reproduces the per-threshold reference growers.

``_reference_trees`` keeps the growers that ``repro.ml._splitter`` replaced.
Classifier trees and ``gini_importance`` must match them exactly, on any
input: same splits, thresholds, leaf distributions and importances.
Regressor and boosted trees sum floats in a different order, so they are
pinned by split structure with leaf values within 1e-12 relative: on
hypothesis inputs (ties, duplicated columns, +-inf) and on the benchmark
datasets at the benchmark seeds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _reference_trees as ref
from repro.baselines.featuretools import FeaturetoolsGenerator
from repro.core.evaluation import _impute_pair
from repro.datasets import load_dataset
from repro.experiments.runner import _make_evaluator, _materialise_query_features
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.stats.gini import gini_importance

# Benchmark scale, seed and feature count (benchmarks/_bench_utils.py).
BENCH_SCALE, BENCH_SEED, BENCH_FEATURES = 0.25, 0, 9
BENCH_DATASETS = ("tmall", "instacart", "student", "merchant", "covtype", "household")

_POOL = [-np.inf, -3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5, 1e6, np.inf]


def reference_nodes(node):
    """Preorder ``(feature, threshold, value)`` of a reference tree; -1 marks leaves."""
    if node.is_leaf:
        value = node.value if hasattr(node, "value") else np.asarray([node.weight])
        return [(-1, 0.0, value)]
    return (
        [(node.feature, node.threshold, None)]
        + reference_nodes(node.left)
        + reference_nodes(node.right)
    )


def splitter_nodes(tree):
    """The same preorder listing of a splitter :class:`Tree`."""
    return [
        (int(f), float(t), tree.value[i] if f < 0 else None)
        for i, (f, t) in enumerate(zip(tree.feature, tree.threshold))
    ]


def assert_same_structure(ours, theirs, rtol=0.0):
    assert [(f, t) for f, t, _ in ours] == [(f, t) for f, t, _ in theirs]
    for (_, _, a), (_, _, b) in zip(ours, theirs):
        if a is not None:
            if rtol:
                np.testing.assert_allclose(a, b, rtol=rtol, atol=0)
            else:
                assert np.array_equal(a, b)


@st.composite
def columns(draw, n):
    kind = draw(st.sampled_from(["ties", "constant", "floats", "pool"]))
    if kind == "constant":
        return np.full(n, draw(st.sampled_from(_POOL)))
    if kind == "ties":
        return np.asarray(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    if kind == "pool":
        return np.asarray(draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n)))
    finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    values = st.one_of(finite, st.sampled_from([-np.inf, np.inf]))
    return np.asarray(draw(st.lists(values, min_size=n, max_size=n)))


@st.composite
def classification_problems(draw):
    n = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 5))
    X = np.column_stack([draw(columns(n)) for _ in range(n_features)])
    n_classes = draw(st.integers(1, 8))
    y = np.asarray(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=float)
    max_features = draw(
        st.one_of(
            st.none(),
            st.just("sqrt"),
            st.floats(0.05, 1.0),
            st.integers(1, n_features + 1),
        )
    )
    params = dict(
        max_depth=draw(st.integers(1, 5)),
        min_samples_split=draw(st.integers(2, 4)),
        min_samples_leaf=draw(st.integers(1, 3)),
        max_features=max_features,
        max_thresholds=draw(st.integers(1, 6)),
        random_state=draw(st.integers(0, 2**16)),
    )
    return X, y, params


@settings(max_examples=300, deadline=None)
@given(classification_problems())
def test_classifier_trees_are_identical_node_for_node(problem):
    X, y, params = problem
    ours = DecisionTreeClassifier(**params).fit(X, y)
    # The reference warns where -inf meets +inf (a NaN midpoint) or a quantile.
    with np.errstate(invalid="ignore", over="ignore"):
        theirs = ref.DecisionTreeClassifier(**params).fit(X, y)
    assert_same_structure(splitter_nodes(ours.tree_), reference_nodes(theirs._root))
    assert np.array_equal(ours.feature_importances_, theirs.feature_importances_)
    assert np.array_equal(ours.predict_proba(X), theirs._predict_values(X))


@st.composite
def float_criterion_problems(draw):
    n = draw(st.integers(2, 60))
    cols = [draw(columns(n)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        cols.append(cols[0])  # a duplicated column ties every split of the first exactly
    X = np.column_stack(cols)
    y = np.asarray(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.1, 1.0, 3.0]), min_size=n, max_size=n)))
    return X, y, draw(st.integers(1, 4)), draw(st.integers(1, 6))


# Boosting's second round: a child hessian sum at min_child_weight, 1.0, that the
# prefix sum rounds below it and the row-order sum does not.
_HESSIAN_AT_MIN_WEIGHT = (
    np.column_stack([
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, -1, -1, -np.inf, np.inf, -1, -np.inf, 0, 0,
         0, 0, 0, 1, -1, -1, np.inf, -1, 0, -1, -np.inf, np.inf],
    ]).astype(float),
    np.repeat([-2.0, 0.1], 12),
    2,
    1,
)


@settings(max_examples=100, deadline=None)
@given(float_criterion_problems())
@example(_HESSIAN_AT_MIN_WEIGHT)
def test_regressor_and_boosted_trees_keep_their_split_structure(problem):
    X, y, max_depth, max_thresholds = problem
    labels = (y > 0.05).astype(float)
    models = [
        (DecisionTreeRegressor, ref.DecisionTreeRegressor, y, {}),
        (GradientBoostingRegressor, ref.GradientBoostingRegressor, y, {"n_estimators": 3}),
        (GradientBoostingClassifier, ref.GradientBoostingClassifier, labels, {"n_estimators": 3}),
    ]
    for ours_class, reference_class, target, extra in models:
        params = dict(max_depth=max_depth, max_thresholds=max_thresholds, **extra)
        ours = ours_class(**params).fit(X, target)
        with np.errstate(invalid="ignore", over="ignore"):
            theirs = reference_class(**params).fit(X, target)
        pairs = [(ours.tree_, theirs._root)] if hasattr(ours, "tree_") else [
            (a, b._root) for a, b in zip(ours.trees_, theirs.trees_)
        ]
        for a, b in pairs:
            assert_same_structure(splitter_nodes(a), reference_nodes(b), rtol=1e-12)


@st.composite
def gini_problems(draw):
    n = draw(st.integers(1, 60))
    x = draw(columns(n))
    if draw(st.booleans()):
        x = np.where(np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n))), np.nan, x)
    n_classes = draw(st.integers(1, 8))
    y = np.asarray(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return x, y, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(gini_problems())
def test_gini_importance_is_bit_identical(problem):
    x, y, max_thresholds = problem
    ours = gini_importance(x, y, max_thresholds=max_thresholds)
    with np.errstate(invalid="ignore", over="ignore"):
        theirs = ref.gini_importance(x, y, max_thresholds=max_thresholds)
    assert ours == theirs
    assert type(ours) is float


_REFERENCE = {
    RandomForestClassifier: ref.RandomForestClassifier,
    RandomForestRegressor: ref.RandomForestRegressor,
    GradientBoostingClassifier: ref.GradientBoostingClassifier,
    GradientBoostingRegressor: ref.GradientBoostingRegressor,
}


def benchmark_training_matrix(name):
    """The FT row's training matrix of a benchmark scenario (base + 9 features)."""
    bundle = load_dataset(name, scale=BENCH_SCALE, seed=BENCH_SEED)
    train, valid, test = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=BENCH_SEED)
    evaluator = _make_evaluator(bundle, train, test, "LR")
    queries = FeaturetoolsGenerator(keys=bundle.keys).candidate_queries(bundle.relevant)
    (extra,) = _materialise_query_features(queries[:BENCH_FEATURES], bundle.relevant, [train])
    X = np.hstack([evaluator._X_train_base, extra])
    X, _ = _impute_pair(X, X)
    return bundle.task, X, evaluator.y_train


@pytest.mark.parametrize("name", BENCH_DATASETS)
def test_benchmark_models_keep_their_split_structure(name):
    task, X, y = benchmark_training_matrix(name)
    for model_name in ("RF", "XGB"):
        ours = make_model(model_name, task).fit(X, y)
        params = {k: v for k, v in ours.__dict__.items() if not k.startswith("_") and not k.endswith("_")}
        theirs = _REFERENCE[type(ours)](**params).fit(X, y)
        exact = isinstance(ours, RandomForestClassifier)
        if hasattr(ours, "estimators_"):
            pairs = [(a.tree_, b._root) for a, b in zip(ours.estimators_, theirs.estimators_)]
        else:
            pairs = [(a, b._root) for a, b in zip(ours.trees_, theirs.trees_)]
        assert len(pairs) == ours.n_estimators
        for a, b in pairs:
            assert_same_structure(splitter_nodes(a), reference_nodes(b), rtol=0.0 if exact else 1e-12)
        if exact:
            assert np.array_equal(ours.feature_importances_, theirs.feature_importances_)
        else:
            np.testing.assert_allclose(ours.feature_importances_, theirs.feature_importances_, rtol=1e-9)

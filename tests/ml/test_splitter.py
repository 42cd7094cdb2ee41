"""Tree hyperparameters and inputs the shared splitter rejects loudly."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

TREE_MODELS = (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)


def separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    return X, (X[:, 0] > 0).astype(float)


@pytest.mark.parametrize(
    "model, parameter",
    [
        (DecisionTreeClassifier(max_thresholds=0), "max_thresholds"),
        (DecisionTreeClassifier(max_features=0), "max_features"),
        (DecisionTreeClassifier(max_depth=-1), "max_depth"),
        (DecisionTreeClassifier(max_features="log2"), "max_features"),
        (DecisionTreeRegressor(max_features=-1), "max_features"),
        (DecisionTreeRegressor(max_features=1.5), "max_features"),
        (RandomForestClassifier(n_estimators=0), "n_estimators"),
        (RandomForestRegressor(max_depth=0), "max_depth"),
        (RandomForestClassifier(max_features="log2"), "max_features"),
        (GradientBoostingClassifier(n_estimators=0), "n_estimators"),
        (GradientBoostingClassifier(subsample=0.0), "subsample"),
        (GradientBoostingRegressor(max_thresholds=0), "max_thresholds"),
        (GradientBoostingRegressor(max_depth=-1), "max_depth"),
    ],
)
def test_out_of_range_hyperparameters_raise_naming_the_parameter(model, parameter):
    X, y = separable()
    with pytest.raises(ValueError, match=parameter):
        model.fit(X, y)


@pytest.mark.parametrize("model_class", TREE_MODELS)
def test_nan_in_training_features_is_rejected(model_class):
    X, y = separable()
    X[17, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        model_class().fit(X, y)


@pytest.mark.parametrize("model_class", TREE_MODELS)
def test_infinite_features_still_fit(model_class):
    X, y = separable()
    X[:10, 2] = np.inf
    X[10:20, 2] = -np.inf
    model = model_class().fit(X, y)
    assert np.all(np.isfinite(model.predict(X)))


def test_level_wise_predict_sends_nan_rows_right():
    X, y = separable()
    model = DecisionTreeClassifier(max_depth=1).fit(X, y)
    tree = model.tree_
    probe = np.zeros((1, 3))
    probe[0, tree.feature[0]] = np.nan
    assert np.array_equal(tree.predict(probe)[0], tree.value[tree.right[0]])

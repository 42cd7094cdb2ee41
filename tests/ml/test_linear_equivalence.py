"""Logistic regression reproduces the reference gradient-descent loop bit for bit.

``_reference_linear`` keeps the loop and softmax that ``repro.ml.linear``
replaced.  The in-place loop must give the same classes, standardisation,
coefficients, importances and probabilities on any input: 1-6 classes
with unsorted labels, 1-400 rows, 0-8 columns (constant, duplicated,
tied, tiny, huge and infinite values), fits that stop early and fits that
run to ``n_iter``, and non-default step sizes and penalties.  The lockstep
``fit_batch`` must give each of its 1-6 problems the fit the reference gives
that problem alone, whichever iteration each stops at.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_linear as ref
from repro.ml import linear
from repro.ml.linear import LogisticRegression

_POOL = [-np.inf, -1e300, -2.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 3.0, 1e300, np.inf]
_LABELS = [7.0, -1.0, 3.5, 0.0, 2.0, -4.0]


@st.composite
def columns(draw, n, rng, previous):
    kinds = ["gaussian", "ties", "constant", "pool", "sparse_extremes"]
    kind = draw(st.sampled_from(kinds + (["duplicate"] if previous else [])))
    if kind == "duplicate":
        return previous[draw(st.integers(0, len(previous) - 1))].copy()
    if kind == "constant":
        return np.full(n, draw(st.sampled_from(_POOL)))
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "pool":
        return rng.choice(np.asarray(_POOL), size=n)
    column = rng.normal(size=n) * draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    if kind == "sparse_extremes":
        hits = rng.random(n) < 0.05
        column[hits] = rng.choice(np.asarray([-np.inf, np.inf, 1e300, -1e300, 1e-300]), size=int(hits.sum()))
    return column


@st.composite
def problems(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(0, 8))):
        cols.append(draw(columns(n, rng, cols)))
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    labels = np.asarray(draw(st.permutations(_LABELS))[: draw(st.integers(1, 6))])
    y = labels[rng.integers(0, labels.shape[0], size=n)]
    params = dict(
        learning_rate=draw(st.sampled_from([0.5, 0.05, 1.3, 8.0])),
        n_iter=draw(st.sampled_from([1, 2, 7, 60, 300])),
        l2=draw(st.sampled_from([1e-3, 0.0, 0.25])),
        tol=draw(st.sampled_from([1e-6, 0.0, 1e-2])),
    )
    return X, y, params


def assert_same_bits(ours, theirs):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs, equal_nan=True)
    # array_equal calls -0.0 and 0.0 equal; the sign of a zero is pinned too.
    numbers = ~np.isnan(ours)
    assert np.array_equal(np.signbit(ours[numbers]), np.signbit(theirs[numbers]))


@settings(max_examples=300, deadline=None)
@given(problems())
def test_fit_and_predict_proba_match_the_reference_bit_for_bit(problem):
    X, y, params = problem
    # Infinite and huge columns overflow and meet inf - inf in standardisation.
    with np.errstate(all="ignore"):
        ours = LogisticRegression(**params).fit(X, y)
        theirs = ref.LogisticRegression(**params).fit(X, y)
        ours_proba, theirs_proba = ours.predict_proba(X), theirs.predict_proba(X)
    for name in ("classes_", "_mean_", "_std_", "coef_", "feature_importances_"):
        assert_same_bits(getattr(ours, name), getattr(theirs, name))
    assert_same_bits(ours_proba, theirs_proba)


@st.composite
def batches(draw):
    """K = 1-6 problems sharing their rows' labels and shape, each with its own columns."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_columns = draw(st.integers(0, 6))
    Xs = []
    for _ in range(draw(st.integers(1, 6))):
        cols = []
        for _ in range(n_columns):
            cols.append(draw(columns(n, rng, cols)))
        Xs.append(np.column_stack(cols) if cols else np.empty((n, 0)))
    labels = np.asarray(draw(st.permutations(_LABELS))[: draw(st.integers(1, 6))])
    y = labels[rng.integers(0, labels.shape[0], size=n)]
    params = dict(
        learning_rate=draw(st.sampled_from([0.5, 0.05, 1.3, 8.0])),
        n_iter=draw(st.sampled_from([1, 2, 7, 60, 300])),
        l2=draw(st.sampled_from([1e-3, 0.0, 0.25])),
        tol=draw(st.sampled_from([1e-6, 0.0, 1e-2])),
    )
    return Xs, y, params


def assert_same_fit(ours, theirs, X):
    for name in ("classes_", "_mean_", "_std_", "coef_", "feature_importances_"):
        assert_same_bits(getattr(ours, name), getattr(theirs, name))
    with np.errstate(all="ignore"):
        assert_same_bits(ours.predict_proba(X), theirs.predict_proba(X))


@settings(max_examples=200, deadline=None)
@given(batches())
def test_lockstep_fits_match_the_reference_bit_for_bit(batch):
    Xs, y, params = batch
    with np.errstate(all="ignore"):
        models = LogisticRegression(**params).fit_batch(Xs, y)
        references = [ref.LogisticRegression(**params).fit(X, y) for X in Xs]
    assert len(models) == len(Xs)
    assert len({id(model) for model in models}) == len(models)
    for ours, theirs, X in zip(models, references, Xs):
        assert_same_fit(ours, theirs, X)


def _stop_iterations(monkeypatch, Xs, y, params):
    """How many gradient steps a separate fit of each matrix takes: one
    softmax per step."""
    calls = []
    softmax = linear._softmax

    def counting(z):
        calls[-1] += 1
        return softmax(z)

    monkeypatch.setattr(linear, "_softmax", counting)
    for X in Xs:
        calls.append(0)
        LogisticRegression(**params).fit(X, y)
    monkeypatch.setattr(linear, "_softmax", softmax)
    return calls


def test_lockstep_models_stop_at_their_own_iteration(monkeypatch):
    rng = np.random.default_rng(3)
    n = 120
    y = (rng.random(n) < 0.5).astype(float)
    Xs = [
        rng.normal(size=(n, 2)),
        np.column_stack([y + rng.normal(0, 0.5, n), rng.normal(size=n)]),
        np.column_stack([y * 4 - 2 + rng.normal(0, 0.1, n), rng.normal(size=n)]),
        rng.normal(size=(n, 2)),
    ]
    params = dict(n_iter=150, l2=0.0)
    stops = _stop_iterations(monkeypatch, Xs, y, params)
    # Three different stops, one of them the whole budget.
    assert len(set(stops)) >= 3 and max(stops) == params["n_iter"] and min(stops) < 50
    models = LogisticRegression(**params).fit_batch(Xs, y)
    for ours, X in zip(models, Xs):
        assert_same_fit(ours, ref.LogisticRegression(**params).fit(X, y), X)


def test_lockstep_runs_each_step_once_for_the_whole_stack(monkeypatch):
    rng = np.random.default_rng(3)
    y = (rng.random(80) < 0.5).astype(float)
    Xs = [rng.normal(size=(80, 3)) for _ in range(5)]
    stops = _stop_iterations(monkeypatch, Xs, y, {})
    steps = []
    softmax = linear._softmax
    monkeypatch.setattr(linear, "_softmax", lambda z: steps.append(z.shape[0]) or softmax(z))
    LogisticRegression().fit_batch(Xs, y)
    assert len(steps) == max(stops)
    # The stack shrinks as its problems stop.
    assert steps[0] == len(Xs) and steps == sorted(steps, reverse=True)
    assert steps[-1] == sum(stop == max(stops) for stop in stops)


def test_fit_batch_falls_back_to_separate_fits(monkeypatch):
    rng = np.random.default_rng(0)
    y = (rng.random(50) < 0.5).astype(float)
    one = [rng.normal(size=(50, 2))]
    mixed = [rng.normal(size=(50, 2)), rng.normal(size=(50, 3))]
    fits = []
    fit = LogisticRegression.fit
    monkeypatch.setattr(LogisticRegression, "fit", lambda self, X, y: fits.append(X.shape) or fit(self, X, y))
    for Xs in (one, mixed):
        models = LogisticRegression().fit_batch(Xs, y)
        for ours, X in zip(models, Xs):
            assert_same_fit(ours, ref.LogisticRegression().fit(X, y), X)
    assert fits == [(50, 2), (50, 2), (50, 3)]


def test_fit_batch_rejects_nan_like_fit():
    X = np.ones((4, 1))
    y = np.asarray([0.0, 1.0, 0.0, 1.0])
    bad = X.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        LogisticRegression().fit_batch([X, bad], y)

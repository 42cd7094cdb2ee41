"""Logistic regression reproduces the reference gradient-descent loop bit for bit.

``_reference_linear`` keeps the loop and softmax that ``repro.ml.linear``
replaced.  The in-place loop must give the same classes, standardisation,
coefficients, importances and probabilities on any input: 1-6 classes
with unsorted labels, 1-400 rows, 0-8 columns (constant, duplicated,
tied, tiny, huge and infinite values), fits that stop early and fits that
run to ``n_iter``, and non-default step sizes and penalties.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import _reference_linear as ref
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

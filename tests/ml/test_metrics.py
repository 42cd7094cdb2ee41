"""Unit tests for the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ml.metrics import accuracy_score, f1_score_macro, log_loss, rmse, roc_auc_score


class TestAUC:
    def test_perfect_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=5000)
        s = rng.uniform(size=5000)
        assert roc_auc_score(y, s) == pytest.approx(0.5, abs=0.03)

    def test_ties_averaged(self):
        assert roc_auc_score([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_returns_half(self):
        assert roc_auc_score([1, 1, 1], [0.2, 0.3, 0.4]) == 0.5

    def test_invariant_to_monotonic_transform(self):
        y = [0, 1, 0, 1, 1, 0]
        s = np.asarray([0.2, 0.7, 0.3, 0.9, 0.6, 0.1])
        assert roc_auc_score(y, s) == roc_auc_score(y, s * 10 - 3)


def loop_roc_auc_score(y_true, y_score):
    """The tie loop ``roc_auc_score`` replaced: one Python step per sorted score."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_score = np.asarray(y_score, dtype=np.float64).ravel()
    pos = y_true == 1
    neg = ~pos
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(y_score, kind="stable")
    ranks = np.empty(y_score.shape[0], dtype=np.float64)
    ranks[order] = np.arange(1, y_score.shape[0] + 1, dtype=np.float64)
    sorted_scores = y_score[order]
    i = 0
    n = y_score.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum_pos = ranks[pos].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


_SCORES = st.sampled_from([np.nan, -np.inf, -1.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])


@st.composite
def scored_labels(draw):
    n = draw(st.integers(1, 60))
    labels = draw(st.sampled_from([[0.0, 1.0], [1.0], [0.0], [0.0, 1.0, 2.0]]))
    y = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    scores = st.one_of(_SCORES, st.floats(-2, 2, allow_nan=False))
    return y, draw(st.lists(scores, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(scored_labels())
# Each NaN is a run of its own, and the signed zeros tie.
@example(([0, 1, 0, 1, 1, 0], [np.nan, np.nan, -0.0, 0.0, 0.5, np.nan]))
def test_auc_is_the_float_of_the_tie_loop(problem):
    y, s = problem
    assert roc_auc_score(y, s) == loop_roc_auc_score(y, s)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half_correct(self):
        assert accuracy_score([1, 0], [1, 1]) == 0.5

    def test_empty(self):
        assert accuracy_score([], []) == 0.0


class TestF1Macro:
    def test_perfect(self):
        assert f1_score_macro([0, 1, 2], [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        assert f1_score_macro([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0

    def test_macro_averages_over_true_classes(self):
        y_true = [0, 0, 0, 1]
        y_pred = [0, 0, 0, 0]
        # class 0: precision 0.75, recall 1 -> f1 = 6/7 ; class 1: f1 = 0
        assert f1_score_macro(y_true, y_pred) == pytest.approx((6 / 7) / 2)

    def test_multiclass_range(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 4, size=200)
        p = rng.integers(0, 4, size=200)
        assert 0.0 <= f1_score_macro(y, p) <= 1.0


class TestRMSE:
    def test_zero_for_exact(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_scale_invariance_shape(self):
        y = np.asarray([1.0, 2.0, 3.0])
        assert rmse(y, y + 1) == pytest.approx(1.0)


class TestLogLoss:
    def test_confident_correct_is_small(self):
        assert log_loss([1, 0], [0.99, 0.01]) < 0.02

    def test_confident_wrong_is_large(self):
        assert log_loss([1, 0], [0.01, 0.99]) > 4.0

    def test_clipping_avoids_infinity(self):
        assert np.isfinite(log_loss([1], [0.0]))

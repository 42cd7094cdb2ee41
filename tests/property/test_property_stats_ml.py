"""Property-based tests for the statistics and ML substrates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.metrics import f1_score_macro, rmse, roc_auc_score
from repro.ml.preprocessing import LabelEncoder
from repro.stats.correlation import spearman_correlation
from repro.stats.mutual_information import mutual_information

finite_floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestMetricProperties:
    @given(
        scores=st.lists(finite_floats, min_size=4, max_size=80),
        labels=st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_auc_in_unit_interval(self, scores, labels):
        n = min(len(scores), len(labels))
        assert 0.0 <= roc_auc_score(labels[:n], scores[:n]) <= 1.0

    @given(scores=st.lists(finite_floats, min_size=4, max_size=60), labels=st.lists(st.integers(0, 1), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_auc_complement_under_score_negation(self, scores, labels):
        n = min(len(scores), len(labels))
        labels, scores = np.asarray(labels[:n]), np.asarray(scores[:n], dtype=float)
        if len(np.unique(labels)) < 2:
            return
        direct = roc_auc_score(labels, scores)
        flipped = roc_auc_score(labels, -scores)
        assert abs((direct + flipped) - 1.0) < 1e-9

    @given(values=st.lists(finite_floats, min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_rmse_zero_iff_identical(self, values):
        arr = np.asarray(values)
        assert rmse(arr, arr) == 0.0

    @given(
        y_true=st.lists(st.integers(0, 3), min_size=2, max_size=60),
        y_pred=st.lists(st.integers(0, 3), min_size=2, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_f1_bounded(self, y_true, y_pred):
        n = min(len(y_true), len(y_pred))
        assert 0.0 <= f1_score_macro(y_true[:n], y_pred[:n]) <= 1.0


class TestStatsProperties:
    @given(values=st.lists(finite_floats, min_size=3, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_spearman_bounded(self, values):
        rng = np.random.default_rng(0)
        other = rng.normal(size=len(values))
        assert -1.0 <= spearman_correlation(np.asarray(values), other) <= 1.0

    @given(values=st.lists(finite_floats, min_size=3, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_self_spearman_is_one_when_not_constant(self, values):
        arr = np.asarray(values)
        if np.unique(arr).size < 2:
            return
        assert spearman_correlation(arr, arr) == pytest.approx(1.0, abs=1e-9)

    @given(
        feature=st.lists(finite_floats, min_size=5, max_size=100),
        labels=st.lists(st.integers(0, 2), min_size=5, max_size=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_mutual_information_nonnegative(self, feature, labels):
        n = min(len(feature), len(labels))
        assert mutual_information(np.asarray(feature[:n]), np.asarray(labels[:n])) >= 0.0


class TestPreprocessingProperties:
    @given(values=st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_label_encoder_roundtrip(self, values):
        encoder = LabelEncoder()
        codes = encoder.fit_transform(values)
        assert [encoder.classes_[int(code)] for code in codes] == list(values)

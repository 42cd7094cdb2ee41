"""Unit tests for mutual information (the default low-cost proxy)."""

import numpy as np
import pytest

from repro.stats.mutual_information import conditional_entropy, mutual_information


class TestConditionalEntropy:
    def test_fully_determined_is_zero(self):
        x = np.asarray([0, 0, 1, 1])
        y = np.asarray([0, 0, 1, 1])
        assert conditional_entropy(x, y) == pytest.approx(0.0)

    def test_independent_equals_marginal(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=4000)
        y = rng.integers(0, 2, size=4000)
        from repro.stats.entropy import shannon_entropy

        assert conditional_entropy(x, y) == pytest.approx(shannon_entropy(x), abs=0.01)

    def test_empty_is_zero(self):
        assert conditional_entropy(np.asarray([]), np.asarray([])) == 0.0


class TestMutualInformation:
    def test_identical_variables_have_high_mi(self):
        x = np.asarray([0, 1, 0, 1, 0, 1] * 20)
        assert mutual_information(x, x) == pytest.approx(np.log(2), abs=1e-9)

    def test_independent_variables_have_low_mi(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3000)
        y = rng.integers(0, 2, size=3000)
        assert mutual_information(x, y) < 0.02

    def test_dependent_variables_have_higher_mi_than_independent(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=2000)
        x_dependent = y * 2.0 + rng.normal(0, 0.3, size=2000)
        x_independent = rng.normal(size=2000)
        assert mutual_information(x_dependent, y) > mutual_information(x_independent, y) + 0.2

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=200)
            y = rng.integers(0, 3, size=200)
            assert mutual_information(x, y) >= 0.0

    def test_symmetric_for_discrete_inputs(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, size=500)
        y = (x + rng.integers(0, 2, size=500)) % 4
        assert mutual_information(x, y) == pytest.approx(mutual_information(y, x), abs=1e-9)

    def test_handles_nan_feature(self):
        x = np.asarray([1.0, np.nan, 2.0, np.nan] * 50)
        y = np.asarray([0, 1, 0, 1] * 50)
        assert mutual_information(x, y) > 0.5  # missingness itself is informative

    def test_handles_object_labels(self):
        x = np.asarray([1.0, 2.0, 1.0, 2.0] * 25)
        y = np.asarray(["yes", "no", "yes", "no"] * 25, dtype=object)
        assert mutual_information(x, y) > 0.5

    def test_constant_feature_zero_mi(self):
        x = np.ones(100)
        y = np.asarray([0, 1] * 50)
        assert mutual_information(x, y) == 0.0


class TestBinCount:
    """A bin count below 1 is an error, not an MI of zero."""

    FEATURE = np.asarray([1.0, 2.0, 3.0, 4.0, np.nan, 6.0])
    LABEL = np.asarray([0, 0, 0, 1, 1, 1])

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_proxy_rejects_it_at_construction(self, n_bins):
        from repro.core.proxies import MutualInformationProxy

        with pytest.raises(ValueError, match="n_bins"):
            MutualInformationProxy(n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_mutual_information_rejects_it(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            mutual_information(self.FEATURE, self.LABEL, n_bins=n_bins)

    def test_default_bins_see_the_dependency(self):
        from repro.core.proxies import MutualInformationProxy

        assert MutualInformationProxy().score(self.FEATURE, self.LABEL, "binary") == pytest.approx(np.log(2))

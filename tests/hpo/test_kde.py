"""Unit tests for the TPE density estimators."""

import numpy as np
import pytest

from repro.hpo.kde import CategoricalDensity, GaussianKDE


class TestCategoricalDensity:
    def test_probabilities_sum_to_one(self):
        density = CategoricalDensity(["a", "b", "c"], ["a", "a", "b"])
        total = sum(density.pdf([c])[0] for c in ["a", "b", "c"])
        assert total == pytest.approx(1.0)

    def test_frequent_value_has_higher_density(self):
        density = CategoricalDensity(["a", "b"], ["a", "a", "a", "b"])
        assert density.pdf(["a"])[0] > density.pdf(["b"])[0]

    def test_smoothing_gives_unseen_values_mass(self):
        density = CategoricalDensity(["a", "b"], ["a", "a"])
        assert density.pdf(["b"])[0] > 0

    def test_none_choice_supported(self):
        density = CategoricalDensity([None, "a"], [None, None, "a"])
        assert density.pdf([None])[0] > density.pdf(["a"])[0]

    def test_unknown_value_tiny_density(self):
        density = CategoricalDensity(["a"], ["a"])
        assert density.pdf(["zzz"])[0] == pytest.approx(1e-12)

    def test_sample_returns_choices(self, rng):
        density = CategoricalDensity(["a", "b"], ["a"])
        for _ in range(20):
            assert density.sample(rng) in ("a", "b")

    def test_pdf_scores_a_sequence(self):
        density = CategoricalDensity([None, "a", ("k",)], [None, "a", "a", ("k",)])
        np.testing.assert_allclose(
            density.pdf(["a", None, "zzz", ("k",)]), [3 / 7, 2 / 7, 1e-12, 2 / 7]
        )
        assert density.pdf([]).shape == (0,)

    def test_none_does_not_collide_with_none_string(self):
        density = CategoricalDensity([None, "__none__"], [None] * 3)
        assert density.pdf([None])[0] == pytest.approx(0.8)
        assert density.pdf(["__none__"])[0] == pytest.approx(0.2)

    def test_equal_choices_share_the_first_index(self):
        density = CategoricalDensity([1, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(density.pdf([1.0, 1]), [0.75, 0.75])

    def test_no_mass_is_rejected(self):
        with pytest.raises(ValueError, match="no mass"):
            CategoricalDensity(["a", "b"], ["zzz"], smoothing=0.0)
        with pytest.raises(ValueError, match="no mass"):
            CategoricalDensity([], [])

    def test_negative_smoothing_is_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            CategoricalDensity(["a", "b"], ["a"], smoothing=-0.5)

    def test_zero_smoothing_with_observations_is_allowed(self):
        density = CategoricalDensity(["a", "b"], ["a"], smoothing=0.0)
        np.testing.assert_array_equal(density.pdf(["a", "b"]), [1.0, 0.0])


class TestGaussianKDE:
    def test_density_peaks_near_observations(self):
        kde = GaussianKDE(0, 10, [2.0, 2.1, 1.9])
        assert kde.pdf([2.0])[0] > kde.pdf([8.0])[0]

    def test_uniform_fallback_with_no_observations(self):
        kde = GaussianKDE(0, 10, [])
        assert kde.pdf([3.0])[0] == pytest.approx(kde.pdf([7.0])[0])

    def test_none_weight_tracked(self):
        kde = GaussianKDE(0, 1, [None, None, 0.5, 0.5])
        assert kde.none_weight == pytest.approx(0.5)
        assert kde.pdf([None])[0] == pytest.approx(0.5)

    def test_samples_within_bounds(self, rng):
        kde = GaussianKDE(0, 1, [0.2, 0.8])
        for _ in range(50):
            value = kde.sample(rng)
            if value is not None:
                assert 0.0 <= value <= 1.0

    def test_sample_can_return_none_when_observed(self, rng):
        kde = GaussianKDE(0, 1, [None] * 9 + [0.5])
        samples = [kde.sample(rng) for _ in range(40)]
        assert any(s is None for s in samples)

    def test_pdf_scores_a_sequence(self):
        kde = GaussianKDE(0, 1, [None, 0.2, 0.8])
        out = kde.pdf([0.2, None, 0.5])
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1 / 3)
        assert out[0] == kde.pdf([0.2])[0]
        assert out[2] == kde.pdf([0.5])[0]

    def test_iterator_observations_match_list(self):
        observations = [0.1, None, 0.5]
        from_list = GaussianKDE(0, 1, observations)
        from_iter = GaussianKDE(0, 1, (v for v in observations))
        assert from_iter.none_weight == from_list.none_weight == pytest.approx(1 / 3)
        np.testing.assert_array_equal(from_iter.points, from_list.points)
        np.testing.assert_array_equal(from_iter.bandwidths, from_list.bandwidths)
        values = [0.0, 0.1, None, 0.7, 1.0]
        np.testing.assert_array_equal(from_iter.pdf(values), from_list.pdf(values))

    def test_pdf_positive_everywhere_in_bounds(self):
        kde = GaussianKDE(0, 100, [50.0])
        assert kde.pdf([0.0])[0] > 0
        assert kde.pdf([100.0])[0] > 0

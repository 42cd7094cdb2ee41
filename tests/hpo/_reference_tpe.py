"""Scalar reference implementation of TPE candidate scoring (tests only).

This is the draw-score-draw loop that ``TPEOptimizer._propose`` replaced:
each candidate is drawn and then scored on its own with scalar ``pdf``
calls, and categorical values are drawn with ``Generator.choice(n, p=...)``.
The vectorized optimiser must reproduce its trajectories exactly.

Two key collisions of the scalar categorical density are kept as they were,
because the vectorized density fixes them on purpose:

* ``None`` and the string ``"__none__"`` share one key here;
* of several choices that compare equal (``1``, ``1.0``, ``True``), the last
  one receives the counts here while ``pdf`` reads the first.

Spaces compared against this reference therefore use choices that are pairwise
unequal and never ``"__none__"``; ``test_kde.py`` pins the fixed behaviour.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.hpo.kde import GaussianKDE
from repro.hpo.space import CategoricalDimension, IntegerDimension, RealDimension
from repro.hpo.tpe import _PDF_FLOOR, TPEOptimizer, _NumericDensityAdapter


class ReferenceCategoricalDensity:
    """Smoothed empirical distribution with a scalar, list-scanning ``pdf``."""

    def __init__(self, choices: Sequence, observations: Sequence, smoothing: float = 1.0):
        self.choices = list(choices)
        counts = np.full(len(self.choices), smoothing, dtype=np.float64)
        index = {self._key(c): i for i, c in enumerate(self.choices)}
        for value in observations:
            i = index.get(self._key(value))
            if i is not None:
                counts[i] += 1.0
        self._prob = counts / counts.sum()

    @staticmethod
    def _key(value):
        return "__none__" if value is None else value

    def pdf(self, value) -> float:
        key = self._key(value)
        for i, c in enumerate(self.choices):
            if self._key(c) == key:
                return float(self._prob[i])
        return 1e-12

    def sample(self, rng: np.random.Generator):
        i = int(rng.choice(len(self.choices), p=self._prob))
        return self.choices[i]


class ReferenceGaussianKDE(GaussianKDE):
    """The same mixture, evaluated one value at a time and clipped with numpy."""

    def pdf(self, value) -> float:
        if value is None:
            return float(max(self.none_weight, 1e-12))
        value = float(value)
        numeric_weight = 1.0 - self.none_weight
        z = (value - self._mus) / self._sigmas
        kernel = np.exp(-0.5 * z**2) / (self._sigmas * np.sqrt(2 * np.pi))
        density = kernel.mean()
        return float(max(numeric_weight * density, 1e-12))

    def sample(self, rng: np.random.Generator):
        if self.none_weight > 0 and rng.random() < self.none_weight:
            return None
        index = int(rng.integers(0, self._mus.shape[0]))
        value = rng.normal(self._mus[index], self._sigmas[index])
        return float(np.clip(value, self.low, self.high))


class _ReferenceNumericDensity(_NumericDensityAdapter):
    def __init__(self, dimension, observations):
        super().__init__(dimension, observations)
        self._kde = ReferenceGaussianKDE(dimension.low, dimension.high, observations)


class ReferenceTPEOptimizer(TPEOptimizer):
    """``TPEOptimizer`` with the scalar draw-score-draw proposal loop."""

    def _propose(self, good_density, bad_density) -> Dict[str, object]:
        best_params = None
        best_score = -np.inf
        for _ in range(self.n_candidates):
            candidate = {
                name: good_density[name].sample(self._rng) for name in self.space.names
            }
            score = self._surrogate_score(candidate, good_density, bad_density)
            if score > best_score:
                best_score = score
                best_params = candidate
        if best_params is None:
            return self.space.sample(self._rng)
        return best_params

    def _surrogate_score(self, candidate, good_density, bad_density) -> float:
        score = 0.0
        for name in self.space.names:
            value = candidate[name]
            good_pdf = max(float(good_density[name].pdf(value)), _PDF_FLOOR)
            bad_pdf = max(float(bad_density[name].pdf(value)), _PDF_FLOOR)
            score += np.log(good_pdf) - np.log(bad_pdf)
        return score

    def _fit_densities(self, trials):
        densities = {}
        for dim in self.space.dimensions:
            observations = [t.params.get(dim.name) for t in trials]
            if isinstance(dim, CategoricalDimension):
                densities[dim.name] = ReferenceCategoricalDensity(dim.choices, observations)
            elif isinstance(dim, (RealDimension, IntegerDimension)):
                densities[dim.name] = _ReferenceNumericDensity(dim, observations)
            else:
                raise TypeError(f"Unsupported dimension type {type(dim).__name__}")
        return densities

"""Density estimators used by the TPE surrogate model.

TPE models each dimension independently: categorical dimensions use a
smoothed empirical distribution, numeric dimensions use a 1-D Gaussian kernel
density estimate with Scott's-rule bandwidth.  Values of ``None`` (an absent
predicate bound) are treated as an extra category mixed with the numeric
density, which lets TPE learn whether including a bound at all is promising.

Each density samples one value per call and scores a whole sequence of values
per call: ``pdf(values)`` returns one density per value as an array, so the
optimiser draws every candidate first and then scores them together.
Sampling consumes exactly the generator draws of the straightforward
implementation (``Generator.choice(n, p=...)`` for categories; ``random`` /
``integers`` / ``normal`` for numbers), so the random stream of a search does
not depend on how the scoring is organised.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Density returned for values outside the support (an unknown category), and
# the floor of every numeric density.
_TINY = 1e-12

# Dictionary key standing in for ``None``.  A private object cannot collide
# with any real choice, unlike a sentinel string.
_NONE_KEY = object()


def _key(value):
    return _NONE_KEY if value is None else value


class CategoricalDensity:
    """Smoothed empirical distribution over a finite choice list."""

    def __init__(self, choices: Sequence, observations: Sequence, smoothing: float = 1.0):
        if not smoothing >= 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        self.choices = list(choices)
        # Equal choices share the index of the first one, as in
        # CategoricalDimension.index_of.
        self._index = {}
        for i, c in enumerate(self.choices):
            self._index.setdefault(_key(c), i)
        counts = np.full(len(self.choices), smoothing, dtype=np.float64)
        for value in observations:
            i = self._index.get(_key(value))
            if i is not None:
                counts[i] += 1.0
        total = counts.sum()
        if not (math.isfinite(total) and total > 0):
            raise ValueError(
                f"categorical density over {len(self.choices)} choices has no mass "
                f"(smoothing={smoothing}, no observation among the choices)"
            )
        prob = counts / total
        # One extra slot holds the density of an unknown value (index -1).
        self._pdf_table = np.append(prob, _TINY)
        # Inverse-CDF table, built exactly as Generator.choice(n, p=...) builds
        # it, so sample() consumes and maps the same uniform draw.
        self._cdf = prob.cumsum()
        self._cdf /= self._cdf[-1]

    def pdf(self, values: Sequence) -> np.ndarray:
        """Probability of each value; ``1e-12`` for a value not among the choices."""
        return self._pdf_table[[self._index.get(_key(v), -1) for v in values]]

    def sample(self, rng: np.random.Generator):
        i = int(self._cdf.searchsorted(rng.random(), side="right"))
        return self.choices[i]


class GaussianKDE:
    """1-D adaptive Parzen estimator with optional ``None`` mass.

    Bandwidths follow the original TPE construction (Bergstra et al. 2011):
    each observation gets its own bandwidth equal to the larger of its
    distances to the neighbouring observations (after sorting), clipped to a
    sensible range relative to the search interval.  This makes the estimator
    sharpen automatically as good observations cluster together.

    ``none_weight`` is the empirical fraction of observations that were
    ``None``; sampling returns ``None`` with that probability and otherwise a
    perturbed copy of a random observation.  When there are no numeric
    observations the estimator falls back to a uniform density over
    ``[low, high]``.
    """

    def __init__(self, low: float, high: float, observations: Sequence, min_bandwidth: float = 1e-3):
        self.low = float(low)
        self.high = float(high)
        observations = list(observations)
        values = [v for v in observations if v is not None]
        n_total = max(len(observations), 1)
        self.none_weight = (n_total - len(values)) / n_total
        self.points = np.asarray(values, dtype=np.float64)
        span = max(self.high - self.low, 1e-9)

        # Adaptive Parzen construction following Bergstra et al. (2011) /
        # Hyperopt: the prior (a wide Gaussian at the interval midpoint) is
        # added as one extra component, per-point bandwidths are the larger of
        # the distances to the neighbouring components, and bandwidths are
        # clipped to [span / (1 + n), span] so the mixture sharpens gradually
        # as observations accumulate instead of collapsing immediately.
        prior_mu = (self.low + self.high) / 2.0
        mus = np.concatenate([self.points, [prior_mu]])
        order = np.argsort(mus)
        sorted_mus = mus[order]
        sigmas_sorted = np.full(sorted_mus.shape[0], span, dtype=np.float64)
        if sorted_mus.shape[0] > 1:
            gaps = np.diff(sorted_mus)
            left = np.concatenate([[gaps[0]], gaps])
            right = np.concatenate([gaps, [gaps[-1]]])
            sigmas_sorted = np.maximum(left, right)
        min_bw = span / min(100.0, 1.0 + mus.shape[0])
        min_bw = max(min_bw, min_bandwidth * span)
        sigmas_sorted = np.clip(sigmas_sorted, min_bw, span)
        sigmas = np.empty_like(sigmas_sorted)
        sigmas[order] = sigmas_sorted
        # The prior component always keeps the full-span bandwidth.
        sigmas[-1] = span
        self._mus = mus
        self._sigmas = sigmas
        self._norms = sigmas * np.sqrt(2 * np.pi)
        self.bandwidths = sigmas[:-1]

    def pdf(self, values: Sequence) -> np.ndarray:
        """Mixture density of each value; ``None`` gets ``none_weight``.

        The numeric values are scored as one (values x components) matrix.
        Each row is averaged along the contiguous component axis, which sums
        in the same order as averaging that row on its own.
        """
        values = list(values)
        out = np.full(len(values), max(self.none_weight, _TINY))
        rows = [i for i, v in enumerate(values) if v is not None]
        if rows:
            x = np.array([values[i] for i in rows], dtype=np.float64)
            z = (x[:, None] - self._mus) / self._sigmas
            density = (np.exp(-0.5 * z**2) / self._norms).mean(axis=1)
            out[rows] = np.maximum((1.0 - self.none_weight) * density, _TINY)
        return out

    def sample(self, rng: np.random.Generator):
        if self.none_weight > 0 and rng.random() < self.none_weight:
            return None
        index = int(rng.integers(0, self._mus.shape[0]))
        value = rng.normal(self._mus[index], self._sigmas[index])
        return min(max(value, self.low), self.high)

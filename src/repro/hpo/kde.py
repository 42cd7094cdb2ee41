"""Density estimators used by the TPE surrogate model.

TPE models each dimension independently: categorical dimensions use a
smoothed empirical distribution, numeric dimensions use a 1-D adaptive Parzen
estimator (a Gaussian per observation, its bandwidth the larger gap to a
neighbour).  Values of ``None`` (an absent predicate bound) are treated as an
extra category mixed with the numeric density, which lets TPE learn whether
including a bound at all is promising.

Each density samples one value per call and scores a whole sequence of values
per call: ``pdf(values)`` returns one density per value as an array, so the
optimiser draws every candidate first and then scores them together.
Sampling consumes exactly the generator draws of the straightforward
implementation (``Generator.choice(n, p=...)`` for categories; ``random`` /
``integers`` / ``normal`` for numbers), so the random stream of a search does
not depend on how the scoring is organised.

A categorical density also works on choice indices (:func:`choice_index`):
:meth:`CategoricalDensity.from_indices` fits from encoded observations,
:meth:`~CategoricalDensity.sample_index` draws an index by bisecting a list
CDF, and :meth:`~CategoricalDensity.pdf_at` scores indices with one table
gather.  The tables a draw needs but scoring does not (the categorical CDF,
the KDE's component list) are built on the first draw, so a "bad" density,
which only scores, never builds them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import Dict, Sequence

import numpy as np

# Density returned for values outside the support (an unknown category), and
# the floor of every numeric density.
_TINY = 1e-12

_SQRT_2PI = np.sqrt(2 * np.pi)

# Dictionary key standing in for ``None``.  A private object cannot collide
# with any real choice, unlike a sentinel string.
_NONE_KEY = object()


def choice_key(value):
    """The key of *value* in a :func:`choice_index` map."""
    return _NONE_KEY if value is None else value


def choice_index(choices: Sequence) -> Dict[object, int]:
    """Map each choice to its position; equal choices share the first one's,
    as in :meth:`CategoricalDimension.index_of`.  ``None`` maps under its own
    private key."""
    index: Dict[object, int] = {}
    for i, c in enumerate(choices):
        index.setdefault(choice_key(c), i)
    return index


class CategoricalDensity:
    """Smoothed empirical distribution over a finite choice list.

    Internally a value is its choice index; a value not among the choices has
    index ``len(choices)``, whose pdf-table slot holds ``1e-12``.
    """

    def __init__(self, choices: Sequence, observations: Sequence, smoothing: float = 1.0):
        choices = list(choices)
        index = choice_index(choices)
        unknown = len(choices)
        self._fit(choices, index, [index.get(choice_key(v), unknown) for v in observations], smoothing)

    @classmethod
    def from_indices(
        cls, choices: Sequence, index: Dict[object, int], indices: Sequence[int], smoothing: float = 1.0
    ) -> "CategoricalDensity":
        """The density of already-encoded observations: *index* is
        ``choice_index(choices)`` and *indices* holds one choice index per
        observation (``len(choices)`` for a value not among them)."""
        density = cls.__new__(cls)
        density._fit(list(choices), index, indices, smoothing)
        return density

    def _fit(self, choices: list, index: Dict[object, int], indices: Sequence[int], smoothing: float) -> None:
        if not smoothing >= 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing}")
        self.choices = choices
        self._index = index
        n = len(choices)
        # One slot per choice plus one for unknown values; plain floats, as
        # counting a few dozen observations is cheaper than a numpy call.
        counts = [float(smoothing)] * n + [0.0]
        for i in indices:
            counts[i] += 1.0
        counts = np.array(counts)
        total = np.add.reduce(counts[:n])
        if not (math.isfinite(total) and total > 0):
            raise ValueError(
                f"categorical density over {n} choices has no mass "
                f"(smoothing={smoothing}, no observation among the choices)"
            )
        # The probabilities, and in the last slot the density of an unknown
        # value.
        self._pdf_table = counts / total
        self._pdf_table[n] = _TINY

    @cached_property
    def cdf(self) -> list:
        """Inverse-CDF table, built exactly as Generator.choice(n, p=...)
        builds it, so sample_index() consumes and maps the same uniform draw.
        A list, because bisect_right over it finds the index
        searchsorted(side="right") does without a numpy call per draw.  Built
        on the first draw: a density that only scores never needs it."""
        cdf = self._pdf_table[:-1].cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    def pdf(self, values: Sequence) -> np.ndarray:
        """Probability of each value; ``1e-12`` for a value not among the choices."""
        unknown = len(self.choices)
        return self._pdf_table[[self._index.get(choice_key(v), unknown) for v in values]]

    def pdf_at(self, indices: Sequence[int]) -> np.ndarray:
        """Probability of each choice index: one table gather."""
        return self._pdf_table[indices]

    def sample_index(self, rng: np.random.Generator) -> int:
        """The index of one drawn choice; consumes one ``random()`` draw."""
        return bisect_right(self.cdf, rng.random())

    def sample(self, rng: np.random.Generator):
        return self.choices[self.sample_index(rng)]


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
        span = max(self.high - self.low, 1e-9)

        # Adaptive Parzen construction following Bergstra et al. (2011) /
        # Hyperopt: the prior (a wide Gaussian at the interval midpoint) is
        # added as one extra component, per-point bandwidths are the larger of
        # the distances to the neighbouring components, and bandwidths are
        # clipped to [span / (1 + n), span] so the mixture sharpens gradually
        # as observations accumulate instead of collapsing immediately.
        mus = np.array(values + [(self.low + self.high) / 2.0], dtype=np.float64)
        m = mus.shape[0]
        sigmas = np.empty(m)
        if m > 1:
            order = np.argsort(mus)
            sorted_mus = mus[order]
            gaps = sorted_mus[1:] - sorted_mus[:-1]
            widths = np.empty(m)
            widths[0] = gaps[0]
            widths[-1] = gaps[-1]
            np.maximum(gaps[:-1], gaps[1:], out=widths[1:-1])
            min_bw = span / min(100.0, 1.0 + m)
            min_bw = max(min_bw, min_bandwidth * span)
            sigmas[order] = np.minimum(np.maximum(widths, min_bw), span)
        # The prior component always keeps the full-span bandwidth.
        sigmas[-1] = span
        self.points = mus[:-1]
        self._mus = mus
        self._sigmas = sigmas
        self._norms = sigmas * _SQRT_2PI
        self.bandwidths = sigmas[:-1]

    @cached_property
    def _components(self) -> list:
        """``(mu, sigma)`` of each component as floats, for sample() to index
        one per draw; built on the first draw."""
        return list(zip(self._mus.tolist(), self._sigmas.tolist()))

    def pdf(self, values: Sequence) -> np.ndarray:
        """Mixture density of each value; ``None`` gets ``none_weight``.

        The numeric values are scored as one (values x components) matrix.
        Each row is summed along the contiguous component axis and divided by
        the component count, which is the float ``mean`` of that row alone.
        """
        values = list(values)
        rows = [i for i, v in enumerate(values) if v is not None]
        if not rows:
            return np.full(len(values), max(self.none_weight, _TINY))
        numeric = values if len(rows) == len(values) else [values[i] for i in rows]
        z = np.array(numeric, dtype=np.float64)[:, None] - self._mus
        z /= self._sigmas
        np.square(z, out=z)
        z *= -0.5
        kernels = np.exp(z)
        kernels /= self._norms
        density = np.add.reduce(kernels, axis=1) / self._mus.shape[0]
        if self.none_weight:
            density *= 1.0 - self.none_weight
        density = np.maximum(density, _TINY)
        if len(rows) == len(values):
            return density
        out = np.full(len(values), max(self.none_weight, _TINY))
        out[rows] = density
        return out

    def sample(self, rng: np.random.Generator):
        if self.none_weight > 0 and rng.random() < self.none_weight:
            return None
        mu, sigma = self._components[int(rng.integers(0, len(self._components)))]
        return min(max(rng.normal(mu, sigma), self.low), self.high)

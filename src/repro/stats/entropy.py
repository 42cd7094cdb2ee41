"""Entropy and discretisation utilities.

Codes are non-negative integers, as :func:`discretize` produces them.
Entropies count codes with ``np.bincount`` and keep the non-zero counts in
code order.  That is the count array ``np.unique(codes, return_counts=True)``
gives, so every probability and every sum is the same float.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.ml._splitter import sorted_quantiles


def discretize(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Quantile-bin a continuous array into integer codes.

    Missing values (NaN) receive their own bin code (``n_bins``) so they still
    contribute to dependency estimates.  If the array has fewer distinct
    values than ``n_bins`` the distinct values are used directly: each value
    gets the position of its value among the sorted distinct ones.  Otherwise
    a value's code is the number of the ``n_bins - 1`` inner quantiles
    (numpy's default quantile rule) at or below it.

    The values are sorted once: the distinct values are the starts of its
    runs and the quantiles are read from it by
    :func:`~repro.ml._splitter.sorted_quantiles`.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be at least 1, got {n_bins!r}")
    values = np.asarray(values, dtype=np.float64)
    codes = np.full(values.shape[0], n_bins, dtype=np.int64)
    present = ~np.isnan(values)
    finite = values[present]
    if finite.size == 0:
        return codes
    ordered = np.sort(finite)
    starts = np.empty(ordered.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    distinct = ordered[starts]
    if distinct.size <= n_bins:
        codes[present] = np.searchsorted(distinct, finite)
        return codes
    quantiles = sorted_quantiles(ordered, _inner_levels(n_bins))
    codes[present] = np.searchsorted(quantiles, finite, side="right")
    return codes


@functools.lru_cache(maxsize=None)
def _inner_levels(n_bins: int) -> np.ndarray:
    """``np.linspace(0, 1, n_bins + 1)[1:-1]``, built once per bin count."""
    levels = np.linspace(0, 1, n_bins + 1)[1:-1]
    levels.flags.writeable = False
    return levels


def code_counts(codes: np.ndarray) -> np.ndarray:
    """How often each code occurs, for the codes that occur, in code order."""
    counts = np.bincount(codes)
    return counts[counts > 0]


def entropy_of_counts(counts: np.ndarray) -> float:
    """Shannon entropy (natural log) of the distribution of positive *counts*."""
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def shannon_entropy(codes: np.ndarray) -> float:
    """Shannon entropy (natural log) of a discrete code array."""
    codes = np.asarray(codes)
    if codes.size == 0:
        return 0.0
    return entropy_of_counts(code_counts(codes))

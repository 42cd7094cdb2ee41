"""Entropy and discretisation utilities.

Codes are non-negative integers, as :func:`discretize` produces them.
Entropies count codes with ``np.bincount`` and keep the non-zero counts in
code order.  That is the count array ``np.unique(codes, return_counts=True)``
gives, so every probability and every sum is the same float.
"""

from __future__ import annotations

import numpy as np


def discretize(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Quantile-bin a continuous array into integer codes.

    Missing values (NaN) receive their own bin code (``n_bins``) so they still
    contribute to dependency estimates.  If the array has fewer distinct
    values than ``n_bins`` the distinct values are used directly: each value
    gets the position of its value among the sorted distinct ones.
    """
    values = np.asarray(values, dtype=np.float64)
    codes = np.full(values.shape[0], n_bins, dtype=np.int64)
    finite_mask = ~np.isnan(values)
    finite = values[finite_mask]
    if finite.size == 0:
        return codes
    distinct = np.unique(finite)
    if distinct.size <= n_bins:
        codes[finite_mask] = np.searchsorted(distinct, finite)
        return codes
    quantiles = np.quantile(finite, np.linspace(0, 1, n_bins + 1)[1:-1])
    codes[finite_mask] = np.searchsorted(quantiles, finite, side="right")
    return codes


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

"""The dict- and ``np.unique``-based entropy and MI code (tests only).

This is the discretisation and MI computation that ``repro.stats.entropy``
and ``repro.stats.mutual_information`` replaced: few-distinct-value arrays
are coded through a Python dict, entropies count codes with ``np.unique``,
and the label is coded again on every call.  The replacements must return
the same codes and the same floats, bit for bit.
"""

from __future__ import annotations

import numpy as np


def discretize(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    codes = np.full(values.shape[0], n_bins, dtype=np.int64)
    finite_mask = ~np.isnan(values)
    finite = values[finite_mask]
    if finite.size == 0:
        return codes
    distinct = np.unique(finite)
    if distinct.size <= n_bins:
        lookup = {v: i for i, v in enumerate(distinct)}
        codes[finite_mask] = np.asarray([lookup[v] for v in finite], dtype=np.int64)
        return codes
    quantiles = np.quantile(finite, np.linspace(0, 1, n_bins + 1)[1:-1])
    codes[finite_mask] = np.searchsorted(quantiles, finite, side="right")
    return codes


def _probabilities(codes: np.ndarray) -> np.ndarray:
    _, counts = np.unique(codes, return_counts=True)
    return counts / counts.sum()


def shannon_entropy(codes: np.ndarray) -> float:
    codes = np.asarray(codes)
    if codes.size == 0:
        return 0.0
    p = _probabilities(codes)
    return float(-(p * np.log(p)).sum())


def _as_codes(values, n_bins: int) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype == object:
        lookup = {}
        codes = np.empty(values.shape[0], dtype=np.int64)
        for i, v in enumerate(values):
            key = "__missing__" if v is None else v
            if key not in lookup:
                lookup[key] = len(lookup)
            codes[i] = lookup[key]
        return codes
    return discretize(values.astype(np.float64), n_bins=n_bins)


def conditional_entropy(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    x_codes = np.asarray(x_codes)
    y_codes = np.asarray(y_codes)
    if x_codes.size == 0:
        return 0.0
    total = 0.0
    n = x_codes.shape[0]
    for y_value in np.unique(y_codes):
        mask = y_codes == y_value
        weight = mask.sum() / n
        total += weight * shannon_entropy(x_codes[mask])
    return float(total)


def mutual_information(feature, label, n_bins: int = 10) -> float:
    x_codes = _as_codes(feature, n_bins)
    y_codes = _as_codes(label, n_bins)
    mi = shannon_entropy(x_codes) - conditional_entropy(x_codes, y_codes)
    return float(max(mi, 0.0))

"""Mutual information between a candidate feature and the label.

MI is FeatAug's default low-cost proxy (Section V.C and VI.C.1): instead of
training the downstream model to score a generated feature, the dependency
between the feature and the label is measured.  Continuous inputs are
quantile-binned before the discrete MI computation, matching the standard
practice in the feature-selection literature the paper cites.

The warm-up scores hundreds of features against one label, so the label's
side of ``H(X | Y)`` -- its codes, and the rows and weight of each code -- is
computed once by :func:`label_groups` and passed to
:func:`mutual_information_given`.  :func:`mutual_information` is the same
computation for a one-off pair.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dataframe.column import encode, renumber_codes_compact
from repro.stats.entropy import code_counts, discretize, entropy_of_counts

#: ``(weight, row mask)`` of each label code, in code order.
LabelGroups = List[Tuple[float, np.ndarray]]


def _as_codes(values, n_bins: int) -> np.ndarray:
    """Object arrays are dictionary-coded, ``None`` as a code of its own, in
    first-appearance order; anything else is binned."""
    values = np.asarray(values)
    if values.dtype == object:
        return renumber_codes_compact(encode(values)[0] + 1)[1]
    return discretize(values.astype(np.float64), n_bins=n_bins)


def _groups(y_codes: np.ndarray) -> LabelGroups:
    n = y_codes.shape[0]
    groups = []
    for y_value in np.unique(y_codes):
        mask = y_codes == y_value
        groups.append((mask.sum() / n, mask))
    return groups


def label_groups(label, n_bins: int = 10) -> LabelGroups:
    """The label coded once: the weight and row mask of each label code."""
    return _groups(_as_codes(label, n_bins))


def _conditional_entropy(x_codes: np.ndarray, groups: LabelGroups) -> float:
    total = 0.0
    for weight, mask in groups:
        total += weight * entropy_of_counts(code_counts(x_codes[mask]))
    return float(total)


def conditional_entropy(x_codes: np.ndarray, y_codes: np.ndarray) -> float:
    """H(X | Y) for discrete code arrays."""
    x_codes = np.asarray(x_codes)
    if x_codes.size == 0:
        return 0.0
    return _conditional_entropy(x_codes, _groups(np.asarray(y_codes)))


def mutual_information_given(feature, groups: LabelGroups, n_bins: int = 10) -> float:
    """I(feature; label) against a label coded by :func:`label_groups`."""
    x_codes = _as_codes(feature, n_bins)
    if x_codes.size == 0:
        return 0.0
    mi = entropy_of_counts(code_counts(x_codes)) - _conditional_entropy(x_codes, groups)
    return float(max(mi, 0.0))


def mutual_information(feature, label, n_bins: int = 10) -> float:
    """I(feature; label) = H(feature) - H(feature | label), in nats.

    Both inputs may be continuous (binned), categorical object arrays or
    already-discrete integer codes.  The result is clipped at zero to guard
    against tiny negative values caused by floating point error.
    """
    return mutual_information_given(feature, label_groups(label, n_bins), n_bins)

"""Aggregation functions.

The paper's query templates use the following aggregation function set
(Table II):  SUM, MIN, MAX, COUNT, AVG, COUNT DISTINCT, VAR, VAR_SAMPLE, STD,
STD_SAMPLE, ENTROPY, KURTOSIS, MODE, MAD and MEDIAN.  Every function maps a
(possibly empty) group of values to a single float.  Missing values are
ignored; empty groups yield ``NaN`` (except COUNT variants which yield 0).

Accumulation-order contract: every floating-point total in this module goes
through :func:`_seq_sum` -- a strict left-to-right sum -- rather than
``np.sum`` (pairwise association).  The vectorized grouped kernels
(:mod:`repro.dataframe.grouped_kernels`) accumulate per group via
``np.bincount``, which adds weights one at a time in row order, i.e. exactly
a strict sequential sum per group.  Sharing that association order is what
makes the kernels **bit-for-bit identical** to this per-group reference for
all 15 aggregates, so switching the engine between kernel modes can never
perturb a search trajectory by even an ulp.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.dataframe.column import Column, renumber_codes_compact


def _clean(values: np.ndarray) -> np.ndarray:
    """Drop NaNs from a float array."""
    return values[~np.isnan(values)]


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum (the accumulation-order contract above).

    ``np.bincount`` with a single zero-valued bin *is* a strict sequential
    sum at vectorized speed, and is the same primitive the grouped kernels
    total with -- guaranteeing bit-identical accumulation.
    """
    if not values.size:
        return 0.0
    return float(
        np.bincount(np.zeros(values.size, dtype=np.intp), weights=values, minlength=1)[0]
    )


def agg_sum(values: np.ndarray) -> float:
    v = _clean(values)
    return _seq_sum(v) if v.size else float("nan")


def agg_min(values: np.ndarray) -> float:
    v = _clean(values)
    return float(v.min()) if v.size else float("nan")


def agg_max(values: np.ndarray) -> float:
    v = _clean(values)
    return float(v.max()) if v.size else float("nan")


def agg_count(values: np.ndarray) -> float:
    return float(_clean(values).size)


def agg_avg(values: np.ndarray) -> float:
    v = _clean(values)
    return _seq_sum(v) / v.size if v.size else float("nan")


def agg_count_distinct(values: np.ndarray) -> float:
    v = _clean(values)
    return float(np.unique(v).size)


def _sum_squared_deviations(v: np.ndarray) -> float:
    """Two-pass sum of squared deviations from the (sequential) mean.

    Values near the float64 limits overflow to inf / NaN here by IEEE
    semantics (the vectorized kernels do the same), so the warnings are
    silenced rather than emitted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dev = v - _seq_sum(v) / v.size
        return _seq_sum(dev * dev)


def agg_var(values: np.ndarray) -> float:
    v = _clean(values)
    return _sum_squared_deviations(v) / v.size if v.size else float("nan")


def agg_var_sample(values: np.ndarray) -> float:
    v = _clean(values)
    return _sum_squared_deviations(v) / (v.size - 1) if v.size > 1 else float("nan")


def agg_std(values: np.ndarray) -> float:
    v = _clean(values)
    return float(np.sqrt(_sum_squared_deviations(v) / v.size)) if v.size else float("nan")


def agg_std_sample(values: np.ndarray) -> float:
    v = _clean(values)
    if v.size < 2:
        return float("nan")
    return float(np.sqrt(_sum_squared_deviations(v) / (v.size - 1)))


def agg_entropy(values: np.ndarray) -> float:
    """Shannon entropy (natural log) of the empirical value distribution."""
    v = _clean(values)
    if not v.size:
        return float("nan")
    _, counts = np.unique(v, return_counts=True)
    p = counts / counts.sum()
    return _seq_sum(-(p * np.log(p)))


def agg_kurtosis(values: np.ndarray) -> float:
    """Excess kurtosis (Fisher definition, ``m4 / var**2 - 3``); 0.0 for
    zero-variance groups.

    Zero variance is decided on the *values* (``max == min``), not on the
    computed variance: accumulated rounding in the mean can leave it a few
    ulps above zero for a constant group (e.g. twelve copies of 19.99), and
    branching on that noise would make the result depend on summation order.
    """
    v = _clean(values)
    if v.size < 2:
        return float("nan")
    if v.max() == v.min():
        return 0.0
    var = _sum_squared_deviations(v) / v.size
    if var == 0:
        return 0.0
    # IEEE semantics via numpy scalars: var**2 can underflow to 0 for
    # subnormal-range values (or the powers overflow near the float64
    # limits), and the result must then be NaN/inf (exactly what the
    # vectorized kernel computes), not a ZeroDivisionError or a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dev = v - _seq_sum(v) / v.size
        dev2 = dev * dev
        m4 = _seq_sum(dev2 * dev2) / v.size
        ratio = np.float64(m4) / (np.float64(var) * np.float64(var))
    return float(ratio - 3.0)


def agg_mode(values: np.ndarray) -> float:
    """Most frequent value; ties break deterministically to the **smallest**.

    ``np.unique`` returns the distinct values in ascending order and
    ``np.argmax`` returns the *first* position of the maximum count, so among
    equally frequent values the smallest one always wins.  This tie-breaking
    rule is part of the aggregate's contract: the sort-based grouped kernel
    (:meth:`repro.dataframe.grouped_kernels.GroupedAggregator.mode`) relies on
    it to stay element-wise identical, and
    ``tests/dataframe/test_aggregates.py`` pins it with regression tests.
    """
    v = _clean(values)
    if not v.size:
        return float("nan")
    uniques, counts = np.unique(v, return_counts=True)
    return float(uniques[np.argmax(counts)])


def agg_mad(values: np.ndarray) -> float:
    """Median absolute deviation from the median."""
    v = _clean(values)
    if not v.size:
        return float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        med = np.median(v)
        return float(np.median(np.abs(v - med)))


def agg_median(values: np.ndarray) -> float:
    v = _clean(values)
    if not v.size:
        return float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.median(v))


AGGREGATE_FUNCTIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "SUM": agg_sum,
    "MIN": agg_min,
    "MAX": agg_max,
    "COUNT": agg_count,
    "AVG": agg_avg,
    "COUNT_DISTINCT": agg_count_distinct,
    "VAR": agg_var,
    "VAR_SAMPLE": agg_var_sample,
    "STD": agg_std,
    "STD_SAMPLE": agg_std_sample,
    "ENTROPY": agg_entropy,
    "KURTOSIS": agg_kurtosis,
    "MODE": agg_mode,
    "MAD": agg_mad,
    "MEDIAN": agg_median,
}

#: Aggregations that are meaningful on categorical columns (after hashing the
#: categories to integer codes): counting and diversity measures.
CATEGORICAL_SAFE_AGGREGATES = {"COUNT", "COUNT_DISTINCT", "ENTROPY", "MODE"}

#: Default aggregation set used when a template does not specify one --
#: matches the function list in Table II of the paper.
DEFAULT_AGGREGATES = list(AGGREGATE_FUNCTIONS.keys())


def normalise_aggregate_name(name: str) -> str:
    """Canonicalise an aggregation function name: ``"count distinct"`` ->
    ``"COUNT_DISTINCT"``.

    Raises ``KeyError`` for a name outside the 15 functions of Table II.
    """
    canonical = name.strip().upper().replace(" ", "_")
    if canonical not in AGGREGATE_FUNCTIONS:
        raise KeyError(f"Unknown aggregation function {name!r}")
    return canonical


def aggregate(name: str, values: np.ndarray) -> float:
    """Apply the aggregation function *name* to a float array of group values."""
    func = AGGREGATE_FUNCTIONS[normalise_aggregate_name(name)]
    return func(np.asarray(values, dtype=np.float64))


def column_to_aggregable(column: Column, rows=None) -> np.ndarray:
    """Convert a column to a float array suitable for aggregation.

    Numeric-like columns are used as-is.  Categorical columns are converted
    to stable integer codes so COUNT / COUNT_DISTINCT / ENTROPY / MODE remain
    meaningful: each label's code is its rank of first appearance.  When
    *rows* is given (an ascending array of row positions), codes are
    assigned by first appearance over those rows only -- exactly what this
    function would produce on the filtered table -- scattered into a
    full-length array (other positions stay NaN).
    """
    if column.is_numeric_like:
        return column.values
    codes, dictionary = column.coding
    rows = np.arange(len(column)) if rows is None else np.asarray(rows, dtype=np.int64)
    picked = codes[rows]
    present = picked >= 0
    _, renumbered, _ = renumber_codes_compact(picked[present], len(dictionary))
    out = np.full(len(column), np.nan, dtype=np.float64)
    out[rows[present]] = renumbered
    return out

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

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.dataframe.column import Column, renumber_codes_compact

AggregateParam = Union[float, int]


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
    """Two-pass sum of squared deviations from the (sequential) mean."""
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
    dev = v - _seq_sum(v) / v.size
    dev2 = dev * dev
    m4 = _seq_sum(dev2 * dev2) / v.size
    # IEEE semantics via numpy scalars: var**2 can underflow to 0 for
    # subnormal-range values, and the result must then be NaN/inf (exactly
    # what the vectorized kernel computes), not a ZeroDivisionError.
    with np.errstate(invalid="ignore", divide="ignore"):
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
    med = np.median(v)
    return float(np.median(np.abs(v - med)))


def agg_median(values: np.ndarray) -> float:
    v = _clean(values)
    return float(np.median(v)) if v.size else float("nan")


def agg_quantile(values: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile at ``q`` over the sorted non-NaN values.

    The interpolation formula is spelled out rather than delegated to
    ``np.quantile`` so the vectorized grouped kernel can replay the exact
    same elementwise IEEE operations per group and stay bit-identical:
    ``pos = q * (n - 1); lo = trunc(pos); frac = pos - lo`` and the result
    is ``sv[lo]`` when ``frac == 0`` else ``sv[lo] + (sv[lo+1] - sv[lo]) * frac``.
    """
    v = np.sort(_clean(values))
    if not v.size:
        return float("nan")
    pos = q * (v.size - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0:
        return float(v[lo])
    return float(v[lo] + (v[lo + 1] - v[lo]) * frac)


def agg_top_k_share(values: np.ndarray, k: int) -> float:
    """Share of the group's non-NaN rows held by its ``k`` most frequent values.

    Counts are exact integers, so the numerator is order-insensitive (no
    accumulation-order concern) and count ties at the ``k`` boundary cannot
    change the result.
    """
    v = _clean(values)
    if not v.size:
        return float("nan")
    _, counts = np.unique(v, return_counts=True)
    top = np.sort(counts)[::-1][: int(k)]
    return float(int(top.sum()) / v.size)


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

def _parse_quantile_param(raw: object) -> float:
    q = float(raw)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"QUANTILE parameter must lie in [0, 1], got {raw!r}")
    return q


def _parse_top_k_param(raw: object) -> int:
    k = int(float(raw))
    if k < 1:
        raise ValueError(f"TOP_K_SHARE parameter must be a positive integer, got {raw!r}")
    return k


#: Parameterized aggregate families: name -> (reference function taking
#: ``(values, param)``, parameter parser/validator).  Spelled as
#: ``"FAMILY:param"`` in query-level names, e.g. ``"QUANTILE:0.25"`` or
#: ``"TOP_K_SHARE:3"``.
PARAMETERIZED_AGGREGATES: Dict[
    str, Tuple[Callable[[np.ndarray, AggregateParam], float], Callable[[object], AggregateParam]]
] = {
    "QUANTILE": (agg_quantile, _parse_quantile_param),
    "TOP_K_SHARE": (agg_top_k_share, _parse_top_k_param),
}

#: Aggregations that are meaningful on categorical columns (after hashing the
#: categories to integer codes): counting and diversity measures.
#: ``TOP_K_SHARE`` qualifies because it only looks at value frequencies.
CATEGORICAL_SAFE_AGGREGATES = {"COUNT", "COUNT_DISTINCT", "ENTROPY", "MODE", "TOP_K_SHARE"}

#: Default aggregation set used when a template does not specify one --
#: matches the function list in Table II of the paper.
DEFAULT_AGGREGATES = list(AGGREGATE_FUNCTIONS.keys())


def _basic_normalise(name: str) -> str:
    return name.strip().upper().replace(" ", "_")


def parse_aggregate_name(name: str) -> Tuple[str, Optional[AggregateParam]]:
    """Split an aggregate name into ``(canonical function, parameter)``.

    Plain names parse to ``(NAME, None)``.  Parameterized spellings such as
    ``"quantile:0.25"`` parse to ``("QUANTILE", 0.25)`` with the parameter
    validated by the family's parser.  Unknown families raise ``KeyError``;
    invalid parameter values raise ``ValueError``.
    """
    if ":" in name:
        head, _, tail = name.partition(":")
        func = _basic_normalise(head)
        if func not in PARAMETERIZED_AGGREGATES:
            raise KeyError(f"Unknown parameterized aggregation function {name!r}")
        _, parser = PARAMETERIZED_AGGREGATES[func]
        try:
            param = parser(tail.strip())
        except (TypeError, ValueError) as exc:
            raise ValueError(f"Invalid parameter in aggregate name {name!r}: {exc}") from exc
        return func, param
    return _basic_normalise(name), None


def canonical_aggregate_name(func: str, param: Optional[AggregateParam] = None) -> str:
    """Render the canonical spelling of an aggregate: ``"SUM"``, ``"QUANTILE:0.25"``."""
    func = _basic_normalise(func)
    if param is None:
        return func
    if func not in PARAMETERIZED_AGGREGATES:
        raise KeyError(f"Aggregation function {func!r} does not take a parameter")
    _, parser = PARAMETERIZED_AGGREGATES[func]
    value = parser(param)
    rendered = repr(float(value)) if isinstance(value, float) else str(int(value))
    return f"{func}:{rendered}"


def resolve_aggregate(
    func: str, param: Optional[AggregateParam] = None
) -> Callable[[np.ndarray], float]:
    """Return the per-group reference callable for ``func`` (+ ``param``).

    ``func`` is a canonical base name (``"SUM"``, ``"QUANTILE"``).  Plain
    aggregates reject a parameter; parameterized families require one.
    """
    func = _basic_normalise(func)
    if func in PARAMETERIZED_AGGREGATES:
        if param is None:
            raise ValueError(f"Aggregation function {func!r} requires a parameter")
        reference, parser = PARAMETERIZED_AGGREGATES[func]
        value = parser(param)
        return lambda values: reference(values, value)
    if func not in AGGREGATE_FUNCTIONS:
        raise KeyError(f"Unknown aggregation function {func!r}")
    if param is not None:
        raise ValueError(f"Aggregation function {func!r} does not take a parameter")
    return AGGREGATE_FUNCTIONS[func]


def aggregate(name: str, values: np.ndarray) -> float:
    """Apply the aggregation function *name* to a float array of group values."""
    func, param = parse_aggregate_name(name)
    if param is None and func not in AGGREGATE_FUNCTIONS:
        raise KeyError(f"Unknown aggregation function {name!r}")
    return resolve_aggregate(func, param)(np.asarray(values, dtype=np.float64))


def normalise_aggregate_name(name: str) -> str:
    """Canonicalise an aggregation function name.

    ``"count distinct"`` -> ``"COUNT_DISTINCT"``; parameterized spellings are
    re-rendered canonically, e.g. ``"quantile: .5"`` -> ``"QUANTILE:0.5"``.
    """
    if ":" in name:
        func, param = parse_aggregate_name(name)
        return canonical_aggregate_name(func, param)
    return _basic_normalise(name)


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

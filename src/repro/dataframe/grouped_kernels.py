"""Vectorized grouped-aggregation kernels.

Given factorized group codes (one ``int64`` code in ``[0, n_groups)`` per row,
e.g. from :func:`repro.dataframe.groupby.factorize_key_codes`) and a float64
value array, a :class:`GroupedAggregator` computes any of the 15 aggregation
functions of :mod:`repro.dataframe.aggregates` for **every group at once**:

* ``np.bincount`` drives the accumulation family (COUNT, SUM, AVG, VAR,
  VAR_SAMPLE, STD, STD_SAMPLE, KURTOSIS),
* one ``np.lexsort`` per value array drives the order-statistics family
  (MIN, MAX, MEDIAN, MAD) via segment boundaries, and
* equal-value *runs* inside the sorted segments drive the distribution
  family (COUNT_DISTINCT, ENTROPY, MODE).

Intermediates (NaN-stripped values, group counts, sums, deviations, the
sorted segments and the value runs) are computed lazily and shared across
functions, so evaluating all 15 aggregates costs roughly one sort plus a
handful of ``bincount`` passes -- this is what makes
``QueryEngine.execute_batch`` scale past the per-group Python loop.  The sort
order itself is an **injectable** intermediate: callers may pass a
precomputed ``sort_order`` to the constructor or hook an ``order_cache``
callable onto the aggregator, so the lexsort that dominates the
order-statistics family (``SORT_BASED_KERNELS``) runs at most once per
(filter, grouping, value column) -- the query engine caches these orders
across whole query batches (see ``QueryEngine.sort_order``).

Semantics contract (matching :func:`repro.dataframe.aggregates.aggregate`
element-wise):

* NaN values are dropped per group before aggregating.
* Empty groups (no rows, or all values NaN) yield ``NaN``, except COUNT and
  COUNT_DISTINCT which yield ``0.0``.
* VAR_SAMPLE / STD_SAMPLE need at least two values, else ``NaN``.
* KURTOSIS needs at least two values (else ``NaN``) and is ``0.0`` for
  zero-variance groups (decided on ``max == min``).
* MODE ties break deterministically to the **smallest** value (see
  :func:`repro.dataframe.aggregates.agg_mode`).

Every kernel is **bit-for-bit identical** to the per-group Python reference,
including the floating-point accumulations: the reference aggregates total
through a strict left-to-right sum (``aggregates._seq_sum``) and
``np.bincount`` adds its weights one at a time in row order, so both paths
associate every addition identically (the accumulation-order contract in
:mod:`repro.dataframe.aggregates`).  The kernel-equivalence suite in
``tests/dataframe/test_grouped_kernels.py`` pins this down on arbitrary
finite floats, and it is what lets the engine switch kernel modes without
perturbing a search trajectory by even an ulp.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dataframe.aggregates import (
    AGGREGATE_FUNCTIONS,
    PARAMETERIZED_AGGREGATES,
    parse_aggregate_name,
)

#: The 15 plain aggregate functions of Table II, every one with a vectorized
#: kernel.  Parameterized families (``PARAMETERIZED_KERNELS``) are kept
#: separate because their bare names are not computable without a parameter.
GROUPED_KERNELS = frozenset(AGGREGATE_FUNCTIONS)

#: Parameterized aggregate families with vectorized kernels; computed via
#: ``compute("QUANTILE", 0.25)`` or the spelled form ``compute("QUANTILE:0.25")``.
PARAMETERIZED_KERNELS = frozenset(PARAMETERIZED_AGGREGATES)

#: Kernels whose evaluation touches the shared (code, value) sort order.
#: KURTOSIS is here because its zero-variance test reads MIN / MAX off the
#: sorted segments; QUANTILE reads the sorted segments directly and
#: TOP_K_SHARE reads the equal-value runs derived from them; the remaining
#: accumulation kernels are pure ``bincount`` passes and never trigger a sort.
SORT_BASED_KERNELS = frozenset(
    {
        "MIN",
        "MAX",
        "MEDIAN",
        "MAD",
        "MODE",
        "ENTROPY",
        "COUNT_DISTINCT",
        "KURTOSIS",
        "QUANTILE",
        "TOP_K_SHARE",
    }
)


class GroupedAggregator:
    """All 15 grouped aggregates over one (codes, values) pair, vectorized.

    Parameters
    ----------
    codes:
        ``int64`` group id per row, each in ``[0, n_groups)``.  Groups that no
        row references are legal and behave as empty groups.
    values:
        float64 aggregation values aligned to *codes*; NaN marks missing.
    n_groups:
        Number of output groups (the length of every result array).
    sort_order:
        Optional precomputed ``np.lexsort((values, codes))`` order over the
        **NaN-stripped** rows (see :meth:`sort_order`).  Passing an order
        computed for the same (codes, values) pair -- e.g. one cached by the
        query engine across queries of a template -- skips the lexsort that
        otherwise dominates the order-statistics kernels, and is bit-neutral:
        lexsort is deterministic, so the provided order is exactly the one
        the aggregator would compute itself.
    """

    def __init__(
        self,
        codes: np.ndarray,
        values: np.ndarray,
        n_groups: int,
        sort_order: Optional[np.ndarray] = None,
    ):
        codes = np.asarray(codes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if codes.shape != values.shape:
            raise ValueError(
                f"codes and values must align: {codes.shape} vs {values.shape}"
            )
        self.n_groups = int(n_groups)
        valid = ~np.isnan(values)
        if valid.all():
            self._codes, self._values = codes, values
        else:
            self._codes, self._values = codes[valid], values[valid]
        if sort_order is not None and len(sort_order) != len(self._values):
            raise ValueError(
                f"sort_order must cover the {len(self._values)} NaN-stripped "
                f"rows, got {len(sort_order)} entries"
            )
        self._counts = np.bincount(self._codes, minlength=self.n_groups)
        self._nonempty = self._counts > 0
        #: Optional external order source: a callable taking this
        #: aggregator's own compute thunk and returning the (possibly cached)
        #: order array.  The query engine hooks its LRU sort-order cache in
        #: here so the lexsort runs at most once per (predicate, keys, value
        #: column) across queries; left ``None``, the aggregator sorts
        #: locally exactly as before.
        self.order_cache: Optional[
            Callable[[Callable[[], np.ndarray]], np.ndarray]
        ] = None
        #: Same protocol as :attr:`order_cache`, but for MAD's second order:
        #: the lexsort over |x - group median| deviations.  The engine keys it
        #: per (sort key, MEDIAN) pair next to the main order in its LRU.
        self.mad_order_cache: Optional[
            Callable[[Callable[[], np.ndarray]], np.ndarray]
        ] = None
        # Lazily shared intermediates.
        self._order: Optional[np.ndarray] = sort_order
        self._mad_dev: Optional[np.ndarray] = None
        self._mad_order: Optional[np.ndarray] = None
        self._sums: Optional[np.ndarray] = None
        self._means: Optional[np.ndarray] = None
        self._dev: Optional[np.ndarray] = None
        self._ssd: Optional[np.ndarray] = None
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._runs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._medians: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compute(self, name: str, param=None) -> np.ndarray:
        """The per-group results of aggregate *name* (length ``n_groups``).

        Parameterized families take their parameter either via *param*
        (``compute("QUANTILE", 0.25)``) or spelled into the name
        (``compute("QUANTILE:0.25")``) -- but not both.
        """
        key, parsed = parse_aggregate_name(name)
        if parsed is not None:
            if param is not None:
                raise ValueError(
                    f"Aggregate {name!r} spells its parameter; do not pass param too"
                )
            param = parsed
        if key in PARAMETERIZED_AGGREGATES:
            if param is None:
                raise ValueError(f"Aggregation function {key!r} requires a parameter")
            _, parser = PARAMETERIZED_AGGREGATES[key]
            return self._PARAM_KERNELS[key](self, parser(param))
        if param is not None:
            raise ValueError(f"Aggregation function {key!r} does not take a parameter")
        kernel = self._KERNELS.get(key)
        if kernel is None:
            raise KeyError(f"No grouped kernel for aggregation function {name!r}")
        return kernel(self)

    @property
    def counts(self) -> np.ndarray:
        """Non-NaN value count per group (``int64``)."""
        return self._counts

    def sort_order(self) -> np.ndarray:
        """The ``np.lexsort((values, codes))`` order over the stripped rows.

        Resolved at most once: a constructor-provided order wins, else the
        :attr:`order_cache` hook (the engine's shared cache) is consulted,
        else the lexsort runs locally.  This is the single order every
        order-statistics kernel (and the distribution family's value runs)
        reads through :meth:`_sorted_segments`.
        """
        if self._order is None:
            if self.order_cache is not None:
                order = self.order_cache(self._compute_sort_order)
                if len(order) != len(self._values):
                    # Same guard the constructor applies to a provided
                    # order: a stale or colliding cached order must fail
                    # loudly, not silently corrupt every order statistic.
                    raise ValueError(
                        f"cached sort order covers {len(order)} rows, "
                        f"expected {len(self._values)} NaN-stripped rows"
                    )
                self._order = order
            else:
                self._order = self._compute_sort_order()
        return self._order

    def _compute_sort_order(self) -> np.ndarray:
        return np.lexsort((self._values, self._codes))

    def resolve_sort_order(self) -> None:
        """Force :meth:`sort_order` resolution now (timing-neutral warm-up).

        The engine's backends call this *outside* their per-kernel timer so
        the lexsort (or the cache lookup replacing it) is accounted to the
        sorting phase, not to whichever sort-based kernel happens to run
        first.
        """
        self.sort_order()

    def mad_deviations(self) -> np.ndarray:
        """``|x - group median|`` per NaN-stripped row (MAD's value array)."""
        if self._mad_dev is None:
            medians = self._group_medians()
            with np.errstate(over="ignore", invalid="ignore"):
                self._mad_dev = np.abs(self._values - medians[self._codes])
        return self._mad_dev

    def mad_sort_order(self) -> np.ndarray:
        """The ``np.lexsort((mad_deviations, codes))`` order over the rows.

        MAD is a second grouped median, so it needs a second order -- over
        the deviations instead of the values.  Like :meth:`sort_order` it is
        resolved at most once, consulting :attr:`mad_order_cache` first so
        repeated queries of a template stop paying the deviation lexsort.
        The deviations are a deterministic function of (codes, values), so a
        cached order is exactly the one a local sort would produce.
        """
        if self._mad_order is None:
            # The deviation values are needed regardless of where the order
            # comes from (only the lexsort itself is cacheable), and
            # computing them first resolves the main order too -- so the
            # compute thunk below never re-enters an order-cache hook.
            self.mad_deviations()
            if self.mad_order_cache is not None:
                order = self.mad_order_cache(self._compute_mad_order)
                if len(order) != len(self._values):
                    raise ValueError(
                        f"cached MAD order covers {len(order)} rows, "
                        f"expected {len(self._values)} NaN-stripped rows"
                    )
                self._mad_order = order
            else:
                self._mad_order = self._compute_mad_order()
        return self._mad_order

    def _compute_mad_order(self) -> np.ndarray:
        return np.lexsort((self.mad_deviations(), self._codes))

    def resolve_mad_order(self) -> None:
        """Force :meth:`mad_sort_order` resolution (timing-neutral warm-up).

        Resolves the main order too (the deviations need the group medians),
        so both sorts are booked to the engine's sorting phase before MAD's
        kernel timer starts.
        """
        self.mad_sort_order()

    # ------------------------------------------------------------------
    # Shared intermediates
    # ------------------------------------------------------------------
    def _group_sums(self) -> np.ndarray:
        if self._sums is None:
            self._sums = np.bincount(
                self._codes, weights=self._values, minlength=self.n_groups
            )
        return self._sums

    def _group_means(self) -> np.ndarray:
        if self._means is None:
            with np.errstate(invalid="ignore"):
                self._means = self._group_sums() / self._counts
        return self._means

    def _deviations(self) -> np.ndarray:
        """Per-row deviation from the row's group mean (two-pass, like np.var).

        Overflow near the float64 limits yields inf / NaN by IEEE semantics,
        exactly like the scalar reference, so it is not warned about here or
        in the squared-deviation, kurtosis and median arithmetic below.
        """
        if self._dev is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._dev = self._values - self._group_means()[self._codes]
        return self._dev

    def _sum_squared_deviations(self) -> np.ndarray:
        if self._ssd is None:
            dev = self._deviations()
            with np.errstate(over="ignore", invalid="ignore"):
                squared = dev * dev
            self._ssd = np.bincount(
                self._codes, weights=squared, minlength=self.n_groups
            )
        return self._ssd

    def _sorted_segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Values sorted by (group, value) plus each group's segment start.

        Empty groups get the start offset of their successor; callers must
        only index segments of non-empty groups.
        """
        if self._sorted is None:
            self._sorted = (self._values[self.sort_order()], self._segment_starts())
        return self._sorted

    def _segment_starts(self) -> np.ndarray:
        starts = np.zeros(self.n_groups, dtype=np.int64)
        if self.n_groups > 1:
            np.cumsum(self._counts[:-1], out=starts[1:])
        return starts

    def _median_from_sorted(self, svals: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Per-group median from segment-sorted values."""
        result = np.full(self.n_groups, np.nan)
        ne = self._nonempty
        if ne.any():
            s, c = starts[ne], self._counts[ne]
            med = svals[s + (c - 1) // 2].copy()
            # Even segments: np.median averages the two middle elements; odd
            # segments keep the element itself (averaging (v + v) / 2 would
            # overflow near the float64 maximum).
            even = (c % 2) == 0
            if even.any():
                lo, hi = med[even], svals[(s + c // 2)[even]]
                with np.errstate(over="ignore", invalid="ignore"):
                    med[even] = (lo + hi) / 2.0
            result[ne] = med
        return result

    def _group_medians(self) -> np.ndarray:
        if self._medians is None:
            # Reuse the shared sorted segments: MEDIAN must not pay a second
            # lexsort when MIN/MAX/MODE/... already sorted the values.
            self._medians = self._median_from_sorted(*self._sorted_segments())
        return self._medians

    def _value_runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Runs of equal values inside the sorted segments.

        Returns ``(run_group, run_value, run_count)``, ordered by
        (group ascending, value ascending) -- one run per distinct value per
        group, which is exactly the ``np.unique(..., return_counts=True)``
        view the Python aggregates take of each group.
        """
        if self._runs is None:
            svals, _ = self._sorted_segments()
            n = svals.shape[0]
            if n == 0:
                empty = np.empty(0, dtype=np.int64)
                self._runs = (empty, np.empty(0, dtype=np.float64), empty)
                return self._runs
            scodes = np.repeat(
                np.arange(self.n_groups, dtype=np.int64), self._counts
            )
            new_run = np.empty(n, dtype=bool)
            new_run[0] = True
            new_run[1:] = (svals[1:] != svals[:-1]) | (scodes[1:] != scodes[:-1])
            run_starts = np.flatnonzero(new_run)
            run_count = np.diff(np.append(run_starts, n))
            self._runs = (scodes[run_starts], svals[run_starts], run_count)
        return self._runs

    def _nan_where_empty(self, values: np.ndarray, copy: bool = False) -> np.ndarray:
        """NaN for empty groups; *copy* protects cached intermediate arrays."""
        values = np.asarray(values, dtype=np.float64)
        if not self._nonempty.all():
            if copy:
                values = values.copy()
            values[~self._nonempty] = np.nan
        return values

    # ------------------------------------------------------------------
    # Kernels (one per aggregate function)
    # ------------------------------------------------------------------
    def count(self) -> np.ndarray:
        return self._counts.astype(np.float64)

    def sum(self) -> np.ndarray:
        return self._nan_where_empty(self._group_sums(), copy=True)

    def avg(self) -> np.ndarray:
        return self._nan_where_empty(self._group_means(), copy=True)

    def min(self) -> np.ndarray:
        svals, starts = self._sorted_segments()
        result = np.full(self.n_groups, np.nan)
        ne = self._nonempty
        if ne.any():
            result[ne] = svals[starts[ne]]
        return result

    def max(self) -> np.ndarray:
        svals, starts = self._sorted_segments()
        result = np.full(self.n_groups, np.nan)
        ne = self._nonempty
        if ne.any():
            result[ne] = svals[starts[ne] + self._counts[ne] - 1]
        return result

    def median(self) -> np.ndarray:
        return self._group_medians().copy()

    def mad(self) -> np.ndarray:
        """Median absolute deviation: a second grouped median over |x - med|."""
        deviations = self.mad_deviations()
        return self._median_from_sorted(
            deviations[self.mad_sort_order()], self._segment_starts()
        )

    def var(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self._nan_where_empty(self._sum_squared_deviations() / self._counts)

    def var_sample(self) -> np.ndarray:
        result = np.full(self.n_groups, np.nan)
        enough = self._counts > 1
        if enough.any():
            result[enough] = self._sum_squared_deviations()[enough] / (
                self._counts[enough] - 1
            )
        return result

    def std(self) -> np.ndarray:
        return np.sqrt(self.var())

    def std_sample(self) -> np.ndarray:
        return np.sqrt(self.var_sample())

    def kurtosis(self) -> np.ndarray:
        """Excess kurtosis; NaN below two values, 0.0 for zero-variance groups.

        Like :func:`repro.dataframe.aggregates.agg_kurtosis`, zero variance is
        decided on the group's value range (``max == min``), so constant
        groups are exactly 0.0 regardless of float accumulation order.
        """
        result = np.full(self.n_groups, np.nan)
        enough = self._counts > 1
        if not enough.any():
            return result
        constant = self.max() == self.min()  # NaN for empty groups -> False
        dev = self._deviations()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dev2 = dev * dev
            m4 = np.bincount(self._codes, weights=dev2 * dev2, minlength=self.n_groups)
            m4 = m4 / self._counts
            # Mirror agg_kurtosis exactly: m4 / var**2 - 3.
            var = self._sum_squared_deviations() / self._counts
            ratio = m4 / (var * var) - 3.0
        zero_variance = constant[enough] | (var[enough] == 0.0)
        result[enough] = np.where(zero_variance, 0.0, ratio[enough])
        return result

    def count_distinct(self) -> np.ndarray:
        run_group, _, _ = self._value_runs()
        return np.bincount(run_group, minlength=self.n_groups).astype(np.float64)

    def entropy(self) -> np.ndarray:
        run_group, _, run_count = self._value_runs()
        if run_group.size == 0:
            return np.full(self.n_groups, np.nan)
        p = run_count / self._counts[run_group]
        terms = -(p * np.log(p))
        return self._nan_where_empty(
            np.bincount(run_group, weights=terms, minlength=self.n_groups)
        )

    def mode(self) -> np.ndarray:
        """Most frequent value; ties break to the smallest value.

        Runs are ordered by value within each group, so the first run that
        reaches the group's maximum count is the smallest tied value --
        the same winner ``agg_mode`` picks via ascending ``np.unique`` plus
        first-occurrence ``argmax``.
        """
        run_group, run_value, run_count = self._value_runs()
        result = np.full(self.n_groups, np.nan)
        if run_group.size == 0:
            return result
        best = np.zeros(self.n_groups, dtype=np.int64)
        np.maximum.at(best, run_group, run_count)
        qualifies = run_count == best[run_group]
        groups, first = np.unique(run_group[qualifies], return_index=True)
        result[groups] = run_value[qualifies][first]
        return result

    def quantile(self, q: float) -> np.ndarray:
        """Linear-interpolation quantile at *q* per group.

        Replays :func:`repro.dataframe.aggregates.agg_quantile`'s formula
        elementwise over the shared sorted segments -- ``pos = q * (n - 1)``,
        truncate, interpolate -- so the result is bit-identical to the
        per-group reference for every q.
        """
        svals, starts = self._sorted_segments()
        result = np.full(self.n_groups, np.nan)
        ne = self._nonempty
        if not ne.any():
            return result
        s, c = starts[ne], self._counts[ne]
        pos = q * (c - 1)
        lo = pos.astype(np.int64)
        frac = pos - lo
        v_lo = svals[s + lo]
        # Clamped gather: rows with frac == 0 never read v_hi, but np.where
        # evaluates both branches, so the index must stay in the segment.
        v_hi = svals[s + np.minimum(lo + 1, c - 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            result[ne] = np.where(frac == 0.0, v_lo, v_lo + (v_hi - v_lo) * frac)
        return result

    def top_k_share(self, k: int) -> np.ndarray:
        """Share of each group's non-NaN rows held by its *k* most frequent values.

        Works over the equal-value runs: order runs by descending count
        within each group, keep each group's first *k*, and total their
        counts.  Counts are exact integers, so the per-group totals (and the
        final division by the group size) match
        :func:`repro.dataframe.aggregates.agg_top_k_share` bit for bit.
        """
        run_group, _, run_count = self._value_runs()
        result = np.full(self.n_groups, np.nan)
        if run_group.size == 0:
            return result
        order = np.lexsort((-run_count, run_group))
        ordered_group = run_group[order]
        ordered_count = run_count[order]
        runs_per_group = np.bincount(run_group, minlength=self.n_groups)
        group_start = np.zeros(self.n_groups, dtype=np.int64)
        if self.n_groups > 1:
            np.cumsum(runs_per_group[:-1], out=group_start[1:])
        rank = np.arange(ordered_group.size, dtype=np.int64) - group_start[ordered_group]
        selected = rank < int(k)
        top = np.bincount(
            ordered_group[selected],
            weights=ordered_count[selected].astype(np.float64),
            minlength=self.n_groups,
        )
        ne = self._nonempty
        result[ne] = top[ne] / self._counts[ne]
        return result

    #: name -> unbound kernel method, keyed by canonical aggregate name.
    _KERNELS = {
        "SUM": sum,
        "MIN": min,
        "MAX": max,
        "COUNT": count,
        "AVG": avg,
        "COUNT_DISTINCT": count_distinct,
        "VAR": var,
        "VAR_SAMPLE": var_sample,
        "STD": std,
        "STD_SAMPLE": std_sample,
        "ENTROPY": entropy,
        "KURTOSIS": kurtosis,
        "MODE": mode,
        "MAD": mad,
        "MEDIAN": median,
    }

    #: parameterized family -> unbound kernel method taking (self, param).
    _PARAM_KERNELS = {
        "QUANTILE": quantile,
        "TOP_K_SHARE": top_k_share,
    }


def grouped_aggregate(
    name: str,
    codes: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    sort_order: Optional[np.ndarray] = None,
    param=None,
) -> np.ndarray:
    """One-shot helper: aggregate *values* per group code with kernel *name*."""
    return GroupedAggregator(codes, values, n_groups, sort_order=sort_order).compute(
        name, param
    )


def grouped_aggregate_many(
    names,
    codes: np.ndarray,
    values: np.ndarray,
    n_groups: int,
    sort_order: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Evaluate several aggregates over one grouping, sharing intermediates.

    Parameterized aggregates are accepted via their spelled names
    (``"QUANTILE:0.25"``).
    """
    aggregator = GroupedAggregator(codes, values, n_groups, sort_order=sort_order)
    return {name: aggregator.compute(name) for name in names}

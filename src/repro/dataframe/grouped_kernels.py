"""Vectorized grouped-aggregation kernels.

Given factorized group codes (one ``int64`` code in ``[0, n_groups)`` per row,
e.g. from :func:`repro.dataframe.groupby.factorize_key_codes`) and a float64
value array, a :class:`GroupedAggregator` computes any of the 15 aggregation
functions of :mod:`repro.dataframe.aggregates` for **every group at once**:

* ``np.bincount`` drives the accumulation family (COUNT, SUM, AVG, VAR,
  VAR_SAMPLE, STD, STD_SAMPLE, KURTOSIS),
* the values sorted by (code, value) -- gathered through
  ``np.lexsort((values, codes))``, or decoded from one in-place sort of
  packed ``code << 32 | value rank`` integer keys
  (:meth:`GroupedAggregator.derive_sorted_values`) -- drive the
  order-statistics family (MIN, MAX, MEDIAN, MAD) via segment boundaries,
  and
* equal-value *runs* inside the sorted segments drive the distribution
  family (COUNT_DISTINCT, ENTROPY, MODE).

Intermediates (NaN-stripped values, group counts, sums, deviations, the
sorted segments and the value runs) are computed lazily and shared across
functions, so evaluating all 15 aggregates costs roughly one sort plus a
handful of ``bincount`` passes -- this is what makes
``QueryEngine.execute_batch`` scale past the per-group Python loop.  The
sorted values themselves are an **injectable** intermediate: callers may
hook a ``sorted_cache`` callable onto the aggregator, so the sort that
dominates the order-statistics family (``SORT_BASED_KERNELS``) runs at most once per
(filter, grouping, value column) -- the query engine caches them across
whole query batches (see ``QueryEngine.sort_order``) and builds them from
one value rank per column (``QueryEngine.value_rank``).

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

from typing import Callable, Optional, Tuple

import numpy as np

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS, normalise_aggregate_name

#: The 15 aggregate functions of Table II, every one with a vectorized kernel.
GROUPED_KERNELS = frozenset(AGGREGATE_FUNCTIONS)

#: Kernels whose evaluation reads the values sorted by (code, value).
#: KURTOSIS is here because its zero-variance test reads MIN / MAX off the
#: sorted segments; the remaining accumulation kernels are pure ``bincount``
#: passes and never trigger a sort.
SORT_BASED_KERNELS = frozenset(
    {"MIN", "MAX", "MEDIAN", "MAD", "MODE", "ENTROPY", "COUNT_DISTINCT", "KURTOSIS"}
)


def _sort_packed(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The *low* halves (in ``[0, 2**32)``) of the keys ``high << 32 | low``
    in sorted key order: one in-place SIMD ``np.sort``, no argsort."""
    key = high << 32
    key |= low
    key.sort()
    key &= (1 << 32) - 1
    return key


def rank_values(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rank, values[order])`` for ``order = np.argsort(values, kind="stable")``.

    ``rank`` is the inverse of ``order``: each row's rank in the stable
    ascending value order, where equal values (``-0.0`` and ``0.0``
    included) rank by row position and NaN rows rank last; ``int32`` below
    ``2**31`` rows.  Built without a stable sort: one
    ``np.unique(return_inverse=True)`` over the non-NaN values (NaN would
    push numpy's argsort off its vectorised path) gives each row a value
    id, and :func:`_sort_packed` orders the ``value id << 32 | row`` keys.
    """
    n = values.shape[0]
    if n > 1 << 32:
        raise ValueError(f"cannot rank {n} rows in 32-bit sort keys")
    nan = np.isnan(values)
    rows = np.flatnonzero(~nan)
    _, ids = np.unique(values[rows], return_inverse=True)
    order = np.concatenate((_sort_packed(ids, rows), np.flatnonzero(nan)))
    rank = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
    rank[order] = np.arange(n, dtype=rank.dtype)
    return rank, values.take(order)


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
    """

    def __init__(self, codes: np.ndarray, values: np.ndarray, n_groups: int):
        codes = np.asarray(codes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if codes.shape != values.shape:
            raise ValueError(
                f"codes and values must align: {codes.shape} vs {values.shape}"
            )
        self.n_groups = int(n_groups)
        valid = ~np.isnan(values)
        #: Which input rows survive NaN stripping (``None`` = all of them).
        self._valid: Optional[np.ndarray] = None
        if valid.all():
            self._codes, self._values = codes, values
        else:
            self._codes, self._values = codes[valid], values[valid]
            self._valid = valid
        self._counts = np.bincount(self._codes, minlength=self.n_groups)
        self._nonempty = self._counts > 0
        #: Optional external source of the sorted values: a callable taking
        #: this aggregator's own compute thunk and returning the (possibly
        #: cached) array.  The query engine hooks its LRU sort-order cache
        #: in here so the sort runs at most once per (predicate, keys, value
        #: column) across queries; left ``None``, the aggregator sorts
        #: locally.
        self.sorted_cache: Optional[
            Callable[[Callable[[], np.ndarray]], np.ndarray]
        ] = None
        #: The :attr:`sorted_cache` protocol for MAD's second sort, whose
        #: result is an order: the (code, |x - group median|) order.  The
        #: engine keys it per (sort key, MEDIAN) pair in the same LRU.
        self.mad_order_cache: Optional[
            Callable[[Callable[[], np.ndarray]], np.ndarray]
        ] = None
        #: Optional rank source, ``(value_rank, rows)``: a zero-argument
        #: callable returning :func:`rank_values` of the column, plus the
        #: plan rows -- the arguments of :meth:`derive_sorted_values`, used
        #: instead of a lexsort.  (The engine sets this rather than a
        #: ``sorted_cache`` closing over the aggregator: such a reference
        #: cycle would hold every intermediate until the cyclic garbage
        #: collector ran.)
        self.value_rank: Optional[
            Tuple[Callable[[], Tuple[np.ndarray, np.ndarray]], Optional[np.ndarray]]
        ] = None
        # Lazily shared intermediates.
        self._svals: Optional[np.ndarray] = None
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
    def compute(self, name: str) -> np.ndarray:
        """The per-group results of aggregate *name* (length ``n_groups``)."""
        return self._KERNELS[normalise_aggregate_name(name)](self)

    @property
    def counts(self) -> np.ndarray:
        """Non-NaN value count per group (``int64``)."""
        return self._counts

    def sorted_values(self) -> np.ndarray:
        """The NaN-stripped values sorted by (code, value).

        Equal to ``values[np.lexsort((values, codes))]`` over the stripped
        rows, bit for bit.  Resolved at most once: the :attr:`sorted_cache`
        hook (the engine's shared cache) is consulted if set, else they are
        computed locally: decoded from
        packed rank keys when :attr:`value_rank` is set, else gathered
        through a lexsort.  Every order-statistics kernel (and the
        distribution family's value runs) reads this one array through
        :meth:`_sorted_segments`.
        """
        if self._svals is None:
            if self.sorted_cache is not None:
                svals = self.sorted_cache(self._compute_sorted_values)
                if len(svals) != len(self._values):
                    # A stale or colliding cache entry must fail loudly, not
                    # silently corrupt every order statistic.
                    raise ValueError(
                        f"cached sorted values cover {len(svals)} rows, "
                        f"expected {len(self._values)} NaN-stripped rows"
                    )
                self._svals = svals
            else:
                self._svals = self._compute_sorted_values()
        return self._svals

    def _compute_sorted_values(self) -> np.ndarray:
        if self.value_rank is not None:
            ranked, rows = self.value_rank
            return self.derive_sorted_values(*ranked(), rows)
        return self._values[np.lexsort((self._values, self._codes))]

    def derive_sorted_values(
        self,
        value_rank: np.ndarray,
        values_by_rank: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`sorted_values`, from one sort of packed integer keys.

        The aggregator's input values must be ``base[rows]`` for a float64
        array ``base`` (``rows=None``: ``base`` itself), with *rows*
        ascending, and ``(value_rank, values_by_rank)`` must be
        :func:`rank_values` of ``base``.  Each NaN-stripped row gets the
        key ``code << 32 | rank``; the keys are unique and sort by group,
        then value, then row position, as ``np.lexsort((values, codes))``
        orders the rows.  The sorted keys' ranks decode into the rows' own
        values (``-0.0`` included).  Only the plan's own rows are read.
        """
        rank = value_rank if rows is None else value_rank[rows]
        if self._valid is not None:
            rank = rank[self._valid]
        return values_by_rank.take(_sort_packed(self._codes, rank))

    def mad_deviations(self) -> np.ndarray:
        """``|x - group median|`` per NaN-stripped row (MAD's value array)."""
        if self._mad_dev is None:
            medians = self._group_medians()
            with np.errstate(over="ignore", invalid="ignore"):
                self._mad_dev = np.abs(self._values - medians[self._codes])
        return self._mad_dev

    def mad_sort_order(self) -> np.ndarray:
        """An order of the rows by (code, ``mad_deviations``).

        MAD is a second grouped median, so it needs a second order -- over
        the deviations instead of the values.  Equal deviations within a
        group may come in any row order: MAD reads only the deviation
        values at the median positions, which every such order shares.
        Like :meth:`sorted_values` it is resolved at most once, consulting
        :attr:`mad_order_cache` first so repeated queries of a template stop
        paying the deviation sort.  The deviations are a deterministic
        function of (codes, values), so a cached order is exactly the one a
        local sort would produce.
        """
        if self._mad_order is None:
            # The deviation values are needed regardless of where the order
            # comes from (only the sort itself is cacheable), and
            # computing them first resolves the sorted values too -- so the
            # compute thunk below never re-enters a cache hook.
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
        # Sort the deviations, then stable-sort that order by group code
        # (LSD radix sort).  Deviations are never -0.0 and NaN sorts last in
        # both passes, so the sorted deviation values equal the lexsort's.
        order = np.argsort(self.mad_deviations())
        group = self._codes[order]
        if self.n_groups <= 1 << 16:
            group = group.astype(np.uint16)
        return order[np.argsort(group, kind="stable")]

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
            self._sorted = (self.sorted_values(), self._segment_starts())
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
            # sort when MIN/MAX/MODE/... already sorted the values.
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

"""The vectorized grouped-kernel backend (the default execution path).

Registered as ``"numpy"`` behind the
:class:`~repro.query.backends.base.ExecutionBackend` seam: every
aggregate is computed for all groups at once from the factorized group codes
(:mod:`repro.dataframe.grouped_kernels` -- ``np.bincount`` for the
accumulation family, one sort + segment boundaries for the order-statistics
and distribution families).  Results are **bit-for-bit identical** to the
per-group Python reference thanks to the accumulation-order contract in
:mod:`repro.dataframe.aggregates`.

All aggregate specs of a fused plan run in **one pass per value column**:
the plan scaffolding (shared with the python backend via
:class:`~repro.query.backends.base.GroupIndexBackend`) iterates the plan's
``specs_by_attr`` grouping, so every spec of one attribute aggregates off a
single :class:`GroupedAggregator` whose intermediates -- above all the
(code, value) order the order-statistics family shares -- are built once.
The order itself is resolved through the engine's LRU **sort-order cache**
(:meth:`QueryEngine.sort_order`, keyed by ``QueryPlan.sort_key``), so
queries of one template reuse it *across* plans and batches.  On a miss,
a numeric-like value column's order is one ``np.argsort`` of the plan rows'
packed ``code * num_rows + rank`` keys, the ranks coming from the engine's
per-attribute value rank (:meth:`QueryEngine.value_rank`), instead of a
per-plan ``np.lexsort``.  MAD's deviation order is an ``np.argsort`` of the
deviations followed by a stable pass over group codes.  Categorical value
columns keep the lexsort, because their filter-local codes are not in
dictionary order.
"""

from __future__ import annotations

from functools import partial

from repro.dataframe.grouped_kernels import SORT_BASED_KERNELS, GroupedAggregator
from repro.query.backends.base import GroupIndexBackend, register_backend
from repro.query.plan import QueryPlan


@register_backend("numpy")
class NumpyBackend(GroupIndexBackend):
    """Vectorized grouped-aggregation kernels over the engine's group index."""

    def prepare_attr(self, plan: QueryPlan, attr: str, context: dict):
        row_idx = context["row_idx"]
        engine = self.engine
        aligned = engine.agg_values(attr, row_idx)
        values = aligned if row_idx is None else aligned[row_idx]
        aggregator = GroupedAggregator(context["codes"], values, context["n_groups"])
        # The aggregator resolves each order at most once; these hooks route
        # that one resolution through the engine's shared sort-order cache
        # (reuse across plans and batches).  On a miss, a numeric-like
        # column's order sorts packed keys over the column's value ranks;
        # categorical columns lexsort.  MAD's deviation order has its own
        # key, (sort key, "MEDIAN").
        sort_key, mad_sort_key = plan.sort_key(attr), plan.mad_sort_key(attr)
        if engine.table.column(attr).is_numeric_like:
            aggregator.value_rank = (partial(engine.value_rank, attr), row_idx)
        aggregator.order_cache = lambda compute: engine.sort_order(sort_key, compute)
        aggregator.mad_order_cache = lambda compute: engine.sort_order(
            mad_sort_key, compute
        )
        return aggregator

    def before_aggregate(self, spec, prepared) -> None:
        # Resolve the shared order outside the kernel timer, so
        # kernel_seconds / seconds_aggregating measure the kernel's own work
        # and the order's construction books exactly once, into
        # seconds_sorting.  MAD also resolves its second order (over
        # |x - group median| deviations) so both of its sorts book to the
        # sorting phase, not the kernel.
        if spec.func in SORT_BASED_KERNELS:
            prepared.resolve_sort_order()
        if spec.func == "MAD":
            prepared.resolve_mad_order()

    def aggregate(self, spec, prepared):
        return prepared.compute(spec.func, spec.param)

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
(code, value) lexsort order the order-statistics family shares -- are built
once.  The order itself is resolved through the engine's LRU **sort-order
cache** (:meth:`QueryEngine.sort_order`, keyed by ``QueryPlan.sort_key``),
so queries of one template reuse it *across* plans and batches; the plan
context carries the resolved orders so the scheduler's aggregate-spec-split
units of one heavy plan consult the engine cache exactly once per value
column regardless of the worker count.
"""

from __future__ import annotations

import threading

from repro.dataframe.grouped_kernels import SORT_BASED_KERNELS, GroupedAggregator
from repro.query.backends.base import GroupIndexBackend, register_backend
from repro.query.plan import QueryPlan


@register_backend("numpy")
class NumpyBackend(GroupIndexBackend):
    """Vectorized grouped-aggregation kernels over the engine's group index."""

    def plan_context(self, plan: QueryPlan) -> dict:
        context = super().plan_context(plan)
        # The plan's resolved sort orders, memoised under one lock *per value
        # column* so the spec-split units sharing this context consult the
        # engine's sort-order cache exactly once per column (deterministic
        # sort_hits / sort_misses at any worker count) while lexsorts for
        # distinct columns still run concurrently.  MAD's deviation orders
        # get their own memo slot and engine key -- (sort key, "MEDIAN") --
        # but share the per-column lock (both orders belong to one column's
        # prepared state and are never resolved concurrently with profit).
        context["sort_orders"] = {}
        context["mad_orders"] = {}
        context["mad_sort_keys"] = {
            attr: plan.mad_sort_key(attr) for attr in context["sort_keys"]
        }
        context["sort_locks"] = {attr: threading.Lock() for attr in context["sort_keys"]}
        return context

    def prepare_attr(self, attr: str, context: dict):
        row_idx = context["row_idx"]
        values = self.engine.agg_values(attr, row_idx)
        if row_idx is not None:
            values = values[row_idx]
        aggregator = GroupedAggregator(context["codes"], values, context["n_groups"])
        aggregator.order_cache = self._order_cache(
            attr, context, "sort_orders", "sort_keys"
        )
        aggregator.mad_order_cache = self._order_cache(
            attr, context, "mad_orders", "mad_sort_keys"
        )
        return aggregator

    def _order_cache(self, attr: str, context: dict, memo_slot: str, key_slot: str):
        """A memoising accessor onto the engine's shared sort-order cache.

        Returns ``order_cache(compute) -> order``: the plan-context memo
        (*memo_slot*) is checked first (idempotent across the plan's
        scheduling units), then the engine cache under the plan's *key_slot*
        key (reuse across plans and batches), and only then does *compute*
        -- the aggregator's own lexsort thunk -- run, timed into
        ``seconds_sorting`` by the engine.  The same accessor serves the
        main (value, code) order and MAD's deviation order; only the memo
        slot and cache key differ.
        """
        engine = self.engine
        sort_key = context[key_slot].get(attr)
        orders, lock = context[memo_slot], context["sort_locks"][attr]

        def order_cache(compute):
            with lock:
                order = orders.get(attr)
                if order is None:
                    order = engine.sort_order(sort_key, compute)
                    orders[attr] = order
                return order

        return order_cache

    def before_aggregate(self, spec, prepared) -> None:
        # Resolve the shared order outside the kernel timer, so
        # kernel_seconds / seconds_aggregating measure the kernel's own work
        # and the lexsort books exactly once, into seconds_sorting.  MAD also
        # resolves its second order (over |x - group median| deviations) so
        # both of its sorts book to the sorting phase, not the kernel.
        if spec.func in SORT_BASED_KERNELS:
            prepared.resolve_sort_order()
        if spec.func == "MAD":
            prepared.resolve_mad_order()

    def aggregate(self, spec, prepared):
        return prepared.compute(spec.func, spec.param)

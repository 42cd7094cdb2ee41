"""The per-group Python-loop backend (the in-engine reference path).

Registered as ``"python"`` behind the
:class:`~repro.query.backends.base.ExecutionBackend` seam: group row
positions are materialised and every aggregate runs the scalar reference
functions of :mod:`repro.dataframe.aggregates` one group at a time.  It is
the baseline the kernel benchmark measures the numpy backend against, and the
executable in-process specification newer backends are compared to.  The
plan scaffolding is shared with the numpy backend via
:class:`~repro.query.backends.base.GroupIndexBackend`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.dataframe.aggregates import resolve_aggregate
from repro.query.backends.base import GroupIndexBackend, register_backend


@register_backend("python")
class PythonBackend(GroupIndexBackend):
    """Per-group Python aggregation loop over the engine's group index."""

    def prepare_attr(self, attr: str, context: dict) -> List[np.ndarray]:
        # The per-group row positions are plan-level (attribute-independent);
        # memoise them in the shared context across this plan's aggregates.
        group_rows = context.get("group_rows")
        if group_rows is None:
            group_rows = self.engine.group_rows(
                context["index"], context["codes"], context["n_groups"], context["row_idx"]
            )
            context["group_rows"] = group_rows
        values = self.engine.agg_values(attr, context["row_idx"])
        return [values[rows] for rows in group_rows]

    def aggregate(self, spec, prepared: List[np.ndarray]):
        reference = resolve_aggregate(spec.func, spec.param)
        feature = np.empty(len(prepared), dtype=np.float64)
        for g, chunk in enumerate(prepared):
            feature[g] = reference(chunk)
        return feature

"""Query templates: the quadruple ``T = (F, A, P, K)`` (Definition 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import DEFAULT_AGGREGATES, normalise_aggregate_name
from repro.dataframe.table import Table


@dataclass(frozen=True)
class QueryTemplate:
    """A query template w.r.t. a relevant table.

    Attributes
    ----------
    agg_funcs:
        ``F`` -- the candidate aggregation functions, kept in canonical
        spelling; a name outside Table II raises ``KeyError``.
    agg_attrs:
        ``A`` -- attributes of the relevant table that may be aggregated.
    predicate_attrs:
        ``P`` -- the fixed attribute combination forming the WHERE clause.
    keys:
        ``K`` -- the foreign-key attributes used for GROUP BY / joining.
    """

    agg_funcs: Tuple[str, ...]
    agg_attrs: Tuple[str, ...]
    predicate_attrs: Tuple[str, ...]
    keys: Tuple[str, ...]

    def __init__(
        self,
        agg_funcs: Sequence[str] | None,
        agg_attrs: Sequence[str],
        predicate_attrs: Sequence[str],
        keys: Sequence[str],
    ):
        funcs = tuple(
            normalise_aggregate_name(f) for f in (agg_funcs if agg_funcs else DEFAULT_AGGREGATES)
        )
        object.__setattr__(self, "agg_funcs", funcs)
        object.__setattr__(self, "agg_attrs", tuple(agg_attrs))
        object.__setattr__(self, "predicate_attrs", tuple(predicate_attrs))
        object.__setattr__(self, "keys", tuple(keys))
        if not self.agg_attrs:
            raise ValueError("A query template needs at least one aggregation attribute")
        if not self.keys:
            raise ValueError("A query template needs at least one group-by key")

    def validate_against(self, relevant_table: Table) -> None:
        """Raise ``KeyError`` if any referenced attribute is missing from the table."""
        for name in self.agg_attrs + self.predicate_attrs + self.keys:
            if name not in relevant_table:
                raise KeyError(f"Template references missing column {name!r}")

    def encode(self, universe: Sequence[str]) -> np.ndarray:
        """One-hot encode the WHERE-clause attribute combination over *universe*.

        This is the encoding used to train the template performance predictor
        (Section VI.C.2): position ``i`` is 1 when ``universe[i]`` participates
        in the template's predicate attribute set.
        """
        encoding = np.zeros(len(universe), dtype=np.float64)
        members = set(self.predicate_attrs)
        for i, name in enumerate(universe):
            if name in members:
                encoding[i] = 1.0
        return encoding

"""Query pools: the search space of one query template (Definition 2, §V.A).

A :class:`QueryPool` inspects the relevant table once to collect the domain of
every predicate attribute (distinct values for categoricals, min/max for
numeric and datetime attributes) and builds the corresponding
:class:`~repro.hpo.space.SearchSpace`:

* one categorical dimension for the aggregation function,
* one categorical dimension for the aggregation attribute,
* per categorical predicate attribute: one categorical dimension over the
  attribute's values plus ``None`` ("no predicate"), decoded to an equality
  predicate,
* per numeric/datetime predicate attribute: two optional real dimensions for
  the lower and upper bound, decoded to a closed range,
* one categorical dimension selecting the (non-empty) subset of the foreign
  key used for GROUP BY.

These are all the dimensions there are, so the space has the paper's
``2 + n + 2m + |K|`` vector layout.

The pool also converts HPO parameter dictionaries back into executable
:class:`~repro.query.query.PredicateAwareQuery` objects; :meth:`QueryPool.decode`
is where a query's typed WHERE atoms are built.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.column import DType
from repro.dataframe.table import Table
from repro.hpo.space import CategoricalDimension, RealDimension, SearchSpace
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.template import QueryTemplate

#: Maximum number of distinct values kept per categorical predicate attribute;
#: rarer values are dropped from the search space to keep it tractable.
MAX_CATEGORICAL_VALUES = 30


def _non_empty_key_subsets(keys: Sequence[str]) -> List[Tuple[str, ...]]:
    subsets: List[Tuple[str, ...]] = []
    keys = list(keys)
    n = len(keys)
    for mask in range(1, 2**n):
        subsets.append(tuple(keys[i] for i in range(n) if mask & (1 << i)))
    # Prefer the full key first so the default grouping matches the paper.
    subsets.sort(key=lambda s: -len(s))
    return subsets


class QueryPool:
    """The pool of candidate predicate-aware queries for one template."""

    def __init__(self, template: QueryTemplate, relevant_table: Table, relation_name: str = "R"):
        template.validate_against(relevant_table)
        self.template = template
        self.relation_name = relation_name
        self._categorical_domains: Dict[str, List] = {}
        self._numeric_domains: Dict[str, Tuple[float, float]] = {}
        self._dtypes: Dict[str, DType] = {}
        self._collect_domains(relevant_table)
        self.space = self._build_space()

    # ------------------------------------------------------------------
    # Domain collection and space construction
    # ------------------------------------------------------------------
    def _collect_domains(self, table: Table) -> None:
        for attr in self.template.predicate_attrs:
            column = table.column(attr)
            self._dtypes[attr] = column.dtype
            if column.dtype is DType.CATEGORICAL:
                self._categorical_domains[attr] = self._capped_domain(column)
            else:
                self._numeric_domains[attr] = self._adjusted_bounds(
                    column.min(), column.max()
                )

    @staticmethod
    def _capped_domain(column) -> List:
        """The search-space domain for one categorical attribute.

        Under the cap it is the full first-appearance value list; over the
        cap the most frequent values win (stable sort: frequency ties keep
        first-appearance order).
        """
        values = column.unique()
        if len(values) > MAX_CATEGORICAL_VALUES:
            codes, dictionary = column.coding
            counts = np.bincount(codes[codes >= 0], minlength=len(dictionary))
            values = sorted(values, key=lambda v: -counts[dictionary.code_of(v)])
            values = values[:MAX_CATEGORICAL_VALUES]
        return values

    @staticmethod
    def _adjusted_bounds(low: float, high: float) -> Tuple[float, float]:
        """The sampling adjustments applied to raw min/max bounds."""
        if np.isnan(low) or np.isnan(high):
            low, high = 0.0, 1.0
        if low == high:
            high = low + 1.0
        return (float(low), float(high))

    def _build_space(self) -> SearchSpace:
        dimensions = [
            CategoricalDimension("agg_func", list(self.template.agg_funcs)),
            CategoricalDimension("agg_attr", list(self.template.agg_attrs)),
        ]
        for attr in self.template.predicate_attrs:
            if self._dtypes[attr] is DType.CATEGORICAL:
                choices = [None] + list(self._categorical_domains[attr])
                dimensions.append(CategoricalDimension(f"pred::{attr}", choices))
            else:
                low, high = self._numeric_domains[attr]
                dimensions.append(
                    RealDimension(f"pred_low::{attr}", low, high, optional=True)
                )
                dimensions.append(
                    RealDimension(f"pred_high::{attr}", low, high, optional=True)
                )
        dimensions.append(
            CategoricalDimension("group_keys", _non_empty_key_subsets(self.template.keys))
        )
        return SearchSpace(dimensions)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def decode(self, params: Dict[str, object]) -> PredicateAwareQuery:
        """Convert an HPO parameter dictionary into an executable query.

        A categorical attribute's value becomes an equality atom and a
        numeric / datetime attribute's bounds a closed range, swapped when
        sampled in the wrong order so that ``low <= high``.  An attribute
        left at ``None`` (both bounds ``None``) gets no atom.
        """
        atoms: List[PredicateAtom] = []
        for attr in self.template.predicate_attrs:
            dtype = self._dtypes[attr]
            if dtype is DType.CATEGORICAL:
                value = params.get(f"pred::{attr}")
                if value is not None:
                    atoms.append(PredicateAtom("eq", attr, value=value))
                continue
            low = params.get(f"pred_low::{attr}")
            high = params.get(f"pred_high::{attr}")
            if low is None and high is None:
                continue
            if low is not None and high is not None and low > high:
                low, high = high, low
            atoms.append(PredicateAtom("range", attr, low=low, high=high, dtype=dtype))
        group_keys = params.get("group_keys") or tuple(self.template.keys)
        return PredicateAwareQuery(
            agg_func=params["agg_func"],
            agg_attr=params["agg_attr"],
            keys=tuple(group_keys),
            atoms=tuple(atoms),
            relation_name=self.relation_name,
        )

    def sample_random(self, seed: int | None = None, n: int = 1) -> List[PredicateAwareQuery]:
        """Draw *n* random queries from the pool."""
        rng = np.random.default_rng(seed)
        return [self.decode(self.space.sample(rng)) for _ in range(n)]

    def domain_of(self, attr: str):
        """Domain of one predicate attribute (list of values or (low, high))."""
        if attr in self._categorical_domains:
            return list(self._categorical_domains[attr])
        if attr in self._numeric_domains:
            return self._numeric_domains[attr]
        raise KeyError(f"{attr!r} is not a predicate attribute of this pool")

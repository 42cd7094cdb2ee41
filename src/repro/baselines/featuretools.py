"""Featuretools-style deep feature synthesis (the paper's main baseline).

Featuretools generates every ``SELECT k, agg(a) FROM R GROUP BY k`` feature --
the full cross product of aggregation functions and aggregation attributes --
without any WHERE clause (Example 3).  This module reimplements that
behaviour on top of the query layer, so Featuretools features are simply
predicate-free :class:`PredicateAwareQuery` objects and share all downstream
machinery (execution, joining, evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dataframe.aggregates import (
    CATEGORICAL_SAFE_AGGREGATES,
    DEFAULT_AGGREGATES,
    normalise_aggregate_name,
)
from repro.dataframe.table import Table
from repro.query.augment import augment_training_table
from repro.query.executor import execute_query
from repro.query.query import PredicateAwareQuery


@dataclass
class FeaturetoolsFeature:
    """One materialised Featuretools feature: its query, name and train values."""

    query: PredicateAwareQuery
    name: str


class FeaturetoolsGenerator:
    """Materialise every aggregation feature from a one-to-many relevant table."""

    def __init__(
        self,
        keys: Sequence[str],
        agg_funcs: Sequence[str] | None = None,
        max_features: int | None = None,
    ):
        self.keys = tuple(keys)
        self.agg_funcs = list(agg_funcs) if agg_funcs else list(DEFAULT_AGGREGATES)
        self.max_features = max_features

    # ------------------------------------------------------------------
    def candidate_queries(self, relevant_table: Table, agg_attrs: Sequence[str] | None = None) -> List[PredicateAwareQuery]:
        """The full (agg function x agg attribute) cross product as queries."""
        if agg_attrs is None:
            agg_attrs = [
                name for name in relevant_table.column_names if name not in self.keys
            ]
        queries: List[PredicateAwareQuery] = []
        for attr in agg_attrs:
            column = relevant_table.column(attr)
            for func in self.agg_funcs:
                if (
                    not column.is_numeric_like
                    and normalise_aggregate_name(func) not in CATEGORICAL_SAFE_AGGREGATES
                ):
                    continue
                queries.append(
                    PredicateAwareQuery(
                        agg_func=func,
                        agg_attr=attr,
                        keys=self.keys,
                    )
                )
                if self.max_features is not None and len(queries) >= self.max_features:
                    return queries
        return queries

    # ------------------------------------------------------------------
    def generate(
        self,
        training_table: Table,
        relevant_table: Table,
        agg_attrs: Sequence[str] | None = None,
        prefix: str = "ft",
    ):
        """Materialise every candidate feature onto the training table.

        Returns ``(augmented_table, features)`` where ``features`` is the list
        of :class:`FeaturetoolsFeature` records in generation order.  Features
        whose values are constant (or entirely missing) on the training table
        are dropped, mirroring Featuretools' behaviour of pruning useless
        aggregations.
        """
        queries = self.candidate_queries(relevant_table, agg_attrs)
        augmented = training_table
        features: List[FeaturetoolsFeature] = []
        for query in queries:
            name = f"{prefix}_{query.agg_func}_{query.agg_attr}".lower()
            feature_table = execute_query(query, relevant_table)
            candidate = augment_training_table(
                augmented, feature_table, query.keys, query.feature_name, name
            )
            values = candidate.column(name).values
            finite = values[~np.isnan(values)]
            if finite.size == 0 or np.unique(finite).size <= 1:
                continue
            augmented = candidate
            features.append(FeaturetoolsFeature(query=query, name=name))
        return augmented, features

"""A small columnar table engine.

This subpackage replaces the pandas dependency used by the original FeatAug
implementation.  It provides exactly the relational operations FeatAug needs:

* typed columns (numeric, categorical, datetime, boolean),
* vectorised predicate evaluation (equality and range predicates),
* hash group-by with the 15 aggregation functions listed in the paper,
* left joins used to attach generated features to the training table,
* CSV input/output for the example scripts.
"""

from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.dataframe.predicates import (
    Predicate,
    Equals,
    Range,
    And,
)
from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS, aggregate
from repro.dataframe.groupby import group_by_aggregate
from repro.dataframe.io import read_csv, write_csv

__all__ = [
    "Column",
    "DType",
    "Table",
    "Predicate",
    "Equals",
    "Range",
    "And",
    "AGGREGATE_FUNCTIONS",
    "aggregate",
    "group_by_aggregate",
    "read_csv",
    "write_csv",
]

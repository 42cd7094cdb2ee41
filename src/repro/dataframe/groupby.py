"""Hash group-by with aggregation.

This is the execution engine behind every generated query: after the WHERE
clause has filtered the relevant table, rows are grouped by the foreign-key
column(s) and a single aggregation function is applied to the aggregation
attribute, producing a one-row-per-key feature table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import (
    AGGREGATE_FUNCTIONS,
    column_to_aggregable,
    normalise_aggregate_name,
)
from repro.dataframe.column import Column, DType, renumber_codes_compact
from repro.dataframe.table import Table


def factorize_column(column: Column) -> Tuple[np.ndarray, List]:
    """Factorize one column into integer codes plus the label of each code.

    Returns ``(codes, labels)`` where ``codes`` holds one ``int64`` code per
    row and ``labels[code]`` is the normalised key value: ``float`` for
    numeric-like columns (sorted), the dictionary label for categoricals,
    and ``None`` for missing entries (NaN / None).  A categorical column
    shares its dictionary with the columns it was derived from, so
    ``labels`` may hold labels no row of this column uses.
    """
    codes, n_codes = column.key_codes()
    if column.is_numeric_like:
        values = column.values
        labels: List = [float(v) for v in np.unique(values[~np.isnan(values)])]
    else:
        labels = list(column.dictionary.labels)
    if np.any(codes == n_codes - 1):
        labels.append(None)
    return codes, labels


def group_positions_from_codes(group_codes: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Ascending positions of every group id in ``[0, n_groups)``."""
    if n_groups == 0:
        return []
    counts = np.bincount(group_codes, minlength=n_groups)
    positions = np.argsort(group_codes, kind="stable")
    return np.split(positions, np.cumsum(counts)[:-1])


def group_codes(table: Table, keys: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized multi-column grouping: ``(group_codes, first_rows)``.

    One group id per row, assigned in order of first appearance (so the
    grouping is element-wise identical to the historical row-at-a-time
    dictionary implementation), and the first row of every group.
    """
    if not keys:
        raise ValueError("group_indices needs at least one key column")
    per_key = [table.column(k).key_codes() for k in keys]
    combined, n_codes = per_key[0]
    for codes, n in per_key[1:]:
        # Compact after every merge so the combined ids stay < num_rows and
        # the multiply below can never overflow int64.
        _, combined = np.unique(combined * np.int64(n) + codes, return_inverse=True)
        n_codes = None
    _, codes, first_rows = renumber_codes_compact(combined, n_codes)
    return codes, first_rows


def key_labels(column: Column) -> list:
    """Normalised key labels of *column*'s rows: floats or the dictionary
    label, ``None`` for missing entries."""
    if column.is_numeric_like:
        return [None if np.isnan(v) else float(v) for v in column.values]
    return list(column.values)


def factorize_key_codes(
    table: Table, keys: Sequence[str]
) -> Tuple[np.ndarray, List[tuple], List[np.ndarray]]:
    """Vectorized multi-column grouping with labels and row lists.

    Returns ``(group_codes, group_keys, group_rows)``: one group code per row,
    the normalised key tuple of every group (its first row's labels) and the
    ascending row positions of every group.
    """
    codes, first_rows = group_codes(table, keys)
    group_keys = list(zip(*(key_labels(table.column(k).take(first_rows)) for k in keys)))
    return codes, group_keys, group_positions_from_codes(codes, first_rows.size)


def group_indices(table: Table, keys: Sequence[str]) -> Dict[tuple, np.ndarray]:
    """Map each distinct key tuple to the integer row positions in its group."""
    _, group_keys, group_rows = factorize_key_codes(table, keys)
    return {key: np.asarray(rows, dtype=np.int64) for key, rows in zip(group_keys, group_rows)}


def group_by_aggregate(
    table: Table,
    keys: Sequence[str],
    agg_attr: str,
    agg_func: str,
    output_name: str = "feature",
) -> Table:
    """``SELECT keys, agg_func(agg_attr) AS output_name FROM table GROUP BY keys``.

    Returns a table with one row per distinct key combination, the key
    columns preserved with their original dtypes, plus a numeric feature
    column.
    """
    func = AGGREGATE_FUNCTIONS[normalise_aggregate_name(agg_func)]

    codes, first_rows = group_codes(table, keys)
    agg_values = column_to_aggregable(table.column(agg_attr))
    feature = np.asarray(
        [func(agg_values[rows]) for rows in group_positions_from_codes(codes, first_rows.size)],
        dtype=np.float64,
    )
    out_columns = [table.column(k).take(first_rows) for k in keys]
    out_columns.append(Column(output_name, feature, dtype=DType.NUMERIC))
    return Table(out_columns)

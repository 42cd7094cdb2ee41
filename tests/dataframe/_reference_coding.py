"""Object-array reference implementations of categorical coding (tests only).

These are the functions that dictionary-encoded categorical columns
replaced, kept as they were: each re-derives integer codes from the
``object`` values of a column on every call (``np.unique`` over the labels,
with a per-row dictionary fallback for unorderable mixes, or a per-row
comprehension).  The coded paths must reproduce their observable results:
the same grouping, join matches, masks and aggregable codes.

Their numbering of codes is not observable and differs on purpose (the
references number labels in sorted order, the coded paths by first
appearance), so tests compare partitions and gathered results, never raw
codes.  Two further differences are deliberate:

* of labels that compare equal (``1``, ``1.0``, ``True``), the references
  report whichever ``np.unique``'s unstable sort kept, while the coded
  paths report the first-appearing one;
* unhashable labels raise ``TypeError`` in ``column_to_aggregable`` and,
  for unorderable mixes, in ``factorize_column`` here, while the coded
  paths code them by an equality scan.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.column import Column
from repro.dataframe.table import Table


def factorize_column(column: Column) -> Tuple[np.ndarray, List]:
    if column.is_numeric_like:
        values = column.values
        missing = np.isnan(values)
        uniques = np.unique(values[~missing])
        codes = np.searchsorted(uniques, values).astype(np.int64)
        labels: List = [float(v) for v in uniques]
        if missing.any():
            codes[missing] = uniques.size
            labels.append(None)
        return codes, labels
    values = column.values
    missing = np.asarray([v is None for v in values], dtype=bool)
    try:
        uniques, inverse = np.unique(values[~missing], return_inverse=True)
    except TypeError:
        mapping: Dict[object, int] = {}
        codes = np.empty(len(values), dtype=np.int64)
        labels = []
        for i, v in enumerate(values):
            key = None if v is None else v
            if key not in mapping:
                mapping[key] = len(labels)
                labels.append(key)
            codes[i] = mapping[key]
        return codes, labels
    codes = np.empty(len(values), dtype=np.int64)
    codes[~missing] = inverse
    labels = list(uniques)
    if missing.any():
        codes[missing] = uniques.size
        labels.append(None)
    return codes, labels


def renumber_codes_compact(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = codes.shape[0]
    uniques, inverse = np.unique(codes, return_inverse=True)
    n_groups = uniques.size
    first = np.full(n_groups, n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
    order = np.argsort(first, kind="stable")
    remap = np.empty(n_groups, dtype=np.int64)
    remap[order] = np.arange(n_groups, dtype=np.int64)
    return uniques[order], remap[inverse], first[order]


def join_key_codes(left: Column, right: Column) -> tuple:
    n_left = len(left)
    if left.is_numeric_like and right.is_numeric_like:
        values = np.concatenate([left.values, right.values])
        missing = np.isnan(values)
        uniques = np.unique(values[~missing])
        codes = np.searchsorted(uniques, values).astype(np.int64)
        codes[missing] = uniques.size
        return codes[:n_left], codes[n_left:], uniques.size + 1

    def as_objects(column: Column) -> np.ndarray:
        if not column.is_numeric_like:
            return column.values
        out = np.empty(len(column), dtype=object)
        for i, v in enumerate(column.values):
            out[i] = None if np.isnan(v) else float(v)
        return out

    values = np.concatenate([as_objects(left), as_objects(right)])
    missing = np.asarray([v is None for v in values], dtype=bool)
    codes = np.empty(values.shape[0], dtype=np.int64)
    try:
        uniques, inverse = np.unique(values[~missing], return_inverse=True)
        codes[~missing] = inverse
        codes[missing] = uniques.size
        n_labels = uniques.size + 1
    except TypeError:
        mapping: Dict[object, int] = {}
        for i, v in enumerate(values):
            key = None if missing[i] else v
            if key not in mapping:
                mapping[key] = len(mapping)
            codes[i] = mapping[key]
        n_labels = len(mapping)
    return codes[:n_left], codes[n_left:], n_labels


def join_match(left: Table, right: Table, on: Sequence[str]) -> np.ndarray:
    n_left = left.num_rows
    per_key = [join_key_codes(left.column(k), right.column(k)) for k in on]
    left_codes, right_codes, _ = per_key[0]
    for codes_l, codes_r, n_labels in per_key[1:]:
        left_codes = left_codes * np.int64(max(n_labels, 1)) + codes_l
        right_codes = right_codes * np.int64(max(n_labels, 1)) + codes_r
        both = np.concatenate([left_codes, right_codes])
        _, inverse = np.unique(both, return_inverse=True)
        left_codes = inverse[:n_left]
        right_codes = inverse[n_left:]
    n_codes = int(max(left_codes.max(initial=-1), right_codes.max(initial=-1))) + 1
    first = np.full(n_codes, -1, dtype=np.int64)
    if right_codes.size:
        first[right_codes[::-1]] = np.arange(
            right_codes.shape[0] - 1, -1, -1, dtype=np.int64
        )
    if left_codes.size == 0:
        return np.empty(0, dtype=np.int64)
    return first[left_codes]


def equals_mask(column: Column, value) -> np.ndarray:
    return np.asarray([v is not None and v == value for v in column.values], dtype=bool)


def column_to_aggregable(column: Column, rows=None) -> np.ndarray:
    if column.is_numeric_like:
        return column.values
    codes = np.full(len(column), np.nan, dtype=np.float64)
    mapping: Dict[object, int] = {}
    values = column.values
    for i in range(len(column)) if rows is None else rows:
        v = values[i]
        if v is None:
            continue
        if v not in mapping:
            mapping[v] = len(mapping)
        codes[i] = mapping[v]
    return codes

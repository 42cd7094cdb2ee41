"""Edge-case and equivalence tests for the vectorized ``Table.left_join``.

The join used to probe a Python dict per left row; it now factorizes both
sides into a shared code space and gathers through a first-occurrence index
array.  These tests pin the observable semantics across the rewrite:

* duplicate keys on the right side -- the **first** matching row wins,
* keys missing from the right table -- NaN / ``None`` fills,
* NaN (numeric) and ``None`` (categorical) join keys match each other's
  missing keys, exactly like the historical ``_normalise_key`` probe,
* column-name collisions get the suffix,
* and a hypothesis property compares the vectorized join element-wise
  against a row-at-a-time dictionary reference implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import group_codes
from repro.dataframe.table import Table
from repro.query.engine import AggregateResult, GroupIndex


def reference_left_join(left: Table, right: Table, on, suffix: str = "_right") -> Table:
    """The historical row-at-a-time join: dict probe, first match wins."""
    if isinstance(on, str):
        on = [on]

    def normalise(value, column):
        if column.is_numeric_like:
            v = float(value)
            return None if np.isnan(v) else v
        return value

    right_index = {}
    right_keys = [right.column(k) for k in on]
    for i in range(right.num_rows):
        key = tuple(normalise(col.values[i], col) for col in right_keys)
        if key not in right_index:
            right_index[key] = i
    left_keys = [left.column(k) for k in on]
    match = [
        right_index.get(tuple(normalise(col.values[i], col) for col in left_keys), -1)
        for i in range(left.num_rows)
    ]
    columns = [left.column(name) for name in left.column_names]
    existing = set(left.column_names)
    for name in right.column_names:
        if name in on:
            continue
        col = right.column(name)
        out_name = name if name not in existing else name + suffix
        if col.is_numeric_like:
            gathered = np.asarray(
                [np.nan if m < 0 else col.values[m] for m in match], dtype=np.float64
            )
        else:
            gathered = np.empty(len(match), dtype=object)
            for i, m in enumerate(match):
                gathered[i] = col.values[m] if m >= 0 else None
        columns.append(Column(out_name, gathered, dtype=col.dtype))
        existing.add(out_name)
    return Table(columns)


def assert_join_identical(actual: Table, expected: Table) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype is right.dtype, f"{name}: {left.dtype} != {right.dtype}"
        assert left == right, f"column {name!r} differs"


class TestDuplicateRightKeys:
    def test_first_match_wins_single_key(self):
        left = Table.from_dict({"k": ["a", "b"]})
        right = Table.from_dict({"k": ["a", "a", "b"], "v": [1.0, 2.0, 3.0]})
        joined = left.left_join(right, on="k")
        assert list(joined.column("v").values) == [1.0, 3.0]

    def test_first_match_wins_multi_key(self):
        left = Table.from_dict({"k1": ["a", "a"], "k2": [1.0, 2.0]})
        right = Table.from_dict(
            {"k1": ["a", "a", "a"], "k2": [2.0, 1.0, 1.0], "v": [10.0, 20.0, 30.0]}
        )
        joined = left.left_join(right, on=["k1", "k2"])
        assert list(joined.column("v").values) == [20.0, 10.0]

    def test_duplicate_nan_keys_first_match_wins(self):
        left = Table.from_dict({"k": [float("nan")]})
        right = Table.from_dict({"k": [float("nan"), float("nan")], "v": [7.0, 8.0]})
        joined = left.left_join(right, on="k")
        assert joined.column("v").values[0] == 7.0


class TestMissingKeys:
    def test_unmatched_numeric_fill_is_nan(self):
        left = Table.from_dict({"k": [1.0, 5.0]})
        right = Table.from_dict({"k": [1.0], "v": [10.0]})
        joined = left.left_join(right, on="k")
        assert joined.column("v").values[0] == 10.0
        assert np.isnan(joined.column("v").values[1])

    def test_unmatched_categorical_fill_is_none(self):
        left = Table.from_dict({"k": ["a", "z"]})
        right = Table.from_dict({"k": ["a"], "tag": ["hit"]})
        joined = left.left_join(right, on="k")
        assert joined.column("tag").values[0] == "hit"
        assert joined.column("tag").values[1] is None

    def test_empty_right_table(self):
        left = Table.from_dict({"k": ["a", "b"]})
        right = Table(
            [Column("k", [], dtype=DType.CATEGORICAL), Column("v", [], dtype=DType.NUMERIC)]
        )
        joined = left.left_join(right, on="k")
        assert joined.num_rows == 2
        assert np.isnan(joined.column("v").values).all()

    def test_empty_left_table(self):
        left = Table(
            [Column("k", [], dtype=DType.CATEGORICAL)]
        )
        right = Table.from_dict({"k": ["a"], "v": [1.0]})
        joined = left.left_join(right, on="k")
        assert joined.num_rows == 0
        assert joined.column_names == ["k", "v"]


class TestMissingValueKeys:
    def test_nan_joins_to_nan(self):
        left = Table.from_dict({"k": [1.0, float("nan"), 2.0]})
        right = Table.from_dict({"k": [float("nan"), 1.0], "v": [99.0, 11.0]})
        joined = left.left_join(right, on="k")
        values = joined.column("v").values
        assert values[0] == 11.0
        assert values[1] == 99.0  # NaN key matched the right table's NaN row
        assert np.isnan(values[2])

    def test_none_joins_to_none(self):
        left = Table.from_dict({"k": ["a", None]})
        right = Table.from_dict({"k": [None, "a"], "v": [99.0, 11.0]})
        joined = left.left_join(right, on="k")
        assert list(joined.column("v").values) == [11.0, 99.0]

    def test_nan_in_multi_key_tuple(self):
        left = Table.from_dict({"k1": [float("nan"), float("nan")], "k2": ["x", "y"]})
        right = Table.from_dict({"k1": [float("nan")], "k2": ["x"], "v": [5.0]})
        joined = left.left_join(right, on=["k1", "k2"])
        assert joined.column("v").values[0] == 5.0
        assert np.isnan(joined.column("v").values[1])


class TestSuffixHandling:
    def test_collision_gets_suffix(self):
        left = Table.from_dict({"k": ["a"], "x": [1.0]})
        right = Table.from_dict({"k": ["a"], "x": [2.0]})
        joined = left.left_join(right, on="k")
        assert joined.column_names == ["k", "x", "x_right"]
        assert joined.column("x").values[0] == 1.0
        assert joined.column("x_right").values[0] == 2.0

    def test_custom_suffix(self):
        left = Table.from_dict({"k": ["a"], "x": [1.0]})
        right = Table.from_dict({"k": ["a"], "x": [2.0]})
        joined = left.left_join(right, on="k", suffix="_feat")
        assert "x_feat" in joined

    def test_suffixed_name_collides_with_second_right_column(self):
        """A right column literally named like the suffixed collision."""
        left = Table.from_dict({"k": ["a"], "x": [1.0]})
        right = Table.from_dict({"k": ["a"], "x": [2.0], "x_right": [3.0]})
        joined = left.left_join(right, on="k")
        # "x" collides -> "x_right"; the literal "x_right" column then
        # collides with the suffixed one -> "x_right_right".
        assert joined.column_names == ["k", "x", "x_right", "x_right_right"]
        assert joined.column("x_right").values[0] == 2.0
        assert joined.column("x_right_right").values[0] == 3.0

    def test_missing_join_key_raises(self):
        left = Table.from_dict({"k": ["a"]})
        right = Table.from_dict({"other": ["a"]})
        with pytest.raises(KeyError):
            left.left_join(right, on="k")


class TestMixedDtypeKeys:
    def test_boolean_key_joins_numeric_key(self):
        """Numeric-like dtypes (numeric/boolean/datetime) share float keys."""
        left = Table.from_dict({"k": [1.0, 0.0]})
        right = Table(
            [
                Column("k", [True, False], dtype=DType.BOOLEAN),
                Column("v", [10.0, 20.0], dtype=DType.NUMERIC),
            ]
        )
        joined = left.left_join(right, on="k")
        assert list(joined.column("v").values) == [10.0, 20.0]

    def test_numeric_left_categorical_right_only_missing_matches(self):
        """Across numeric/categorical keys only missing values can match."""
        left = Table.from_dict({"k": [1.0, float("nan")]})
        right = Table.from_dict({"k": ["1.0", None], "v": [10.0, 20.0]})
        joined = left.left_join(right, on="k")
        values = joined.column("v").values
        assert np.isnan(values[0])  # float 1.0 != string "1.0"
        assert values[1] == 20.0  # NaN matches None


keys_numeric = st.one_of(st.just(float("nan")), st.sampled_from([0.0, 1.0, 2.0, 3.0]))
keys_cat = st.sampled_from(["a", "b", "c", None])


@st.composite
def join_tables(draw):
    n_left = draw(st.integers(min_value=0, max_value=20))
    n_right = draw(st.integers(min_value=0, max_value=20))

    def rows(n, strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    left = Table(
        [
            Column("k_num", rows(n_left, keys_numeric), dtype=DType.NUMERIC),
            Column("k_cat", rows(n_left, keys_cat), dtype=DType.CATEGORICAL),
            Column("payload", rows(n_left, st.floats(-10, 10)), dtype=DType.NUMERIC),
        ]
    )
    right = Table(
        [
            Column("k_num", rows(n_right, keys_numeric), dtype=DType.NUMERIC),
            Column("k_cat", rows(n_right, keys_cat), dtype=DType.CATEGORICAL),
            Column("feat", rows(n_right, st.floats(-10, 10)), dtype=DType.NUMERIC),
            Column("tag", rows(n_right, st.sampled_from(["u", "v", None])), dtype=DType.CATEGORICAL),
            Column("payload", rows(n_right, st.floats(-10, 10)), dtype=DType.NUMERIC),
        ]
    )
    on = draw(st.sampled_from([["k_num"], ["k_cat"], ["k_num", "k_cat"]]))
    return left, right, on


class TestJoinEquivalenceProperty:
    @given(data=join_tables())
    @settings(max_examples=80, deadline=None)
    def test_matches_row_at_a_time_reference(self, data):
        left, right, on = data
        assert_join_identical(
            left.left_join(right, on=on), reference_left_join(left, right, on)
        )

    @given(data=join_tables())
    @settings(max_examples=80, deadline=None)
    def test_key_domain_gather_is_the_joined_column(self, data):
        """The key-domain path of candidate scoring -- each left row's group
        in an index of the right table, and a result's values gathered
        through those codes -- reads the column the join adds: the first
        matching right row's value, NaN where none matches."""
        left, right, on = data
        expected = reference_left_join(left, right, on).column("feat").values
        index = GroupIndex(right, on)
        _, first_rows = group_codes(right, on)
        result = AggregateResult(index, None, right.column("feat").values[first_rows], "feat")
        (gathered,) = result.gather([index.row_groups(left)])
        assert gathered.tobytes() == expected.tobytes()

"""Unit tests for the logical query-plan IR (repro.query.plan)."""

import numpy as np
import pytest

from repro.dataframe.column import DType
from repro.dataframe.predicates import Equals, IsIn, Range, Window
from repro.query.plan import (
    AggregateSpec,
    PredicateAtom,
    QueryPlan,
    aggregate_spec,
    atoms_from_query,
)
from repro.query.query import PredicateAwareQuery, WindowConstraint


def make_query(**overrides) -> PredicateAwareQuery:
    defaults = dict(
        agg_func="avg",
        agg_attr="price",
        keys=("user",),
        predicates={"dept": "toys", "level": (1.0, 5.0)},
        predicate_dtypes={"dept": DType.CATEGORICAL, "level": DType.NUMERIC},
        feature_name="f0",
    )
    defaults.update(overrides)
    return PredicateAwareQuery(**defaults)


class TestLowering:
    def test_from_query_normalises_and_captures_everything(self):
        plan = QueryPlan.from_query(make_query(agg_func="count distinct"))
        assert plan.keys == ("user",)
        assert plan.aggregates == (AggregateSpec("COUNT_DISTINCT", "price", "f0"),)
        kinds = {(atom.kind, atom.attr) for atom in plan.atoms}
        assert kinds == {("eq", "dept"), ("range", "level")}

    def test_none_and_unbounded_constraints_are_dropped(self):
        query = make_query(
            predicates={"dept": None, "level": (None, None), "size": (2.0, None)},
            predicate_dtypes={"dept": DType.CATEGORICAL, "level": DType.NUMERIC,
                              "size": DType.NUMERIC},
        )
        plan = QueryPlan.from_query(query)
        assert [atom.attr for atom in plan.atoms] == ["size"]

    def test_unknown_aggregate_rejected_at_plan_build(self):
        with pytest.raises(KeyError):
            QueryPlan.from_query(make_query(agg_func="NOPE"))
        with pytest.raises(KeyError):
            aggregate_spec("NOPE", "price")

    def test_atoms_lower_to_the_same_predicates_as_the_query(self):
        query = make_query()
        atoms = atoms_from_query(query)
        rendered = {atom.to_predicate().to_sql() for atom in atoms}
        assert rendered == {p.to_sql() for p in query.build_predicate().predicates}
        assert isinstance(atoms[0].to_predicate(), (Equals, Range))


class TestSignatures:
    def test_predicate_signature_is_order_independent(self):
        a = make_query(predicates={"dept": "toys", "level": (1.0, 5.0)})
        b = make_query(predicates={"level": (1.0, 5.0), "dept": "toys"})
        assert (
            QueryPlan.from_query(a).predicate_signature()
            == QueryPlan.from_query(b).predicate_signature()
        )

    def test_signature_matches_historical_mask_cache_keys(self):
        plan = QueryPlan.from_query(make_query())
        signatures = {atom.signature() for atom in plan.atoms}
        assert signatures == {("eq", "dept", "toys"), ("range", "level", 1.0, 5.0)}

    def test_empty_where_clause_is_the_empty_tuple(self):
        plan = QueryPlan.from_query(make_query(predicates={}, predicate_dtypes={}))
        assert plan.predicate_signature() == ()
        assert plan.group_key() == ((), ("user",))

    def test_unhashable_constant_makes_the_plan_uncacheable(self):
        # A list constraint now lowers to a (hashable) IN atom, so the
        # uncacheable case needs a genuinely unhashable non-sequence constant.
        query = make_query(predicates={"dept": {"un": "hashable"}})
        plan = QueryPlan.from_query(query)
        assert plan.predicate_signature() is None
        assert plan.group_key() is None
        assert plan.result_key() is None
        assert plan.signature() is None

    def test_result_key_distinguishes_predicate_dtypes(self):
        """The dtype decides eq vs range, so the same constants never collide."""
        range_query = make_query(predicates={"level": (1.0, 5.0)},
                                 predicate_dtypes={"level": DType.NUMERIC})
        equals_query = make_query(predicates={"level": (1.0, 5.0)},
                                  predicate_dtypes={})  # defaults to CATEGORICAL
        assert (
            QueryPlan.from_query(range_query).result_key()
            != QueryPlan.from_query(equals_query).result_key()
        )

    def test_result_key_distinguishes_every_component(self):
        base = QueryPlan.from_query(make_query())
        for overrides in (
            dict(agg_func="SUM"),
            dict(agg_attr="qty"),
            dict(keys=("user", "item")),
            dict(feature_name="f1"),
            dict(predicates={"dept": "books"}),
        ):
            other = QueryPlan.from_query(make_query(**overrides))
            assert base.result_key() != other.result_key()


class TestPerValueColumnGrouping:
    def fused_plan(self) -> QueryPlan:
        plan = QueryPlan.from_query(make_query())
        return plan.with_aggregates(
            [
                AggregateSpec("MEDIAN", "price", "f0"),
                AggregateSpec("SUM", "qty", "f1"),
                AggregateSpec("MAD", "price", "f2"),  # interleaved attrs
                AggregateSpec("AVG", "qty", "f3"),
            ]
        )

    def test_specs_by_attr_groups_in_first_appearance_order(self):
        grouped = self.fused_plan().specs_by_attr()
        assert list(grouped) == ["price", "qty"]
        assert [(p, s.func) for p, s in grouped["price"]] == [(0, "MEDIAN"), (2, "MAD")]
        assert [(p, s.func) for p, s in grouped["qty"]] == [(1, "SUM"), (3, "AVG")]

    def test_specs_by_attr_positions_cover_every_spec_exactly_once(self):
        plan = self.fused_plan()
        positions = sorted(
            position for specs in plan.specs_by_attr().values() for position, _ in specs
        )
        assert positions == list(range(len(plan.aggregates)))

    def test_sort_key_is_the_predicate_keys_attr_triple(self):
        plan = self.fused_plan()
        signature = plan.predicate_signature()
        assert plan.sort_key("price") == (signature, ("user",), "price")
        assert plan.sort_key("price") != plan.sort_key("qty")
        # Sub-plans of a spec split keep the identical key.
        sub = plan.with_aggregates(plan.aggregates[2:])
        assert sub.sort_key("price") == plan.sort_key("price")

    def test_sort_key_none_for_uncacheable_plans(self):
        plan = QueryPlan(
            atoms=(PredicateAtom("eq", "dept", value=["unhashable"]),),
            keys=("user",),
            aggregates=(AggregateSpec("MEDIAN", "price"),),
        )
        assert plan.sort_key("price") is None


class TestFusionAndRendering:
    def test_with_aggregates_fuses_plans(self):
        plan = QueryPlan.from_query(make_query())
        fused = plan.with_aggregates(
            [plan.aggregates[0], AggregateSpec("SUM", "qty", "f1")]
        )
        assert fused.atoms == plan.atoms
        assert fused.keys == plan.keys
        assert len(fused.aggregates) == 2
        assert fused.result_key(1) == ("SUM", "qty", ("user",), plan.predicate_signature(), "f1")

    def test_plans_are_frozen(self):
        plan = QueryPlan.from_query(make_query())
        with pytest.raises(AttributeError):
            plan.keys = ("other",)


class TestInAtoms:
    def test_membership_constraint_lowers_to_an_in_atom(self):
        query = make_query(predicates={"dept": ("toys", "books")})
        plan = QueryPlan.from_query(query)
        (atom,) = plan.atoms
        assert atom.kind == "in"
        assert isinstance(atom.to_predicate(), IsIn)

    def test_members_are_canonically_sorted_and_deduplicated(self):
        a = PredicateAtom("in", "dept", value=("toys", "books", "toys"))
        b = PredicateAtom("in", "dept", value=["books", "toys"])
        assert a.value == b.value
        assert a.signature() == b.signature()

    def test_signature_shape(self):
        atom = PredicateAtom("in", "dept", value=("toys", "books"))
        assert atom.signature() == ("in", "dept", atom.value)
        assert atom.signature()[2] == tuple(sorted(("toys", "books"), key=repr))

    def test_order_insensitive_mask_cache_identity_via_the_query(self):
        a = make_query(predicates={"dept": ("toys", "books")})
        b = make_query(predicates={"dept": ["books", "toys", "books"]})
        assert (
            QueryPlan.from_query(a).predicate_signature()
            == QueryPlan.from_query(b).predicate_signature()
        )

    def test_numpy_scalars_normalised_in_members(self):
        a = PredicateAtom("in", "level", value=(np.float64(3.0), np.float64(1.0)),
                          dtype=DType.NUMERIC)
        b = PredicateAtom("in", "level", value=(1.0, 3.0), dtype=DType.NUMERIC)
        assert a.signature() == b.signature()

    def test_scalar_member_wrapped_into_singleton(self):
        atom = PredicateAtom("in", "dept", value="toys")
        assert atom.value == ("toys",)

    def test_empty_membership_constraint_is_dropped(self):
        plan = QueryPlan.from_query(make_query(predicates={"dept": ()}))
        assert plan.atoms == ()


class TestWindowAtoms:
    def test_window_constraint_lowers_to_a_window_atom(self):
        query = make_query(
            predicates={"ts": WindowConstraint(10.0, 20.0)},
            predicate_dtypes={"ts": DType.DATETIME},
        )
        plan = QueryPlan.from_query(query)
        (atom,) = plan.atoms
        assert atom.kind == "window"
        assert (atom.low, atom.high) == (10.0, 20.0)
        predicate = atom.to_predicate()
        assert isinstance(predicate, Window)

    def test_signature_shape(self):
        atom = PredicateAtom("window", "ts", low=10.0, high=20.0, dtype=DType.DATETIME)
        assert atom.signature() == ("window", "ts", 10.0, 20.0)

    def test_window_signature_distinct_from_range(self):
        window = PredicateAtom("window", "ts", low=1.0, high=5.0, dtype=DType.NUMERIC)
        bounds = PredicateAtom("range", "ts", low=1.0, high=5.0, dtype=DType.NUMERIC)
        assert window.signature() != bounds.signature()

    def test_numpy_scalar_bounds_normalised(self):
        a = PredicateAtom("window", "ts", low=np.float64(1.0), high=np.float64(5.0))
        b = PredicateAtom("window", "ts", low=1.0, high=5.0)
        assert a.signature() == b.signature()

    def test_undeclared_dtype_still_lowers_to_a_window_atom(self):
        """The marker type wins over the CATEGORICAL dtype fallback: a
        WindowConstraint without predicate_dtypes must never become an eq
        atom (whose mask would call float() on the marker and crash)."""
        query = make_query(predicates={"ts": WindowConstraint(10.0, 20.0)})
        plan = QueryPlan.from_query(query)
        (atom,) = plan.atoms
        assert atom.kind == "window"
        assert atom.dtype is DType.NUMERIC
        assert isinstance(atom.to_predicate(), Window)
        assert isinstance(
            query.build_predicate().predicates[0], Window
        )
        assert "[10, 20)" in query.describe()


class TestEqConstantNormalisation:
    def test_numpy_scalar_eq_constant_hits_the_same_signature(self):
        a = PredicateAtom("eq", "level", value=np.float64(3.0), dtype=DType.NUMERIC)
        b = PredicateAtom("eq", "level", value=3.0, dtype=DType.NUMERIC)
        assert a.signature() == b.signature() == ("eq", "level", 3.0)

    def test_numpy_str_eq_constant_hits_the_same_signature(self):
        a = PredicateAtom("eq", "dept", value=np.str_("toys"))
        b = PredicateAtom("eq", "dept", value="toys")
        assert a.signature() == b.signature()

    def test_mixed_scalar_kinds_share_the_plan_signature(self):
        a = make_query(predicates={"level": (np.float64(1.0), np.float64(5.0))},
                       predicate_dtypes={"level": DType.NUMERIC})
        b = make_query(predicates={"level": (1.0, 5.0)},
                       predicate_dtypes={"level": DType.NUMERIC})
        assert (
            QueryPlan.from_query(a).predicate_signature()
            == QueryPlan.from_query(b).predicate_signature()
        )


class TestParameterizedAggregates:
    def test_spelled_quantile_parses_into_func_and_param(self):
        spec = aggregate_spec("QUANTILE:0.25", "price", feature_name="f0")
        assert spec == AggregateSpec("QUANTILE", "price", "f0", 0.25)

    def test_spelled_top_k_parses_into_func_and_param(self):
        spec = aggregate_spec("top_k_share:3", "dept")
        assert spec.func == "TOP_K_SHARE" and spec.param == 3

    def test_plain_spec_positional_compat_and_default_param(self):
        spec = AggregateSpec("SUM", "price", "f0")
        assert spec.param is None
        assert spec == AggregateSpec("SUM", "price", "f0")

    def test_bare_parameterized_family_rejected(self):
        with pytest.raises(ValueError, match="requires a parameter"):
            aggregate_spec("QUANTILE", "price")

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            aggregate_spec("QUANTILE:2.0", "price")

    def test_result_key_appends_param_only_when_set(self):
        plain = QueryPlan.from_query(make_query(agg_func="SUM"))
        assert len(plain.result_key()) == 5
        parameterized = QueryPlan.from_query(make_query(agg_func="QUANTILE:0.25"))
        key = parameterized.result_key()
        assert len(key) == 6 and key[-1] == 0.25
        assert key[:3] == ("QUANTILE", "price", ("user",))

    def test_result_key_distinguishes_params(self):
        q25 = QueryPlan.from_query(make_query(agg_func="QUANTILE:0.25"))
        q75 = QueryPlan.from_query(make_query(agg_func="QUANTILE:0.75"))
        assert q25.result_key() != q75.result_key()

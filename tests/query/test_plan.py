"""Unit tests for the logical query-plan IR (repro.query.plan)."""

import numpy as np
import pytest

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS, normalise_aggregate_name
from repro.dataframe.column import DType
from repro.dataframe.predicates import Equals, Range
from repro.query.plan import AggregateSpec, QueryPlan, aggregate_spec
from repro.query.pool import QueryPool
from repro.query.query import PredicateAtom, PredicateAwareQuery
from repro.query.template import QueryTemplate


TOYS = PredicateAtom("eq", "dept", value="toys")
LEVEL_1_5 = PredicateAtom("range", "level", low=1.0, high=5.0, dtype=DType.NUMERIC)


def make_query(**overrides) -> PredicateAwareQuery:
    defaults = dict(
        agg_func="avg",
        agg_attr="price",
        keys=("user",),
        atoms=(TOYS, LEVEL_1_5),
        feature_name="f0",
    )
    defaults.update(overrides)
    return PredicateAwareQuery(**defaults)


class TestLowering:
    def test_from_query_normalises_and_copies_the_atoms(self):
        query = make_query(agg_func="count distinct")
        plan = QueryPlan.from_query(query)
        assert plan.keys == ("user",)
        assert plan.aggregates == (AggregateSpec("COUNT_DISTINCT", "price", "f0"),)
        assert plan.atoms is query.atoms

    def test_none_and_unbounded_constraints_are_dropped(self, logs_table):
        template = QueryTemplate(
            ["AVG"], ["pprice"], ["department", "timestamp", "pprice"], ["cname"]
        )
        pool = QueryPool(template, logs_table)
        params = {name: None for name in pool.space.names}
        params.update(agg_func="AVG", agg_attr="pprice", group_keys=("cname",))
        params["pred_low::pprice"] = 2.0
        plan = QueryPlan.from_query(pool.decode(params))
        assert [atom.attr for atom in plan.atoms] == ["pprice"]
        assert (plan.atoms[0].low, plan.atoms[0].high) == (2.0, None)

    def test_unknown_aggregate_rejected_at_plan_build(self):
        with pytest.raises(KeyError):
            QueryPlan.from_query(make_query(agg_func="NOPE"))
        with pytest.raises(KeyError):
            aggregate_spec("NOPE", "price")

    def test_parameterized_spelling_is_an_unknown_aggregate(self):
        """Only Table II's 15 functions exist: a ``"FAMILY:param"`` name is
        unknown to the template, the plan and its aggregate specs alike."""
        for name in ("QUANTILE:0.25", "quantile: .5", "TOP_K_SHARE:3", "QUANTILE"):
            with pytest.raises(KeyError):
                QueryTemplate([name], ["price"], ["dept"], ["user"])
            with pytest.raises(KeyError):
                aggregate_spec(name, "price")
            with pytest.raises(KeyError):
                QueryPlan.from_query(make_query(agg_func=name))

    def test_atoms_lower_to_the_same_predicates_as_the_query(self):
        """The engine masks from the plan's atoms, the naive executor from
        ``query.build_predicate()``; both must render the same WHERE."""
        query = make_query()
        plan = QueryPlan.from_query(query)
        rendered = {atom.to_predicate().to_sql() for atom in plan.atoms}
        assert rendered == {p.to_sql() for p in query.build_predicate().predicates}
        assert isinstance(plan.atoms[0].to_predicate(), Equals)
        assert isinstance(plan.atoms[1].to_predicate(), Range)


class TestAggregateSpellings:
    """Each Table II function is named case-, padding- and underscore-
    insensitively, and every entry point reads a spelling as the canonical
    name: same template, same plan, same result-cache key, same SQL."""

    @pytest.mark.parametrize("name", list(AGGREGATE_FUNCTIONS))
    def test_spellings_lower_to_the_canonical_plan(self, name):
        canonical = QueryPlan.from_query(make_query(agg_func=name))
        for spelled in (name.lower(), name.lower().replace("_", " "), f"  {name.title()} "):
            assert normalise_aggregate_name(spelled) == name
            assert aggregate_spec(spelled, "price").func == name
            assert QueryTemplate([spelled], ["price"], ["dept"], ["user"]).agg_funcs == (name,)
            plan = QueryPlan.from_query(make_query(agg_func=spelled))
            assert plan == canonical
            assert plan.result_key() == canonical.result_key()
            assert make_query(agg_func=spelled).to_sql() == make_query(agg_func=name).to_sql()


class TestSignatures:
    def test_predicate_signature_is_order_independent(self):
        a = make_query(atoms=(TOYS, LEVEL_1_5))
        b = make_query(atoms=(LEVEL_1_5, TOYS))
        assert (
            QueryPlan.from_query(a).predicate_signature()
            == QueryPlan.from_query(b).predicate_signature()
        )

    def test_signature_matches_historical_mask_cache_keys(self):
        plan = QueryPlan.from_query(make_query())
        signatures = {atom.signature() for atom in plan.atoms}
        assert signatures == {("eq", "dept", "toys"), ("range", "level", 1.0, 5.0)}

    def test_empty_where_clause_is_the_empty_tuple(self):
        plan = QueryPlan.from_query(make_query(atoms=()))
        assert plan.predicate_signature() == ()
        assert plan.group_key() == ((), ("user",))

    def test_unhashable_constant_makes_the_plan_uncacheable(self):
        query = make_query(atoms=(PredicateAtom("eq", "dept", value={"un": "hashable"}),))
        plan = QueryPlan.from_query(query)
        assert plan.predicate_signature() is None
        assert plan.group_key() is None
        assert plan.result_key() is None
        assert plan.signature() is None

    def test_result_key_distinguishes_predicate_dtypes(self):
        """A numeric attribute decodes to a range, a categorical one to an
        equality; the two atom kinds over the same constants never collide."""
        range_query = make_query(atoms=(LEVEL_1_5,))
        equals_query = make_query(atoms=(PredicateAtom("eq", "level", value=(1.0, 5.0)),))
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
            dict(atoms=(PredicateAtom("eq", "dept", value="books"), LEVEL_1_5)),
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


class TestAtomKinds:
    @pytest.mark.parametrize("kind", ["in", "window", "Range", "rnage", ""])
    def test_unknown_kind_rejected(self, kind):
        """Only equality and closed-range atoms exist; any other kind must
        fail at construction instead of filtering as a closed range."""
        with pytest.raises(ValueError, match="atom kind"):
            PredicateAtom(kind, "level", low=1.0, high=5.0, dtype=DType.NUMERIC)

    def test_range_without_bounds_rejected(self):
        """A range needs a bound: "no predicate" is the absence of an atom."""
        with pytest.raises(ValueError, match="at least one bound"):
            PredicateAtom("range", "level", dtype=DType.NUMERIC)


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
        a = make_query(atoms=(PredicateAtom(
            "range", "level", low=np.float64(1.0), high=np.float64(5.0), dtype=DType.NUMERIC
        ),))
        b = make_query(atoms=(LEVEL_1_5,))
        assert (
            QueryPlan.from_query(a).predicate_signature()
            == QueryPlan.from_query(b).predicate_signature()
        )

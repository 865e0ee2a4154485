"""Tests for the MLN substrate: grounding, exact inference and MC-SAT."""

import math

import pytest

from repro import MVDB, MarkoView
from repro.errors import WeightError
from repro.lineage import DNF
from repro.mln import (
    GroundFeature,
    MarkovLogicNetwork,
    McSatSampler,
    features_as_constraints,
    marginals,
    mln_from_mvdb,
    partition_function,
    query_probability,
)
from repro.query import parse_query


def two_tuple_mln(w1=1.0, w2=2.0, w=0.5):
    """The MLN of Example 1: features (R(a), w1), (S(a), w2), (R(a)∧S(a), w)."""
    return MarkovLogicNetwork(
        variables=[0, 1],
        base_weights={0: w1, 1: w2},
        features=[GroundFeature(DNF([[0, 1]]), w)],
    )


class TestModel:
    def test_world_weight_matches_example1(self):
        mln = two_tuple_mln(1.5, 0.7, 2.0)
        assert mln.world_weight({0: False, 1: False}) == pytest.approx(1.0)
        assert mln.world_weight({0: True, 1: False}) == pytest.approx(1.5)
        assert mln.world_weight({0: False, 1: True}) == pytest.approx(0.7)
        assert mln.world_weight({0: True, 1: True}) == pytest.approx(2.0 * 1.5 * 0.7)

    def test_hard_denial_zeroes_world(self):
        mln = two_tuple_mln(w=0.0)
        assert mln.world_weight({0: True, 1: True}) == 0.0
        assert not mln.satisfies_hard_constraints({0: True, 1: True})
        assert mln.satisfies_hard_constraints({0: True, 1: False})

    def test_hard_requirement(self):
        mln = MarkovLogicNetwork(
            variables=[0],
            base_weights={0: 1.0},
            features=[GroundFeature(DNF([[0]]), math.inf)],
        )
        assert mln.world_weight({0: False}) == 0.0
        assert mln.world_weight({0: True}) == pytest.approx(1.0)

    def test_negative_feature_weight_rejected(self):
        with pytest.raises(WeightError):
            GroundFeature(DNF([[0]]), -1.0)

    def test_missing_base_weight_rejected(self):
        with pytest.raises(WeightError):
            MarkovLogicNetwork(variables=[0, 1], base_weights={0: 1.0})

    def test_feature_index_and_constraints(self):
        mln = two_tuple_mln()
        index = mln.features_of_variable()
        assert index[0] == [0]
        assert len(list(features_as_constraints(mln))) == 3

    def test_log_weight(self):
        assert GroundFeature(DNF([[0]]), 1.0).log_weight == pytest.approx(0.0)
        assert GroundFeature(DNF([[0]]), 0.0).log_weight == -math.inf


class TestExact:
    def test_partition_function_example1(self):
        w1, w2, w = 1.5, 0.7, 2.0
        mln = two_tuple_mln(w1, w2, w)
        assert partition_function(mln) == pytest.approx(1 + w1 + w2 + w * w1 * w2)

    def test_query_probability(self):
        w1, w2, w = 1.5, 0.7, 2.0
        mln = two_tuple_mln(w1, w2, w)
        z = 1 + w1 + w2 + w * w1 * w2
        assert query_probability(mln, DNF([[0]])) == pytest.approx((w1 + w * w1 * w2) / z)

    def test_marginals(self):
        mln = two_tuple_mln(1.0, 1.0, 1.0)
        result = marginals(mln)
        assert result[0] == pytest.approx(0.5)
        assert result[1] == pytest.approx(0.5)


class TestMvdbGrounding:
    def test_mln_from_mvdb_matches_mvdb_semantics(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0)])
        mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), S(x)"), 3.0))
        mln = mln_from_mvdb(mvdb)
        assert mln.variable_count() == 3
        assert mln.feature_count() == 1
        query = parse_query("Q :- R(x), S(x)")
        lineage = mvdb.base.lineage_of(query)
        assert query_probability(mln, lineage) == pytest.approx(
            mvdb.exact_query_probability(query)
        )

    def test_weight_one_views_not_grounded(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
        mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x)"), 1.0))
        assert mln_from_mvdb(mvdb).feature_count() == 0


class TestSamplers:
    def test_gibbs_converges_on_independent_network(self):
        # MC-SAT on a feature-free network: marginals are the base odds.
        mln = MarkovLogicNetwork(variables=[0, 1], base_weights={0: 1.0, 1: 3.0})
        estimates = McSatSampler(mln, seed=1).estimate_marginals(samples=2000, burn_in=100)
        assert estimates[0] == pytest.approx(0.5, abs=0.05)
        assert estimates[1] == pytest.approx(0.75, abs=0.05)

    def test_gibbs_query_estimate_close_to_exact(self):
        # MC-SAT on the grounding of an MVDB against the MVDB's own semantics.
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0), (("b",), 1.5)])
        mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), S(x)"), 3.0))
        query = parse_query("Q :- R(x), S(x)")
        exact = mvdb.exact_query_probability(query)
        estimate = McSatSampler(mln_from_mvdb(mvdb), seed=3).estimate_query(
            mvdb.base.lineage_of(query), samples=3000, burn_in=200
        )
        assert estimate == pytest.approx(exact, abs=0.06)

    def test_mcsat_query_estimate_close_to_exact(self):
        mln = two_tuple_mln(1.5, 0.7, 2.0)
        exact = query_probability(mln, DNF([[0, 1]]))
        estimate = McSatSampler(mln, seed=7).estimate_query(
            DNF([[0, 1]]), samples=1500, burn_in=100
        )
        assert estimate == pytest.approx(exact, abs=0.08)

    def test_mcsat_respects_denial_constraint(self):
        mln = two_tuple_mln(1.0, 1.0, 0.0)
        sampler = McSatSampler(mln, seed=11)
        for world in sampler.samples(200, burn_in=20):
            assert not (world[0] and world[1])

    def test_mcsat_marginals_close_to_exact(self):
        mln = two_tuple_mln(2.0, 0.5, 0.25)
        exact = marginals(mln)
        estimates = McSatSampler(mln, seed=5).estimate_marginals(samples=1500, burn_in=100)
        for variable in mln.variables:
            assert estimates[variable] == pytest.approx(exact[variable], abs=0.08)

    def test_mcsat_with_hard_requirement(self):
        mln = MarkovLogicNetwork(
            variables=[0, 1],
            base_weights={0: 1.0, 1: 1.0},
            features=[GroundFeature(DNF([[0]]), math.inf)],
        )
        sampler = McSatSampler(mln, seed=2)
        assert all(world[0] for world in sampler.samples(100, burn_in=10))

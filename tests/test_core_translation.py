"""Tests for MarkoViews, MVDBs, and the MVDB→INDB translation (Theorem 1).

The key correctness property checked here is Theorem 1 itself: the
probability computed through the translated tuple-independent database (with
its possibly-negative probabilities) must equal the ground-truth MLN
semantics of the MVDB obtained by explicit possible-world enumeration.
"""

import math

import pytest

from repro import MVDB, MarkoView
from repro.core.translate import answer_tuple_to_boolean, theorem1_probability, translate
from repro.errors import QueryError, SchemaError, WeightError
from repro.indb.weights import (
    CERTAIN_WEIGHT,
    markoview_weight_to_indb_weight,
    probability_to_weight,
    weight_to_probability,
)
from repro.lineage import brute_force_probability
from repro.query import parse_query


def example1_mvdb(w1=1.0, w2=2.0, w=0.5):
    """Example 1 of the paper: tuples R(a), S(a) and the view V(x)[w] :- R(x), S(x)."""
    mvdb = MVDB()
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), w1)])
    mvdb.add_probabilistic_table("S", ["x"], [(("a",), w2)])
    mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), S(x)"), w))
    return mvdb


class TestWeights:
    def test_weight_probability_roundtrip(self):
        assert weight_to_probability(1.0) == pytest.approx(0.5)
        assert weight_to_probability(CERTAIN_WEIGHT) == 1.0
        assert probability_to_weight(0.5) == pytest.approx(1.0)
        assert probability_to_weight(1.0) == CERTAIN_WEIGHT

    def test_view_weight_translation(self):
        assert markoview_weight_to_indb_weight(0.5) == pytest.approx(1.0)
        assert markoview_weight_to_indb_weight(2.0) == pytest.approx(-0.5)
        assert markoview_weight_to_indb_weight(0.0) == CERTAIN_WEIGHT

    def test_negative_view_weight_rejected(self):
        with pytest.raises(WeightError):
            markoview_weight_to_indb_weight(-1.0)

    def test_infinite_view_weight_rejected(self):
        with pytest.raises(WeightError):
            markoview_weight_to_indb_weight(math.inf)

    def test_weight_minus_one_has_no_probability(self):
        with pytest.raises(WeightError):
            weight_to_probability(-1.0)


class TestMarkoView:
    def test_boolean_view_rejected(self):
        with pytest.raises(QueryError):
            MarkoView("V", parse_query("V :- R(x)"), 1.0)

    def test_negative_constant_weight_rejected(self):
        with pytest.raises(WeightError):
            MarkoView("V", parse_query("V(x) :- R(x)"), -2.0)

    def test_callable_weight(self):
        view = MarkoView("V", parse_query("V(x) :- R(x)"), lambda row: 2.0 * row[0])
        assert view.weight_of((3,)) == pytest.approx(6.0)

    def test_callable_weight_validation(self):
        view = MarkoView("V", parse_query("V(x) :- R(x)"), lambda row: -1.0)
        with pytest.raises(WeightError):
            view.weight_of((1,))

    def test_denial_detection(self):
        assert MarkoView("V", parse_query("V(x) :- R(x)"), 0.0).is_denial
        assert not MarkoView("V", parse_query("V(x) :- R(x)"), 2.0).is_denial

    def test_nv_relation_name(self):
        assert MarkoView("V1", parse_query("V1(x) :- R(x)"), 1.0).nv_relation == "NV_V1"


class TestMVDB:
    def test_unknown_relation_in_view_rejected(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
        with pytest.raises(SchemaError):
            mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), Missing(x)"), 1.0))

    def test_duplicate_view_name_rejected(self):
        mvdb = example1_mvdb()
        with pytest.raises(SchemaError):
            mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x)"), 1.0))

    def test_negative_base_weight_rejected(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"])
        with pytest.raises(SchemaError):
            mvdb.add_probabilistic_tuple("R", ("a",), -1.0)

    def test_view_tuples_weights_and_lineage(self):
        mvdb = example1_mvdb(w=0.25)
        view = mvdb.views[0]
        tuples = mvdb.view_tuples(view)
        assert len(tuples) == 1
        row, weight, lineage = tuples[0]
        assert row == ("a",)
        assert weight == pytest.approx(0.25)
        assert len(lineage.variables()) == 2

    def test_size_report_includes_views(self):
        report = example1_mvdb().size_report()
        assert report["R"] == 1
        assert report["V"] == 1


class TestExample1Semantics:
    """Closed-form checks of Example 1 (worlds weighted 1, w1, w2, w·w1·w2)."""

    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_joint_probability(self, w):
        w1, w2 = 1.5, 0.7
        mvdb = example1_mvdb(w1, w2, w)
        z = 1 + w1 + w2 + w * w1 * w2
        expected = w * w1 * w2 / z
        actual = mvdb.exact_query_probability(parse_query("Q :- R(x), S(x)"))
        assert actual == pytest.approx(expected)

    @pytest.mark.parametrize("w", [0.0, 0.5, 1.0, 2.0])
    def test_marginal_of_r(self, w):
        w1, w2 = 1.5, 0.7
        mvdb = example1_mvdb(w1, w2, w)
        z = 1 + w1 + w2 + w * w1 * w2
        expected = (w1 + w * w1 * w2) / z
        assert mvdb.exact_query_probability(parse_query("Q :- R(x)")) == pytest.approx(expected)

    def test_weight_one_means_independence(self):
        mvdb = example1_mvdb(1.0, 1.0, 1.0)
        joint = mvdb.exact_query_probability(parse_query("Q :- R(x), S(x)"))
        assert joint == pytest.approx(0.25)

    def test_weight_zero_makes_tuples_exclusive(self):
        mvdb = example1_mvdb(1.0, 1.0, 0.0)
        joint = mvdb.exact_query_probability(parse_query("Q :- R(x), S(x)"))
        assert joint == pytest.approx(0.0)


class TestTranslation:
    def test_nv_relation_created_with_translated_weights(self):
        mvdb = example1_mvdb(w=2.0)
        translation = translate(mvdb)
        nv = translation.views[0].nv_relation
        assert nv == "NV_V"
        assert translation.indb.weight(nv, ("a",)) == pytest.approx(-0.5)
        probability = translation.indb.probability_of_variable(
            translation.indb.variable_for(nv, ("a",))
        )
        assert probability == pytest.approx(1 - 2.0)  # p0 = 1 - w, negative

    def test_base_tables_preserved(self):
        mvdb = example1_mvdb()
        translation = translate(mvdb)
        assert translation.indb.weight("R", ("a",)) == pytest.approx(1.0)
        assert translation.indb.is_probabilistic("R")

    def test_w_query_structure(self):
        mvdb = example1_mvdb()
        translation = translate(mvdb)
        assert translation.has_views
        disjunct = translation.w_query.disjuncts[0]
        assert disjunct.is_boolean
        assert "NV_V" in {atom.relation for atom in disjunct.atoms}

    def test_denial_view_nv_tuples_are_certain(self):
        mvdb = example1_mvdb(w=0.0)
        translation = translate(mvdb)
        nv = translation.views[0].nv_relation
        variable = translation.indb._var_of[(nv, ("a",))]
        assert translation.indb.is_certain(variable)
        # Certain tuples contribute no lineage variable: the NV atom drops out of W.
        assert translation.indb.variable_for(nv, ("a",)) is None

    def test_independent_weight_one_tuples_skipped(self):
        mvdb = example1_mvdb(w=1.0)
        translation = translate(mvdb)
        assert translation.views[0].independent_tuples == 1
        assert translation.views[0].tuple_count == 0

    def test_no_views_translation(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
        translation = translate(mvdb)
        assert not translation.has_views

    def test_theorem1_probability_guard(self):
        with pytest.raises(SchemaError):
            theorem1_probability(0.5, 1.0)
        assert theorem1_probability(0.7, 0.2) == pytest.approx(0.625)


class TestTheorem1:
    """P(Q) computed via Eq. 5 on the translated INDB equals the MLN semantics."""

    @pytest.mark.parametrize("w", [0.0, 0.25, 1.0, 3.0])
    @pytest.mark.parametrize(
        "query_text", ["Q :- R(x)", "Q :- S(x)", "Q :- R(x), S(x)"]
    )
    def test_example1_all_queries(self, w, query_text):
        mvdb = example1_mvdb(1.5, 0.7, w)
        query = parse_query(query_text)
        expected = mvdb.exact_query_probability(query)

        translation = translate(mvdb)
        indb = translation.indb
        probabilities = indb.probabilities()
        q_lineage = indb.lineage_of(query)
        w_lineage = indb.lineage_of(translation.w_query)
        p0_q_or_w = brute_force_probability(q_lineage.or_(w_lineage), probabilities)
        p0_w = brute_force_probability(w_lineage, probabilities)
        assert theorem1_probability(p0_q_or_w, p0_w) == pytest.approx(expected)

    def test_example2_projected_view(self):
        """Example 2: V(x)[w] :- R(x), S(x,y) correlates all tuples in the lineage."""
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
        mvdb.add_probabilistic_table(
            "S", ["x", "y"], [(("a", "b1"), 1.0), (("a", "b2"), 2.0)]
        )
        mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), S(x, y)"), 3.0))
        query = parse_query("Q :- R(x), S(x, y)")
        expected = mvdb.exact_query_probability(query)

        translation = translate(mvdb)
        indb = translation.indb
        probabilities = indb.probabilities()
        q_lineage = indb.lineage_of(query)
        w_lineage = indb.lineage_of(translation.w_query)
        p0_q_or_w = brute_force_probability(q_lineage.or_(w_lineage), probabilities)
        p0_w = brute_force_probability(w_lineage, probabilities)
        assert theorem1_probability(p0_q_or_w, p0_w) == pytest.approx(expected)

    def test_two_views_including_denial(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0), (("b",), 1.0)])
        mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x)"), 4.0))
        mvdb.add_markoview(MarkoView("V2", parse_query("V2(x) :- R(x)"), 0.5))
        query = parse_query("Q(x) :- R(x), S(x)")
        expected = mvdb.exact_answer_probabilities(query)

        translation = translate(mvdb)
        indb = translation.indb
        probabilities = indb.probabilities()
        w_lineage = indb.lineage_of(translation.w_query)
        p0_w = brute_force_probability(w_lineage, probabilities)
        from repro.query import evaluate_ucq

        result = evaluate_ucq(query, indb.database, indb)
        for answer, lineage in result.lineages().items():
            p0_q_or_w = brute_force_probability(lineage.or_(w_lineage), probabilities)
            assert theorem1_probability(p0_q_or_w, p0_w) == pytest.approx(
                expected[answer]
            ), f"answer {answer}"

    def test_answer_bound_into_the_head_keeps_its_probability(self):
        # P(Q(a)) of the Boolean query Q(a) is the probability of answer a.
        mvdb = example1_mvdb()
        mvdb.add_probabilistic_table("T", ["x", "y"], [(("a", 1), 0.5), (("a", 2), 3.0)])
        query = parse_query("Q(y) :- R(x), T(x, y)")
        expected = mvdb.exact_answer_probabilities(query)
        assert len(expected) == 2
        for answer, probability in expected.items():
            boolean = answer_tuple_to_boolean(query, answer)
            assert boolean.is_boolean
            assert mvdb.exact_query_probability(boolean) == pytest.approx(probability)

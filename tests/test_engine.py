"""End-to-end tests of the MVQueryEngine: all methods agree with the MLN oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MVDB, MarkoView, parse_query
from repro.core.engine import MVQueryEngine
from repro.errors import InferenceError


def small_mvdb():
    """Two probabilistic relations, three MarkoViews (positive, negative, denial)."""
    mvdb = MVDB()
    mvdb.add_deterministic_table("Name", ["x", "n"], [(("a"), "Ann"), (("b"), "Bob")])
    mvdb.add_probabilistic_table(
        "R", ["x"], [(("a",), 1.0), (("b",), 0.5)]
    )
    mvdb.add_probabilistic_table(
        "S", ["x", "y"], [(("a", 1), 2.0), (("a", 2), 1.0), (("b", 1), 0.8)]
    )
    mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), 2.0))
    mvdb.add_markoview(MarkoView("V2", parse_query("V2(x, y) :- S(x, y)"), 0.5))
    return mvdb


#: ``(method, build_index)``.  The ``shannon`` id pins the path the retired
#: Shannon method served: no MV-index, so ``obdd`` with the engine's own
#: ``P0(W)`` fallback (the OBDD of ``W``, one run per component).
NO_INDEX_PATH = pytest.param("obdd", False, id="shannon")


class TestEngineCorrectness:
    @pytest.mark.parametrize(
        "method, build_index",
        [
            pytest.param("mvindex", True, id="mvindex"),
            pytest.param("mvindex-mv", True, id="mvindex-mv"),
            pytest.param("obdd", True, id="obdd"),
            NO_INDEX_PATH,
        ],
    )
    def test_boolean_query_matches_oracle(self, method, build_index):
        mvdb = small_mvdb()
        engine = MVQueryEngine(mvdb, build_index=build_index)
        query = parse_query("Q :- R(x), S(x, y)")
        expected = mvdb.exact_query_probability(query)
        assert engine.boolean_probability(query, method=method) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "method, build_index",
        [
            pytest.param("mvindex", True, id="mvindex"),
            pytest.param("obdd", True, id="obdd"),
            NO_INDEX_PATH,
        ],
    )
    def test_non_boolean_query_matches_oracle(self, method, build_index):
        mvdb = small_mvdb()
        engine = MVQueryEngine(mvdb, build_index=build_index)
        query = parse_query("Q(x) :- R(x), S(x, y)")
        expected = mvdb.exact_answer_probabilities(query)
        actual = engine.query(query, method=method)
        assert set(actual) == set(expected)
        for answer in expected:
            assert actual[answer] == pytest.approx(expected[answer]), answer

    def test_query_with_deterministic_join_and_selection(self):
        mvdb = small_mvdb()
        engine = MVQueryEngine(mvdb)
        query = parse_query("Q(x) :- R(x), Name(x, n), n like '%Ann%'")
        expected = mvdb.exact_answer_probabilities(query)
        actual = engine.query(query)
        assert set(actual) == {("a",)}
        assert actual[("a",)] == pytest.approx(expected[("a",)])

    def test_denial_view(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 1.0)])
        mvdb.add_markoview(
            MarkoView("OnlyOne", parse_query("OnlyOne(x, y) :- R(x), R(y), x <> y"), 0.0)
        )
        engine = MVQueryEngine(mvdb)
        query = parse_query("Q :- R(x)")
        expected = mvdb.exact_query_probability(query)
        assert engine.boolean_probability(query) == pytest.approx(expected)
        # Under the denial constraint at most one tuple may be present:
        # worlds {}, {a}, {b} have weights 1, 1, 1 → P(Q) = 2/3.
        assert expected == pytest.approx(2.0 / 3.0)

    def test_engine_without_views_is_plain_indb(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 3.0)])
        engine = MVQueryEngine(mvdb)
        assert engine.w_lineage_size == 0
        assert engine.p0_w() == 0.0
        probability = engine.boolean_probability(parse_query("Q :- R(x)"))
        assert probability == pytest.approx(1 - 0.5 * 0.25)

    def test_answer_absent_from_query(self):
        engine = MVQueryEngine(small_mvdb())
        assert engine.boolean_probability(parse_query("Q :- R(x), S(x, 99)")) == 0.0

    def test_query_over_nv_relations_rejected(self):
        engine = MVQueryEngine(small_mvdb())
        with pytest.raises(InferenceError):
            engine.query(parse_query("Q :- NV_V1(x)"))

    def test_unknown_method_rejected(self):
        engine = MVQueryEngine(small_mvdb())
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            engine.query(parse_query("Q :- R(x)"), method="no-such-method")

    def test_incapable_method_rejected(self):
        # small_mvdb's V1 has weight 2 (> 1): the translation produces
        # negative weights, which the sampling method cannot draw from.
        engine = MVQueryEngine(small_mvdb())
        assert engine.has_nonstandard_probabilities
        with pytest.raises(InferenceError, match="negative tuple"):
            engine.query(parse_query("Q :- R(x)"), method="sampling")

    def test_boolean_probability_rejects_free_variables(self):
        engine = MVQueryEngine(small_mvdb())
        with pytest.raises(InferenceError, match="free head variables"):
            engine.boolean_probability(parse_query("Q(x) :- R(x)"))

    def test_index_not_built(self):
        engine = MVQueryEngine(small_mvdb(), build_index=False)
        query = parse_query("Q :- R(x), S(x, y)")
        with pytest.raises(InferenceError):
            engine.query(query, method="mvindex")
        expected = small_mvdb().exact_query_probability(query)
        assert engine.boolean_probability(query, method="obdd") == pytest.approx(expected)

    def test_p0_w_consistent_between_index_and_shannon(self):
        # Without an index, P0(W) comes from the OBDD of W, one run per component.
        mvdb = small_mvdb()
        with_index = MVQueryEngine(mvdb, build_index=True)
        without_index = MVQueryEngine(mvdb, build_index=False)
        assert with_index.p0_w() == pytest.approx(without_index.p0_w())

    def test_p0_w_without_index_stays_linear_after_an_append(self):
        # An append puts the new tuples after all the old ones in the engine
        # order, so 40 fresh view groups interleave there: compiling W under
        # that order needs about 2^40 nodes and never finishes.
        def mvdb(groups):
            mvdb = MVDB()
            mvdb.add_probabilistic_table(
                "R", ["x"],
                [((f"a{i}",), 1.0) for i in range(4)] + [((f"b{i}",), 0.5) for i in range(groups)],
            )
            mvdb.add_probabilistic_table(
                "S", ["x", "y"],
                [((f"a{i}", 1), 2.0) for i in range(4)]
                + [((f"b{i}", y), 1.5) for i in range(groups) for y in (1, 2)],
            )
            mvdb.add_markoview(MarkoView("V", parse_query("V(x) :- R(x), S(x, y)"), 2.0))
            return mvdb

        groups = 40
        engine = MVQueryEngine(mvdb(0), build_index=False)
        engine.append_facts({
            "R": [[[f"b{i}"], 0.5] for i in range(groups)],
            "S": [[[f"b{i}", y], 1.5] for i in range(groups) for y in (1, 2)],
        })
        rebuilt = MVQueryEngine(mvdb(groups))
        assert engine.p0_w() == pytest.approx(rebuilt.p0_w(), rel=1e-12)

    def test_probabilities_in_unit_interval(self):
        engine = MVQueryEngine(small_mvdb())
        for probability in engine.query(parse_query("Q(x, y) :- S(x, y)")).values():
            assert 0.0 <= probability <= 1.0


@st.composite
def random_mvdbs(draw):
    """Small random MVDBs with 2 relations and 1-2 MarkoViews of mixed sign."""
    r_size = draw(st.integers(min_value=1, max_value=3))
    s_size = draw(st.integers(min_value=1, max_value=4))
    weights = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
    mvdb = MVDB()
    mvdb.add_probabilistic_table(
        "R", ["x"], [((f"a{i}",), draw(weights)) for i in range(r_size)]
    )
    s_rows = []
    for j in range(s_size):
        owner = draw(st.integers(min_value=0, max_value=r_size - 1))
        s_rows.append(((f"a{owner}", j), draw(weights)))
    mvdb.add_probabilistic_table("S", ["x", "y"], s_rows)
    view_weight = draw(st.sampled_from([0.0, 0.2, 0.5, 2.0, 5.0]))
    mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), view_weight))
    if draw(st.booleans()):
        second_weight = draw(st.sampled_from([0.3, 1.0, 4.0]))
        mvdb.add_markoview(MarkoView("V2", parse_query("V2(x, y) :- S(x, y)"), second_weight))
    query = draw(
        st.sampled_from(
            ["Q :- R(x), S(x, y)", "Q :- S(x, y)", "Q(x) :- R(x), S(x, y)", "Q(x) :- R(x)"]
        )
    )
    return mvdb, query


class TestTheorem1Property:
    @given(random_mvdbs())
    @settings(max_examples=40, deadline=None)
    def test_all_methods_match_world_enumeration(self, case):
        mvdb, query_text = case
        query = parse_query(query_text)
        expected = mvdb.exact_answer_probabilities(query)
        engine = MVQueryEngine(mvdb)
        for method in ("mvindex", "obdd"):
            actual = engine.query(query, method=method)
            for answer, value in expected.items():
                assert actual.get(answer, 0.0) == pytest.approx(value, abs=1e-9), (
                    method,
                    answer,
                )

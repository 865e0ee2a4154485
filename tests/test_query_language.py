"""Unit tests for terms, atoms, conjunctive queries, UCQs and the parser."""

import pickle

import pytest

from repro.errors import EvaluationError, ParseError, QueryError
from repro.query import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    UCQ,
    Variable,
    as_ucq,
    is_constant,
    is_variable,
    make_term,
    parse_query,
    parse_rule,
)


class TestTerms:
    def test_make_term_identifier_is_variable(self):
        assert make_term("aid") == Variable("aid")
        assert is_variable(make_term("aid"))

    def test_make_term_value_is_constant(self):
        assert make_term(5) == Constant(5)
        assert is_constant(make_term("hello world"))

    def test_make_term_passes_through(self):
        constant = Constant("x")
        assert make_term(constant) is constant


class TestAtom:
    def test_variables_and_arity(self):
        atom = Atom("R", ["x", Constant("a"), "x"])
        assert atom.arity == 3
        assert atom.variables() == [Variable("x"), Variable("x")]

    def test_substitute_and_ground(self):
        atom = Atom("R", ["x", "y"])
        ground = atom.substitute({Variable("x"): 1, Variable("y"): 2})
        assert ground.is_ground()
        assert ground.ground_row() == (1, 2)

    def test_ground_row_on_non_ground_raises(self):
        with pytest.raises(QueryError):
            Atom("R", ["x"]).ground_row()


class TestComparison:
    def test_numeric_operators(self):
        comparison = Comparison("x", "<", Constant(5))
        assert comparison.evaluate({Variable("x"): 3}) is True
        assert comparison.evaluate({Variable("x"): 7}) is False

    def test_inequality_aliases(self):
        assert Comparison("x", "<>", "y").evaluate({Variable("x"): 1, Variable("y"): 2})
        assert not Comparison("x", "!=", "y").evaluate({Variable("x"): 1, Variable("y"): 1})

    def test_like(self):
        comparison = Comparison("n", "like", Constant("%Madden%"))
        assert comparison.evaluate({Variable("n"): "Samuel Madden"}) is True
        assert comparison.evaluate({Variable("n"): "Dan Suciu"}) is False

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("x", "~~", "y")

    @pytest.mark.parametrize(
        "value, pattern, expected",
        [
            ("a\nb", "%b", True),  # '%' spans a newline
            ("a\nb", "a_b", True),  # '_' matches a newline
            ("a\nb", "%\n%", True),
            ("abc", "%", True),
            ("", "%", True),
            ("", "_", False),
            ("abc", "%c", True),
            ("abc", "a%", True),
            ("abc", "_bc", True),
            ("abc", "ab_", True),
            ("abc", "_c", False),
            ("abc", "%b%", True),
            ("abc", "%d%", False),
            ("a.c", "a.c", True),  # regex metacharacters are literal
            ("abc", "a.c", False),
            ("aaa", "a*", False),
            ("a*", "a*", True),
            ("f(x)", "%(x)", True),
            ("f[x", "f[%", True),
            ("a\\b", "a\\b", True),
            (42, "4_", True),  # non-str values are str()-coerced
            (1.5, "%.5", True),
            (None, "None", True),
            ("Madden", "%madden%", False),  # case-sensitive
            ("MADDEN", "%MADDEN%", True),
        ],
    )
    def test_like_table(self, value, pattern, expected):
        comparison = Comparison("n", "like", Constant(pattern))
        assert comparison.evaluate({Variable("n"): value}) is expected
        # A pattern bound at run time follows the same rules.
        pattern_var = Comparison("n", "like", "p")
        assert pattern_var.evaluate({Variable("n"): value, Variable("p"): pattern}) is expected

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("left, right", [("a", 3), (3, "a"), (None, 1), (1, None), ((1,), 2)])
    def test_incomparable_order_comparison_is_false(self, op, left, right):
        comparison = Comparison("x", op, "y")
        assert comparison.evaluate({Variable("x"): left, Variable("y"): right}) is False

    def test_mixed_type_equality(self):
        bind = {Variable("x"): "a", Variable("y"): 3}
        assert Comparison("x", "=", "y").evaluate(bind) is False
        assert Comparison("x", "<>", "y").evaluate(bind) is True
        assert Comparison("x", "<", "y").evaluate({Variable("x"): 1, Variable("y"): 1.5})

    def test_unbound_variable_is_the_only_error(self):
        with pytest.raises(EvaluationError):
            Comparison("x", "<", "y").evaluate({Variable("x"): 1})

    def test_comparison_pickles(self):
        comparison = Comparison("n", "like", Constant("%Madden%"))
        restored = pickle.loads(pickle.dumps(comparison))
        assert restored == comparison
        assert restored.evaluate({Variable("n"): "Sam Madden"})


class TestConjunctiveQuery:
    def test_boolean_query(self):
        cq = ConjunctiveQuery([], [Atom("R", ["x"])])
        assert cq.is_boolean

    def test_head_must_occur_in_body(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(["z"], [Atom("R", ["x"])])

    def test_comparison_variables_must_be_bound(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [Atom("R", ["x"])], [Comparison("y", "<", Constant(1))])

    def test_needs_at_least_one_atom(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [])

    def test_bind_head_produces_boolean_query(self):
        cq = ConjunctiveQuery(["x"], [Atom("R", ["x", "y"])])
        bound = cq.bind_head([7])
        assert bound.is_boolean
        assert bound.atoms[0].terms[0] == Constant(7)

    def test_self_join_detection(self):
        cq = ConjunctiveQuery([], [Atom("R", ["x"]), Atom("R", ["y"])])
        assert cq.has_self_join()

    def test_relations_and_variables(self):
        cq = ConjunctiveQuery(["x"], [Atom("R", ["x"]), Atom("S", ["x", "y"])])
        assert cq.relations() == {"R", "S"}
        assert cq.existential_variables() == {Variable("y")}


class TestUCQ:
    def test_heads_must_match(self):
        q1 = ConjunctiveQuery(["x"], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery(["y"], [Atom("S", ["y"])])
        with pytest.raises(QueryError):
            UCQ([q1, q2])

    def test_union_and_iteration(self):
        q1 = ConjunctiveQuery([], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery([], [Atom("S", ["x"])])
        union = as_ucq(q1).union(q2)
        assert len(union) == 2
        assert union.relations() == {"R", "S"}

    def test_bind_head(self):
        q1 = ConjunctiveQuery(["x"], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery(["x"], [Atom("S", ["x", "y"])])
        bound = UCQ([q1, q2]).bind_head([3])
        assert bound.is_boolean


class TestParser:
    def test_parse_simple_rule(self):
        cq = parse_rule("Q(x) :- R(x, y), S(y)")
        assert cq.name == "Q"
        assert [a.relation for a in cq.atoms] == ["R", "S"]
        assert cq.head == (Variable("x"),)

    def test_parse_constants(self):
        cq = parse_rule("Q() :- R(x, 'Sam Madden'), S(x, 3), T(x, 2.5)")
        assert cq.atoms[0].terms[1] == Constant("Sam Madden")
        assert cq.atoms[1].terms[1] == Constant(3)
        assert cq.atoms[2].terms[1] == Constant(2.5)

    def test_parse_comparisons(self):
        cq = parse_rule("Q(x) :- R(x, y), y > 2004, x <> y")
        assert len(cq.comparisons) == 2
        assert cq.comparisons[0].op == ">"
        assert cq.comparisons[1].op == "<>"

    def test_parse_like(self):
        cq = parse_rule("Q(a) :- Author(a, n), n like '%Madden%'")
        assert cq.comparisons[0].op == "like"

    def test_parse_boolean_head_without_parens(self):
        cq = parse_rule("Q :- R(x)")
        assert cq.is_boolean

    def test_parse_ucq_from_multiline_string(self):
        ucq = parse_query("Q(x) :- R(x)\nQ(x) :- S(x, y)")
        assert len(ucq) == 2

    def test_parse_ucq_mismatched_heads_rejected(self):
        with pytest.raises(ParseError):
            parse_query(["Q(x) :- R(x)", "P(x) :- S(x)"])

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_rule("Q(x) :- R(x")

    def test_parse_example_from_paper(self):
        text = (
            "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
            "Author(aid1, n1), n1 like '%Madden%'"
        )
        cq = parse_rule(text)
        assert len(cq.atoms) == 4
        assert len(cq.comparisons) == 1

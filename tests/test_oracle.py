"""Oracle properties of the lineage evaluator over small random instances.

A hypothesis generator draws tuple-independent databases of a few tuples
whose columns mix ints, floats and strings, and random conjunctive queries
with ``=``/``<``/``like``/``<>`` comparisons.  The property: every atom
permutation, on both storage backends, yields the same answers with the
same lineage — and that equals evaluating the comparison-free join and
filtering each derivation afterwards.  Since the
evaluator pushes single-atom comparisons into the scan and lets them steer
the join order, this pins down that where a comparison runs never changes
what it decides (an incomparable pair is simply false, wherever it meets).
A second property pins the planner: the order it chooses has the least
estimated cost of all permutations, ties broken on the atom-index tuple.
And every exact inference method, on a tiny MVDB with MarkoViews and on one
without, gives the probabilities of the MVDB semantics computed by world
enumeration.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MVDB, MarkoView, parse_query
from repro.core.engine import MVQueryEngine
from repro.indb import TupleIndependentDatabase
from repro.query import Atom, Comparison, ConjunctiveQuery, Constant, Variable
from repro.query.evaluator import (
    QueryResult,
    _order_atoms,
    _plan_cost,
    _run_pipeline,
    evaluate_cq,
)

#: Column values: no float equals an int, so row identity is type-exact.
VALUES = [0, 1, 2, 3, -1, 1.5, 2.5, "a", "b", "ab", "a\nb", "1"]
LIKE_PATTERNS = ["%a%", "a_", "%b", "a%", "_", "%1%", "a\nb"]
RELATIONS = {"R": 2, "S": 2, "T": 1}
VARIABLES = [Variable(name) for name in ("x", "y", "z")]


@st.composite
def instances(draw):
    """``{relation: (probabilistic?, rows)}`` with a handful of rows each."""
    spec = {}
    for name, arity in RELATIONS.items():
        row = st.tuples(*[st.sampled_from(VALUES)] * arity)
        spec[name] = (draw(st.booleans()), draw(st.lists(row, max_size=5, unique=True)))
    return spec


@st.composite
def queries(draw, max_atoms=3):
    atoms = []
    for __ in range(draw(st.integers(1, max_atoms))):
        relation = draw(st.sampled_from(sorted(RELATIONS)))
        terms = [
            draw(st.sampled_from(VARIABLES))
            if draw(st.integers(0, 4))
            else Constant(draw(st.sampled_from(VALUES)))
            for __ in range(RELATIONS[relation])
        ]
        atoms.append(Atom(relation, terms))
    body = sorted({v for atom in atoms for v in atom.variables()}, key=lambda v: v.name)
    if not body:
        atoms.append(Atom("T", [VARIABLES[0]]))
        body = [VARIABLES[0]]
    comparisons = []
    for __ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["=", "<", "like", "<>"]))
        constants = LIKE_PATTERNS if op == "like" else VALUES
        right = draw(st.sampled_from(body) | st.sampled_from(constants).map(Constant))
        comparisons.append(Comparison(draw(st.sampled_from(body)), op, right))
    head = draw(st.lists(st.sampled_from(body), unique=True))
    return ConjunctiveQuery(head, atoms, comparisons)


def build(spec, backend):
    indb = TupleIndependentDatabase(backend=backend)
    for name, (probabilistic, rows) in spec.items():
        attributes = [f"c{i}" for i in range(RELATIONS[name])]
        if probabilistic:
            indb.add_probabilistic_table(name, attributes, [(row, 1.0) for row in rows])
        else:
            indb.add_deterministic_table(name, attributes, rows)
    return indb


def post_join_filter(query, indb):
    """The reference: join without comparisons, then filter every derivation."""
    body = sorted({v for atom in query.atoms for v in atom.variables()}, key=lambda v: v.name)
    joined = evaluate_cq(ConjunctiveQuery(body, query.atoms), indb.database, indb)
    result = QueryResult(query.head)
    for values, lineage in joined.lineages().items():
        binding = dict(zip(body, values))
        if all(c.evaluate(binding) for c in query.comparisons):
            for clause in lineage:
                result.add_derivation(tuple(binding[v] for v in query.head), clause)
    return result.lineages()


@given(instances(), queries())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_every_order_and_backend_matches_the_post_join_filter(spec, query):
    memory = build(spec, None)
    expected = post_join_filter(query, memory)
    for indb in (memory, build(spec, "sqlite")):
        chosen = _order_atoms(query, indb.database)
        assert sorted(map(repr, chosen)) == sorted(map(repr, query.atoms))
        for order in permutations(query.atoms):
            result = QueryResult(query.head)
            _run_pipeline(query, order, indb.database, indb, result)
            assert result.lineages() == expected, (query, order)


@given(instances(), queries(max_atoms=5))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_chosen_order_has_the_least_plan_cost(spec, query):
    atoms = query.atoms
    for indb in (build(spec, None), build(spec, "sqlite")):
        database = indb.database
        best = min(
            permutations(range(len(atoms))),
            key=lambda order: (_plan_cost(query, [atoms[i] for i in order], database), order),
        )
        assert _order_atoms(query, database) == [atoms[i] for i in best], query


#: Every exact method the registry ships.
EXACT_METHODS = ("mvindex", "mvindex-mv", "obdd", "enumeration")


def tiny_mvdb(views: bool) -> MVDB:
    """Two probabilistic relations; with ``views``, a positive and a negative view."""
    mvdb = MVDB()
    mvdb.add_deterministic_table("Name", ["x", "n"], [("a", "Ann"), ("b", "Bob")])
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
    mvdb.add_probabilistic_table(
        "S", ["x", "y"], [(("a", 1), 2.0), (("a", 2), 1.0), (("b", 1), 0.8)]
    )
    if views:
        mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), 2.0))
        mvdb.add_markoview(MarkoView("V2", parse_query("V2(x, y) :- S(x, y)"), 0.5))
    return mvdb


@pytest.mark.parametrize("views", [True, False], ids=["views", "no-views"])
def test_every_exact_method_matches_the_mvdb_semantics(views):
    mvdb = tiny_mvdb(views)
    engine = MVQueryEngine(mvdb)
    assert engine.w_lineage.is_false is not views
    for text in ("Q :- R(x), S(x, y)", "Q(x) :- R(x), S(x, y)", "Q(y) :- S(x, y), Name(x, n)"):
        query = parse_query(text)
        expected = mvdb.exact_answer_probabilities(query)
        assert expected
        answers = {}
        for method in EXACT_METHODS:
            actual = answers[method] = engine.query(query, method=method)
            assert actual.keys() == expected.keys(), (text, method)
            for answer, probability in expected.items():
                assert actual[answer] == pytest.approx(probability, rel=1e-9), (text, method)
        if not views:
            # Without views the index methods run the ``obdd`` compile itself.
            assert answers["mvindex"] == answers["mvindex-mv"] == answers["obdd"], text

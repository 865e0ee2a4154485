"""Tests for CQ/UCQ evaluation with lineage extraction over a database."""

import pytest

from repro.db import Database
from repro.indb import TupleIndependentDatabase, probability_to_weight
from repro.lineage import brute_force_probability
from repro.query import (
    answer_probabilities,
    boolean_lineage,
    evaluate_ucq,
    parse_query,
    parse_rule,
)


@pytest.fixture
def figure3_indb():
    """The example of Fig. 3: R = {a1, a2}, S = {(a1,b1),(a1,b2),(a2,b3),(a2,b4)}."""
    indb = TupleIndependentDatabase()
    indb.add_probabilistic_table(
        "R", ["a"], [((f"a{i}",), probability_to_weight(0.5)) for i in (1, 2)]
    )
    indb.add_probabilistic_table(
        "S",
        ["a", "b"],
        [
            (("a1", "b1"), probability_to_weight(0.3)),
            (("a1", "b2"), probability_to_weight(0.4)),
            (("a2", "b3"), probability_to_weight(0.5)),
            (("a2", "b4"), probability_to_weight(0.6)),
        ],
    )
    return indb


class TestDeterministicEvaluation:
    def test_join(self):
        db = Database()
        db.create_table("R", ["a"], [(1,), (2,)])
        db.create_table("S", ["a", "b"], [(1, 10), (2, 20), (3, 30)])
        result = evaluate_ucq(parse_query("Q(x, y) :- R(x), S(x, y)"), db)
        assert sorted(result.answers()) == [(1, 10), (2, 20)]

    def test_comparison_filters(self):
        db = Database()
        db.create_table("S", ["a", "b"], [(1, 10), (2, 20)])
        result = evaluate_ucq(parse_query("Q(x) :- S(x, y), y > 15"), db)
        assert result.answers() == [(2,)]

    def test_like_filter(self):
        db = Database()
        db.create_table("Author", ["aid", "name"], [(1, "Sam Madden"), (2, "Dan Suciu")])
        result = evaluate_ucq(parse_query("Q(a) :- Author(a, n), n like '%Madden%'"), db)
        assert result.answers() == [(1,)]

    def test_boolean_query_true_and_false(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        assert evaluate_ucq(parse_query("Q :- R(x)"), db).boolean_true
        db2 = Database()
        db2.create_table("R", ["a"])
        assert not evaluate_ucq(parse_query("Q :- R(x)"), db2).boolean_true

    def test_union_iterates_its_disjuncts_and_the_result_holds_answers(self):
        db = Database()
        db.create_table("R", ["a"], [(1,), (2,)])
        db.create_table("S", ["a"], [(2,), (3,)])
        query = parse_query("Q(x) :- R(x) ; Q(x) :- S(x)")
        assert [cq.atoms[0].relation for cq in query] == ["R", "S"]
        result = evaluate_ucq(query, db)
        assert [answer in result for answer in ((1,), (2,), (3,), (4,))] == [
            True, True, True, False
        ]

    def test_repeated_variable_join(self):
        db = Database()
        db.create_table("E", ["a", "b"], [(1, 1), (1, 2)])
        result = evaluate_ucq(parse_query("Q(x) :- E(x, x)"), db)
        assert result.answers() == [(1,)]

    def test_constant_in_atom(self):
        db = Database()
        db.create_table("E", ["a", "b"], [(1, 7), (2, 8)])
        result = evaluate_ucq(parse_query("Q(x) :- E(x, 7)"), db)
        assert result.answers() == [(1,)]

    def test_ucq_union_of_answers(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        db.create_table("S", ["a"], [(2,)])
        result = evaluate_ucq(parse_query("Q(x) :- R(x)\nQ(x) :- S(x)"), db)
        assert sorted(result.answers()) == [(1,), (2,)]

    def test_unbound_comparison_variable_raises(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        # 'y' never bound: the CQ constructor already rejects it.
        with pytest.raises(Exception):
            parse_rule("Q(x) :- R(x), y < 3")

    def test_deterministic_lineage_is_true(self):
        db = Database()
        db.create_table("R", ["a"], [(1,)])
        result = evaluate_ucq(parse_query("Q(x) :- R(x)"), db)
        assert result.lineage((1,)).is_true


class TestLineageExtraction:
    def test_figure3_lineage(self, figure3_indb):
        """Lineage of Q :- R(x), S(x,y) must be X1Y1 ∨ X1Y2 ∨ X2Y3 ∨ X2Y4."""
        query = parse_query("Q :- R(x), S(x, y)")
        lineage = boolean_lineage(query, figure3_indb.database, figure3_indb)
        assert len(lineage) == 4
        assert all(len(clause) == 2 for clause in lineage)
        x1 = figure3_indb.variable_for("R", ("a1",))
        y1 = figure3_indb.variable_for("S", ("a1", "b1"))
        assert frozenset({x1, y1}) in lineage.clauses

    def test_lineage_probability_matches_closed_form(self, figure3_indb):
        query = parse_query("Q :- R(x), S(x, y)")
        probability = figure3_indb.query_probability(query)
        # P = 1 - (1 - 0.5(1-(1-.3)(1-.4))) (1 - 0.5(1-(1-.5)(1-.6)))
        p_a1 = 0.5 * (1 - 0.7 * 0.6)
        p_a2 = 0.5 * (1 - 0.5 * 0.4)
        assert probability == pytest.approx(1 - (1 - p_a1) * (1 - p_a2))

    def test_non_boolean_answers_probability(self, figure3_indb):
        query = parse_query("Q(x) :- R(x), S(x, y)")
        answers = figure3_indb.query_answers(query)
        assert answers[("a1",)] == pytest.approx(0.5 * (1 - 0.7 * 0.6))
        assert answers[("a2",)] == pytest.approx(0.5 * (1 - 0.5 * 0.4))

    def test_missing_answer_lineage_is_false(self, figure3_indb):
        query = parse_query("Q(x) :- R(x), S(x, y)")
        result = evaluate_ucq(query, figure3_indb.database, figure3_indb)
        assert result.lineage(("zz",)).is_false

    def test_certain_tuples_do_not_appear_in_lineage(self):
        indb = TupleIndependentDatabase()
        indb.add_probabilistic_table("R", ["a"], [((1,), float("inf"))])
        indb.add_probabilistic_table("S", ["a"], [((1,), 1.0)])
        lineage = indb.lineage_of(parse_query("Q :- R(x), S(x)"))
        assert len(lineage.variables()) == 1

    def test_answer_probabilities_helper(self, figure3_indb):
        query = parse_query("Q(x) :- R(x), S(x, y)")
        result = evaluate_ucq(query, figure3_indb.database, figure3_indb)
        probabilities = figure3_indb.probabilities()
        probs = answer_probabilities(result, probabilities)
        for answer, formula in result.lineages().items():
            assert probs[answer] == pytest.approx(brute_force_probability(formula, probabilities))

    def test_many_groups_match_closed_form(self):
        # The INDB numbers R's tuples before S's, so the id order interleaves
        # the 40 independent groups of R(x) ∧ S(x, y); compiling under it
        # needs about 2^40 nodes and never finishes.
        groups = 40
        indb = TupleIndependentDatabase()
        indb.add_probabilistic_table("R", ["a"], [((f"a{i}",), 1.0) for i in range(groups)])
        indb.add_probabilistic_table(
            "S", ["a", "b"], [((f"a{i}", b), 0.5 + b) for i in range(groups) for b in (0, 1)]
        )
        p_group = 0.5 * (1 - (1 - 1 / 3) * (1 - 0.6))
        expected = 1 - (1 - p_group) ** groups
        query = parse_query("Q :- R(x), S(x, y)")
        assert indb.query_probability(query) == pytest.approx(expected, rel=1e-12)
        assert indb.query_answers(query) == {(): pytest.approx(expected, rel=1e-12)}


class TestPossibleWorlds:
    def test_world_count_and_total_probability(self):
        indb = TupleIndependentDatabase()
        indb.add_probabilistic_table("R", ["a"], [((1,), 1.0), ((2,), 3.0)])
        worlds = list(indb.possible_worlds())
        assert len(worlds) == 4
        assert sum(weight for __, weight in worlds) == pytest.approx(1.0)

    def test_world_database_materialisation(self):
        indb = TupleIndependentDatabase()
        indb.add_deterministic_table("D", ["a"], [(9,)])
        indb.add_probabilistic_table("R", ["a"], [((1,), 1.0)])
        var = indb.variable_for("R", (1,))
        with_tuple = indb.world_database({var: True})
        without_tuple = indb.world_database({var: False})
        assert (1,) in with_tuple.table("R")
        assert (1,) not in without_tuple.table("R")
        assert (9,) in with_tuple.table("D")

    def test_query_probability_matches_world_semantics(self):
        indb = TupleIndependentDatabase()
        indb.add_probabilistic_table("R", ["a"], [((1,), 1.0)])
        indb.add_probabilistic_table("S", ["a", "b"], [((1, 2), 2.0)])
        query = parse_query("Q :- R(x), S(x, y)")
        by_lineage = indb.query_probability(query)
        total = 0.0
        for assignment, weight in indb.possible_worlds():
            world = indb.world_database(assignment)
            if evaluate_ucq(query, world).boolean_true:
                total += weight
        assert by_lineage == pytest.approx(total)


class TestSelectionFirst:
    """Single-atom comparisons filter at the scan and lead the join order."""

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_like_query_touches_a_bounded_number_of_rows(self, backend, monkeypatch):
        from repro.db.sqlite_backend import SqliteTable
        from repro.db.table import Table
        from repro.dblp import DblpConfig, build_mvdb, students_of_advisor
        from repro.query import evaluator

        mvdb = build_mvdb(DblpConfig(group_count=24, seed=0), backend=backend).mvdb
        touched: list[tuple[str, int]] = []  # (relation, rows returned), in call order

        def counting(method):
            def wrapper(table, *args, **kwargs):
                rows = list(method(table, *args, **kwargs))
                touched.append((table.name, len(rows)))
                return rows

            return wrapper

        for cls in (Table, SqliteTable):
            monkeypatch.setattr(cls, "scan", counting(cls.scan))
            monkeypatch.setattr(cls, "lookup", counting(cls.lookup))
        emitted = []
        emit = evaluator._JoinStep.emit
        monkeypatch.setattr(
            evaluator._JoinStep,
            "emit",
            lambda step, *args: (emitted.append(step.atom.relation), emit(step, *args)),
        )

        result = evaluate_ucq(students_of_advisor("Advisor 2"), mvdb.database, mvdb.base)
        # Every Student-year candidate row of a matched student is a derivation
        # of its own, so the budget is per derivation, not per answer.
        derivations = sum(len(lineage) for lineage in result.lineages().values())
        assert len(result) > 0
        assert touched[0][0] == "Author"
        assert emitted[0] == "Author"
        assert len(emitted) <= 2 * derivations
        # Past the leading scan, only index probes for the matched rows.
        assert sum(count for __, count in touched[1:]) <= 2 * derivations


#: The six analytical shapes of the broad benchmark workload, with fixed
#: parameters for 24 groups (~96 author ids).
BROAD_QUERIES = [
    "Q :- Student(aid, year), Advisor(aid, a), year > 2001, aid >= 10, aid < 27",
    "Q(a) :- Student(aid, year), Advisor(aid, a), year >= 2001, year <= 2003, "
    "aid >= 10, aid < 33",
    "Q(year) :- Student(aid, year), Advisor(aid, a), aid >= 10, aid < 17",
    "Q(inst) :- Affiliation(aid, inst), aid >= 10, aid < 62",
    "Q :- Affiliation(aid, inst), aid >= 10, aid < 62",
    "Q(aid) :- Student(aid, year), Advisor(aid, a), year = 2003, aid >= 10, aid < 34",
]


class _EmitBudgetSpent(Exception):
    pass


class TestPlanRegret:
    """The chosen join order never emits much more than the best permutation."""

    @pytest.fixture(scope="class")
    def mvdb(self):
        from repro.dblp import DblpConfig, build_mvdb

        return build_mvdb(DblpConfig(group_count=24, seed=0)).mvdb

    @staticmethod
    def _queries(mvdb):
        from repro.dblp import workload

        queries = [view.query for view in mvdb.views]
        queries += [
            workload.students_of_advisor("Advisor 5"),
            workload.advisor_of_student("Student 5-0"),
            workload.affiliation_of_author("Student 5-1"),
            workload.madden_query("Advisor 5"),
        ]
        queries += [parse_query(text) for text in BROAD_QUERIES]
        return [cq for query in queries for cq in query.disjuncts]

    def test_chosen_plan_emits_at_most_twice_the_cheapest_permutation(self, mvdb, monkeypatch):
        from itertools import permutations

        from repro.query import evaluator

        emitted = [0]
        budget = [float("inf")]
        emit = evaluator._JoinStep.emit

        def counting(step, *args):
            emitted[0] += 1
            if emitted[0] >= budget[0]:
                raise _EmitBudgetSpent
            emit(step, *args)

        monkeypatch.setattr(evaluator._JoinStep, "emit", counting)

        def emits(cq, order, limit=float("inf")):
            emitted[0], budget[0] = 0, limit
            try:
                evaluator._run_pipeline(
                    cq, order, mvdb.database, mvdb.base, evaluator.QueryResult(cq.head)
                )
            except _EmitBudgetSpent:
                pass
            return emitted[0]

        for cq in self._queries(mvdb):
            chosen = emits(cq, evaluator._order_atoms(cq, mvdb.database))
            # A permutation only matters once it emits fewer than half as many
            # rows, so each run stops as soon as it has spent that many.
            for order in permutations(cq.atoms):
                cheaper = emits(cq, order, limit=chosen / 2)
                assert 2 * cheaper >= chosen, (cq, order, chosen, cheaper)


class TestJoinAtomCeiling:
    """A conjunctive query joining more than ``MAX_JOIN_ATOMS`` atoms is refused."""

    @staticmethod
    def _chain(atoms):
        body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(atoms))
        return parse_query(f"Q(x0) :- {body}")

    def test_thirteen_atoms_raise_and_twelve_plan(self):
        from repro.errors import EvaluationError
        from repro.query.evaluator import MAX_JOIN_ATOMS

        db = Database()
        db.create_table("R", ["a", "b"], [(i, i + 1) for i in range(20)])
        result = evaluate_ucq(self._chain(MAX_JOIN_ATOMS), db)
        assert sorted(result.answers()) == [(i,) for i in range(20 - MAX_JOIN_ATOMS + 1)]
        with pytest.raises(EvaluationError, match="limited to 12"):
            evaluate_ucq(self._chain(MAX_JOIN_ATOMS + 1), db)

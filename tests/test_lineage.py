"""Unit and property tests for DNF lineage and exact probability."""

import dataclasses
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InferenceError
from repro.lineage import DNF, brute_force_probability, disjoin, enumerate_worlds
from repro.obdd import build_obdd, natural_order


def obdd_probability(formula, probabilities):
    """The OBDD compile of ``formula`` under the natural order."""
    return build_obdd(formula, natural_order(formula.variables())).probability(probabilities)


class TestDNF:
    def test_false_and_true(self):
        assert DNF.false().is_false
        assert DNF.true().is_true
        assert not DNF.false().is_true

    def test_absorption(self):
        formula = DNF([[1], [1, 2]])
        assert formula.clauses == frozenset({frozenset({1})})

    def test_true_clause_absorbs_everything(self):
        formula = DNF([[], [1, 2]])
        assert formula.is_true
        assert len(formula) == 1

    def test_or(self):
        formula = DNF.variable(1).or_(DNF.variable(2))
        assert formula.variables() == frozenset({1, 2})
        assert len(formula) == 2

    def test_and_distributes(self):
        formula = DNF([[1], [2]]).and_(DNF([[3]]))
        assert formula.clauses == frozenset({frozenset({1, 3}), frozenset({2, 3})})

    def test_and_with_false(self):
        assert DNF.variable(1).and_(DNF.false()).is_false

    def test_condition(self):
        # The normal-form condition: a DNF is an immutable value, so two
        # spellings of one absorbed clause set are equal and hash alike.
        formula = DNF([[2, 1], [3], [3, 1]])
        assert formula == DNF([[3], [1, 2]])
        assert hash(formula) == hash(DNF([[3], [1, 2]]))
        assert formula != DNF([[1, 2]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            formula.clauses = frozenset()

    def test_evaluate(self):
        formula = DNF([[1, 2], [3]])
        assert formula.evaluate({1: True, 2: True, 3: False})
        assert formula.evaluate({3: True})
        assert not formula.evaluate({1: True})

    def test_restrict_to(self):
        # The constants restrict nothing: TRUE is the unit of and_, FALSE
        # the unit of or_, and iteration yields exactly the absorbed clauses.
        formula = DNF([[1, 2], [3]])
        assert DNF.true().and_(formula) == formula == formula.and_(DNF.true())
        assert DNF.false().or_(formula) == formula == formula.or_(DNF.false())
        assert set(formula) == {frozenset({1, 2}), frozenset({3})}
        assert DNF.true().variables() == DNF.false().variables() == frozenset()

    def test_disjoin(self):
        formula = disjoin([DNF.variable(1), DNF.variable(2), DNF.false()])
        assert formula.variables() == frozenset({1, 2})


class TestEvents:
    """Oracle contracts on plain DNFs (the former ``Event`` ids)."""

    def test_event_evaluation(self):
        # Over 0/1 probabilities the oracle's weight is the indicator of the
        # one world it names, so brute force equals ``DNF.evaluate``.
        formula = DNF([[1, 2], [3]])
        for values in product((False, True), repeat=3):
            assignment = dict(zip((1, 2, 3), values))
            probabilities = {var: float(value) for var, value in assignment.items()}
            expected = 1.0 if formula.evaluate(assignment) else 0.0
            assert brute_force_probability(formula, probabilities) == expected

    def test_constants(self):
        # Constants enumerate the single empty world and ignore probabilities.
        assert brute_force_probability(DNF.true(), {7: 0.3}) == 1.0
        assert brute_force_probability(DNF.false(), {7: 0.3}) == 0.0
        assert list(enumerate_worlds([], {})) == [({}, 1.0)]

    def test_event_from_dnf_matches_dnf(self):
        # The world weights of ``enumerate_worlds`` sum to one, and the
        # weights of the worlds satisfying a DNF sum to its oracle value.
        formula = DNF([[1, 2], [3]])
        probabilities = {1: -0.5, 2: 0.4, 3: 0.7}
        worlds = list(enumerate_worlds(formula.variables(), probabilities))
        assert len(worlds) == 8
        assert sum(weight for __, weight in worlds) == pytest.approx(1.0, abs=1e-12)
        satisfied = sum(weight for world, weight in worlds if formula.evaluate(world))
        assert satisfied == pytest.approx(
            brute_force_probability(formula, probabilities), abs=1e-12
        )

    def test_event_variables(self):
        # The oracle enumerates only the formula's variables: entries for
        # other variables are never read.
        formula = DNF([[1], [2, 5]])
        assert formula.variables() == frozenset({1, 2, 5})
        probabilities = {1: 0.5, 2: 0.4, 5: 0.25}
        assert brute_force_probability(formula, probabilities) == brute_force_probability(
            formula, {**probabilities, 9: 0.9}
        )


class TestExactProbability:
    def test_single_variable(self):
        assert brute_force_probability(DNF.variable(1), {1: 0.3}) == pytest.approx(0.3)
        assert obdd_probability(DNF.variable(1), {1: 0.3}) == pytest.approx(0.3)

    def test_independent_or(self):
        formula = DNF([[1], [2]])
        probabilities = {1: 0.5, 2: 0.5}
        expected = 1 - 0.5 * 0.5
        assert brute_force_probability(formula, probabilities) == pytest.approx(expected)
        assert obdd_probability(formula, probabilities) == pytest.approx(expected)

    def test_conjunction(self):
        formula = DNF([[1, 2]])
        assert obdd_probability(formula, {1: 0.5, 2: 0.4}) == pytest.approx(0.2)

    def test_shared_variable_formula(self):
        # x1 y1 ∨ x1 y2: P = p1 (1 - (1-q1)(1-q2))
        formula = DNF([[1, 2], [1, 3]])
        probabilities = {1: 0.5, 2: 0.4, 3: 0.6}
        expected = 0.5 * (1 - 0.6 * 0.4)
        assert obdd_probability(formula, probabilities) == pytest.approx(expected)
        assert brute_force_probability(formula, probabilities) == pytest.approx(expected)

    def test_negative_probabilities_are_supported(self):
        formula = DNF([[1, 2], [3]])
        probabilities = {1: -0.5, 2: 0.4, 3: 0.7}
        assert obdd_probability(formula, probabilities) == pytest.approx(
            brute_force_probability(formula, probabilities)
        )

    def test_true_and_false(self):
        assert obdd_probability(DNF.true(), {}) == 1.0
        assert obdd_probability(DNF.false(), {}) == 0.0

    def test_constant_events_enumerate_one_world(self):
        assert brute_force_probability(DNF.true(), {}) == 1.0
        assert brute_force_probability(DNF.false(), {}) == 0.0

    def test_enumeration_limit(self):
        formula = DNF([[i] for i in range(30)])
        with pytest.raises(InferenceError):
            brute_force_probability(formula, {i: 0.5 for i in range(30)})


@st.composite
def small_dnfs(draw):
    """Random monotone DNF over at most 8 variables with random probabilities."""
    n_vars = draw(st.integers(min_value=1, max_value=8))
    n_clauses = draw(st.integers(min_value=1, max_value=6))
    clauses = [
        draw(st.sets(st.integers(min_value=0, max_value=n_vars - 1), min_size=1, max_size=4))
        for __ in range(n_clauses)
    ]
    probabilities = {
        v: draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)) for v in range(n_vars)
    }
    return DNF(clauses), probabilities


class TestShannonMatchesEnumeration:
    @given(small_dnfs())
    @settings(max_examples=120, deadline=None)
    def test_shannon_equals_brute_force(self, case):
        # The OBDD compile (a Shannon expansion per node) matches the world
        # enumeration oracle on the same DNFs, negative probabilities included.
        formula, probabilities = case
        expected = brute_force_probability(formula, probabilities)
        assert obdd_probability(formula, probabilities) == pytest.approx(expected, abs=1e-9)

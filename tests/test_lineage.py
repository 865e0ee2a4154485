"""Unit and property tests for DNF lineage, events, and exact probability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InferenceError
from repro.lineage import (
    DNF,
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Var,
    brute_force_probability,
    disjoin,
    event_from_dnf,
    shannon_probability,
)


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
        formula = DNF([[1, 2], [3]])
        assert formula.condition(1, True).clauses == frozenset({frozenset({2}), frozenset({3})})
        assert formula.condition(1, False).clauses == frozenset({frozenset({3})})

    def test_evaluate(self):
        formula = DNF([[1, 2], [3]])
        assert formula.evaluate({1: True, 2: True, 3: False})
        assert formula.evaluate({3: True})
        assert not formula.evaluate({1: True})

    def test_restrict_to(self):
        formula = DNF([[1, 2], [3]])
        assert formula.restrict_to([3]).clauses == frozenset({frozenset({3})})

    def test_disjoin(self):
        formula = disjoin([DNF.variable(1), DNF.variable(2), DNF.false()])
        assert formula.variables() == frozenset({1, 2})


class TestEvents:
    def test_event_evaluation(self):
        event = (Var(1) & Var(2)) | ~Var(3)
        assert event.evaluate({1: True, 2: True, 3: True})
        assert event.evaluate({3: False})
        assert not event.evaluate({1: True, 2: False, 3: True})

    def test_constants(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False

    def test_event_from_dnf_matches_dnf(self):
        formula = DNF([[1, 2], [3]])
        event = event_from_dnf(formula)
        for assignment in (
            {1: True, 2: True, 3: False},
            {1: True, 2: False, 3: False},
            {1: False, 2: False, 3: True},
        ):
            assert event.evaluate(assignment) == formula.evaluate(assignment)

    def test_event_variables(self):
        event = And([Var(1), Or([Var(2), Not(Var(5))])])
        assert event.variables() == frozenset({1, 2, 5})


class TestExactProbability:
    def test_single_variable(self):
        assert brute_force_probability(DNF.variable(1), {1: 0.3}) == pytest.approx(0.3)
        assert shannon_probability(DNF.variable(1), {1: 0.3}) == pytest.approx(0.3)

    def test_independent_or(self):
        formula = DNF([[1], [2]])
        probabilities = {1: 0.5, 2: 0.5}
        expected = 1 - 0.5 * 0.5
        assert brute_force_probability(formula, probabilities) == pytest.approx(expected)
        assert shannon_probability(formula, probabilities) == pytest.approx(expected)

    def test_conjunction(self):
        formula = DNF([[1, 2]])
        assert shannon_probability(formula, {1: 0.5, 2: 0.4}) == pytest.approx(0.2)

    def test_shared_variable_formula(self):
        # x1 y1 ∨ x1 y2: P = p1 (1 - (1-q1)(1-q2))
        formula = DNF([[1, 2], [1, 3]])
        probabilities = {1: 0.5, 2: 0.4, 3: 0.6}
        expected = 0.5 * (1 - 0.6 * 0.4)
        assert shannon_probability(formula, probabilities) == pytest.approx(expected)
        assert brute_force_probability(formula, probabilities) == pytest.approx(expected)

    def test_negative_probabilities_are_supported(self):
        formula = DNF([[1, 2], [3]])
        probabilities = {1: -0.5, 2: 0.4, 3: 0.7}
        assert shannon_probability(formula, probabilities) == pytest.approx(
            brute_force_probability(formula, probabilities)
        )

    def test_true_and_false(self):
        assert shannon_probability(DNF.true(), {}) == 1.0
        assert shannon_probability(DNF.false(), {}) == 0.0

    def test_constant_events_enumerate_one_world(self):
        assert event_from_dnf(DNF.true()) is TRUE and event_from_dnf(DNF.false()) is FALSE
        assert brute_force_probability(TRUE, {}) == 1.0
        assert brute_force_probability(FALSE, {}) == 0.0

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
        formula, probabilities = case
        expected = brute_force_probability(formula, probabilities)
        assert shannon_probability(formula, probabilities) == pytest.approx(expected, abs=1e-9)

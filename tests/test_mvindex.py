"""Tests for the MV-index, augmented OBDDs, and the intersection algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompilationError
from repro.lineage import DNF, brute_force_probability
from repro.mvindex import (
    AugmentedObdd,
    FlatObdd,
    IntersectStatistics,
    MVIndex,
    cc_mv_intersect,
    mv_intersect,
    p0_q_or_w,
)
from repro.obdd import build_obdd, natural_order


def _conjunction_probability(q: DNF, w: DNF, probabilities) -> float:
    """Reference value of P0(Q ∧ ¬W) by brute force."""
    variables = sorted(set(q.variables()) | set(w.variables()))
    from repro.lineage.enumeration import enumerate_worlds

    total = 0.0
    for assignment, weight in enumerate_worlds(variables, probabilities):
        if q.evaluate(assignment) and not w.evaluate(assignment):
            total += weight
    return total


class TestAugmentedObdd:
    def test_prob_under_at_root_is_probability(self):
        formula = DNF([[0, 1], [2]])
        order = natural_order(formula.variables())
        compiled = build_obdd(formula, order)
        probabilities = {0: 0.5, 1: 0.4, 2: 0.3}
        augmented = AugmentedObdd(compiled.manager, compiled.root, order, probabilities)
        assert augmented.probability == pytest.approx(
            brute_force_probability(formula, probabilities)
        )

    def test_reachability_of_root_is_one(self):
        formula = DNF([[0, 1]])
        order = natural_order([0, 1])
        compiled = build_obdd(formula, order)
        augmented = AugmentedObdd(compiled.manager, compiled.root, order, {0: 0.5, 1: 0.5})
        assert augmented.reachability[compiled.root] == pytest.approx(1.0)

    def test_conjunction_probability_at_level(self):
        """The Sect. 4.1 shortcut P(X ∧ Φ) via reachability · probUnder.

        The shortcut assumes every accepting path visits the variable, so the
        test formula places x2 in every clause: Φ = x0·x2 ∨ x1·x2.
        """
        formula = DNF([[0, 2], [1, 2]])
        order = natural_order([0, 1, 2])
        compiled = build_obdd(formula, order)
        probabilities = {0: 0.6, 1: 0.5, 2: 0.4}
        augmented = AugmentedObdd(compiled.manager, compiled.root, order, probabilities)
        reference = 0.0
        from repro.lineage.enumeration import enumerate_worlds

        for assignment, weight in enumerate_worlds([0, 1, 2], probabilities):
            if assignment[2] and formula.evaluate(assignment):
                reference += weight
        assert augmented.conjunction_probability_at_level(2) == pytest.approx(reference)

    def test_nodes_at_level_index(self):
        formula = DNF([[0, 2], [1, 2]])
        order = natural_order([0, 1, 2])
        compiled = build_obdd(formula, order)
        augmented = AugmentedObdd(compiled.manager, compiled.root, order, {0: 0.5, 1: 0.5, 2: 0.5})
        assert len(augmented.nodes_at_level(2)) >= 1
        assert augmented.nodes_at_level(99) == []


class TestMVIndex:
    def test_component_partition(self):
        w = DNF([[0, 1], [2, 3], [4]])
        probabilities = {i: 0.5 for i in range(5)}
        index = MVIndex(w, probabilities, natural_order(range(5)))
        assert index.component_count() == 3
        assert index.component_of(0) == index.component_of(1)
        assert index.component_of(0) != index.component_of(2)
        assert index.component_of(99) is None

    def test_probability_w(self):
        w = DNF([[0, 1], [2]])
        probabilities = {0: 0.5, 1: 0.5, 2: 0.25}
        index = MVIndex(w, probabilities, natural_order(range(3)))
        assert index.probability_w() == pytest.approx(
            brute_force_probability(w, probabilities)
        )

    def test_negative_probabilities(self):
        w = DNF([[0, 1]])
        probabilities = {0: -1.0, 1: 0.5}
        index = MVIndex(w, probabilities, natural_order([0, 1]))
        assert index.probability_w() == pytest.approx(
            brute_force_probability(w, probabilities)
        )

    def test_certainly_true_w_rejected(self):
        with pytest.raises(CompilationError):
            MVIndex(DNF.true(), {}, natural_order([]))

    def test_intra_index(self):
        w = DNF([[0, 1], [2]])
        index = MVIndex(w, {0: 0.5, 1: 0.5, 2: 0.5}, natural_order(range(3)))
        assert len(index.nodes_for(0)) >= 1
        assert index.nodes_for(42) == []

    def test_size_and_width(self):
        w = DNF([[2 * i, 2 * i + 1] for i in range(10)])
        probabilities = {i: 0.5 for i in range(20)}
        index = MVIndex(w, probabilities, natural_order(range(20)))
        assert index.size >= 20
        assert index.width >= 1


class TestIntersection:
    def _setup(self):
        w = DNF([[0, 1], [2, 3], [4, 5], [6]])
        probabilities = {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.7, 4: 0.2, 5: 0.6, 6: 0.1, 7: 0.5, 8: 0.25}
        index = MVIndex(w, {k: v for k, v in probabilities.items() if k <= 6}, natural_order(range(7)))
        return w, probabilities, index

    def test_mv_intersect_matches_brute_force(self):
        w, probabilities, index = self._setup()
        q = DNF([[0, 2], [7]])
        expected = _conjunction_probability(q, w, probabilities)
        assert mv_intersect(index, q, probabilities) == pytest.approx(expected)

    def test_cc_intersect_matches_brute_force(self):
        w, probabilities, index = self._setup()
        q = DNF([[0, 2], [7]])
        expected = _conjunction_probability(q, w, probabilities)
        assert cc_mv_intersect(index, q, probabilities) == pytest.approx(expected)

    def test_query_touching_no_component(self):
        w, probabilities, index = self._setup()
        q = DNF([[7, 8]])
        expected = _conjunction_probability(q, w, probabilities)
        assert mv_intersect(index, q, probabilities) == pytest.approx(expected)
        assert cc_mv_intersect(index, q, probabilities) == pytest.approx(expected)

    def test_true_and_false_queries(self):
        w, probabilities, index = self._setup()
        assert mv_intersect(index, DNF.false(), probabilities) == 0.0
        assert mv_intersect(index, DNF.true(), probabilities) == pytest.approx(
            index.probability_not_w()
        )
        assert cc_mv_intersect(index, DNF.true(), probabilities) == pytest.approx(
            index.probability_not_w()
        )

    def test_p0_q_or_w(self):
        w, probabilities, index = self._setup()
        q = DNF([[0, 4]])
        variables = sorted(set(q.variables()) | set(w.variables()))
        from repro.lineage.enumeration import enumerate_worlds

        expected = 0.0
        for assignment, weight in enumerate_worlds(variables, probabilities):
            if q.evaluate(assignment) or w.evaluate(assignment):
                expected += weight
        assert p0_q_or_w(index, q, probabilities, algorithm="mv") == pytest.approx(expected)
        assert p0_q_or_w(index, q, probabilities, algorithm="cc") == pytest.approx(expected)

    def test_statistics_report_component_pruning(self):
        w, probabilities, index = self._setup()
        statistics = IntersectStatistics()
        mv_intersect(index, DNF([[0]]), probabilities, statistics=statistics)
        assert statistics.touched_components == 1
        assert statistics.untouched_components == index.component_count() - 1

    @pytest.mark.parametrize("kernel", [mv_intersect, cc_mv_intersect])
    def test_interleaving_components_walk_their_conjunction(self, kernel):
        # {0, 2} spans levels 0-2 and {1, 3} levels 1-3 under natural_order,
        # so the touched components cannot be chained by concatenation: both
        # kernels run their own loop over the one-link chain ¬W_0 ∧ ¬W_1.
        w = DNF([[0, 2], [1, 3]])
        probabilities = {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.7, 4: 0.2}
        index = MVIndex(w, {v: probabilities[v] for v in range(4)}, natural_order(range(4)))
        assert index.component_count() == 2
        q = DNF([[0, 1], [2, 3], [3, 4]])
        statistics = IntersectStatistics()
        actual = kernel(index, q, probabilities, statistics=statistics)
        assert actual == pytest.approx(_conjunction_probability(q, w, probabilities))
        assert statistics.touched_components == 2
        assert statistics.pair_expansions > 0

    def test_flat_obdd_roundtrip(self):
        formula = DNF([[0, 1], [2]])
        order = natural_order([0, 1, 2])
        compiled = build_obdd(formula, order)
        flat = FlatObdd.from_manager(compiled.manager, compiled.root)
        assert len(flat) == compiled.size + 2


class TestParallelBuild:
    """One build path: the serial compile is deterministic, and the node
    blocks an extension imports (``ObddManager.import_into``) answer exactly
    like a from-scratch build."""

    def _w(self, pairs: int = 24) -> tuple[DNF, dict[int, float]]:
        clauses = [[2 * i, 2 * i + 1] for i in range(pairs)]
        clauses += [[4 * i, 4 * i + 2] for i in range(pairs // 2)]
        w = DNF(clauses)
        probabilities = {v: 0.1 + (v % 8) / 10.0 for v in w.variables()}
        return w, probabilities

    def test_sharded_build_exports_identical_state(self):
        w, probabilities = self._w()
        order = natural_order(sorted(w.variables()))
        first = MVIndex(w, probabilities, order)
        second = MVIndex(w, probabilities, order)
        assert first.export_state() == second.export_state()
        assert first.component_count() == second.component_count()
        assert first.probability_w() == second.probability_w()

    def test_sharded_build_answers_identically(self):
        w, probabilities = self._w()
        offset = max(w.variables()) + 1
        disjoint = DNF([[offset + v for v in clause] for clause in w.clauses])
        new_probabilities = {offset + v: p for v, p in probabilities.items()}
        merged_probabilities = {**probabilities, **new_probabilities}
        extended = MVIndex(w, probabilities, natural_order(sorted(w.variables())))
        added = extended.extend(disjoint, probabilities=new_probabilities)
        assert added
        fresh = MVIndex(
            w.or_(disjoint), merged_probabilities, natural_order(range(2 * offset))
        )
        assert extended.component_count() == fresh.component_count()
        assert extended.probability_w() == fresh.probability_w()
        # The query touches components of the original build and of the delta.
        query = DNF([[0, 4], [9], [offset, offset + 4], [offset + 9]])
        assert mv_intersect(extended, query, merged_probabilities) == mv_intersect(
            fresh, query, merged_probabilities
        )
        assert cc_mv_intersect(extended, query, merged_probabilities) == cc_mv_intersect(
            fresh, query, merged_probabilities
        )

    def test_single_component_falls_back_to_serial(self):
        w = DNF([[0, 1], [1, 2]])
        probabilities = {0: 0.5, 1: 0.4, 2: 0.3}
        index = MVIndex(w, probabilities, natural_order(range(3)))
        assert index.component_count() == 1
        assert index.probability_w() == pytest.approx(
            brute_force_probability(w, probabilities)
        )


class TestIncrementalExtend:
    def test_extend_with_disjoint_views(self):
        w1 = DNF([[0, 1], [2]])
        probabilities = {0: 0.5, 1: 0.4, 2: 0.3}
        index = MVIndex(w1, probabilities, natural_order(range(3)))
        new = DNF([[3, 4]])
        added = index.extend(new, probabilities={3: 0.6, 4: 0.2})
        assert len(added) == 1
        merged = w1.or_(new)
        merged_probabilities = {**probabilities, 3: 0.6, 4: 0.2}
        assert index.probability_w() == pytest.approx(
            brute_force_probability(merged, merged_probabilities)
        )
        assert index.component_of(3) == index.component_of(4)
        # Queries over old and new variables both work.
        q = DNF([[0, 3]])
        expected = _conjunction_probability(q, merged, merged_probabilities)
        assert cc_mv_intersect(index, q, merged_probabilities) == pytest.approx(expected)
        assert mv_intersect(index, q, merged_probabilities) == pytest.approx(expected)

    def test_extend_recompiles_connected_components(self):
        w1 = DNF([[0, 1], [4, 5]])
        probabilities = {v: 0.3 + v / 20.0 for v in range(6)}
        index = MVIndex(w1, probabilities, natural_order(range(6)))
        assert index.component_count() == 2
        # The new clause bridges both existing components.
        new = DNF([[1, 4]])
        added = index.extend(new, existing_lineage=w1)
        assert len(added) == 1
        assert index.component_count() == 1
        merged = w1.or_(new)
        assert index.probability_w() == pytest.approx(
            brute_force_probability(merged, probabilities)
        )

    def test_extend_requires_existing_lineage_for_overlaps(self):
        w1 = DNF([[0, 1]])
        index = MVIndex(w1, {0: 0.5, 1: 0.5}, natural_order(range(2)))
        with pytest.raises(CompilationError, match="existing_lineage"):
            index.extend(DNF([[1, 2]]), probabilities={2: 0.5})

    def test_extend_rejects_probability_changes(self):
        w1 = DNF([[0, 1]])
        index = MVIndex(w1, {0: 0.5, 1: 0.5}, natural_order(range(2)))
        with pytest.raises(CompilationError, match="cannot change"):
            index.extend(DNF([[2]]), probabilities={0: 0.9, 2: 0.5})

    def test_extend_rejects_unknown_probabilities(self):
        w1 = DNF([[0, 1]])
        index = MVIndex(w1, {0: 0.5, 1: 0.5}, natural_order(range(2)))
        with pytest.raises(CompilationError, match="no probabilities"):
            index.extend(DNF([[7]]))

    def test_extend_matches_from_scratch_build(self):
        w1 = DNF([[2 * i, 2 * i + 1] for i in range(6)])
        extra = DNF([[12, 13], [13, 14]])
        merged = w1.or_(extra)
        probabilities = {v: 0.2 + (v % 5) / 10.0 for v in merged.variables()}
        order = natural_order(sorted(merged.variables()))

        extended = MVIndex(w1, {v: probabilities[v] for v in w1.variables()},
                           natural_order(sorted(w1.variables())))
        extended.extend(extra, probabilities=probabilities)
        scratch = MVIndex(merged, probabilities, order)
        assert extended.probability_w() == pytest.approx(scratch.probability_w(), abs=1e-12)
        query = DNF([[0], [13]])
        assert cc_mv_intersect(extended, query, probabilities) == pytest.approx(
            cc_mv_intersect(scratch, query, probabilities), abs=1e-12
        )


@st.composite
def random_q_and_w(draw):
    n_vars = draw(st.integers(min_value=2, max_value=9))
    w_clauses = [
        draw(st.sets(st.integers(min_value=0, max_value=n_vars - 1), min_size=1, max_size=3))
        for __ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    q_clauses = [
        draw(st.sets(st.integers(min_value=0, max_value=n_vars + 2), min_size=1, max_size=3))
        for __ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    probabilities = {
        v: draw(st.floats(min_value=-0.5, max_value=1.0, allow_nan=False))
        for v in range(n_vars + 3)
    }
    return DNF(w_clauses), DNF(q_clauses), probabilities


class TestIntersectionProperties:
    @given(random_q_and_w())
    @settings(max_examples=80, deadline=None)
    def test_both_algorithms_match_enumeration(self, case):
        w, q, probabilities = case
        w_probabilities = {v: probabilities[v] for v in w.variables()}
        index = MVIndex(w, w_probabilities, natural_order(sorted(w.variables())))
        expected = _conjunction_probability(q, w, probabilities)
        assert mv_intersect(index, q, probabilities) == pytest.approx(expected, abs=1e-9)
        assert cc_mv_intersect(index, q, probabilities) == pytest.approx(expected, abs=1e-9)

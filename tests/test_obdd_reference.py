"""Equivalence of the iterative OBDD kernel and the recursive reference.

Reduced OBDDs are canonical for a fixed variable order, so the explicit-stack
kernel (:mod:`repro.obdd.manager`) and the retained recursive reference
kernel (``tests/obdd_reference.py``) must produce *identical* results —
node tables (via the canonical children-first export), model counts, and
probabilities — on every formula.  These property tests drive both kernels
over randomized DNFs and variable orders and assert exact equality.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import DNF
from repro.obdd import ONE, ObddManager, VariableOrder, build_obdd, natural_order
from repro.obdd.manager import iter_paths

from obdd_reference import ReferenceKernel, reference_build_obdd


def model_count(manager: ObddManager, root: int, variable_count: int) -> int:
    """Number of satisfying assignments over ``variable_count`` variables."""
    total = 0
    for assignment, terminal in iter_paths(manager, root):
        if terminal == ONE:
            total += 2 ** (variable_count - len(assignment))
    return total


@st.composite
def random_dnf_order_probabilities(draw):
    variable_count = draw(st.integers(min_value=1, max_value=9))
    clause_count = draw(st.integers(min_value=1, max_value=7))
    clauses = [
        draw(
            st.sets(
                st.integers(min_value=0, max_value=variable_count - 1),
                min_size=1,
                max_size=4,
            )
        )
        for __ in range(clause_count)
    ]
    permutation = draw(st.permutations(list(range(variable_count))))
    probabilities = {
        v: draw(st.floats(min_value=-0.5, max_value=1.0, allow_nan=False))
        for v in range(variable_count)
    }
    return DNF(clauses), VariableOrder(permutation), probabilities, variable_count


class TestKernelEquivalence:
    @given(random_dnf_order_probabilities())
    @settings(max_examples=120, deadline=None)
    def test_identical_node_tables_counts_and_probabilities(self, case):
        formula, order, probabilities, variable_count = case
        for method in ("concat", "synthesis"):
            compiled = build_obdd(formula, order, method=method)
            reference = reference_build_obdd(formula, order, method=method)

            # Identical node tables: the canonical children-first export is a
            # pure function of the reduced OBDD, independent of internal ids.
            exported = compiled.manager.export_nodes([compiled.root])
            reference_exported = reference.manager.export_nodes([reference.root])
            assert exported == reference_exported

            # Identical model counts.
            assert model_count(
                compiled.manager, compiled.root, variable_count
            ) == model_count(reference.manager, reference.root, variable_count)

            # Bit-identical probabilities: the per-node Shannon arithmetic is
            # the same expression in both kernels.
            by_level = order.probabilities_by_level(probabilities)
            kernel = ReferenceKernel(reference.manager)
            assert compiled.manager.probability(
                compiled.root, by_level
            ) == kernel.probability(reference.root, by_level)

    @given(random_dnf_order_probabilities())
    @settings(max_examples=60, deadline=None)
    def test_synthesis_trace_matches_reference_apply_schedule(self, case):
        formula, order, __, ___ = case
        compiled = build_obdd(formula, order, method="synthesis")

        # Replay the exact same clause schedule through the recursive
        # reference: the iterative kernel must perform exactly the pairwise
        # synthesis steps the recursion memoizes (one memo entry per
        # cache-missing pair).
        from repro.obdd.construct import clause_obdd
        from repro.obdd.manager import ZERO

        kernel = ReferenceKernel()
        level_of = order.level_map
        root = ZERO
        for levels in sorted(
            sorted(map(level_of.__getitem__, clause)) for clause in formula.clauses
        ):
            root = kernel.apply("or", root, clause_obdd(kernel.manager, levels))
        assert compiled.manager.apply_steps == len(kernel._apply_memo)
        assert compiled.manager.export_nodes([compiled.root]) == kernel.manager.export_nodes(
            [root]
        )

    @given(random_dnf_order_probabilities(), random_dnf_order_probabilities())
    @settings(max_examples=60, deadline=None)
    def test_apply_and_negate_match_reference(self, left_case, right_case):
        left, __, ___, n_left = left_case
        right, ____, _____, n_right = right_case
        variable_count = max(n_left, n_right)
        order = natural_order(range(variable_count))

        manager = ObddManager()
        f = build_obdd(left, order, manager=manager).root
        g = build_obdd(right, order, manager=manager).root

        reference_manager = ObddManager()
        kernel = ReferenceKernel(reference_manager)
        rf = reference_build_obdd(left, order, manager=reference_manager).root
        rg = reference_build_obdd(right, order, manager=reference_manager).root

        for op, kernel_result in (
            ("or", manager.apply_or(f, g)),
            ("and", manager.apply_and(f, g)),
        ):
            reference_result = kernel.apply(op, rf, rg)
            assert manager.export_nodes([kernel_result]) == reference_manager.export_nodes(
                [reference_result]
            )

        assert manager.export_nodes([manager.negate(f)]) == reference_manager.export_nodes(
            [kernel.negate(rf)]
        )

    @given(random_dnf_order_probabilities())
    @settings(max_examples=40, deadline=None)
    def test_multi_way_applies_match_pairwise_folds(self, case):
        formula, order, __, ___ = case
        manager = ObddManager()
        roots = [
            build_obdd(DNF([clause]), order, manager=manager).root
            for clause in formula.clauses
        ]
        multi_or = manager.apply_or_multi(roots)
        multi_and = manager.apply_and_multi(roots)
        fold_or = roots[0]
        fold_and = roots[0]
        for root in roots[1:]:
            fold_or = manager.apply_or(fold_or, root)
            fold_and = manager.apply_and(fold_and, root)
        # Same manager, canonical reduction: multi-way and pairwise results
        # are literally the same node.
        assert multi_or == fold_or
        assert multi_and == fold_and

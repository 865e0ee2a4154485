"""Reference recursive OBDD kernel (the pre-iterative implementation).

The production kernel in :mod:`repro.obdd.manager` synthesises OBDDs with an
explicit work stack, packed-integer caches and an inlined unique table.
This module retains the original *recursive* Shannon-expansion kernel with
per-kernel memo dictionaries, exactly as the seed implementation computed
it, as the oracle of the equivalence test suite (``test_obdd_reference.py``
beside this file): both kernels must produce identical node tables, model
counts, probabilities and apply-step counts over randomized DNFs and
variable orders — reduced OBDDs are canonical for a fixed order, so any
divergence is a kernel bug.

The reference kernel recurses to the depth of the OBDD and is therefore
only usable on small formulas; the production kernel has no such limit.
Only :meth:`repro.obdd.manager.ObddManager.make_node` (reduction + unique
table) is shared — synthesis, negation and probability are all re-derived
here independently.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import CompilationError
from repro.lineage.dnf import DNF
from repro.obdd.construct import CompiledObdd, clause_obdd
from repro.obdd.manager import ONE, ZERO, ObddManager
from repro.obdd.order import VariableOrder, connected_components


class ReferenceKernel:
    """Recursive apply/negate/probability over a (possibly shared) manager."""

    def __init__(self, manager: ObddManager | None = None) -> None:
        self.manager = manager if manager is not None else ObddManager()
        self._apply_memo: dict[tuple[str, int, int], int] = {}
        self._negate_memo: dict[int, int] = {}

    # -------------------------------------------------------------- synthesis
    def apply(self, op: str, f: int, g: int) -> int:
        """Recursive pairwise Shannon synthesis (the seed implementation)."""
        manager = self.manager
        if op == "or":
            if f == ONE or g == ONE:
                return ONE
            if f == ZERO:
                return g
            if g == ZERO:
                return f
            if f == g:
                return f
        elif op == "and":
            if f == ZERO or g == ZERO:
                return ZERO
            if f == ONE:
                return g
            if g == ONE:
                return f
            if f == g:
                return f
        else:
            raise CompilationError(f"unknown boolean operation {op!r}")
        if f > g:
            f, g = g, f
        key = (op, f, g)
        cached = self._apply_memo.get(key)
        if cached is not None:
            return cached
        level_f, level_g = manager.level(f), manager.level(g)
        level = min(level_f, level_g)
        f_low, f_high = (manager.low(f), manager.high(f)) if level_f == level else (f, f)
        g_low, g_high = (manager.low(g), manager.high(g)) if level_g == level else (g, g)
        low = self.apply(op, f_low, g_low)
        high = self.apply(op, f_high, g_high)
        result = manager.make_node(level, low, high)
        self._apply_memo[key] = result
        return result

    def negate(self, f: int) -> int:
        """Recursive complement (swap the terminals)."""
        if f == ZERO:
            return ONE
        if f == ONE:
            return ZERO
        cached = self._negate_memo.get(f)
        if cached is not None:
            return cached
        manager = self.manager
        result = manager.make_node(
            manager.level(f), self.negate(manager.low(f)), self.negate(manager.high(f))
        )
        self._negate_memo[f] = result
        self._negate_memo[result] = f
        return result

    # ------------------------------------------------------------ probability
    def probability(self, root: int, probability_of_level: Mapping[int, float]) -> float:
        """Recursive memoized Shannon expansion."""
        manager = self.manager
        memo: dict[int, float] = {ZERO: 0.0, ONE: 1.0}

        def walk(node: int) -> float:
            cached = memo.get(node)
            if cached is not None:
                return cached
            probability = probability_of_level[manager.level(node)]
            result = (1.0 - probability) * walk(manager.low(node)) + probability * walk(
                manager.high(node)
            )
            memo[node] = result
            return result

        return walk(root)


def reference_build_obdd(
    formula: DNF,
    order: VariableOrder,
    manager: ObddManager | None = None,
    method: str = "synthesis",
) -> CompiledObdd:
    """Compile a DNF with the recursive reference kernel.

    Mirrors :func:`repro.obdd.construct.build_obdd`: ``"synthesis"``
    accumulates clause OBDDs with recursive pairwise apply, ``"concat"``
    partitions into connected components and ORs the component OBDDs
    (recursively) in level order.  The clause schedule matches the
    production kernel's, so not only the reduced result but the entire
    synthesis trace is comparable.
    """
    kernel = ReferenceKernel(manager)
    manager = kernel.manager
    missing = [v for v in formula.variables() if v not in order]
    if missing:
        raise CompilationError(f"variables {missing[:5]} are not in the variable order")
    if formula.is_true:
        return CompiledObdd(manager, ONE, order)
    if formula.is_false:
        return CompiledObdd(manager, ZERO, order)

    def synthesize(clauses) -> int:
        root = ZERO
        for levels in sorted(
            sorted(order.level_of(variable) for variable in clause) for clause in clauses
        ):
            root = kernel.apply("or", root, clause_obdd(manager, levels))
        return root

    if method == "synthesis":
        return CompiledObdd(manager, synthesize(list(formula.clauses)), order)
    if method != "concat":
        raise CompilationError(f"unknown construction method {method!r}")
    components = sorted(
        connected_components(formula.clauses),
        key=lambda component: min(
            order.level_of(variable) for clause in component for variable in clause
        ),
    )
    root = ZERO
    for component in components:
        root = kernel.apply("or", root, synthesize(component))
    return CompiledObdd(manager, root, order)

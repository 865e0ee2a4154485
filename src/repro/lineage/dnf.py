"""Monotone DNF lineage expressions.

The lineage of a UCQ over a probabilistic database is a *positive* Boolean
formula in disjunctive normal form: each derivation of an answer contributes
one clause, the conjunction of the Boolean variables of the probabilistic
tuples used by that derivation (deterministic tuples contribute nothing).
Variables are integers (tuple variable identifiers assigned by the
tuple-independent database).

The empty clause denotes ``True`` (a derivation using only deterministic
tuples); an empty set of clauses denotes ``False`` (no derivation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator

Clause = FrozenSet[int]

#: The clause that is always true (a derivation with no probabilistic tuples).
TRUE_CLAUSE: Clause = frozenset()


def _absorb(clauses: Iterable[Clause]) -> frozenset[Clause]:
    """Remove subsumed clauses (absorption law): drop C if some C' ⊆ C exists.

    Kept clauses are indexed by variable: a subsuming clause shares every
    one of its variables with the subsumed clause, so only kept clauses
    mentioning at least one variable of the candidate need a subset check.
    For the common case of (near-)disjoint clauses — big view lineages —
    this makes normalization linear instead of quadratic.
    """
    unique = set(clauses)
    if TRUE_CLAUSE in unique:
        return frozenset({TRUE_CLAUSE})
    kept: list[Clause] = []
    by_variable: dict[int, list[int]] = {}
    for clause in sorted(unique, key=len):
        candidates: set[int] = set()
        for variable in clause:
            candidates.update(by_variable.get(variable, ()))
        if any(kept[index] <= clause for index in candidates):
            continue
        position = len(kept)
        kept.append(clause)
        for variable in clause:
            by_variable.setdefault(variable, []).append(position)
    return frozenset(kept)


@dataclass(frozen=True)
class DNF:
    """An immutable monotone DNF formula over integer variables."""

    clauses: frozenset[Clause]

    def __init__(self, clauses: Iterable[Iterable[int]] = ()) -> None:
        normalized = _absorb(frozenset(frozenset(c) for c in clauses))
        object.__setattr__(self, "clauses", normalized)

    # ------------------------------------------------------------ constructors
    @staticmethod
    def false() -> "DNF":
        """The unsatisfiable lineage (no derivations)."""
        return DNF()

    @staticmethod
    def true() -> "DNF":
        """The valid lineage (a purely deterministic derivation)."""
        return DNF([TRUE_CLAUSE])

    @staticmethod
    def variable(var: int) -> "DNF":
        """The lineage of a single probabilistic tuple."""
        return DNF([[var]])

    # ------------------------------------------------------------- inspection
    @property
    def is_false(self) -> bool:
        """True if the formula has no clauses."""
        return not self.clauses

    @property
    def is_true(self) -> bool:
        """True if the formula contains the empty clause."""
        return TRUE_CLAUSE in self.clauses

    def variables(self) -> frozenset[int]:
        """All variables mentioned by the formula."""
        result: set[int] = set()
        for clause in self.clauses:
            result |= clause
        return frozenset(result)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Evaluate under a total assignment of the formula's variables."""
        return any(all(assignment.get(v, False) for v in clause) for clause in self.clauses)

    # ------------------------------------------------------------ connectives
    def or_(self, other: "DNF") -> "DNF":
        """Disjunction; lineage of a UCQ is the union of disjunct lineages."""
        return DNF(self.clauses | other.clauses)

    def and_(self, other: "DNF") -> "DNF":
        """Conjunction by clause-wise distribution (used for small formulas only)."""
        if self.is_false or other.is_false:
            return DNF.false()
        return DNF(a | b for a in self.clauses for b in other.clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_false:
            return "DNF(false)"
        if self.is_true:
            return "DNF(true)"
        parts = sorted(
            ("·".join(f"x{v}" for v in sorted(clause)) or "⊤") for clause in self.clauses
        )
        return "DNF(" + " ∨ ".join(parts) + ")"


def disjoin(formulas: Iterable[DNF]) -> DNF:
    """Disjunction of many DNF formulas."""
    clauses: set[Clause] = set()
    for formula in formulas:
        clauses |= formula.clauses
    return DNF(clauses)

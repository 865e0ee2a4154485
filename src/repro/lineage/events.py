"""General Boolean event expressions.

While query lineage is always a monotone DNF, some parts of the system need
arbitrary Boolean combinations — most importantly ``Q ∧ ¬W`` from Theorem 1
and the ground features of a Markov Logic Network.  This module provides a
tiny immutable expression tree with evaluation and conversion from DNF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.lineage.dnf import DNF


class Event:
    """Base class for Boolean event expressions over integer variables."""

    def variables(self) -> frozenset[int]:  # pragma: no cover - abstract stub
        """All variables mentioned by the expression."""
        raise NotImplementedError

    def evaluate(self, assignment: dict[int, bool]) -> bool:  # pragma: no cover - abstract stub
        """Evaluate under a (total) assignment."""
        raise NotImplementedError

    # Convenience connectives -------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        return And((self, other))

    def __or__(self, other: "Event") -> "Event":
        return Or((self, other))

    def __invert__(self) -> "Event":
        return Not(self)


@dataclass(frozen=True)
class TrueEvent(Event):
    """The event that always holds."""

    def variables(self) -> frozenset[int]:
        return frozenset()

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "⊤"


@dataclass(frozen=True)
class FalseEvent(Event):
    """The event that never holds."""

    def variables(self) -> frozenset[int]:
        return frozenset()

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "⊥"


TRUE = TrueEvent()
FALSE = FalseEvent()


@dataclass(frozen=True)
class Var(Event):
    """The event that tuple variable ``index`` is present."""

    index: int

    def variables(self) -> frozenset[int]:
        return frozenset({self.index})

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return bool(assignment.get(self.index, False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"x{self.index}"


@dataclass(frozen=True)
class Not(Event):
    """Negation of an event."""

    operand: Event

    def variables(self) -> frozenset[int]:
        return self.operand.variables()

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"¬({self.operand!r})"


@dataclass(frozen=True)
class And(Event):
    """Conjunction of events."""

    operands: tuple[Event, ...]

    def __init__(self, operands: Iterable[Event]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def variables(self) -> frozenset[int]:
        result: set[int] = set()
        for operand in self.operands:
            result |= operand.variables()
        return frozenset(result)

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return all(operand.evaluate(assignment) for operand in self.operands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return " ∧ ".join(f"({operand!r})" for operand in self.operands) or "⊤"


@dataclass(frozen=True)
class Or(Event):
    """Disjunction of events."""

    operands: tuple[Event, ...]

    def __init__(self, operands: Iterable[Event]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def variables(self) -> frozenset[int]:
        result: set[int] = set()
        for operand in self.operands:
            result |= operand.variables()
        return frozenset(result)

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return any(operand.evaluate(assignment) for operand in self.operands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return " ∨ ".join(f"({operand!r})" for operand in self.operands) or "⊥"


def event_from_dnf(formula: DNF) -> Event:
    """Convert a monotone DNF lineage into an :class:`Event` tree."""
    if formula.is_false:
        return FALSE
    if formula.is_true:
        return TRUE
    clauses = []
    for clause in formula:
        literals = [Var(v) for v in sorted(clause)]
        clauses.append(literals[0] if len(literals) == 1 else And(literals))
    return clauses[0] if len(clauses) == 1 else Or(clauses)

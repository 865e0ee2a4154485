"""Unions of conjunctive queries (UCQ).

A UCQ ``Q(x̄) = Q1(x̄) ∨ ... ∨ Qm(x̄)`` is a disjunction of conjunctive
queries over the same head variables.  Both user queries and the translated
view query ``W`` of Theorem 1 are UCQs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import QueryError
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Variable


@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A union (disjunction) of conjunctive queries sharing head variables."""

    disjuncts: tuple[ConjunctiveQuery, ...]
    name: str

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery], name: str = "Q") -> None:
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise QueryError("a UCQ must contain at least one conjunctive query")
        head_names = [tuple(v.name for v in cq.head) for cq in disjuncts]
        if len(set(head_names)) != 1:
            raise QueryError(f"all disjuncts of a UCQ must share head variables, got {head_names}")
        object.__setattr__(self, "disjuncts", disjuncts)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------ inspection
    @property
    def head(self) -> tuple[Variable, ...]:
        """Head variables (shared by all disjuncts)."""
        return self.disjuncts[0].head

    @property
    def is_boolean(self) -> bool:
        """True if the query has no head variables."""
        return not self.head

    def relations(self) -> set[str]:
        """Names of all relations used in any disjunct."""
        names: set[str] = set()
        for cq in self.disjuncts:
            names |= cq.relations()
        return names

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    # ---------------------------------------------------------- manipulation
    def bind_head(self, values: Sequence[Any]) -> "UnionOfConjunctiveQueries":
        """Bind head variables to ``values`` in every disjunct (Boolean result)."""
        return UnionOfConjunctiveQueries(
            [cq.bind_head(values) for cq in self.disjuncts], name=self.name
        )

    def union(self, other: "UCQ | ConjunctiveQuery", name: str | None = None) -> "UCQ":
        """Disjunction of this UCQ with another UCQ or CQ (heads must match)."""
        other_disjuncts = (other,) if isinstance(other, ConjunctiveQuery) else other.disjuncts
        return UnionOfConjunctiveQueries(
            self.disjuncts + tuple(other_disjuncts), name=name or self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return " ∨ ".join(repr(cq) for cq in self.disjuncts)


#: Short alias used pervasively in the paper and in this code base.
UCQ = UnionOfConjunctiveQueries


def as_ucq(query: "UCQ | ConjunctiveQuery", name: str | None = None) -> UCQ:
    """Wrap a CQ as a single-disjunct UCQ; pass UCQs through unchanged."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    return UnionOfConjunctiveQueries([query], name=name or query.name)

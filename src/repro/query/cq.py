"""Conjunctive queries (CQ).

A conjunctive query ``Q(x̄) :- A1, ..., Ak, c1, ..., cm`` has head variables
``x̄``, positive relational atoms ``Ai`` and comparison predicates ``cj``.
Boolean queries have an empty head.  This is the building block of the UCQ
language used both for user queries and MarkoView definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import QueryError
from repro.query.atoms import Atom, Comparison
from repro.query.terms import Variable, is_variable, make_term


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A single conjunctive query.

    Parameters
    ----------
    head:
        Head variables (possibly empty for a Boolean query).
    atoms:
        Positive relational atoms.
    comparisons:
        Built-in comparison predicates; every variable used in a comparison
        must also occur in some relational atom (safety).
    name:
        Optional name used for pretty printing (e.g. ``"Q"`` or ``"V1"``).
    """

    head: tuple[Variable, ...]
    atoms: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...]
    name: str

    def __init__(
        self,
        head: Sequence[Any] = (),
        atoms: Iterable[Atom] = (),
        comparisons: Iterable[Comparison] = (),
        name: str = "Q",
    ) -> None:
        head_vars = tuple(make_term(h) for h in head)
        if not all(is_variable(h) for h in head_vars):
            raise QueryError(f"head terms must all be variables, got {head_vars}")
        atoms = tuple(atoms)
        comparisons = tuple(comparisons)
        if not atoms:
            raise QueryError("a conjunctive query must have at least one relational atom")
        body_vars = {v for atom in atoms for v in atom.variables()}
        missing_head = [v for v in head_vars if v not in body_vars]
        if missing_head:
            raise QueryError(f"head variables {missing_head} do not occur in the body")
        missing_cmp = sorted(
            {v.name for c in comparisons for v in c.variables() if v not in body_vars}
        )
        if missing_cmp:
            raise QueryError(
                f"comparison variables {missing_cmp} do not occur in any relational atom"
            )
        object.__setattr__(self, "head", tuple(head_vars))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "comparisons", comparisons)
        object.__setattr__(self, "name", name)

    # ------------------------------------------------------------ inspection
    @property
    def is_boolean(self) -> bool:
        """True if the query has no head variables."""
        return not self.head

    def variables(self) -> set[Variable]:
        """All variables in the query body."""
        return {v for atom in self.atoms for v in atom.variables()}

    def existential_variables(self) -> set[Variable]:
        """Body variables that are not head variables."""
        return self.variables() - set(self.head)

    def relations(self) -> set[str]:
        """Names of the relations used by the query."""
        return {atom.relation for atom in self.atoms}

    def has_self_join(self) -> bool:
        """True if some relation appears in more than one atom."""
        names = [atom.relation for atom in self.atoms]
        return len(names) != len(set(names))

    # ---------------------------------------------------------- manipulation
    def substitute(self, substitution: dict[Variable, Any]) -> "ConjunctiveQuery":
        """Apply a variable substitution to head and body.

        Substituted head variables are dropped from the head (they become
        constants), so substituting all head variables yields a Boolean
        query — this is how answer tuples are turned into Boolean queries
        for probability computation.
        """
        new_head = [v for v in self.head if v not in substitution]
        new_atoms = [atom.substitute(substitution) for atom in self.atoms]
        new_comparisons = []
        for comparison in self.comparisons:
            left = substitution.get(comparison.left, comparison.left)
            right = substitution.get(comparison.right, comparison.right)
            new_comparisons.append(Comparison(left, comparison.op, right))
        return ConjunctiveQuery(new_head, new_atoms, new_comparisons, name=self.name)

    def bind_head(self, values: Sequence[Any]) -> "ConjunctiveQuery":
        """Bind the head variables to ``values``, producing a Boolean query."""
        if len(values) != len(self.head):
            raise QueryError(
                f"expected {len(self.head)} head values for {self.name}, got {len(values)}"
            )
        return self.substitute(dict(zip(self.head, values)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(v.name for v in self.head)
        body = ", ".join([repr(a) for a in self.atoms] + [repr(c) for c in self.comparisons])
        return f"{self.name}({head}) :- {body}"

"""Relational atoms and comparison predicates.

A conjunctive query body is a list of positive relational atoms plus
built-in comparison predicates (``<``, ``<=``, ``>``, ``>=``, ``=``, ``!=``)
and a SQL-style ``like`` substring predicate, exactly the fragment used by
the paper's running example (Fig. 2 uses ``n1 like '%Madden%'`` and
``aid2 <> aid3``).

A comparison is a total function of its two values, so its truth never
depends on which rows reach it: an order comparison between incomparable
values (``'a' < 3``, ``None < 1``) is false, and ``like`` compares the
``str()`` of both sides, case-sensitively, with ``%`` and ``_`` as its only
wildcards (``_`` and ``%`` also match a newline).  The only evaluation
error is a variable the substitution does not bind.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import EvaluationError, QueryError
from repro.query.terms import Constant, Term, Variable, is_variable, make_term

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@functools.lru_cache(maxsize=1024)
def _like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compiled SQL LIKE test: ``%`` is any substring, ``_`` any character."""
    inner = pattern[1:-1]
    if len(pattern) >= 2 and pattern[0] == pattern[-1] == "%" and not {"%", "_"} & set(inner):
        return lambda text: inner in text  # '%x%': a plain substring test
    regex = re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."), re.DOTALL)
    return lambda text: regex.fullmatch(text) is not None


def _like(value: Any, pattern: Any) -> bool:
    """SQL LIKE over the ``str()`` of both sides (case-sensitive)."""
    return _like_matcher(str(pattern))(str(value))


def _ordered(compare: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    """``compare``, false instead of ``TypeError`` on incomparable values."""

    def total(left: Any, right: Any) -> bool:
        try:
            return compare(left, right)
        except TypeError:
            return False

    return total


@dataclass(frozen=True)
class Atom:
    """A positive relational atom ``R(t1, ..., tk)``."""

    relation: str
    terms: tuple[Term, ...]

    def __init__(self, relation: str, terms: Iterable[Any]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(make_term(t) for t in terms))

    @property
    def arity(self) -> int:
        """Number of terms."""
        return len(self.terms)

    def variables(self) -> list[Variable]:
        """Variables occurring in the atom, in positional order (with duplicates)."""
        return [t for t in self.terms if is_variable(t)]

    def substitute(self, substitution: dict[Variable, Any]) -> "Atom":
        """Replace variables by the values bound in ``substitution``.

        Values are wrapped as constants; unbound variables are left alone.
        """
        new_terms: list[Term] = []
        for term in self.terms:
            if is_variable(term) and term in substitution:
                new_terms.append(Constant(substitution[term]))
            else:
                new_terms.append(term)
        return Atom(self.relation, new_terms)

    def is_ground(self) -> bool:
        """True if the atom contains no variables."""
        return not any(is_variable(t) for t in self.terms)

    def ground_row(self) -> tuple[Any, ...]:
        """The database row denoted by a ground atom."""
        if not self.is_ground():
            raise QueryError(f"atom {self} is not ground")
        return tuple(t.value for t in self.terms)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        args = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({args})"


@dataclass(frozen=True)
class Comparison:
    """A built-in predicate ``left op right`` between terms.

    ``op`` is one of ``= != <> < <= > >= like``.  ``test(left, right)`` is
    the predicate on two values, built once here (a constant ``like``
    pattern is compiled once, not per row).
    """

    left: Term
    op: str
    right: Term

    def __init__(self, left: Any, op: str, right: Any) -> None:
        op = op.strip().lower()
        if op not in _OPERATORS and op != "like":
            raise QueryError(f"unsupported comparison operator {op!r}")
        object.__setattr__(self, "left", make_term(left))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "right", make_term(right))
        test: Callable[[Any, Any], bool]
        if op != "like":
            test = _ordered(_OPERATORS[op])
        elif is_variable(self.right):
            test = _like
        else:
            # Compiled once per comparison, not once per row.
            matcher = _like_matcher(str(self.right.value))  # type: ignore[union-attr]
            test = lambda left, __: matcher(str(left))  # noqa: E731
        object.__setattr__(self, "test", test)

    def __reduce__(self) -> tuple:
        # ``test`` is a closure; rebuild it rather than pickle it.
        return (Comparison, (self.left, self.op, self.right))

    def variables(self) -> list[Variable]:
        """Variables occurring in the comparison."""
        return [t for t in (self.left, self.right) if is_variable(t)]

    def _resolve(self, term: Term, substitution: dict[Variable, Any]) -> Any:
        if is_variable(term):
            if term not in substitution:
                raise EvaluationError(
                    f"variable {term!r} in comparison {self} is not bound; comparisons must "
                    "only use variables bound by a relational atom"
                )
            return substitution[term]
        return term.value  # type: ignore[union-attr]

    def evaluate(self, substitution: dict[Variable, Any]) -> bool:
        """Evaluate the comparison under a variable substitution."""
        return self.test(
            self._resolve(self.left, substitution), self._resolve(self.right, substitution)
        )

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"

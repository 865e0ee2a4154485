"""Canonical cache keys for UCQs.

The serving layer caches lineages and results across queries, so two queries
that differ only in presentation — variable names, atom order, disjunct
order — must map to the same cache key.  :func:`canonical_key` renders a UCQ
into a canonical string:

1. inside each conjunctive query, atoms are sorted by their *skeleton* (the
   relation name plus the positions and values of constants, with variables
   blanked out);
2. variables are renamed ``v0, v1, ...`` in order of first occurrence — head
   variables first, then body variables in sorted-atom order;
3. comparisons are rendered with the canonical names and sorted;
4. the disjuncts of the UCQ are rendered independently and sorted.

The renaming is greedy rather than a full graph canonicalisation, so some
pairs of isomorphic queries (e.g. self-joins whose atoms have identical
skeletons) may still receive different keys.  That only costs a cache miss;
it can never cause a wrong cache hit, because two queries with the same key
are syntactically identical up to variable renaming and therefore have the
same answers.

:func:`canonical_shape` keys a conjunctive query by its *shape*: the query
with every ``variable op constant`` comparison lifted out into the head, so
standing queries that differ only in such constants share one key and one
evaluation, and each keeps its lifted comparisons as parameters to test
the shape's rows against (:mod:`repro.subscribe.evaluator`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.query.atoms import Comparison
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Term, Variable, is_variable
from repro.query.ucq import UCQ, as_ucq

#: Placeholder used for variables when sorting atoms by skeleton.
_BLANK = "\x00var"


def _skeleton(term: Term) -> tuple[str, str]:
    """A sort key for one atom argument that ignores variable names."""
    if is_variable(term):
        return ("v", _BLANK)
    value = term.value  # type: ignore[union-attr]
    return ("c", f"{type(value).__name__}:{value!r}")


def canonical_cq_key(cq: ConjunctiveQuery) -> str:
    """Canonical string for a single conjunctive query (one UCQ disjunct)."""
    atoms = sorted(
        cq.atoms, key=lambda atom: (atom.relation, tuple(_skeleton(t) for t in atom.terms))
    )
    names: dict[Variable, str] = {}

    def rename(variable: Variable) -> str:
        if variable not in names:
            names[variable] = f"v{len(names)}"
        return names[variable]

    def render(term: Term) -> str:
        if is_variable(term):
            return rename(term)
        return repr(term.value)  # type: ignore[union-attr]

    head = [rename(variable) for variable in cq.head]
    rendered_atoms = []
    for atom in atoms:
        terms = ", ".join(render(term) for term in atom.terms)
        rendered_atoms.append(f"{atom.relation}({terms})")
    # Safety guarantees every comparison variable occurs in some atom, so by
    # now all of them already carry canonical names.
    rendered_comparisons = sorted(
        f"{render(comparison.left)} {comparison.op} {render(comparison.right)}"
        for comparison in cq.comparisons
    )
    body = ", ".join(rendered_atoms + rendered_comparisons)
    return f"({', '.join(head)}) :- {body}"


def canonical_key(query: UCQ | ConjunctiveQuery) -> str:
    """Canonical cache key of a UCQ (or CQ): sorted canonical disjuncts."""
    ucq = as_ucq(query)
    return " ∨ ".join(sorted(canonical_cq_key(cq) for cq in ucq.disjuncts))


#: A shape's parameters: each lifted comparison with the position of its
#: variable in the shape's head.
ShapeParams = tuple[tuple[int, Comparison], ...]


def canonical_shape(cq: ConjunctiveQuery) -> tuple[str, ConjunctiveQuery, ShapeParams]:
    """The shape of ``cq``: ``(shape_key, shape_cq, params)``.

    Every comparison between one variable and one constant, in either
    orientation, is lifted out of the body; the lifted variables,
    deduplicated in order of first occurrence, become the head of
    ``shape_cq``, and ``params`` pairs each lifted comparison with its
    variable's head position.  Constants inside atoms and comparisons
    between two variables stay in the shape.  ``cq`` derives a row iff
    ``shape_cq`` derives a head row that passes every parameter
    (:func:`shape_admits`).  Queries with equal ``shape_key``
    (:func:`canonical_cq_key` of ``shape_cq``) are one query up to variable
    renaming, head positions included, so each one's ``params`` can be
    tested against the rows of either's ``shape_cq``.
    """
    head: list[Variable] = []
    kept: list[Comparison] = []
    params: list[tuple[int, Comparison]] = []
    for comparison in cq.comparisons:
        if is_variable(comparison.left) == is_variable(comparison.right):
            kept.append(comparison)
            continue
        variable = comparison.left if is_variable(comparison.left) else comparison.right
        if variable not in head:
            head.append(variable)  # type: ignore[arg-type]
        params.append((head.index(variable), comparison))  # type: ignore[arg-type]
    shape_cq = ConjunctiveQuery(head, cq.atoms, kept, cq.name)
    return canonical_cq_key(shape_cq), shape_cq, tuple(params)


def shape_admits(params: ShapeParams, row: Sequence[Any]) -> bool:
    """Whether a head row of a shape passes every lifted comparison in ``params``."""
    return all(
        comparison.test(row[position], comparison.right.value)  # type: ignore[union-attr]
        if is_variable(comparison.left)
        else comparison.test(comparison.left.value, row[position])  # type: ignore[union-attr]
        for position, comparison in params
    )

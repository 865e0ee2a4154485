"""Variable orders for OBDD construction.

The paper (Sect. 4.2) derives the tuple order Π from a set of attribute
permutations π = {π_R1, ..., π_Rk}: order the active domain, then group all
tuples whose first attribute (according to π of their relation) is the
smallest constant, recurse inside each group, and concatenate the groups.
For the schema ``R(A), S(A,B)`` with π_R = (A), π_S = (A,B) and domain
``a1 < a2 < b1 < ...`` this produces ``X1, Y1, Y2, X2, Y3, Y4`` — the order
of Fig. 3 — which is exactly the order that lets independent sub-OBDDs be
*concatenated* instead of synthesised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import CompilationError
from repro.lineage.dnf import DNF, Clause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.indb.database import TupleIndependentDatabase


class VariableOrder:
    """A bijection between tuple variables and OBDD levels."""

    def __init__(self, variables_in_order: Iterable[int]) -> None:
        self._level_of: dict[int, int] = {}
        self._var_of: list[int] = []
        for variable in variables_in_order:
            if variable in self._level_of:
                raise CompilationError(f"variable {variable} appears twice in the order")
            self._level_of[variable] = len(self._var_of)
            self._var_of.append(variable)

    def __len__(self) -> int:
        return len(self._var_of)

    def __contains__(self, variable: int) -> bool:
        return variable in self._level_of

    def level_of(self, variable: int) -> int:
        """OBDD level of a tuple variable."""
        try:
            return self._level_of[variable]
        except KeyError as exc:
            raise CompilationError(f"variable {variable} is not in the order") from exc

    @property
    def level_map(self) -> Mapping[int, int]:
        """The ``variable → level`` mapping itself, for hot-path bulk lookups.

        Callers must treat the mapping as read-only; unlike
        :meth:`level_of` a missing variable surfaces as a plain
        ``KeyError``, so validate membership first (as
        :func:`repro.obdd.construct.build_obdd` does).
        """
        return self._level_of

    def variable_at(self, level: int) -> int:
        """Tuple variable placed at ``level``."""
        return self._var_of[level]

    def variables(self) -> list[int]:
        """Variables in order of increasing level."""
        return list(self._var_of)

    def extend(self, variables: Iterable[int]) -> "VariableOrder":
        """A new order with any unseen ``variables`` appended at the end.

        Used when a query's lineage mentions tuples that do not participate in
        any MarkoView: they are placed after all view variables, which keeps
        the offline MV-index order valid.
        """
        extra = [v for v in variables if v not in self._level_of]
        return VariableOrder(self._var_of + extra)

    def probabilities_by_level(self, probabilities: Mapping[int, float]) -> dict[int, float]:
        """Re-key a ``variable -> probability`` map by OBDD level."""
        return {
            level: probabilities[variable]
            for variable, level in self._level_of.items()
            if variable in probabilities
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VariableOrder({len(self)} variables)"


def _sort_key(value: Any) -> tuple[str, Any]:
    """A total order over mixed-type constants (type name first, then value)."""
    return (type(value).__name__, value)


def order_from_permutations(
    indb: TupleIndependentDatabase,
    permutations: Mapping[str, Sequence[str]] | None = None,
    relations: Iterable[str] | None = None,
) -> VariableOrder:
    """Derive the tuple order Π from attribute permutations π (Sect. 4.2).

    Parameters
    ----------
    indb:
        The tuple-independent database whose probabilistic tuples are ordered.
    permutations:
        Optional mapping ``relation -> attribute name sequence``; relations
        not listed use their schema attribute order.  Choosing the permutation
        so that separator attributes come first is the paper's heuristic for
        enabling concatenation.
    relations:
        Which probabilistic relations to include (default: all), in the given
        priority order — used to break ties between tuples of different
        relations sharing the same leading constants (smaller arity first, as
        in the paper's ordering of relation names by arity).
    """
    if relations is None:
        names = sorted(
            indb.probabilistic_relations(),
            key=lambda name: (indb.database.table(name).schema.arity, name),
        )
    else:
        names = list(relations)

    entries: list[tuple[tuple[tuple[str, Any], ...], int, int]] = []
    for priority, name in enumerate(names):
        table = indb.database.table(name)
        schema = table.schema
        if permutations and name in permutations:
            positions = [schema.position_of(a) for a in permutations[name]]
        else:
            positions = list(range(schema.arity))
        for row in table.rows():
            variable = indb.variable_for(name, row)
            if variable is None:
                continue
            key = tuple(_sort_key(row[p]) for p in positions)
            entries.append((key, priority, variable))

    # Lexicographic order on the permuted rows; shorter rows sort before their
    # extensions (Python tuple comparison), and ties across relations follow
    # the relation priority, reproducing the recursive grouping of Sect. 4.2.
    entries.sort(key=lambda entry: (entry[0], len(entry[0]), entry[1]))
    return VariableOrder(variable for __, __, variable in entries)


def natural_order(variables: Iterable[int]) -> VariableOrder:
    """A fallback order: variables sorted by their integer id."""
    return VariableOrder(sorted(set(variables)))


def connected_components(clauses: Iterable[Clause]) -> list[list[Clause]]:
    """Partition clauses into connected components by shared variables."""
    clause_list = list(clauses)
    var_to_indices: dict[int, list[int]] = {}
    for index, clause in enumerate(clause_list):
        for variable in clause:
            var_to_indices.setdefault(variable, []).append(index)
    visited = [False] * len(clause_list)
    components: list[list[Clause]] = []
    for start in range(len(clause_list)):
        if visited[start]:
            continue
        stack = [start]
        visited[start] = True
        component: list[Clause] = []
        while stack:
            index = stack.pop()
            component.append(clause_list[index])
            for variable in clause_list[index]:
                for other in var_to_indices[variable]:
                    if not visited[other]:
                        visited[other] = True
                        stack.append(other)
        components.append(component)
    return components


def component_order(formula: DNF, base: VariableOrder | None = None) -> VariableOrder:
    """An order that gives each connected component of ``formula`` one contiguous run.

    Independent components then occupy disjoint level ranges, so
    :func:`repro.obdd.construct.build_obdd` concatenates them instead of
    synthesising them together.  This matters whenever ids interleave the
    components: an INDB numbers its tuples table by table, so under
    :func:`natural_order` the lineage ``⋁_i R_i ∧ S_i`` of ``Q :- R(x), S(x, y)``
    has an OBDD exponential in the number of groups, and an engine's order
    after an append puts the new tuples after all the old ones.  Inside a
    run, variables keep their order in ``base`` (default: by id); runs are
    placed by their first variable.
    """
    rank = base.level_map.__getitem__ if base is not None else int
    runs = [
        sorted({variable for clause in component for variable in clause}, key=rank)
        for component in connected_components(formula.clauses)
    ]
    runs.sort(key=lambda run: rank(run[0]) if run else -1)
    return VariableOrder(variable for run in runs for variable in run)

"""Tuple-independent probabilistic databases (INDB).

A :class:`TupleIndependentDatabase` wraps a deterministic
:class:`~repro.db.database.Database` holding *all possible tuples*
(``I_poss``) and marks some relations as probabilistic: every row of a
probabilistic relation carries a weight (odds) and is associated with a
Boolean tuple variable.  The class doubles as the
:class:`~repro.query.evaluator.LineageProvider` used by the query evaluator,
and offers possible-world enumeration for small instances (test oracle).

Weights may be negative (probabilities outside ``[0, 1]``): this is required
by the MarkoView translation of Theorem 1 and is supported by every exact
inference method in this library.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.db.database import Database
from repro.db.table import Row
from repro.errors import SchemaError, WeightError
from repro.indb.weights import CERTAIN_WEIGHT, weight_to_probability
from repro.lineage.dnf import DNF
from repro.lineage.enumeration import enumerate_worlds
from repro.obdd.construct import build_obdd
from repro.obdd.order import component_order
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluator import answer_probabilities, boolean_lineage, evaluate_ucq
from repro.query.ucq import UCQ


class TupleIndependentDatabase:
    """An INDB: deterministic tables plus weighted, independent probabilistic tuples."""

    def __init__(self, database: Database | None = None, backend: Any = None) -> None:
        if database is not None and backend is not None:
            raise SchemaError("pass either an existing database or a backend spec, not both")
        self.database = database if database is not None else Database(backend=backend)
        self._probabilistic: set[str] = set()
        self._weights: dict[tuple[str, Row], float] = {}
        self._var_of: dict[tuple[str, Row], int] = {}
        self._tuple_of: dict[int, tuple[str, Row]] = {}
        self._next_var = 0

    # ----------------------------------------------------------------- schema
    def add_deterministic_table(
        self, name: str, attributes: Sequence[str], rows: Iterable[Sequence[Any]] = ()
    ):
        """Create a deterministic relation."""
        return self.database.create_table(name, attributes, rows)

    def add_probabilistic_table(
        self,
        name: str,
        attributes: Sequence[str],
        weighted_rows: Iterable[tuple[Sequence[Any], float]] = (),
    ):
        """Create a probabilistic relation from ``(row, weight)`` pairs."""
        table = self.database.create_table(name, attributes)
        self._probabilistic.add(name)
        for row, weight in weighted_rows:
            self.add_probabilistic_tuple(name, row, weight)
        return table

    def add_probabilistic_tuple(self, relation: str, row: Sequence[Any], weight: float) -> int:
        """Insert a possible tuple with the given weight; returns its variable id.

        A weight of ``+∞`` denotes a tuple that is certain (probability 1);
        negative weights are allowed (they arise from the MarkoView
        translation) as long as they are not exactly ``-1``.
        """
        if relation not in self._probabilistic:
            raise SchemaError(f"relation {relation!r} is not probabilistic")
        if math.isnan(weight):
            raise WeightError(f"weight of {relation}{tuple(row)} is NaN")
        row_tuple = tuple(row)
        self.database.table(relation).insert(row_tuple)
        key = (relation, row_tuple)
        if key in self._var_of:
            self._weights[key] = float(weight)
            return self._var_of[key]
        variable = self._next_var
        self._next_var += 1
        self._var_of[key] = variable
        self._tuple_of[variable] = key
        self._weights[key] = float(weight)
        return variable

    # ------------------------------------------------------------- inspection
    def probabilistic_relations(self) -> set[str]:
        """Names of the probabilistic relations."""
        return set(self._probabilistic)

    def is_probabilistic(self, relation: str) -> bool:
        """True if ``relation`` is probabilistic."""
        return relation in self._probabilistic

    def variables(self) -> list[int]:
        """All tuple variable ids."""
        return list(self._tuple_of)

    def tuple_count(self) -> int:
        """Number of possible probabilistic tuples."""
        return len(self._var_of)

    def tuple_of(self, variable: int) -> tuple[str, Row]:
        """The ``(relation, row)`` pair of a tuple variable."""
        return self._tuple_of[variable]

    def has_tuple(self, relation: str, row: Sequence[Any]) -> bool:
        """True if ``(relation, row)`` is a registered possible tuple.

        Unlike :meth:`variable_for` this includes *certain* tuples (weight
        ``+∞``), making it the right containment check for mutation paths
        that must not re-register an existing tuple.
        """
        return (relation, tuple(row)) in self._var_of

    def weight(self, relation: str, row: Sequence[Any]) -> float:
        """Weight (odds) of a possible tuple."""
        return self._weights[(relation, tuple(row))]

    def weight_of_variable(self, variable: int) -> float:
        """Weight (odds) of the tuple behind a variable."""
        return self._weights[self._tuple_of[variable]]

    def probability_of_variable(self, variable: int) -> float:
        """Marginal probability of a tuple variable (may be negative)."""
        return weight_to_probability(self.weight_of_variable(variable))

    def probabilities(self) -> dict[int, float]:
        """Mapping from every tuple variable to its marginal probability."""
        return {var: self.probability_of_variable(var) for var in self._tuple_of}

    def is_certain(self, variable: int) -> bool:
        """True if the tuple behind ``variable`` has weight ``+∞``."""
        return self.weight_of_variable(variable) == CERTAIN_WEIGHT

    def probabilistic_tuples(self) -> Iterator[tuple[str, Row, float, int]]:
        """Every possible probabilistic tuple as ``(relation, row, weight, variable)``.

        This is the serialization-facing view of the INDB: unlike
        :meth:`variable_for`, *certain* tuples (weight ``+∞``) are included,
        because a faithful copy of the database must carry them too.  Tuples
        are yielded in increasing variable order (the insertion order).
        """
        for variable, (relation, row) in self._tuple_of.items():
            yield relation, row, self._weights[(relation, row)], variable

    # ------------------------------------------------ LineageProvider protocol
    def variable_for(self, relation: str, row: Row) -> int | None:
        """Variable of a probabilistic row (``None`` for deterministic relations).

        Certain probabilistic tuples (weight ``∞``) are treated as
        deterministic: they contribute no variable to the lineage, which both
        keeps lineage small and implements the paper's simplification of
        denial views (Sect. 3.2, final remark).
        """
        if relation not in self._probabilistic:
            return None
        variable = self._var_of.get((relation, tuple(row)))
        if variable is None:
            return None
        if self._weights[(relation, tuple(row))] == CERTAIN_WEIGHT:
            return None
        return variable

    # ---------------------------------------------------------------- queries
    def lineage_of(self, query: UCQ | ConjunctiveQuery) -> DNF:
        """Lineage of a Boolean query over this INDB."""
        return boolean_lineage(query, self.database, self)

    def query_probability(self, query: UCQ | ConjunctiveQuery) -> float:
        """Exact probability of a Boolean query (OBDD of the lineage, one run per component)."""
        lineage = self.lineage_of(query)
        return build_obdd(lineage, component_order(lineage)).probability(self.probabilities())

    def query_answers(self, query: UCQ | ConjunctiveQuery) -> dict[tuple[Any, ...], float]:
        """Probability of every answer of a non-Boolean query."""
        result = evaluate_ucq(query, self.database, self)
        return answer_probabilities(result, self.probabilities())

    # ---------------------------------------------------------- possible worlds
    def possible_worlds(self) -> Iterator[tuple[dict[int, bool], float]]:
        """Enumerate possible worlds (assignments of uncertain tuples) and weights.

        Only uncertain variables (finite weight) are enumerated; certain
        tuples are present in every world.  Intended for small instances
        (the enumeration limit of :mod:`repro.lineage.enumeration` applies).
        """
        uncertain = [v for v in self._tuple_of if not self.is_certain(v)]
        probabilities = {v: self.probability_of_variable(v) for v in uncertain}
        yield from enumerate_worlds(uncertain, probabilities)

    def world_database(self, assignment: Mapping[int, bool]) -> Database:
        """Materialise the deterministic instance of one possible world."""
        world = Database()
        for table in self.database:
            name = table.name
            if name not in self._probabilistic:
                world.create_table(name, table.schema.attribute_names, table.rows())
                continue
            rows = []
            for row in table.rows():
                variable = self._var_of[(name, row)]
                if self.is_certain(variable) or assignment.get(variable, False):
                    rows.append(row)
            world.create_table(name, table.schema.attribute_names, rows)
        return world

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TupleIndependentDatabase({len(self._probabilistic)} probabilistic relations, "
            f"{self.tuple_count()} possible tuples)"
        )

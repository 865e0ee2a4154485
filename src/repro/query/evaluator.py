"""Evaluation of conjunctive queries and UCQs over a database, with lineage.

The evaluator runs a left-deep **hash-join pipeline** over the deterministic
instance ``I_poss`` (the instance containing *all* possible tuples).  It
selects first: a comparison whose variables are all first bound by one atom
(``n1 like '%Madden%'``, ``year > 2000``) filters that atom's rows at the
scan, before any join key is built, and it shrinks that atom's estimated
cardinality, so a filtered atom leads the plan.  The atom order is the
left-deep order of least estimated cost — the sum of the intermediate sizes
its join steps read — found by an exact dynamic program over atom subsets
(at most :data:`MAX_JOIN_ATOMS` atoms); the remaining comparisons
(``aid2 <> aid3`` across two atoms) run on the joined tuple.
Where a comparison runs never changes what it decides: an incomparable pair
is false wherever it meets (see :class:`~repro.query.atoms.Comparison`).
Each join step either

* **index-probes** the atom's relation when the intermediate result is small
  relative to the table (the index-nested-loop regime that keeps point
  queries fast), or
* **builds a hash table** over the atom's rows — with constants and row
  filters pushed down into the scan — and probes it with the intermediate
  result.

Intermediate tuples are projected onto the variables still needed
downstream, so wide joins do not drag dead columns along.  For every answer
tuple the evaluator also returns the lineage: a monotone DNF over the
Boolean variables of the probabilistic tuples used by each derivation —
exactly the ``(tuple, event)`` stream the ConOBDD compiler consumes.  Which
tuples are probabilistic (and which Boolean variable they map to) is
supplied through a :class:`LineageProvider`.

Both storage backends expose insertion-ordered scans and lookups, so the
pipeline is fully deterministic: the same database content yields the same
derivation stream — and bit-identical probabilities — on either backend,
across processes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Protocol, Sequence

from repro.db.database import Database
from repro.db.table import Row
from repro.errors import EvaluationError
from repro.lineage.dnf import DNF
from repro.query.atoms import Atom, Comparison
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Variable, is_variable
from repro.query.ucq import UCQ, as_ucq

#: Intermediate-result size up to which index probing beats a hash build.
INDEX_PROBE_THRESHOLD = 64

#: Estimated fraction of an atom's rows that pass one ``like`` or range
#: filter (join-order statistics only; never changes an answer).
FILTER_SELECTIVITY = 0.1

#: Most atoms one conjunctive query may join: the join-order search visits
#: every subset of the atoms, so its cost grows as ``n * 2**n``.
MAX_JOIN_ATOMS = 12

#: One join-order prefix: (estimated cost, estimated rows, atom indexes).
_Plan = tuple[float, float, tuple[int, ...]]


class LineageProvider(Protocol):
    """Maps rows of probabilistic relations to Boolean tuple variables."""

    def variable_for(self, relation: str, row: Row) -> int | None:  # pragma: no cover - protocol stub
        """Variable id of a probabilistic tuple, or ``None`` if deterministic."""


class NoLineage:
    """A provider that treats every relation as deterministic."""

    def variable_for(self, relation: str, row: Row) -> int | None:
        return None


class QueryResult:
    """Answers of a query together with their lineage.

    The result maps each answer tuple to its :class:`~repro.lineage.dnf.DNF`
    lineage.  For a Boolean query, the single (possibly absent) answer is the
    empty tuple ``()``.
    """

    def __init__(self, head: Sequence[Variable]) -> None:
        self.head = tuple(head)
        self._answers: dict[tuple[Any, ...], set[frozenset[int]]] = {}

    def add_derivation(self, answer: tuple[Any, ...], clause: frozenset[int]) -> None:
        """Record one derivation (a clause of probabilistic tuple variables)."""
        self._answers.setdefault(answer, set()).add(clause)

    def answers(self) -> list[tuple[Any, ...]]:
        """All answer tuples."""
        return list(self._answers)

    def lineage(self, answer: tuple[Any, ...] = ()) -> DNF:
        """Lineage of one answer (``DNF.false()`` if the answer is absent)."""
        clauses = self._answers.get(tuple(answer))
        if clauses is None:
            return DNF.false()
        return DNF(clauses)

    def lineages(self) -> dict[tuple[Any, ...], DNF]:
        """Mapping from every answer tuple to its lineage."""
        return {answer: DNF(clauses) for answer, clauses in self._answers.items()}

    @property
    def boolean_true(self) -> bool:
        """For Boolean queries: whether the query has any derivation at all."""
        return () in self._answers

    def __len__(self) -> int:
        return len(self._answers)

    def __contains__(self, answer: Sequence[Any]) -> bool:
        return tuple(answer) in self._answers

    def merge(self, other: "QueryResult") -> None:
        """Union the derivations of ``other`` into this result (same head)."""
        for answer, clauses in other._answers.items():
            self._answers.setdefault(answer, set()).update(clauses)


def _row_filters(
    comparisons: Sequence[Comparison], atom: Atom, bound: AbstractSet[Variable]
) -> list[Comparison]:
    """The comparisons whose variables are all first bound by ``atom``.

    Such a comparison is decided by one row of ``atom`` alone, so it filters
    that atom's rows at the scan, before any join work is spent on them.
    """
    fresh = set(atom.variables()) - bound
    return [c for c in comparisons if all(v in fresh for v in c.variables())]


def _fanout(
    query: ConjunctiveQuery, atom: Atom, bound: frozenset[Variable], database: Database
) -> float:
    """Estimated rows one intermediate tuple gains by joining ``atom`` next.

    ``|T| / prod(distinct(T, p))`` over every position ``p`` that is a
    constant or an already-bound variable.  Counting bound *positions* alone
    is not enough — after ``Advisor(aid1, aid2), Student(aid1, year)`` both
    ``Pub(pid, title, year)`` and ``Wrote(aid1, pid)`` have exactly one bound
    position, but joining ``Pub`` on ``year`` alone multiplies by every
    publication of that year (an intermediate that grows with the database,
    turning the whole evaluation quadratic), while ``Wrote`` on ``aid1``
    multiplies only by one author's papers.  Column distinct counts are the
    cheap statistic that tells these apart.

    Each comparison that would filter the atom's rows at the scan shrinks
    the estimate further: ``var = constant`` by ``1 / distinct(T, var)``,
    ``like``, ranges and every other comparison but ``<>`` by
    :data:`FILTER_SELECTIVITY`.  So ``Author(aid1, n1), n1 like '%Madden%'``
    leads the plan and the rest of the join runs as index probes.
    """
    if atom.relation not in database:
        return 0.0
    table = database.table(atom.relation)
    estimate = float(len(table))
    for position, term in enumerate(atom.terms):
        if not is_variable(term) or term in bound:
            estimate /= max(1, table.distinct_count(position))
    for comparison in _row_filters(query.comparisons, atom, bound):
        operands = comparison.variables()
        if comparison.op in ("!=", "<>") or not operands:
            continue
        if comparison.op in ("=", "==") and len(operands) == 1:
            estimate /= max(1, table.distinct_count(atom.terms.index(operands[0])))
        else:
            estimate *= FILTER_SELECTIVITY
    return estimate


def _plan_cost(query: ConjunctiveQuery, order: Sequence[Atom], database: Database) -> float:
    """Estimated cost of one left-deep order: the tuples its join steps read.

    The pipeline starts from one empty tuple, and each step turns ``rows``
    input tuples into ``rows * _fanout(atom)``.  The cost sums every step's
    input: the start tuple, then each intermediate result but the last,
    which is the answer set (the same whatever the order).
    """
    cost, rows = 0.0, 1.0
    bound: frozenset[Variable] = frozenset()
    for atom in order:
        cost += rows
        rows *= _fanout(query, atom, bound, database)
        bound = bound.union(atom.variables())
    return cost


def _admit(frontier: list[_Plan], plan: _Plan) -> None:
    """Add ``plan`` to a subset's frontier unless a kept prefix is no worse.

    "No worse" means no higher in cost, in rows and in atom-index tuple at
    once; the kept prefixes that ``plan`` is no worse than are dropped.
    """
    cost, rows, order = plan
    for kept in frontier:
        if kept[0] <= cost and kept[1] <= rows and kept[2] <= order:
            return
    frontier[:] = [
        kept for kept in frontier if not (cost <= kept[0] and rows <= kept[1] and order <= kept[2])
    ]
    frontier.append(plan)


def _order_atoms(query: ConjunctiveQuery, database: Database) -> list[Atom]:
    """The left-deep join order of least :func:`_plan_cost` (exact subset DP).

    Selinger-style dynamic programming over atom subsets: extending a prefix
    that has joined the subset ``S`` by an atom ``a`` outside it adds the
    prefix's rows to its cost (the tuples that step reads) and multiplies
    them by ``_fanout(a)``, which depends only on the variables ``S`` binds.
    The rows themselves depend on the order that joined ``S`` (an atom
    divides by its own distinct count on a shared variable), so a cheaper
    prefix may carry more rows and lose later.  Each subset therefore keeps
    every prefix that no other one matches or beats in cost, rows and
    atom-index tuple at once — in practice a handful.  The cheapest full
    plan wins, ties broken on the atom-index tuple, so the chosen cost is the
    minimum over all ``n!`` permutations, reached in about ``n * 2**n``
    extensions.  A query with more than :data:`MAX_JOIN_ATOMS` atoms raises
    :class:`~repro.errors.EvaluationError`.
    """
    atoms = query.atoms
    if len(atoms) > MAX_JOIN_ATOMS:
        raise EvaluationError(
            f"query {query.name!r} joins {len(atoms)} atoms; the join-order "
            f"search is limited to {MAX_JOIN_ATOMS}"
        )
    bits: dict[Variable, int] = {}  # one bit per variable: bound sets are ints
    masks: list[int] = []
    for atom in atoms:
        mask = 0
        for variable in atom.variables():
            mask |= bits.setdefault(variable, 1 << len(bits))
        masks.append(mask)
    subsets = 1 << len(atoms)
    bound = [0] * subsets
    plans: list[list[_Plan]] = [[] for __ in range(subsets)]
    plans[0].append((0.0, 1.0, ()))
    fanouts: dict[tuple[int, int], float] = {}  # (atom, its bound variables)
    for joined in range(subsets):  # a subset precedes its supersets
        frontier = plans[joined]
        if joined:
            lowest = joined & -joined
            bound[joined] = bound[joined ^ lowest] | masks[lowest.bit_length() - 1]
        free = subsets - 1 - joined
        while free:
            bit = free & -free
            free ^= bit
            index = bit.bit_length() - 1
            seen = bound[joined] & masks[index]
            key = (index, seen)
            fanout = fanouts.get(key)
            if fanout is None:
                variables = frozenset(v for v, b in bits.items() if b & seen)
                fanout = fanouts[key] = _fanout(query, atoms[index], variables, database)
            grown = plans[joined | bit]
            for cost, rows, order in frontier:
                plan = (cost + rows, rows * fanout, order + (index,))
                if grown:
                    _admit(grown, plan)
                else:
                    grown.append(plan)
    __, __, best = min(plans[-1], key=lambda plan: (plan[0], plan[2]))
    return [atoms[index] for index in best]


def _pending_comparisons(
    comparisons: Sequence[Comparison], bound: set[Variable]
) -> list[Comparison]:
    return [c for c in comparisons if all(v in bound for v in c.variables())]


#: One intermediate tuple: projected variable values + lineage clause so far.
_Item = tuple[tuple[Any, ...], frozenset[int]]


def _constant(value: Any) -> Callable[[Row], Any]:
    return lambda row: value


def _same_values(p: int, q: int) -> Callable[[Row], bool]:
    return lambda row: row[p] == row[q]


class _JoinStep:
    """One atom of the pipeline: term analysis, row filters and emit logic."""

    def __init__(
        self,
        atom: Atom,
        slots: dict[Variable, int],
        keep: set[Variable],
        comparisons: Sequence[Comparison],
        provider: LineageProvider,
    ) -> None:
        self.atom = atom
        self.slots = slots
        self.provider = provider
        self.const_bindings: dict[int, Any] = {}
        self.join_by_pos: list[tuple[int, int]] = []  # (row position, env slot)
        self.first_pos: dict[Variable, int] = {}  # new variable -> first position
        dup_checks: list[tuple[int, int]] = []  # repeated new variable
        for position, term in enumerate(atom.terms):
            if is_variable(term):
                if term in slots:
                    self.join_by_pos.append((position, slots[term]))
                elif term in self.first_pos:
                    dup_checks.append((position, self.first_pos[term]))
                else:
                    self.first_pos[term] = position
            else:
                self.const_bindings[position] = term.value  # type: ignore[union-attr]
        # Checks one row decides alone run at the scan, before any join work:
        # repeated variables, then comparisons over this atom's fresh
        # variables.  The other comparisons need the joined tuple (``emit``).
        row_filters = _row_filters(comparisons, atom, set(slots))
        self.filters = [_same_values(p, q) for p, q in dup_checks]
        self.filters += [self._row_test(c) for c in row_filters]
        self.comparisons = [c for c in comparisons if c not in row_filters]
        self.comp_vars = {v for c in self.comparisons for v in c.variables()}
        # Output layout: surviving old slots (in order), then new variables
        # (in first-occurrence order), filtered to what is needed downstream.
        self.out_layout = [v for v in slots if v in keep]
        self.out_layout += [v for v in self.first_pos if v in keep]
        self.out_slots = {v: i for i, v in enumerate(self.out_layout)}

    def _row_test(self, comparison: Comparison) -> Callable[[Row], bool]:
        test = comparison.test
        left, right = (
            itemgetter(self.first_pos[term]) if is_variable(term) else _constant(term.value)
            for term in (comparison.left, comparison.right)
        )
        return lambda row: test(left(row), right(row))

    def _value(self, variable: Variable, env: tuple[Any, ...], row: Row) -> Any:
        slot = self.slots.get(variable)
        if slot is not None:
            return env[slot]
        return row[self.first_pos[variable]]

    def filtered(self, rows: Iterable[Row]) -> Iterable[Row]:
        """The rows that pass every row filter (lazily, at C speed)."""
        for test in self.filters:
            rows = filter(test, rows)
        return rows

    def emit(self, env: tuple[Any, ...], clause: frozenset[int], row: Row, out: list[_Item]) -> None:
        """Extend one intermediate with one matching row (filters + lineage)."""
        if self.comparisons:
            substitution = {v: self._value(v, env, row) for v in self.comp_vars}
            if not all(c.evaluate(substitution) for c in self.comparisons):
                return
        variable = self.provider.variable_for(self.atom.relation, row)
        if variable is not None:
            clause = clause | {variable}
        out.append((tuple(self._value(v, env, row) for v in self.out_layout), clause))

    def probe_key(self, env: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(env[slot] for _, slot in self.join_by_pos)

    def build_key(self, row: Row) -> tuple[Any, ...]:
        return tuple(row[pos] for pos, _ in self.join_by_pos)


def has_first_step_row(query: ConjunctiveQuery, atom: Atom, table: Any) -> bool:
    """Whether some row of ``table`` passes ``atom``'s own checks in ``query``.

    These are the checks one row decides alone, exactly as the first join
    step makes them: the atom's constants, its repeated variables and the
    comparisons over its variables only.  No plan is made and nothing is
    emitted, so an atom without such a row is known to derive nothing
    before any planning.
    """
    step = _JoinStep(atom, {}, set(), query.comparisons, NoLineage())
    return any(True for __ in step.filtered(table.scan(dict(step.const_bindings))))


def _index_probe(step: _JoinStep, items: list[_Item], table: Any) -> list[_Item]:
    """Index-nested-loop regime: one indexed lookup per intermediate tuple."""
    out: list[_Item] = []
    for env, clause in items:
        bindings = dict(step.const_bindings)
        for position, slot in step.join_by_pos:
            bindings[position] = env[slot]
        for row in step.filtered(table.lookup(bindings)):
            step.emit(env, clause, row, out)
    return out


def _hash_join(step: _JoinStep, items: list[_Item], table: Any) -> list[_Item]:
    """Build/probe regime: hash the filtered scan, probe it with every item."""
    out: list[_Item] = []
    build: dict[tuple[Any, ...], list[Row]] = {}
    for row in step.filtered(table.scan(dict(step.const_bindings))):
        build.setdefault(step.build_key(row), []).append(row)
    for env, clause in items:
        for row in build.get(step.probe_key(env), ()):
            step.emit(env, clause, row, out)
    return out


def evaluate_cq(
    query: ConjunctiveQuery,
    database: Database,
    lineage: LineageProvider | None = None,
    result: QueryResult | None = None,
) -> QueryResult:
    """Evaluate a conjunctive query, returning answers with lineage."""
    if result is None:
        result = QueryResult(query.head)
    return _run_pipeline(
        query, _order_atoms(query, database), database, lineage or NoLineage(), result
    )


def _run_pipeline(
    query: ConjunctiveQuery,
    ordered_atoms: Sequence[Atom],
    database: Database,
    provider: LineageProvider,
    result: QueryResult,
) -> QueryResult:
    """Run the left-deep pipeline over ``ordered_atoms`` (any permutation)."""
    # Pre-compute which comparisons become checkable after each join step.
    checked: set[Comparison] = set()
    comparison_schedule: list[list[Comparison]] = []
    bound_so_far: set[Variable] = set()
    for atom in ordered_atoms:
        bound_so_far.update(atom.variables())
        ready = [
            c
            for c in _pending_comparisons(query.comparisons, bound_so_far)
            if c not in checked
        ]
        checked.update(ready)
        comparison_schedule.append(ready)
    unreachable = set(query.comparisons) - checked
    if unreachable:
        raise EvaluationError(
            f"comparisons {sorted(map(repr, unreachable))} use variables never bound by atoms"
        )

    head = query.head

    # Liveness: after depth d, keep only variables used by later atoms, later
    # comparisons, or the head.
    future: set[Variable] = set(head)
    keep: list[set[Variable]] = [set()] * len(ordered_atoms)
    for depth in range(len(ordered_atoms) - 1, -1, -1):
        keep[depth] = set(future)
        future = future | set(ordered_atoms[depth].variables())
        future |= {v for c in comparison_schedule[depth] for v in c.variables()}

    items: list[_Item] = [((), frozenset())]
    slots: dict[Variable, int] = {}
    for depth, atom in enumerate(ordered_atoms):
        table = database.table(atom.relation)
        step = _JoinStep(atom, slots, keep[depth], comparison_schedule[depth], provider)
        small_probe = len(items) <= INDEX_PROBE_THRESHOLD or len(items) * 8 <= len(table)
        if (step.join_by_pos or step.const_bindings) and small_probe:
            items = _index_probe(step, items, table)
        else:
            items = _hash_join(step, items, table)
        slots = step.out_slots
        if not items:
            return result

    for env, clause in items:
        answer = tuple(env[slots[v]] for v in head)
        result.add_derivation(answer, clause)
    return result


def evaluate_ucq(
    query: UCQ | ConjunctiveQuery,
    database: Database,
    lineage: LineageProvider | None = None,
) -> QueryResult:
    """Evaluate a UCQ (or a single CQ) with lineage.

    The lineage of each answer is the disjunction of the lineages produced by
    the individual disjuncts, as in the paper (Sect. 4: the lineage of a
    disjunction is the disjunction of the lineages).
    """
    ucq = as_ucq(query)
    result = QueryResult(ucq.head)
    for disjunct in ucq.disjuncts:
        evaluate_cq(disjunct, database, lineage, result)
    return result


def boolean_lineage(
    query: UCQ | ConjunctiveQuery,
    database: Database,
    lineage: LineageProvider,
) -> DNF:
    """Lineage of a Boolean query (``DNF.false()`` when it has no derivations)."""
    ucq = as_ucq(query)
    if not ucq.is_boolean:
        raise EvaluationError(f"query {ucq.name!r} is not Boolean; bind its head first")
    return evaluate_ucq(ucq, database, lineage).lineage(())


def answer_probabilities(
    result: QueryResult, probabilities: Mapping[int, float]
) -> dict[tuple[Any, ...], float]:
    """Exact marginal probability of each answer: the OBDD of its lineage.

    Each lineage compiles under :func:`repro.obdd.order.component_order`,
    so independent derivations are concatenated, not synthesised.
    """
    from repro.obdd.construct import build_obdd
    from repro.obdd.order import component_order

    output: dict[tuple[Any, ...], float] = {}
    for answer, formula in result.lineages().items():
        output[answer] = build_obdd(formula, component_order(formula)).probability(probabilities)
    return output

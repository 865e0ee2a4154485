"""End-to-end query evaluation on MVDBs (Theorem 1 + MV-index).

The :class:`MVQueryEngine` wires together the whole pipeline of the paper:

1. translate the MVDB into a tuple-independent database and the view query
   ``W`` (offline, :mod:`repro.core.translate`);
2. compute the lineage of ``W`` and compile it into an MV-index (offline,
   :mod:`repro.mvindex`);
3. for a user query ``Q``, compute the lineage of every answer (a round trip
   to the relational engine) and evaluate
   ``P(Q) = P0(Q ∧ ¬W) / P0(¬W)`` online via MV-index intersection.

Evaluation strategies are resolved through the inference-method registry
(:mod:`repro.methods`): ``mvindex`` (CC-MVIntersect), ``mvindex-mv``
(pointer-based MVIntersect), ``obdd`` (construct the OBDD of ``Q ∨ W`` from
scratch for every query — the "augmented OBDD" line of Figs. 5/6),
``enumeration`` (brute force, tiny inputs only), ``sampling``
(Monte-Carlo, approximate), plus anything registered by third parties via
:func:`repro.methods.register`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.core.mvdb import MVDB
from repro.core.pending import PendingExtend, canonical_facts
from repro.core.translate import Translation, translate
from repro.db.database import Database
from repro.db.schema import RelationSchema
from repro.db.table import Row, Table
from repro.errors import InferenceError, SchemaError, ServingError, WeightError
from repro.indb.database import TupleIndependentDatabase
from repro.indb.weights import (
    CERTAIN_WEIGHT,
    markoview_weight_to_indb_weight,
    weight_to_probability,
)
from repro.lineage.dnf import DNF
from repro.mvindex.index import MVIndex
from repro.mvindex.summaries import SkipAnalysis, SummaryStore, summarize_component
from repro.obdd.construct import build_obdd
from repro.obdd.order import VariableOrder, component_order, order_from_permutations
from repro.query.atoms import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluator import QueryResult, evaluate_cq, evaluate_ucq, has_first_step_row
from repro.query.ucq import UCQ, as_ucq

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.markoview import MarkoView
    from repro.methods import InferenceMethod

class _UnionTable:
    """A live table followed by its appended (disjoint) Δ rows, read-only."""

    def __init__(self, live: Any, delta: Table) -> None:
        self.name = live.name
        self.live = live
        self.delta = delta

    def __len__(self) -> int:
        return len(self.live) + len(self.delta)

    def distinct_count(self, position: int) -> int:
        # An upper bound, which is all join-order statistics need.
        return self.live.distinct_count(position) + self.delta.distinct_count(position)

    def scan(self, bindings: dict[int, Any] | None = None) -> Iterator[Row]:
        yield from self.live.scan(bindings)
        yield from self.delta.scan(bindings)

    def lookup(self, bindings: dict[int, Any]) -> list[Row]:
        return self.live.lookup(bindings) + self.delta.lookup(bindings)


class _DeltaLineage:
    """Lineage provider of a delta overlay: appended tuples, then the live INDB."""

    def __init__(self, live: TupleIndependentDatabase) -> None:
        self.live = live
        self.relation_of: dict[str, str] = {}  # Δ table name -> its relation
        self.variables: dict[tuple[str, Row], int] = {}  # appended, not certain

    def variable_for(self, relation: str, row: Row) -> int | None:
        relation = self.relation_of.get(relation, relation)
        variable = self.variables.get((relation, row))
        return self.live.variable_for(relation, row) if variable is None else variable


def delta_table(database: Database, relation: str, taken: set[str]) -> Table:
    """An empty memory table for the appended (Δ) rows of ``relation``.

    It is named ``Δ<relation>``, with one more ``Δ`` while the name is a
    relation of ``database`` or already in ``taken`` (to which it is added),
    so it can sit beside every live table in one :class:`Database`.
    """
    alias = "Δ" + relation
    while alias in database or alias in taken:
        alias = "Δ" + alias
    taken.add(alias)
    return Table(RelationSchema(alias, database.table(relation).schema.attribute_names))


def delta_rewrites(
    cq: ConjunctiveQuery, deltas: Mapping[str, Table]
) -> Iterator[ConjunctiveQuery]:
    """The semi-naive rewrite of ``cq`` for appended rows (``relation -> Δ table``).

    Appends are monotone, so a derivation the Δ rows make possible reads one
    of them through some atom.  One copy of ``cq`` is yielded per atom over a
    relation of ``deltas``, with that atom reading the Δ table alone and
    every other atom unchanged; evaluated over tables that hold the Δ rows
    too, the copies derive every new derivation.  A copy whose Δ atom keeps
    no Δ row under the checks one row decides alone (constants, repeated
    variables, comparisons over that atom's variables) derives nothing and
    is not yielded, so it is never planned.
    """
    for position, atom in enumerate(cq.atoms):
        delta = deltas.get(atom.relation)
        if delta is None:
            continue
        bound = Atom(delta.name, atom.terms)
        if not has_first_step_row(cq, bound, delta):
            continue
        atoms = list(cq.atoms)
        atoms[position] = bound
        yield ConjunctiveQuery(cq.head, atoms, cq.comparisons, cq.name)


class MVQueryEngine:
    """Query evaluation over an MVDB via the INDB translation of Theorem 1."""

    def __init__(
        self,
        mvdb: MVDB,
        build_index: bool = True,
        permutations: Mapping[str, Sequence[str]] | None = None,
        construction: str = "concat",
        backend: Any = None,
    ) -> None:
        self.mvdb: MVDB | None = mvdb
        #: Bumped on every applied mutation; a :class:`PendingExtend` records
        #: the epoch it was prepared against and is rejected as stale if
        #: another mutation published in between.
        self.mutation_epoch: int = 0
        self.translation: Translation | None = translate(mvdb, backend=backend)
        self.indb: TupleIndependentDatabase = self.translation.indb
        self.probabilities: dict[int, float] = self.indb.probabilities()
        self._nonstandard: bool | None = None
        self.order: VariableOrder = order_from_permutations(self.indb, permutations)
        self.construction = construction

        if self.translation.has_views:
            self.w_lineage: DNF = self.indb.lineage_of(self.translation.w_query)
        else:
            self.w_lineage = DNF.false()

        self.mv_index: MVIndex | None = None
        if build_index and not self.w_lineage.is_false:
            self.mv_index = MVIndex(
                self.w_lineage, self.probabilities, self.order, construction=construction
            )

        #: Per-component skip summaries (:mod:`repro.mvindex.summaries`),
        #: built alongside the index and maintained in O(delta) by
        #: :meth:`apply_pending`; ``None`` when no index exists.
        self.summaries: SummaryStore | None = None
        if self.mv_index is not None:
            self.summaries = SummaryStore.from_index(self.mv_index, self.indb.tuple_of)

        self._p0_w: float | None = None

    @classmethod
    def from_parts(
        cls,
        indb: TupleIndependentDatabase,
        w_lineage: DNF,
        order: VariableOrder,
        mv_index: MVIndex | None = None,
        mvdb: MVDB | None = None,
        construction: str = "concat",
        summaries: SummaryStore | None = None,
    ) -> "MVQueryEngine":
        """Assemble an engine from pre-built pipeline products.

        This is the cold-start path of the serving layer
        (:mod:`repro.serving.artifact`): instead of re-running the offline
        pipeline — MVDB translation, lineage of ``W``, MV-index compilation —
        the engine is wired directly from a translated INDB, the lineage of
        ``W`` and an (optionally ``None``) compiled index that were restored
        from a saved artifact.  ``mvdb`` may be ``None``; online query
        answering only needs the translated products, never the source MVDB.
        ``summaries`` carries skip summaries restored from the artifact;
        when absent they are recomputed from the restored index.
        """
        engine = cls.__new__(cls)
        engine.mvdb = mvdb
        engine.mutation_epoch = 0
        engine.translation = None
        engine.indb = indb
        engine.probabilities = indb.probabilities()
        engine._nonstandard = None
        engine.order = order
        engine.construction = construction
        engine.w_lineage = w_lineage
        engine.mv_index = mv_index
        engine.summaries = summaries
        if engine.summaries is None and mv_index is not None:
            engine.summaries = SummaryStore.from_index(mv_index, indb.tuple_of)
        engine._p0_w = None
        return engine

    # ------------------------------------------------------------ incremental
    def extend_views(self, mvdb: MVDB) -> list[int]:
        """Extend this engine (and its MV-index) to a superset of MarkoViews.

        Single-writer convenience: :meth:`prepare_extend` followed by
        :meth:`apply_pending`.  Serving callers split the two halves so the
        expensive prepare runs off the serving lock (see
        :meth:`repro.serving.dispatch.Dispatcher.extend`).  Returns the keys
        of the components added to the index.

        The extended engine answers queries with the same probabilities as a
        from-scratch build; artifacts saved from it are *not* byte-identical
        to a rebuild (component keys and appended variable levels differ).
        """
        return self.apply_pending(self.prepare_extend(mvdb))

    def append_facts(self, facts: Mapping[str, Any]) -> int:
        """Stream new base facts into the engine (prepare + apply in one call).

        ``facts`` maps base relation names to fact lists: plain rows for
        deterministic relations, ``(row, weight)`` pairs for probabilistic
        ones.  Only the view derivations that use an appended fact are
        evaluated, over the live tables plus the new rows, and they yield the
        new ``NV`` tuples and ``W`` clauses directly; only the *delta* OBDD
        components are compiled — untouched views and components are reused
        as-is.  Returns the number of new possible tuples (probabilistic and
        deterministic).
        """
        pending = self.prepare_append(facts)
        self.apply_pending(pending)
        return pending.added_tuple_count

    def prepare_extend(self, mvdb: MVDB) -> PendingExtend:
        """Compile the delta for attaching new MarkoViews, off the serving lock.

        Read-only with respect to live engine state: the new views' outputs
        are materialised by reading the live INDB, their ``W`` clauses are
        added to the indexed lineage, and the delta components are compiled
        in a *fresh* OBDD manager.  Nothing the serving read path touches is
        mutated until :meth:`apply_pending`.

        ``mvdb`` must carry every currently attached view (by name) plus the
        new ones, over base data consistent with the engine's (the engine
        may additionally hold appended facts the spec does not know about).
        For artifact-restored engines (no source MVDB) the spec must carry
        the *identical* base data; a full translation is diffed instead.
        """
        if self.mvdb is None:
            return self._prepare_extend_translated(mvdb)
        existing_names = {view.name for view in self.mvdb.views}
        lost = existing_names - {view.name for view in mvdb.views}
        if lost:
            raise InferenceError(
                f"cannot extend: the extension spec dropped MarkoViews {sorted(lost)} "
                "(views may only be added, not removed or changed)"
            )
        for relation, row, weight, __ in mvdb.base.probabilistic_tuples():
            try:
                live_weight = self.indb.weight(relation, row)
            except KeyError:
                live_weight = None
            if live_weight != weight:
                raise InferenceError(
                    f"cannot extend: tuple {relation}{tuple(row)} has weight {weight} in "
                    f"the extension spec but {live_weight} in the engine; extension "
                    "requires the engine's base data with extra views"
                )
        new_views = [view for view in mvdb.views if view.name not in existing_names]
        return self._prepare_delta(new_views=new_views, facts=None, kind="extend")

    def prepare_append(self, facts: Mapping[str, Any]) -> PendingExtend:
        """Prepare a streaming fact append, off the serving lock.

        Read-only with respect to live engine state, like
        :meth:`prepare_extend`.  The incremental lineage patch needs the
        MarkoView definitions to derive view outputs from the appended data,
        so this is only available on engines built from a source MVDB (an
        artifact-restored engine regains the capability after an extend
        with a full spec).
        """
        if self.mvdb is None:
            raise InferenceError(
                "cannot append facts to an artifact-restored engine: the MarkoView "
                "definitions are not part of the artifact, so view outputs cannot "
                "be re-materialised; extend it with a full spec first"
            )
        return self._prepare_delta(
            new_views=[], facts=canonical_facts(facts), kind="append"
        )

    def apply_pending(self, pending: PendingExtend) -> list[int]:
        """Publish a prepared delta: the O(delta) half the write lock covers.

        Inserts the new tuples into the live INDB (asserting the variable
        ids the delta was sealed with — the cross-replica byte-identity
        invariant), splices the ``W`` lineage, imports the pre-compiled node
        block into the shared manager, and bumps the mutation epoch.  A
        delta prepared against any earlier epoch is rejected as stale
        (:class:`~repro.errors.ServingError`) — re-prepare and retry.
        Returns the keys of the components added to the index.
        """
        if pending.base_epoch != self.mutation_epoch:
            raise ServingError(
                f"stale PendingExtend: prepared against engine epoch "
                f"{pending.base_epoch}, but the engine is at {self.mutation_epoch}"
            )
        live = self.indb
        for spec in pending.new_tables:
            if spec["probabilistic"]:
                live.add_probabilistic_table(spec["name"], spec["attributes"])
            else:
                live.add_deterministic_table(spec["name"], spec["attributes"])
        if pending.deterministic_facts:
            live.database.append_facts(pending.deterministic_facts)
        # Pre-insert the probabilistic rows in per-relation batches (one
        # transaction each on the sqlite backend); the per-tuple variable
        # assignment below then sees them as duplicate no-op inserts.
        by_relation: dict[str, list[tuple]] = {}
        for relation, row, __, __ in pending.new_tuples:
            by_relation.setdefault(relation, []).append(row)
        if by_relation:
            live.database.append_facts(by_relation)
        for relation, row, weight, variable in pending.new_tuples:
            assigned = live.add_probabilistic_tuple(relation, row, weight)
            if assigned != variable:
                raise InferenceError(
                    f"cannot apply sealed delta: tuple {relation}{row} was assigned "
                    f"variable {assigned}, expected {variable} (engine state diverged "
                    "from the prepared snapshot)"
                )
        new_w_lineage = self.w_lineage
        if pending.added_clauses or pending.removed_clauses:
            removed = {frozenset(clause) for clause in pending.removed_clauses}
            added_clauses = {frozenset(clause) for clause in pending.added_clauses}
            clauses = (self.w_lineage.clauses - removed) | added_clauses
            new_w_lineage = DNF(clauses) if clauses else DNF.false()
        self.probabilities.update(pending.new_probabilities)
        added: list[int] = []
        if self.mv_index is not None and (
            pending.index_delta is not None or pending.order_append
        ):
            added = self.mv_index.apply_prepared(
                pending.order_append, pending.new_probabilities, pending.index_delta
            )
            self.order = self.mv_index.order
            if self.summaries is not None:
                # O(delta) summary maintenance: drop the recompiled
                # components, summarise the fresh ones from their tuples.
                # Set/bitmap unions are order-independent, so the maintained
                # store is bit-equal to a fresh scan of the whole index.
                if pending.index_delta is not None:
                    for key in pending.index_delta["removed_keys"]:
                        self.summaries.discard(key)
                for key in added:
                    self.summaries.add(
                        summarize_component(
                            key, self.mv_index.components[key].variables, self.indb.tuple_of
                        )
                    )
        elif pending.order_append:
            self.order = self.order.extend(pending.order_append)
        if pending.kind == "extend":
            if pending.new_views is not None and self.mvdb is not None:
                for view in pending.new_views:
                    self.mvdb.add_markoview(view)
            elif pending.mvdb is not None:
                self.mvdb = pending.mvdb
            elif pending.new_view_names:
                # Sealed import without view objects: the view set is no
                # longer known, so degrade to artifact-restored bookkeeping.
                self.mvdb = None
        elif self.mvdb is not None:
            self._mirror_facts(pending)
        self.w_lineage = new_w_lineage
        self.translation = None
        self._p0_w = None
        self._nonstandard = None
        self.mutation_epoch += 1
        return added

    # ----------------------------------------------------- delta preparation
    def _prepare_delta(
        self,
        new_views: "Sequence[MarkoView]",
        facts: Mapping[str, list] | None,
        kind: str,
    ) -> PendingExtend:
        """Shared prepare pipeline for extends and appends: one semi-naive pass.

        The appended facts are validated and numbered as sequential inserts
        would number them (relations in sorted order, then entry order, new
        variables from ``tuple_count()``) and held in small Δ tables; the
        live tables are only read, through an overlay in which a relation
        with Δ rows is the union of both.  A derivation the new facts make
        possible uses at least one Δ row, so each existing view disjunct runs
        once per body atom over a Δ relation, with that atom reading the Δ
        rows alone (:func:`delta_rewrites`, which the subscription tick
        shares).  A new view (an extend) runs in full over the overlay.
        New ``NV`` tuples are the derived rows not yet in ``NV_i`` whose
        weight is not 1, numbered per view in ``repr`` order, and the new
        clauses of ``W`` come straight from the derivations (Def. 5:
        ``{var(NV_i(r))} ∪ d``, the ``NV`` variable omitted when the tuple is
        certain).  OBDD compilation is delta-only.
        """
        live = self.indb
        views = self.mvdb.views
        new_tables: list[dict[str, Any]] = []
        deterministic_facts: dict[str, list[tuple]] = {}
        new_tuples: list[tuple[str, tuple, float, int]] = []
        first_variable = live.tuple_count()
        provider = _DeltaLineage(live)
        deltas: dict[str, Table] = {}  # relation -> its appended rows
        aliases: set[str] = set()
        for relation in sorted(facts or ()):
            if relation not in live.database:
                raise SchemaError(f"cannot append facts to unknown relation {relation!r}")
            if relation.startswith("NV_") or relation in {v.nv_relation for v in views}:
                raise InferenceError(
                    f"facts must target base relations, not the translated {relation!r}"
                )
            table = live.database.table(relation)
            delta = delta_table(live.database, relation, aliases)
            if live.is_probabilistic(relation):
                for entry in facts[relation]:
                    row, weight = self._fact_pair(relation, entry)
                    if live.has_tuple(relation, row) or row in delta:
                        raise InferenceError(
                            f"cannot append: tuple {relation}{row} already exists; "
                            "weights of existing tuples cannot change through appends"
                        )
                    delta.insert(table.check_row(row))
                    variable = first_variable + len(new_tuples)
                    new_tuples.append((relation, row, weight, variable))
                    if weight != CERTAIN_WEIGHT:
                        provider.variables[(relation, row)] = variable
            else:
                for entry in facts[relation]:
                    row = table.check_row(self._fact_row(relation, entry))
                    if row not in table and delta.insert(row):
                        deterministic_facts.setdefault(relation, []).append(row)
            if delta:
                deltas[relation] = delta
                provider.relation_of[delta.name] = relation
        overlay = Database(
            [
                _UnionTable(table, deltas[table.name]) if table.name in deltas else table
                for table in live.database
            ]
            + list(deltas.values())
        )
        derived: list[tuple[MarkoView, QueryResult]] = []
        for view in views:
            result = QueryResult(view.query.head)
            for cq in view.query.disjuncts:
                for delta_cq in delta_rewrites(cq, deltas):
                    evaluate_cq(delta_cq, overlay, provider, result)
            derived.append((view, result))
        for view in new_views:
            nv_name = view.nv_relation
            if nv_name in live.database or any(t["name"] == nv_name for t in new_tables):
                raise SchemaError(
                    f"cannot create relation {nv_name!r} for MarkoView "
                    f"{view.name!r}: name in use"
                )
            attributes = [variable.name for variable in view.query.head]
            new_tables.append({"name": nv_name, "attributes": attributes, "probabilistic": True})
            derived.append((view, evaluate_ucq(view.query, overlay, provider)))
        w_clauses: set[frozenset[int]] = set()
        for view, result in derived:
            nv_name = view.nv_relation
            for row, lineage in sorted(result.lineages().items(), key=lambda item: repr(item[0])):
                weight = view.weight_of(row)
                if weight == 1.0:
                    # Weight 1 asserts independence: no correlation to encode.
                    continue
                translated = markoview_weight_to_indb_weight(weight)
                if live.has_tuple(nv_name, row):
                    if live.weight(nv_name, row) != translated:
                        raise InferenceError(
                            f"cannot extend: view {view.name!r} changed the weight "
                            f"of existing output {row}; views may only be added"
                        )
                    nv_variable = live.variable_for(nv_name, row)
                else:
                    nv_variable = first_variable + len(new_tuples)
                    new_tuples.append((nv_name, row, translated, nv_variable))
                    if translated == CERTAIN_WEIGHT:
                        nv_variable = None
                nv_clause = frozenset() if nv_variable is None else frozenset((nv_variable,))
                w_clauses.update(clause | nv_clause for clause in lineage)
        if w_clauses <= self.w_lineage.clauses:
            new_w_lineage = self.w_lineage
        else:
            new_w_lineage = DNF(self.w_lineage.clauses | w_clauses)
        return self._diff_and_compile(
            new_w_lineage,
            new_tables,
            deterministic_facts,
            new_tuples,
            kind=kind,
            new_views=list(new_views),
            mvdb=None,
            new_view_names=[view.name for view in new_views],
        )

    def _prepare_extend_translated(self, mvdb: MVDB) -> PendingExtend:
        """Prepare an extend for an artifact-restored engine (no source MVDB).

        Without view objects the engine cannot re-materialise views over its
        own data, so the spec MVDB must carry the *identical* base data: a
        full Theorem 1 translation is performed and every previously indexed
        tuple is checked to keep its variable id and weight.  Applying the
        delta also installs the spec MVDB, restoring view bookkeeping (and
        with it the ability to append facts).
        """
        translation = translate(mvdb)
        new_indb = translation.indb
        translated = {
            (relation, row): (weight, variable)
            for relation, row, weight, variable in new_indb.probabilistic_tuples()
        }
        for relation, row, weight, variable in self.indb.probabilistic_tuples():
            extended = translated.get((relation, row))
            if extended != (weight, variable):
                raise InferenceError(
                    f"cannot extend: tuple {relation}{row} is "
                    f"{extended} in the extended MVDB but was ({weight}, {variable}); "
                    "extension requires the same base data with extra views"
                )
        live_count = self.indb.tuple_count()
        new_tables = [
            {
                "name": table.name,
                "attributes": list(table.schema.attribute_names),
                "probabilistic": new_indb.is_probabilistic(table.name),
            }
            for table in new_indb.database
            if table.name not in self.indb.database
        ]
        deterministic_facts: dict[str, list[tuple]] = {}
        for table in new_indb.database:
            if new_indb.is_probabilistic(table.name):
                continue
            if table.name in self.indb.database:
                fresh = [
                    row
                    for row in table.rows()
                    if not self.indb.database.contains_row(table.name, row)
                ]
            else:
                fresh = list(table.rows())
            if fresh:
                deterministic_facts[table.name] = fresh
        new_tuples = [
            (relation, row, weight, variable)
            for relation, row, weight, variable in new_indb.probabilistic_tuples()
            if variable >= live_count
        ]
        if translation.has_views:
            new_w_lineage = new_indb.lineage_of(translation.w_query)
        else:
            new_w_lineage = DNF.false()
        return self._diff_and_compile(
            new_w_lineage,
            new_tables,
            deterministic_facts,
            new_tuples,
            kind="extend",
            new_views=None,
            mvdb=mvdb,
            new_view_names=[
                view.name
                for view in mvdb.views
                if view.nv_relation not in self.indb.database
            ],
        )

    def _diff_and_compile(
        self,
        new_w_lineage: DNF,
        new_tables: list[dict[str, Any]],
        deterministic_facts: dict[str, list[tuple]],
        new_tuples: list[tuple[str, tuple, float, int]],
        kind: str,
        new_views: "list[MarkoView] | None",
        mvdb: MVDB | None,
        new_view_names: list[str],
    ) -> PendingExtend:
        """Diff the ``W`` lineage and compile the delta components (off-lock)."""
        # An indexed clause may legitimately vanish from the extended lineage
        # when a new view's clause subsumes it (DNF absorption); only clauses
        # that disappeared *without* a subsuming replacement indicate that a
        # view was removed or changed.
        missing = {
            clause
            for clause in self.w_lineage.clauses - new_w_lineage.clauses
            if not any(new_clause <= clause for new_clause in new_w_lineage.clauses)
        }
        if missing:
            raise InferenceError(
                "cannot extend: the extended MVDB lost clauses of the indexed W "
                "(views may only be added, not removed or changed)"
            )
        new_clauses = new_w_lineage.clauses - self.w_lineage.clauses
        removed_clauses = self.w_lineage.clauses - new_w_lineage.clauses
        new_probabilities = {
            variable: weight_to_probability(weight)
            for __, __, weight, variable in new_tuples
        }
        order_append = [
            variable
            for __, __, weight, variable in new_tuples
            if weight != CERTAIN_WEIGHT and variable not in self.order
        ]
        index_delta = None
        if self.mv_index is not None and new_clauses:
            index_delta = self.mv_index.prepare_extend(
                DNF(new_clauses),
                order_append=order_append,
                probabilities=new_probabilities,
                existing_lineage=self.w_lineage,
            )
        return PendingExtend(
            kind=kind,
            base_epoch=self.mutation_epoch,
            new_tables=new_tables,
            deterministic_facts=deterministic_facts,
            new_tuples=new_tuples,
            added_clauses=sorted((sorted(clause) for clause in new_clauses)),
            removed_clauses=sorted((sorted(clause) for clause in removed_clauses)),
            order_append=order_append,
            new_probabilities=new_probabilities,
            index_delta=index_delta,
            new_views=new_views,
            mvdb=mvdb,
            new_view_names=new_view_names,
        )

    def _mirror_facts(self, pending: PendingExtend) -> None:
        """Keep the source MVDB truthful after an append (oracle bookkeeping)."""
        mvdb = self.mvdb
        assert mvdb is not None
        for relation, rows in pending.deterministic_facts.items():
            if relation in mvdb.database:
                for row in rows:
                    mvdb.database.insert(relation, row)
        for relation, row, weight, __ in pending.new_tuples:
            if relation in mvdb.database and mvdb.base.is_probabilistic(relation):
                mvdb.base.add_probabilistic_tuple(relation, row, weight)

    @staticmethod
    def _fact_row(relation: str, entry: Any) -> tuple:
        if isinstance(entry, (str, bytes)) or not isinstance(entry, Sequence):
            raise SchemaError(
                f"facts for deterministic relation {relation!r} must be rows (sequences)"
            )
        return tuple(entry)

    @staticmethod
    def _fact_pair(relation: str, entry: Any) -> tuple[tuple, float]:
        malformed = (
            isinstance(entry, (str, bytes))
            or not isinstance(entry, Sequence)
            or len(entry) != 2
            or isinstance(entry[0], (str, bytes))
            or not isinstance(entry[0], Sequence)
        )
        if malformed:
            raise SchemaError(
                f"facts for probabilistic relation {relation!r} must be "
                "(row, weight) pairs"
            )
        row, weight = entry
        weight = float(weight)
        if math.isnan(weight) or weight < 0:
            raise WeightError(
                f"appended tuple {relation}{tuple(row)} must have a non-negative weight"
            )
        return tuple(row), weight

    # ----------------------------------------------------------- W statistics
    @property
    def w_lineage_size(self) -> int:
        """Number of clauses in the lineage of ``W`` (the Fig. 4 quantity)."""
        return 0 if self.w_lineage.is_false else len(self.w_lineage)

    def p0_w(self) -> float:
        """``P0(W)`` on the translated INDB (cached)."""
        if self._p0_w is None:
            if self.w_lineage.is_false:
                self._p0_w = 0.0
            elif self.mv_index is not None:
                self._p0_w = self.mv_index.probability_w()
            else:
                # One run per component, in engine order inside each: an
                # append puts new tuples after all old ones, which would
                # interleave the components under ``self.order`` itself.
                order = component_order(self.w_lineage, self.order)
                self._p0_w = build_obdd(self.w_lineage, order).probability(self.probabilities)
        return self._p0_w

    # ------------------------------------------------------------- validation
    @property
    def has_nonstandard_probabilities(self) -> bool:
        """Whether the translation produced probabilities outside ``[0, 1]``.

        Positive MarkoView correlations (weight > 1) translate into
        negative NV weights and probabilities (Sect. 3.3); methods whose
        ``supports_negative_weights`` capability flag is ``False`` are
        rejected on such engines.
        """
        if self._nonstandard is None:
            self._nonstandard = any(
                not 0.0 <= probability <= 1.0 for probability in self.probabilities.values()
            )
        return self._nonstandard

    def resolve_method(self, method: "str | InferenceMethod") -> "InferenceMethod":
        """Resolve a method name through the registry and check capabilities."""
        from repro import methods as method_registry

        resolved = method_registry.get(method)
        if not resolved.supports_negative_weights and self.has_nonstandard_probabilities:
            raise InferenceError(
                f"method {resolved.name!r} does not support the negative tuple "
                "weights this MVDB's translation produced (a MarkoView with "
                "weight > 1); use an exact method such as 'mvindex'"
            )
        return resolved

    def validate_query(self, query: UCQ | ConjunctiveQuery) -> None:
        """Reject queries over the translated ``NV_*`` relations.

        User queries must be phrased over the MVDB schema; the ``NV``
        relations are an artifact of the Theorem 1 translation and querying
        them directly would produce meaningless probabilities.
        """
        ucq = as_ucq(query)
        unknown_nv = {
            relation
            for relation in ucq.relations()
            if relation.startswith("NV_")
        }
        if unknown_nv:
            raise InferenceError(
                f"queries must be over the MVDB schema, not the translated NV relations {unknown_nv}"
            )

    # ------------------------------------------------------------ data skipping
    def skip_analysis(self, queries: "UCQ | list[UCQ]") -> "SkipAnalysis | None":
        """Match one query (or a batch) against the component summaries.

        Returns the provably-relevant component set as a
        :class:`~repro.mvindex.summaries.SkipAnalysis`, or ``None`` when the
        engine has no summaries (no index).  Sharing one analysis across a
        batch is sound — the union of the queries' atoms only widens the
        relevant set.
        """
        if self.summaries is None:
            return None
        return self.summaries.analyze(queries)

    # ---------------------------------------------------------------- queries
    def query(
        self,
        query: UCQ | ConjunctiveQuery,
        method: str = "mvindex",
        *,
        use_skip: bool = True,
    ) -> dict[tuple[Any, ...], float]:
        """Probability of every answer of ``query`` on the MVDB.

        For a Boolean query the result maps the empty tuple to ``P(Q)``
        (absent if the query has no derivation, i.e. probability 0).  This
        is the low-level map interface; :meth:`repro.ProbDB.query` returns
        typed :class:`repro.QueryResult` objects instead.  ``use_skip`` is
        accepted and selects nothing: there is one read path, and the frozen
        ``bench/checks.py`` still passes ``use_skip=False``.
        """
        ucq = as_ucq(query)
        resolved = self.resolve_method(method)
        self.validate_query(ucq)
        result = evaluate_ucq(ucq, self.indb.database, self.indb)
        return {
            answer: resolved.probability(self, lineage)
            for answer, lineage in result.lineages().items()
        }

    def boolean_probability(
        self,
        query: UCQ | ConjunctiveQuery,
        method: str = "mvindex",
    ) -> float:
        """``P(Q)`` for a Boolean query (0.0 if it has no derivations).

        Raises :class:`~repro.errors.InferenceError` when the query has free
        head variables — the old behaviour of silently returning 0.0 for
        non-Boolean queries hid real mistakes.
        """
        ucq = as_ucq(query)
        if not ucq.is_boolean:
            raise InferenceError(
                f"boolean_probability requires a Boolean query, but {ucq.name!r} has "
                f"free head variables {tuple(v.name for v in ucq.head)}; "
                "use query() for non-Boolean queries"
            )
        return self.query(ucq, method=method).get((), 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        index = "no index" if self.mv_index is None else repr(self.mv_index)
        source = "restored artifact" if self.mvdb is None else repr(self.mvdb)
        return f"MVQueryEngine({source}, W lineage {self.w_lineage_size} clauses, {index})"

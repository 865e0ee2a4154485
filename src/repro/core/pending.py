"""Sealed write-path deltas: the ``PendingExtend`` artifact.

The non-blocking write path splits every mutation — attaching MarkoViews
(``extend``) or streaming new base facts (``append``) — into two halves:

* **prepare** (off the serving lock): the engine derives the new view
  outputs and ``W`` clauses by reading its live state without changing it,
  diffs the clause sets, and compiles only the delta OBDD components in a
  *fresh* manager.  The result is a :class:`PendingExtend` — everything
  needed to publish the mutation, with no reference to live engine state.
* **apply** (under the brief write lock): an O(delta) patch — insert the new
  tuples, splice the lineage, import the pre-compiled node block into the
  shared manager, flip the generation.  Readers only ever wait for this.

A ``PendingExtend`` also doubles as the fleet's replication artifact:
:meth:`sealed` renders it as plain JSON (shipped by the router to follower
replicas, recorded in the fleet's replay log) and :meth:`from_sealed`
rehydrates it, so followers *import* the leader's compiled delta instead of
recompiling it — one compile, N byte-identical replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ServingError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.markoview import MarkoView
    from repro.core.mvdb import MVDB


@dataclass
class PendingExtend:
    """A prepared, not-yet-published mutation of an :class:`MVQueryEngine`.

    Attributes
    ----------
    kind:
        ``"extend"`` (new MarkoViews) or ``"append"`` (new base facts).
    base_epoch:
        The engine's ``mutation_epoch`` the delta was prepared against;
        applying against any other epoch is rejected as stale.
    new_tables:
        Relations to create, in order: ``{"name", "attributes",
        "probabilistic"}`` (the ``NV`` relations of newly attached views).
    deterministic_facts:
        ``relation -> rows`` to insert into deterministic tables (batched —
        one transaction per relation on the sqlite backend).
    new_tuples:
        ``(relation, row, weight, variable)`` in ascending variable order;
        the variable ids are the ones the live engine *must* assign, which
        is what keeps replicas byte-identical.
    added_clauses / removed_clauses:
        The ``W``-lineage diff (removed = clauses absorbed by new ones).
    order_append:
        Non-certain new variables, in the order they join the variable
        order (appended at the tail, so existing OBDD levels are stable).
    new_probabilities:
        ``variable -> marginal probability`` for every new tuple.
    index_delta:
        The pre-compiled MV-index patch (``None`` when no new clauses):
        ``{"removed_keys", "nodes", "roots", "component_variables"}`` with
        the node block in stable children-first export form.
    new_views / mvdb / new_view_names:
        View bookkeeping: the attached :class:`MarkoView` objects (local
        prepare), or the full spec MVDB (artifact-restored engines), plus
        the view names for the sealed form (followers re-resolve them
        through their extender).
    """

    kind: str
    base_epoch: int
    new_tables: list[dict[str, Any]] = field(default_factory=list)
    deterministic_facts: dict[str, list[tuple]] = field(default_factory=dict)
    new_tuples: list[tuple[str, tuple, float, int]] = field(default_factory=list)
    added_clauses: list[list[int]] = field(default_factory=list)
    removed_clauses: list[list[int]] = field(default_factory=list)
    order_append: list[int] = field(default_factory=list)
    new_probabilities: dict[int, float] = field(default_factory=dict)
    index_delta: dict[str, Any] | None = None
    new_views: "list[MarkoView] | None" = None
    mvdb: "MVDB | None" = None
    new_view_names: list[str] = field(default_factory=list)

    @property
    def added_tuple_count(self) -> int:
        """Number of new possible tuples (probabilistic + deterministic)."""
        return len(self.new_tuples) + sum(
            len(rows) for rows in self.deterministic_facts.values()
        )

    def delta_descriptor(self) -> dict[str, Any]:
        """Summarize what this delta can possibly touch, for subscriptions.

        The subscription evaluator skips a standing query when the delta
        provably leaves its answers alone, which needs exactly two facts
        about the mutation: the appended *rows* per relation (appends are
        monotone, so a query none of whose atoms derives a row from them
        keeps its relational lineage — the delta rule), and which
        *variables* sit in recompiled or new MV-index components (a lineage
        over disjoint variables keeps its conditional probability —
        untouched components cancel in ``P0(Q ∧ ¬W)/P0(¬W)``).  Recompiled
        components re-enter the index with their full variable pool, so
        ``component_variables`` of the index delta covers every removed
        component's variables too.  The rows are tuples here whether the
        delta was prepared locally or rehydrated by :meth:`from_sealed`, so
        a leader and its followers build the same descriptor.
        """
        from repro.mvindex.summaries import variables_bitmap

        rows: dict[str, list[tuple]] = {}
        for relation, row, *_ in self.new_tuples:
            rows.setdefault(relation, []).append(row)
        for relation, facts in self.deterministic_facts.items():
            rows.setdefault(relation, []).extend(facts)
        relations: set[str] = set(rows)
        relations.update(table["name"] for table in self.new_tables)
        component_variables: set[int] = set()
        removed_keys: list[int] = []
        if self.index_delta is not None:
            for variables in self.index_delta.get("component_variables", []):
                component_variables.update(int(v) for v in variables)
            removed_keys = [int(key) for key in self.index_delta.get("removed_keys", [])]
        return {
            "kind": self.kind,
            "base_epoch": self.base_epoch,
            "relations": sorted(relations),
            "rows": rows,
            "component_variables": sorted(component_variables),
            # The same variable set as a summary-layer bitmap (an int), so
            # the subscription evaluator intersects it against each standing
            # query's variable bitmap with one integer AND per subscription.
            "component_bitmap": variables_bitmap(component_variables),
            "removed_keys": removed_keys,
            "added_clauses": len(self.added_clauses),
            "added_tuples": self.added_tuple_count,
        }

    def sealed(self) -> dict[str, Any]:
        """Render this delta as plain JSON-compatible data.

        The sealed form is self-contained up to view *objects*: an
        ``extend`` records only the new view names, and the importer
        re-resolves them from its extend spec (every replica runs the same
        deterministic extender, so the resolved views are identical).
        """
        return {
            "kind": self.kind,
            "base_epoch": self.base_epoch,
            "new_tables": [dict(table) for table in self.new_tables],
            "deterministic_facts": {
                relation: [list(row) for row in rows]
                for relation, rows in self.deterministic_facts.items()
            },
            "new_tuples": [
                [relation, list(row), weight, variable]
                for relation, row, weight, variable in self.new_tuples
            ],
            "added_clauses": [list(clause) for clause in self.added_clauses],
            "removed_clauses": [list(clause) for clause in self.removed_clauses],
            "order_append": list(self.order_append),
            "new_probabilities": [
                [variable, probability]
                for variable, probability in self.new_probabilities.items()
            ],
            "index_delta": self.index_delta,
            "new_view_names": list(self.new_view_names),
        }

    @classmethod
    def from_sealed(
        cls, document: Mapping[str, Any], mvdb: "MVDB | None" = None
    ) -> "PendingExtend":
        """Rehydrate a sealed delta (the follower half of compile-once-ship).

        ``mvdb`` is the importer's freshly built spec MVDB (``extend`` only);
        the recorded view names are resolved against it.  Importing an
        ``extend`` without an MVDB is allowed but degrades the engine's view
        bookkeeping — subsequent appends on that replica are rejected.
        """
        try:
            kind = document["kind"]
            if kind not in ("extend", "append"):
                raise ServingError(f"unknown sealed mutation kind {kind!r}")
            new_views = None
            names = [str(name) for name in document.get("new_view_names", [])]
            if kind == "extend" and mvdb is not None:
                by_name = {view.name: view for view in mvdb.views}
                missing = [name for name in names if name not in by_name]
                if missing:
                    raise ServingError(
                        f"sealed extend names views {missing} absent from the spec MVDB"
                    )
                new_views = [by_name[name] for name in names]
            return cls(
                kind=kind,
                base_epoch=int(document["base_epoch"]),
                new_tables=[dict(table) for table in document.get("new_tables", [])],
                deterministic_facts={
                    relation: [tuple(row) for row in rows]
                    for relation, rows in document.get("deterministic_facts", {}).items()
                },
                new_tuples=[
                    (relation, tuple(row), float(weight), int(variable))
                    for relation, row, weight, variable in document.get("new_tuples", [])
                ],
                added_clauses=[
                    [int(v) for v in clause] for clause in document.get("added_clauses", [])
                ],
                removed_clauses=[
                    [int(v) for v in clause]
                    for clause in document.get("removed_clauses", [])
                ],
                order_append=[int(v) for v in document.get("order_append", [])],
                new_probabilities={
                    int(variable): float(probability)
                    for variable, probability in document.get("new_probabilities", [])
                },
                index_delta=document.get("index_delta"),
                new_views=new_views,
                new_view_names=names,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError(f"malformed sealed mutation: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PendingExtend({self.kind}, epoch {self.base_epoch}, "
            f"{self.added_tuple_count} tuples, {len(self.added_clauses)} clauses)"
        )


def canonical_facts(facts: Any) -> dict[str, list]:
    """Validate the shape of an ``append_facts`` payload (wire or local).

    ``facts`` maps relation names to fact lists; deterministic relations
    take plain rows, probabilistic relations take ``[row, weight]`` pairs.
    The per-relation interpretation is decided by the receiving engine —
    this helper only normalizes containers and rejects non-mappings early.
    """
    if not isinstance(facts, Mapping) or not facts:
        raise ServingError("'facts' must be a non-empty mapping of relation -> rows")
    normalized: dict[str, list] = {}
    for relation, entries in facts.items():
        if not isinstance(relation, str) or not relation:
            raise ServingError("relation names in 'facts' must be non-empty strings")
        if isinstance(entries, (str, bytes)) or not isinstance(entries, Sequence):
            raise ServingError(f"facts for {relation!r} must be a list of rows")
        normalized[relation] = list(entries)
    return normalized


__all__ = ["PendingExtend", "canonical_facts"]

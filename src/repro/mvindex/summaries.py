"""Per-component summaries that prune OBDD synthesis before it starts.

The MV-index partitions the lineage of ``W`` into variable-disjoint
components, and the conditional-ratio path of Theorem 1 already proves that
components a query's lineage does not touch cancel between ``P0(Q ∧ ¬W)``
and ``P0(¬W)``.  What the index could not do so far is *predict* the touched
set before paying for lineage extraction and the per-answer component scan.
This module closes that gap with three per-component summaries, computed at
build/extend time from the tuples behind the component's variables:

* a **relation signature** — the set of relations the component's tuples
  live in;
* a **constant-position value sketch** — the set of
  ``(relation, position, bucket)`` triples over the component's tuple rows,
  with :func:`value_bucket` hashing each attribute value into one of
  ``SKETCH_BUCKETS`` buckets;
* a **variable reachability bitmap** plus min/max variable-range bounds —
  one big integer with bit ``v`` set for every tuple variable ``v`` in the
  component (the delta-overlap test of the subscription service folds over
  the same bitmaps).

The store additionally maintains *inverted* bitmap indexes (one big integer
per relation and per sketch key, with bit ``k`` set for component key ``k``)
so that :meth:`SummaryStore.analyze` matches a whole query against the index
with a handful of integer ANDs/ORs instead of a per-component loop.

Soundness.  A query answer's lineage can only contain a tuple that some
query atom produced, and a tuple produced by an atom (a) lives in the atom's
relation and (b) carries the atom's constants at their positions (join
semantics).  Every such tuple's component therefore survives the relation
signature and every constant-position sketch probe — bucket collisions only
ever *keep* irrelevant components, never drop relevant ones, and comparisons
are ignored entirely (again a superset).  Hence the relevant set returned by
:meth:`SummaryStore.analyze` is a superset of the touched set of every
answer, which is exactly the premise under which the Theorem-1 cancellation
makes restricting the denominator fold (and the per-answer component work)
to the relevant set bit-identical to the unrestricted evaluation.  The read
path needs no such restriction — it already works on the touched components
only — so today the analysis is reported (``QueryResult.skipped_components``,
``/metrics``), not acted on.

Everything in here is integers, frozensets and sorted lists — no floats —
so the summaries are bit-stable across export/import and an O(delta)
extend/append maintenance pass produces exactly the store a fresh scan
would.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ArtifactError
from repro.query.terms import is_variable
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import UCQ, as_ucq

#: Number of hash buckets per (relation, position) value sketch.  64 keeps
#: the sketch small while making a false-positive probe retain at most
#: ~1/64 of the per-relation components on selective constants.
SKETCH_BUCKETS = 64

#: Version tag of the exported summary block inside the serving artifact.
SUMMARIES_VERSION = 1


def value_bucket(value: Any) -> int:
    """Deterministic bucket of one attribute value.

    Numeric values are canonicalised through ``float`` first because the
    relational layer matches constants with ``==`` and Python deems
    ``1 == 1.0 == True``: equal-under-join values must land in the same
    bucket or a skip could drop a touched component.  Collisions between
    *unequal* values are harmless (they only retain extra components).
    """
    if isinstance(value, (bool, int, float)):
        try:
            token = repr(float(value))
        except OverflowError:  # ints beyond float range hash as themselves
            token = f"int:{value!r}"
    else:
        token = f"{type(value).__name__}:{value!r}"
    return zlib.crc32(token.encode("utf-8")) % SKETCH_BUCKETS


def variables_bitmap(variables: Iterable[int]) -> int:
    """One big integer with bit ``v`` set for every variable ``v``."""
    bitmap = 0
    for variable in variables:
        bitmap |= 1 << variable
    return bitmap


def bitmap_to_hex(bitmap: int) -> str:
    """Compact, bit-stable JSON encoding of a (possibly huge) bitmap."""
    return format(bitmap, "x")


def bitmap_from_hex(text: str) -> int:
    return int(text, 16) if text else 0


def decode_bitmap(bitmap: int) -> list[int]:
    """The set bit positions of a bitmap, in increasing order."""
    positions: list[int] = []
    while bitmap:
        low = bitmap & -bitmap
        positions.append(low.bit_length() - 1)
        bitmap ^= low
    return positions


@dataclass(frozen=True)
class ComponentSummary:
    """The skip-relevant fingerprint of one MV-index component."""

    key: int
    relations: frozenset[str]
    sketch_keys: frozenset[tuple[str, int, int]]
    variables_bitmap: int
    min_variable: int
    max_variable: int


def summarize_component(
    key: int,
    variables: Iterable[int],
    tuple_of: Callable[[int], tuple[str, Sequence[Any]]],
) -> ComponentSummary:
    """Summarise one component by resolving its variables to their tuples.

    ``tuple_of`` is :meth:`repro.indb.database.TupleIndependentDatabase.tuple_of`
    — the variable → ``(relation, row)`` resolver.  Only set/bitmap unions
    are involved, so the result is independent of the iteration order of
    ``variables`` (which is what makes O(delta) maintenance bit-equal to a
    fresh scan).
    """
    relations: set[str] = set()
    sketch: set[tuple[str, int, int]] = set()
    bitmap = 0
    low = high = None
    for variable in variables:
        relation, row = tuple_of(variable)
        relations.add(relation)
        bitmap |= 1 << variable
        low = variable if low is None else min(low, variable)
        high = variable if high is None else max(high, variable)
        for position, value in enumerate(row):
            sketch.add((relation, position, value_bucket(value)))
    if low is None or high is None:
        raise ArtifactError(f"component {key} has no variables to summarise")
    return ComponentSummary(
        key=key,
        relations=frozenset(relations),
        sketch_keys=frozenset(sketch),
        variables_bitmap=bitmap,
        min_variable=low,
        max_variable=high,
    )


@dataclass(frozen=True)
class SkipAnalysis:
    """The result of matching a query (or batch) against the summaries.

    ``relevant_keys`` is the provably-relevant component set: a superset of
    the touched set of every answer of every query the analysis covered.
    ``skipped_count`` components are pruned before any lineage or OBDD work
    happens on them.
    """

    relevant_keys: frozenset[int]
    relevant_bitmap: int
    skipped_count: int
    elapsed_ms: float

    @property
    def relevant_count(self) -> int:
        return len(self.relevant_keys)


class SummaryStore:
    """All component summaries of one MV-index, plus inverted bitmap indexes.

    Not thread-safe on its own: mutations happen only inside the engine's
    publish path (the dispatcher's single-writer mutex), exactly where the
    index itself is mutated; reads are plain dict lookups on immutable
    values, safe under the same epoch discipline as the index.
    """

    def __init__(self) -> None:
        self._summaries: dict[int, ComponentSummary] = {}
        #: relation name -> bitmap of component keys containing that relation.
        self._relation_bitmap: dict[str, int] = {}
        #: (relation, position, bucket) -> bitmap of component keys.
        self._sketch_bitmap: dict[tuple[str, int, int], int] = {}
        #: bitmap of every registered component key.
        self._all_keys_bitmap = 0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._summaries)

    # -------------------------------------------------------------- mutation
    def add(self, summary: ComponentSummary) -> None:
        """Register one component summary (O(summary))."""
        if summary.key in self._summaries:
            raise ArtifactError(f"component {summary.key} is already summarised")
        bit = 1 << summary.key
        self._summaries[summary.key] = summary
        self._all_keys_bitmap |= bit
        for relation in summary.relations:
            self._relation_bitmap[relation] = self._relation_bitmap.get(relation, 0) | bit
        for sketch_key in summary.sketch_keys:
            self._sketch_bitmap[sketch_key] = self._sketch_bitmap.get(sketch_key, 0) | bit

    def discard(self, key: int) -> None:
        """Drop one component summary (O(summary); unknown keys are a no-op).

        The stored summary records exactly which inverted entries carry its
        bit, so removal never scans the full store.
        """
        summary = self._summaries.pop(key, None)
        if summary is None:
            return
        mask = ~(1 << key)
        self._all_keys_bitmap &= mask
        for relation in summary.relations:
            remaining = self._relation_bitmap[relation] & mask
            if remaining:
                self._relation_bitmap[relation] = remaining
            else:
                del self._relation_bitmap[relation]
        for sketch_key in summary.sketch_keys:
            remaining = self._sketch_bitmap[sketch_key] & mask
            if remaining:
                self._sketch_bitmap[sketch_key] = remaining
            else:
                del self._sketch_bitmap[sketch_key]

    # -------------------------------------------------------------- analysis
    def analyze(self, ucqs: "UCQ | ConjunctiveQuery | Iterable[UCQ]") -> SkipAnalysis:
        """Match a query (or a batch of queries) against the summaries.

        One mask per atom — the relation signature ANDed with every
        constant-position sketch probe — ORed across the atoms of every
        disjunct of every query.  Comparisons are deliberately ignored and
        deterministic relations have no inverted entry, both of which only
        widen the relevant set (soundness is a superset argument; see the
        module docstring).
        """
        start = time.perf_counter()
        if isinstance(ucqs, (UCQ, ConjunctiveQuery)):
            queries = [as_ucq(ucqs)]
        else:
            queries = [as_ucq(query) for query in ucqs]
        relevant = 0
        relation_bitmap = self._relation_bitmap
        sketch_bitmap = self._sketch_bitmap
        for ucq in queries:
            for cq in ucq.disjuncts:
                for atom in cq.atoms:
                    mask = relation_bitmap.get(atom.relation, 0)
                    if not mask:
                        continue
                    for position, term in enumerate(atom.terms):
                        if is_variable(term):
                            continue
                        mask &= sketch_bitmap.get(
                            (atom.relation, position, value_bucket(term.value)), 0
                        )
                        if not mask:
                            break
                    relevant |= mask
        relevant &= self._all_keys_bitmap
        relevant_keys = frozenset(decode_bitmap(relevant))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return SkipAnalysis(
            relevant_keys=relevant_keys,
            relevant_bitmap=relevant,
            skipped_count=len(self._summaries) - len(relevant_keys),
            elapsed_ms=elapsed_ms,
        )

    # --------------------------------------------------------- serialization
    def export_state(self) -> dict[str, Any]:
        """Plain JSON-compatible, deterministically ordered state.

        Sorted keys and sorted set renderings make the export a pure
        function of the summarised content — the serving artifact's
        byte-identity contract (gzip with zeroed mtime) depends on it.
        """
        return {
            "version": SUMMARIES_VERSION,
            "buckets": SKETCH_BUCKETS,
            "components": [
                {
                    "key": summary.key,
                    "relations": sorted(summary.relations),
                    "sketch": sorted(list(item) for item in summary.sketch_keys),
                    "variables": bitmap_to_hex(summary.variables_bitmap),
                    "min_variable": summary.min_variable,
                    "max_variable": summary.max_variable,
                }
                for summary in (
                    self._summaries[key] for key in sorted(self._summaries)
                )
            ],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "SummaryStore":
        """Rebuild a store from :meth:`export_state` output (bit-identical)."""
        version = state.get("version")
        if version != SUMMARIES_VERSION:
            raise ArtifactError(
                f"unsupported summary version {version!r} (expected {SUMMARIES_VERSION})"
            )
        if state.get("buckets") != SKETCH_BUCKETS:
            raise ArtifactError(
                f"summary sketch bucket count {state.get('buckets')!r} does not match "
                f"this build ({SKETCH_BUCKETS}); recompute the summaries"
            )
        store = cls()
        for entry in state["components"]:
            store.add(
                ComponentSummary(
                    key=int(entry["key"]),
                    relations=frozenset(entry["relations"]),
                    sketch_keys=frozenset(
                        (str(relation), int(position), int(bucket))
                        for relation, position, bucket in entry["sketch"]
                    ),
                    variables_bitmap=bitmap_from_hex(entry["variables"]),
                    min_variable=int(entry["min_variable"]),
                    max_variable=int(entry["max_variable"]),
                )
            )
        return store

    @classmethod
    def from_index(
        cls,
        index: Any,
        tuple_of: Callable[[int], tuple[str, Sequence[Any]]],
    ) -> "SummaryStore":
        """Fresh scan over every component of an :class:`MVIndex`."""
        store = cls()
        for key in sorted(index.components):
            store.add(
                summarize_component(key, index.components[key].variables, tuple_of)
            )
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SummaryStore({len(self._summaries)} components, "
            f"{len(self._relation_bitmap)} relations, "
            f"{len(self._sketch_bitmap)} sketch keys)"
        )


__all__ = [
    "SKETCH_BUCKETS",
    "SUMMARIES_VERSION",
    "ComponentSummary",
    "SkipAnalysis",
    "SummaryStore",
    "bitmap_from_hex",
    "bitmap_to_hex",
    "decode_bitmap",
    "summarize_component",
    "value_bucket",
    "variables_bitmap",
]

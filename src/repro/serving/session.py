"""Cache-aware, thread-safe query serving on top of :class:`MVQueryEngine`.

A :class:`QuerySession` wraps an engine (freshly built, or cold-started from
a saved artifact via :mod:`repro.serving.artifact`) with the machinery a
long-lived serving process needs:

* an **LRU result cache** and an **LRU lineage cache**, both keyed on
  canonicalized UCQs (:mod:`repro.serving.canonical`), so repeated queries —
  even re-phrased ones — skip the relational round trip and the index
  intersection entirely;
* **prepared queries** (:class:`PreparedQuery`): the relational round trip
  happens once at prepare time, after which the handle can be executed under
  any evaluation method;
* a **batch API** (:meth:`QuerySession.execute_batch`) that deduplicates the
  conjunctive disjuncts of all queries in the batch and evaluates each
  distinct one exactly once — a single relational evaluation pass shared by
  the whole batch — before intersecting every lineage against the MV-index;
* **thread safety**: all public methods may be called from concurrent
  threads.

Counters for all of this live in :class:`SessionStatistics`, which the
experiment harness uses to report cold-versus-warm serving behaviour.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Sequence

from repro.core.engine import MVQueryEngine
from repro.errors import InferenceError
from repro.lineage.dnf import DNF
from repro.methods import InferenceMethod, MvIndexMethod, MvIndexPointerMethod
from repro.mvindex.cc_intersect import prewarm_flat_encodings
from repro.mvindex.intersect import IntersectStatistics
from repro.mvindex.summaries import SkipAnalysis
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluator import QueryResult as RelationalResult
from repro.query.evaluator import evaluate_cq
from repro.query.ucq import UCQ, as_ucq
from repro.results import Answer, QueryResult
from repro.serving.canonical import canonical_cq_key, canonical_key

#: Default capacity of the result and lineage LRU caches.
DEFAULT_CACHE_SIZE = 256


@dataclass
class SessionStatistics:
    """Counters describing the work a session performed."""

    #: Queries answered straight from the result cache.
    result_hits: int = 0
    #: Queries whose probabilities had to be computed.
    result_misses: int = 0
    #: Lineage look-ups served from the lineage cache.
    lineage_hits: int = 0
    #: Lineage look-ups that required relational evaluation.
    lineage_misses: int = 0
    #: Relational evaluation passes over the data (one per uncached single
    #: query; exactly one per batch regardless of the batch size).
    relational_passes: int = 0
    #: Distinct conjunctive disjuncts evaluated inside those passes.
    evaluated_disjuncts: int = 0
    #: Calls to :meth:`QuerySession.execute_batch`.
    batches: int = 0
    #: In-batch duplicate queries resolved by sharing the batch's own
    #: computation (not served from the result cache).
    deduplicated: int = 0
    #: Entries dropped from either LRU cache.
    evictions: int = 0
    #: Skip analyses run against the component summaries (one per uncached
    #: single query; exactly one per batch with uncached queries).
    skip_analyses: int = 0
    #: Components those analyses proved irrelevant (summed over analyses).
    skipped_components: int = 0
    #: Components those analyses could not rule out (summed over analyses).
    relevant_components: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dictionary (for reports and tests)."""
        return dict(vars(self))


class _LruCache:
    """A small LRU map.  Not thread-safe: callers hold the session lock."""

    def __init__(self, capacity: int, statistics: SessionStatistics) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._statistics = statistics

    def get(self, key: Hashable) -> Any | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._statistics.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class _Computed:
    """A cache entry: typed answers plus the aggregate work counters."""

    answers: tuple[Answer, ...]
    obdd_nodes: int = 0
    steps: int = 0
    touched_components: int = 0
    skipped_components: int = 0
    skip_analysis_ms: float = 0.0


@dataclass
class PreparedQuery:
    """A handle to a query whose relational round trip has been paid.

    Obtained from :meth:`QuerySession.prepare`.  The handle pins the query's
    canonical key and its per-answer lineages; :meth:`execute` then only
    performs (cached) probability computation, under any evaluation method.
    """

    session: "QuerySession"
    ucq: UCQ
    key: str
    lineages: dict[tuple[Any, ...], DNF] = field(repr=False, default_factory=dict)

    def execute(self, method: str = "mvindex") -> QueryResult:
        """Typed answers for the prepared query (result-cached)."""
        return self.session._run_prepared(self, method)

    def boolean_probability(self, method: str = "mvindex") -> float:
        """``P(Q)`` for a prepared Boolean query (0.0 without derivations)."""
        if not self.ucq.is_boolean:
            raise InferenceError(
                f"boolean_probability requires a Boolean query, but {self.ucq.name!r} "
                f"has free head variables {tuple(v.name for v in self.ucq.head)}"
            )
        return self.execute(method).probability(())


class QuerySession:
    """A thread-safe, cache-aware serving session over one engine.

    Parameters
    ----------
    engine:
        The query engine to serve from.  Typically restored from an artifact
        (:func:`repro.serving.artifact.load_engine`) in a serving process.
    cache_size:
        Capacity of each LRU cache (results and lineages).
    """

    def __init__(self, engine: MVQueryEngine, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.engine = engine
        self.statistics = SessionStatistics()
        self._lock = threading.RLock()
        self._results = _LruCache(cache_size, self.statistics)
        self._lineages = _LruCache(cache_size, self.statistics)
        self._warmed = False
        #: Monotonic invalidation epoch.  Bumped by :meth:`invalidate`; every
        #: cache write is guarded by it, so a computation that started before
        #: an engine mutation can never re-pollute the fresh caches with a
        #: probability from the old view set.  Served to clients (e.g. the
        #: HTTP dispatcher) so layered caches can share the invalidation path.
        self.generation = 0

    # ----------------------------------------------------------------- warmup
    def warm(self) -> None:
        """Precompute everything lazy so concurrent queries only read.

        Computes ``P0(W)`` and the flat (cache-conscious) encoding of every
        index component.  Called automatically before a parallel batch; safe
        to call any number of times.
        """
        with self._lock:
            if self._warmed:
                return
            self.engine.p0_w()
            if self.engine.mv_index is not None:
                prewarm_flat_encodings(self.engine.mv_index)
            self._warmed = True

    # ---------------------------------------------------------------- queries
    def execute(self, query: UCQ | ConjunctiveQuery, method: str = "mvindex") -> QueryResult:
        """Typed answers of ``query`` (cached, thread-safe).

        The session lock only guards the caches and statistics; relational
        evaluation and probability inference run outside it, so concurrent
        cached queries are never serialized behind a cold one.  Concurrent
        misses on the same query may duplicate work; both compute identical
        values.
        """
        start = time.perf_counter()
        ucq = as_ucq(query)
        resolved = self.engine.resolve_method(method)
        self.engine.validate_query(ucq)
        key = canonical_key(ucq)
        with self._lock:
            generation = self.generation
            cached = self._results.get((key, resolved.name))
            if cached is not None:
                self.statistics.result_hits += 1
                return self._typed_result(cached, resolved, cached_hit=True, start=start)
            self.statistics.result_misses += 1
        lineages = self._lineages_for(key, ucq)
        self.warm()
        skip = self._skip_for([ucq], resolved)
        computed = self._typed_probabilities(lineages, resolved, skip=skip)
        with self._lock:
            if self.generation == generation:
                self._results.put((key, resolved.name), computed)
        return self._typed_result(computed, resolved, cached_hit=False, start=start)

    def boolean_probability(self, query: UCQ | ConjunctiveQuery, method: str = "mvindex") -> float:
        """``P(Q)`` for a Boolean query (0.0 if it has no derivations)."""
        ucq = as_ucq(query)
        if not ucq.is_boolean:
            raise InferenceError(
                f"boolean_probability requires a Boolean query, but {ucq.name!r} has "
                f"free head variables {tuple(v.name for v in ucq.head)}"
            )
        return self.execute(ucq, method=method).probability(())

    def prepare(self, query: UCQ | ConjunctiveQuery) -> PreparedQuery:
        """Pay the relational round trip now; return a reusable handle."""
        ucq = as_ucq(query)
        self.engine.validate_query(ucq)
        key = canonical_key(ucq)
        lineages = self._lineages_for(key, ucq)
        return PreparedQuery(session=self, ucq=ucq, key=key, lineages=lineages)

    def answer_lineages(self, query: UCQ | ConjunctiveQuery) -> dict[tuple[Any, ...], DNF]:
        """Per-answer lineage DNFs of ``query``, via the lineage cache.

        Used by the subscription evaluator to record which variables a
        standing query's answers depend on (its component signature).  After
        an :meth:`execute_batch` that included the query this is a cache
        hit; a miss pays one single-query relational pass.
        """
        ucq = as_ucq(query)
        self.engine.validate_query(ucq)
        return self._lineages_for(canonical_key(ucq), ucq)

    def execute_batch(
        self,
        queries: Sequence[UCQ | ConjunctiveQuery],
        method: str = "mvindex",
    ) -> list[QueryResult]:
        """Answer many queries with one shared relational evaluation pass.

        All uncached queries in the batch contribute their conjunctive
        disjuncts to a single pool; each *distinct* disjunct (after
        canonicalization) is evaluated exactly once against the data, and the
        per-query lineages are assembled from the shared results.  The
        subsequent index-intersection stage runs sequentially.  The heavy
        computation happens outside the session lock, so concurrent cached
        queries are not serialized behind a cold batch.

        Returns one :class:`~repro.results.QueryResult` per input query, in
        input order.  A result computed in this batch reports the time its
        own probability stage took as ``wall_time`` and ``cached=False``;
        in-batch duplicates share the computing occurrence's result (and
        its wall time — do not sum ``wall_time`` across a batch with
        duplicates); result-cache hits report ``cached=True`` and 0.0.
        """
        ucqs = [as_ucq(query) for query in queries]
        resolved_method = self.engine.resolve_method(method)
        for ucq in ucqs:
            self.engine.validate_query(ucq)
        keys = [canonical_key(ucq) for ucq in ucqs]
        # The expensive work below runs OUTSIDE the session lock so that a
        # long cold batch does not serialize concurrent cached queries; the
        # engine/index are strictly read-only after warm().  The lock only
        # guards cache reads/writes and statistics.  Two concurrent cold
        # batches may duplicate some work; both compute identical values.
        self.warm()
        with self._lock:
            generation = self.generation
            self.statistics.batches += 1
            # Answers are accumulated locally so the batch stays correct even
            # when it holds more distinct queries than the LRU caches do.
            resolved: dict[str, tuple[_Computed, bool, float]] = {}
            pending: "OrderedDict[str, UCQ]" = OrderedDict()
            for key, ucq in zip(keys, ucqs):
                if key in pending:
                    self.statistics.deduplicated += 1
                    continue
                if key in resolved:
                    self.statistics.result_hits += 1
                    continue
                cached = self._results.get((key, resolved_method.name))
                if cached is not None:
                    self.statistics.result_hits += 1
                    resolved[key] = (cached, True, 0.0)
                else:
                    self.statistics.result_misses += 1
                    pending[key] = ucq
            lineage_map: dict[str, dict[tuple[Any, ...], DNF]] = {}
            missing_lineages: "OrderedDict[str, UCQ]" = OrderedDict()
            for key, ucq in pending.items():
                cached_lineages = self._lineages.get(key)
                if cached_lineages is not None:
                    self.statistics.lineage_hits += 1
                    lineage_map[key] = cached_lineages
                else:
                    missing_lineages[key] = ucq
        if missing_lineages:
            fresh, distinct = self._evaluate_shared(missing_lineages)
            lineage_map.update(fresh)
            with self._lock:
                self.statistics.lineage_misses += len(missing_lineages)
                self.statistics.relational_passes += 1
                self.statistics.evaluated_disjuncts += distinct
                if self.generation == generation:
                    for key, lineages in fresh.items():
                        self._lineages.put(key, lineages)
        items = [(key, lineage_map[key]) for key in pending]
        # One skip analysis shared by every query in the batch: the union of
        # the batch's atoms only widens the relevant set, so the shared
        # analysis is sound for each member while costing a single pass.
        skip = self._skip_for(list(pending.values()), resolved_method) if pending else None

        def timed(lineages: dict[tuple[Any, ...], DNF]) -> tuple[_Computed, float]:
            stage_start = time.perf_counter()
            computed = self._typed_probabilities(lineages, resolved_method, skip=skip)
            return computed, time.perf_counter() - stage_start

        computed_all = [timed(lineages) for __, lineages in items]
        with self._lock:
            for (key, __), (computed, seconds) in zip(items, computed_all):
                if self.generation == generation:
                    self._results.put((key, resolved_method.name), computed)
                resolved[key] = (computed, False, seconds)
        return [
            self._typed_result(
                resolved[key][0],
                resolved_method,
                cached_hit=resolved[key][1],
                wall_time=resolved[key][2],
            )
            for key in keys
        ]

    # -------------------------------------------------------------- internals
    def _lineages_for(self, key: str, ucq: UCQ) -> dict[tuple[Any, ...], DNF]:
        """Per-answer lineages of one query, via the lineage cache.

        Takes the session lock only around cache/statistics access; the
        relational evaluation itself runs unlocked.
        """
        with self._lock:
            generation = self.generation
            cached = self._lineages.get(key)
            if cached is not None:
                self.statistics.lineage_hits += 1
                return cached
        fresh, distinct = self._evaluate_shared({key: ucq})
        with self._lock:
            self.statistics.lineage_misses += 1
            self.statistics.relational_passes += 1
            self.statistics.evaluated_disjuncts += distinct
            if self.generation == generation:
                self._lineages.put(key, fresh[key])
        return fresh[key]

    def _evaluate_shared(
        self, pending: "dict[str, UCQ] | OrderedDict[str, UCQ]"
    ) -> tuple[dict[str, dict[tuple[Any, ...], DNF]], int]:
        """One relational evaluation pass shared by all queries in ``pending``.

        Every distinct conjunctive disjunct across the pending queries is
        evaluated exactly once; per-query lineages are then assembled by
        merging the shared per-disjunct results.  Pure computation — no cache
        or statistics access, so it may run outside the session lock.
        Returns the per-key lineage maps and the number of distinct disjuncts
        evaluated.
        """
        engine = self.engine
        distinct: "OrderedDict[str, ConjunctiveQuery]" = OrderedDict()
        memberships: dict[str, list[str]] = {}
        for key, ucq in pending.items():
            disjunct_keys = []
            for cq in ucq.disjuncts:
                cq_key = canonical_cq_key(cq)
                distinct.setdefault(cq_key, cq)
                disjunct_keys.append(cq_key)
            memberships[key] = disjunct_keys
        evaluated = {
            cq_key: evaluate_cq(cq, engine.indb.database, engine.indb)
            for cq_key, cq in distinct.items()
        }
        assembled: dict[str, dict[tuple[Any, ...], DNF]] = {}
        for key, ucq in pending.items():
            result = RelationalResult(ucq.head)
            for cq_key in memberships[key]:
                result.merge(evaluated[cq_key])
            assembled[key] = result.lineages()
        return assembled, len(distinct)

    def _skip_for(
        self, ucqs: "list[UCQ]", method: "InferenceMethod"
    ) -> "SkipAnalysis | None":
        """One summary analysis for ``ucqs`` (None when not applicable).

        Observability only: how much of the index the queries' atoms rule
        out.  It runs when the method reads the MV-index and the engine
        carries summaries; the answers do not depend on it.  Statistics are
        updated under the session lock.
        """
        if not isinstance(method, (MvIndexMethod, MvIndexPointerMethod)):
            return None
        skip = self.engine.skip_analysis(ucqs)
        if skip:
            with self._lock:
                self.statistics.skip_analyses += 1
                self.statistics.skipped_components += skip.skipped_count
                self.statistics.relevant_components += skip.relevant_count
        return skip

    def _typed_probabilities(
        self,
        lineages: dict[tuple[Any, ...], DNF],
        method: "InferenceMethod",
        skip: "SkipAnalysis | None" = None,
    ) -> _Computed:
        """Intersect every answer lineage against the index, keeping counters."""
        engine = self.engine
        answers: list[Answer] = []
        obdd_nodes = steps = touched = 0
        for values, lineage in lineages.items():
            statistics = IntersectStatistics()
            probability = method.probability(engine, lineage, statistics)
            answers.append(
                Answer(
                    values=values,
                    probability=probability,
                    lineage_size=0 if lineage.is_false else len(lineage),
                )
            )
            obdd_nodes += statistics.query_obdd_nodes
            steps += statistics.pair_expansions
            touched += statistics.touched_components
        return _Computed(
            answers=tuple(answers),
            obdd_nodes=obdd_nodes,
            steps=steps,
            touched_components=touched,
            skipped_components=skip.skipped_count if skip else 0,
            skip_analysis_ms=skip.elapsed_ms if skip else 0.0,
        )

    def _typed_result(
        self,
        computed: _Computed,
        method: "InferenceMethod",
        cached_hit: bool,
        start: float | None = None,
        wall_time: float | None = None,
    ) -> QueryResult:
        if wall_time is None:
            wall_time = 0.0 if start is None else time.perf_counter() - start
        return QueryResult(
            answers=computed.answers,
            method=method.name,
            exact=method.exact,
            cached=cached_hit,
            wall_time=wall_time,
            obdd_nodes=computed.obdd_nodes,
            steps=computed.steps,
            touched_components=computed.touched_components,
            skipped_components=computed.skipped_components,
            skip_analysis_ms=computed.skip_analysis_ms,
        )

    def _run_prepared(self, prepared: PreparedQuery, method: str) -> QueryResult:
        start = time.perf_counter()
        resolved = self.engine.resolve_method(method)
        with self._lock:
            generation = self.generation
            cached = self._results.get((prepared.key, resolved.name))
            if cached is not None:
                self.statistics.result_hits += 1
                return self._typed_result(cached, resolved, cached_hit=True, start=start)
            self.statistics.result_misses += 1
        self.warm()
        skip = self._skip_for([prepared.ucq], resolved)
        computed = self._typed_probabilities(prepared.lineages, resolved, skip=skip)
        with self._lock:
            if self.generation == generation:
                self._results.put((prepared.key, resolved.name), computed)
        return self._typed_result(computed, resolved, cached_hit=False, start=start)

    # ----------------------------------------------------------- invalidation
    def invalidate(self) -> None:
        """Drop every cached result and lineage (and the warm flag).

        Called by :meth:`repro.ProbDB.extend` (and by the HTTP dispatcher's
        ``/v1/extend`` path) after the underlying engine mutates — cached
        probabilities computed against the old view set would otherwise be
        served for the extended database.  Bumps :attr:`generation`, so a
        concurrent computation that started before the mutation refuses to
        write its (stale) result back into the fresh caches: this is the one
        invalidation path shared by every caching tier above the engine.
        """
        with self._lock:
            self.generation += 1
            self._results = _LruCache(self._results.capacity, self.statistics)
            self._lineages = _LruCache(self._lineages.capacity, self.statistics)
            self._warmed = False

    # ------------------------------------------------------------- inspection
    def cache_info(self) -> dict[str, int]:
        """Sizes of both caches plus every statistics counter."""
        with self._lock:
            info = {
                "result_entries": len(self._results),
                "lineage_entries": len(self._lineages),
                "generation": self.generation,
            }
            info.update(self.statistics.as_dict())
            return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuerySession({self.engine!r}, {len(self._results)} cached results, "
            f"{len(self._lineages)} cached lineages)"
        )

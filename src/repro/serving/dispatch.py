"""Admission-controlled request dispatch for the HTTP serving tier.

The :class:`Dispatcher` sits between the HTTP handlers and the query
engine and adds everything a network-facing serving process needs that a
bare :class:`~repro.serving.session.QuerySession` does not have:

* **admission control** — when the number of admitted, unfinished
  requests reaches ``max_queue``, new ones are refused with
  :class:`~repro.errors.AdmissionError` (surfaced as HTTP 429 with a
  ``Retry-After`` estimate) instead of building an unbounded backlog;
* **one session per process** — every request is computed on the calling
  (HTTP handler) thread, against the one :class:`QuerySession` whose
  caches every request shares;
* **request coalescing** — identical in-flight canonical queries share one
  computation: followers wait on the leader's future instead of
  duplicating its work;
* a **string-tier result cache** — an LRU from the raw query text to the
  finished :class:`~repro.results.QueryResult`, which skips even the
  datalog parse on exact-text repeats (the hottest path under skewed
  traffic).  Tiers below it are the session's canonical result cache and
  lineage cache, giving three cache tiers with per-tier hit accounting;
* a **non-blocking write path with epoch-swap publication** — mutations
  (``extend``, ``append_facts``) are serialized by a single-writer mutex
  and split in two: the expensive half (view evaluation, lineage diffing,
  delta OBDD compilation) runs *off* the read/write lock against an
  immutable snapshot of the engine, producing a sealed
  :class:`~repro.core.pending.PendingExtend`; publication then takes the
  writer side of the lock only for an O(delta) patch — splice the tuples
  and lineage, import the pre-compiled node block, bump the generation,
  clear the string tier and the coalescing table, and invalidate the
  session.  Readers never wait on a compile, only on the pointer flip.
  Each request snapshots the generation before computing and re-checks it
  before publishing to a cache, so a mutation racing a query can never
  leave a stale probability behind — the generation guard is the
  correctness substrate the epoch swap stands on;
* a **metrics registry** — qps, latency percentiles, per-tier cache hit
  ratios, queue depth and rejection counts, exposed as a JSON document
  (``/v1/stats``) and as Prometheus-style text (``/metrics``).
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.core.engine import MVQueryEngine
from repro.core.mvdb import MVDB
from repro.core.pending import PendingExtend
from repro.errors import AdmissionError, ServingError
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.ucq import UCQ, as_ucq
from repro.results import QueryResult
from repro.serving.canonical import canonical_key
from repro.serving.session import DEFAULT_CACHE_SIZE, QuerySession

#: Default admission limit: admitted, unfinished requests beyond this are 429'd.
DEFAULT_MAX_QUEUE = 64
#: Entries of the session's result and lineage LRUs.  The whole process
#: shares the one session, so it holds what four per-thread sessions of
#: ``DEFAULT_CACHE_SIZE`` held together.
DEFAULT_SESSION_CACHE_SIZE = 4 * DEFAULT_CACHE_SIZE
#: Entries of the raw-query-text result cache (tier 0).
DEFAULT_STRING_CACHE_SIZE = 1024
#: Latency reservoir size for the percentile estimates.
_LATENCY_WINDOW = 4096
#: Sliding window (seconds) over which instantaneous qps is measured.
_QPS_WINDOW = 10.0

#: The cache tiers reported by :meth:`Dispatcher.stats`, hottest first.
CACHE_TIERS = ("string", "result", "lineage")

#: The "subscriptions" section of /v1/stats when no service is attached.
#: Every replica of a fleet carries an identical replicated copy of the
#: subscription state, so merge_stats takes the per-field MAX (summing
#: would count the same subscription N times).
EMPTY_SUBSCRIPTION_STATS: dict[str, Any] = {
    "active": 0,
    "ticks_total": 0,
    "evaluations_total": 0,
    "skips_total": 0,
    "skips_signature_total": 0,
    "skips_bitmap_total": 0,
    "notifications_total": 0,
    "delivered_total": 0,
    "delivery_failures_total": 0,
    "dead_letter_total": 0,
    "seq_head": 0,
    "last_tick_ms": 0.0,
}

#: The "skipping" section of /v1/stats when no analysis has run yet.  Query
#: work is sharded across replicas, so merge_stats SUMS these counters,
#: unlike the replicated subscription state above.
EMPTY_SKIPPING_STATS: dict[str, Any] = {
    "analyses_total": 0,
    "skipped_components_total": 0,
    "relevant_components_total": 0,
    "skip_ratio": 0.0,
}


def render_metrics(stats: dict[str, Any], extra_lines: Sequence[str] = ()) -> str:
    """Render a ``/v1/stats``-shaped document as Prometheus exposition text.

    One definition for both a single :class:`Dispatcher` and the router's
    cluster roll-up (which merges many dispatcher documents with
    :func:`merge_stats` first), so the two expositions cannot drift apart.
    ``extra_lines`` are appended verbatim (the router adds fleet gauges).
    """
    lines = [
        "# HELP repro_requests_total Queries served since process start.",
        "# TYPE repro_requests_total counter",
        f"repro_requests_total {stats['throughput']['requests_total']}",
        "# HELP repro_rejected_total Requests refused by admission control.",
        "# TYPE repro_rejected_total counter",
        f"repro_rejected_total {stats['admission']['rejected_total']}",
        "# HELP repro_coalesced_total Requests coalesced onto an in-flight twin.",
        "# TYPE repro_coalesced_total counter",
        f"repro_coalesced_total {stats['admission']['coalesced_total']}",
        "# HELP repro_errors_total Requests that raised instead of answering.",
        "# TYPE repro_errors_total counter",
        f"repro_errors_total {stats['errors']['total']}",
        "# HELP repro_qps Requests per second over the trailing window.",
        "# TYPE repro_qps gauge",
        f"repro_qps {stats['throughput']['qps']:.6f}",
        "# HELP repro_queue_depth Requests admitted and not yet finished.",
        "# TYPE repro_queue_depth gauge",
        f"repro_queue_depth {stats['queue_depth']}",
        "# HELP repro_generation Invalidation epoch (bumped by /v1/extend).",
        "# TYPE repro_generation gauge",
        f"repro_generation {stats['generation']}",
        "# HELP repro_request_latency_ms Request latency quantiles.",
        "# TYPE repro_request_latency_ms summary",
    ]
    latency = stats["latency_ms"]
    for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
        lines.append(f'repro_request_latency_ms{{quantile="{quantile}"}} {latency[key]:.6f}')
    lines += [
        "# HELP repro_cache_hits_total Cache hits by tier.",
        "# TYPE repro_cache_hits_total counter",
    ]
    for tier in CACHE_TIERS:
        lines.append(f'repro_cache_hits_total{{tier="{tier}"}} {stats["cache"][tier]["hits"]}')
    lines += [
        "# HELP repro_cache_misses_total Cache misses by tier.",
        "# TYPE repro_cache_misses_total counter",
    ]
    for tier in CACHE_TIERS:
        lines.append(f'repro_cache_misses_total{{tier="{tier}"}} {stats["cache"][tier]["misses"]}')
    lines += [
        "# HELP repro_responses_total HTTP responses by status code.",
        "# TYPE repro_responses_total counter",
    ]
    for status, count in sorted(stats["errors"]["responses_by_status"].items()):
        lines.append(f'repro_responses_total{{status="{status}"}} {count}')
    subscriptions = stats.get("subscriptions", EMPTY_SUBSCRIPTION_STATS)
    lines += [
        "# HELP repro_subscriptions_active Standing queries currently registered.",
        "# TYPE repro_subscriptions_active gauge",
        f"repro_subscriptions_active {subscriptions['active']}",
        "# HELP repro_subscription_ticks_total Delta ticks processed.",
        "# TYPE repro_subscription_ticks_total counter",
        f"repro_subscription_ticks_total {subscriptions['ticks_total']}",
        "# HELP repro_subscription_evals_total Subscriptions re-evaluated by a tick.",
        "# TYPE repro_subscription_evals_total counter",
        f"repro_subscription_evals_total {subscriptions['evaluations_total']}",
        "# HELP repro_subscription_skips_total Subscriptions provably unaffected and skipped.",
        "# TYPE repro_subscription_skips_total counter",
        f"repro_subscription_skips_total {subscriptions['skips_total']}",
        "# HELP repro_subscription_skip_attribution_total Tick skips: signature = no appended "
        "fact derives a row and no component was recompiled; bitmap = no appended fact "
        "derives a row and no recompiled component holds a lineage variable.",
        "# TYPE repro_subscription_skip_attribution_total counter",
        'repro_subscription_skip_attribution_total{summary="signature"} '
        f"{subscriptions.get('skips_signature_total', 0)}",
        'repro_subscription_skip_attribution_total{summary="bitmap"} '
        f"{subscriptions.get('skips_bitmap_total', 0)}",
        "# HELP repro_notifications_total Notifications appended to the stream.",
        "# TYPE repro_notifications_total counter",
        f"repro_notifications_total {subscriptions['notifications_total']}",
        "# HELP repro_notification_dead_letter_total Deliveries abandoned after retries.",
        "# TYPE repro_notification_dead_letter_total counter",
        f"repro_notification_dead_letter_total {subscriptions['dead_letter_total']}",
    ]
    skipping = stats.get("skipping", EMPTY_SKIPPING_STATS)
    lines += [
        "# HELP repro_skip_analyses_total Summary matches run against the MV-index.",
        "# TYPE repro_skip_analyses_total counter",
        f"repro_skip_analyses_total {skipping['analyses_total']}",
        "# HELP repro_skipped_components_total Components proved irrelevant before OBDD work.",
        "# TYPE repro_skipped_components_total counter",
        f"repro_skipped_components_total {skipping['skipped_components_total']}",
        "# HELP repro_skip_ratio Fraction of analyzed components skipped (lifetime).",
        "# TYPE repro_skip_ratio gauge",
        f"repro_skip_ratio {skipping['skip_ratio']:.6f}",
    ]
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


def merge_stats(documents: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-replica ``/v1/stats`` documents into one cluster document.

    Counters (requests, answers, rejections, errors, cache hits/misses,
    responses by status) add up exactly.  Gauges compose by their natural
    operation: queue depths and admission limits sum, uptime takes the oldest
    replica.  ``generation`` is the **minimum** across replicas — the epoch
    every replica is guaranteed to have reached (during an extend broadcast
    replicas disagree briefly; ``generation_max`` exposes the frontier).
    Latency percentiles cannot be merged exactly from summaries, so they are
    count-weighted averages (and ``max_ms`` the true max) — an approximation
    that is documented in the metrics glossary of ``docs/serving.md``.
    """
    if not documents:
        return {
            "generation": 0,
            "generation_max": 0,
            "subscriptions": EMPTY_SUBSCRIPTION_STATS.copy(),
            "skipping": EMPTY_SKIPPING_STATS.copy(),
            "max_queue": 0,
            "queue_depth": 0,
            "in_flight": 0,
            "throughput": {"qps": 0.0, "lifetime_qps": 0.0, "requests_total": 0,
                           "answers_total": 0},
            "latency_ms": latency_summary([]),
            "admission": {"queue_depth": 0, "max_queue": 0, "rejected_total": 0,
                          "coalesced_total": 0},
            "errors": {"total": 0, "responses_by_status": {}},
            "cache": {tier: {"hits": 0, "misses": 0, "hit_ratio": 0.0, "entries": 0}
                      for tier in CACHE_TIERS},
            "uptime_s": 0.0,
        }

    def total(*path: str) -> float:
        values = []
        for document in documents:
            value: Any = document
            for part in path:
                value = value.get(part, 0) if isinstance(value, dict) else 0
            values.append(value or 0)
        return sum(values)

    statuses: dict[str, int] = {}
    for document in documents:
        for status, count in document.get("errors", {}).get("responses_by_status", {}).items():
            statuses[status] = statuses.get(status, 0) + count

    counts = [document.get("latency_ms", {}).get("count", 0) for document in documents]
    weight_total = sum(counts) or 1
    latency: dict[str, float] = {"count": sum(counts)}
    for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
        latency[key] = sum(
            document.get("latency_ms", {}).get(key, 0.0) * count
            for document, count in zip(documents, counts)
        ) / weight_total
    latency["max_ms"] = max(
        (document.get("latency_ms", {}).get("max_ms", 0.0) for document in documents),
        default=0.0,
    )

    generations = [document.get("generation", 0) for document in documents]
    cache = {
        tier: {
            "hits": int(total("cache", tier, "hits")),
            "misses": int(total("cache", tier, "misses")),
            "entries": int(total("cache", tier, "entries")),
        }
        for tier in CACHE_TIERS
    }
    for tier_stats in cache.values():
        touched = tier_stats["hits"] + tier_stats["misses"]
        tier_stats["hit_ratio"] = tier_stats["hits"] / touched if touched else 0.0

    # Subscription state is *replicated*, not sharded: every replica holds
    # an identical registry and produces an identical notification stream,
    # so the cluster view is the per-field MAX (the most caught-up replica),
    # never a sum.
    subscriptions: dict[str, Any] = {}
    for key, default in EMPTY_SUBSCRIPTION_STATS.items():
        subscriptions[key] = max(
            (document.get("subscriptions", {}).get(key, default) for document in documents),
            default=default,
        )

    # Skip analyses are per-replica work (sharded, not replicated): sum.
    skipped_total = int(total("skipping", "skipped_components_total"))
    relevant_total = int(total("skipping", "relevant_components_total"))
    analyzed_total = skipped_total + relevant_total
    skipping = {
        "analyses_total": int(total("skipping", "analyses_total")),
        "skipped_components_total": skipped_total,
        "relevant_components_total": relevant_total,
        "skip_ratio": skipped_total / analyzed_total if analyzed_total else 0.0,
    }

    return {
        "generation": min(generations),
        "generation_max": max(generations),
        "subscriptions": subscriptions,
        "skipping": skipping,
        "max_queue": int(total("max_queue")),
        "queue_depth": int(total("queue_depth")),
        "in_flight": int(total("in_flight")),
        "throughput": {
            "qps": total("throughput", "qps"),
            "lifetime_qps": total("throughput", "lifetime_qps"),
            "requests_total": int(total("throughput", "requests_total")),
            "answers_total": int(total("throughput", "answers_total")),
        },
        "latency_ms": latency,
        "admission": {
            "queue_depth": int(total("queue_depth")),
            "max_queue": int(total("max_queue")),
            "rejected_total": int(total("admission", "rejected_total")),
            "coalesced_total": int(total("admission", "coalesced_total")),
        },
        "errors": {"total": int(total("errors", "total")), "responses_by_status": statuses},
        "cache": cache,
        "uptime_s": max(document.get("uptime_s", 0.0) for document in documents),
    }


class _ReadWriteLock:
    """A writer-preferring read/write lock.

    Readers share the lock (queries keep flowing past each other); a writer
    (``extend``) excludes readers and other writers.  Writer preference
    keeps a steady read load from starving the writer forever.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._condition:
                self._writer_active = False
                self._condition.notify_all()


def percentile(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[rank]


def latency_summary(ordered_seconds: Sequence[float]) -> dict[str, float]:
    """The standard latency document (``/v1/stats``) over an already-sorted seconds list."""
    mean = sum(ordered_seconds) / len(ordered_seconds) if ordered_seconds else 0.0
    return {
        "count": len(ordered_seconds),
        "p50_ms": percentile(ordered_seconds, 0.50) * 1000.0,
        "p95_ms": percentile(ordered_seconds, 0.95) * 1000.0,
        "p99_ms": percentile(ordered_seconds, 0.99) * 1000.0,
        "mean_ms": mean * 1000.0,
        "max_ms": (ordered_seconds[-1] if ordered_seconds else 0.0) * 1000.0,
    }


class MetricsRegistry:
    """Thread-safe serving metrics: counters, latency reservoir, qps window.

    All latencies are recorded in seconds and reported in milliseconds.
    Counters are monotonic for the life of the process, so a client
    polling ``/v1/stats`` never sees one decrease (a fleet folds a dead
    replica's counters into its retired baseline to keep that true).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests_total = 0
        self.answers_total = 0
        self.rejected_total = 0
        self.coalesced_total = 0
        self.errors_total = 0
        self.responses_by_status: dict[int, int] = {}
        # Only the dispatcher's own string tier is counted here; the result
        # and lineage tiers keep their counters in the session's statistics
        # (read by Dispatcher.cache_stats), so mirroring them here would
        # just create a second, disagreeing copy.
        self.tier_hits: dict[str, int] = {}
        self.tier_misses: dict[str, int] = {}
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._completions: deque[float] = deque(maxlen=65536)

    # ------------------------------------------------------------- recording
    def observe_request(self, latency_s: float, answers: int = 0) -> None:
        """Record one successfully served query (or batch member)."""
        with self._lock:
            self.requests_total += 1
            self.answers_total += answers
            self._latencies.append(latency_s)
            self._completions.append(time.monotonic())

    def observe_rejected(self) -> None:
        with self._lock:
            self.rejected_total += 1

    def observe_coalesced(self) -> None:
        with self._lock:
            self.coalesced_total += 1

    def observe_error(self) -> None:
        with self._lock:
            self.errors_total += 1

    def observe_response(self, status: int) -> None:
        """Record the HTTP status of one response (called by the server)."""
        with self._lock:
            self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1

    def observe_tier(self, tier: str, hit: bool) -> None:
        with self._lock:
            if hit:
                self.tier_hits[tier] = self.tier_hits.get(tier, 0) + 1
            else:
                self.tier_misses[tier] = self.tier_misses.get(tier, 0) + 1

    # ------------------------------------------------------------- reporting
    def uptime_s(self) -> float:
        """Seconds since the registry was created (cheap; for liveness)."""
        return max(time.monotonic() - self.started, 1e-6)

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99/mean/max over the reservoir, in milliseconds."""
        with self._lock:
            sample = sorted(self._latencies)
        return latency_summary(sample)

    def qps(self) -> float:
        """Requests per second over the trailing measurement window."""
        now = time.monotonic()
        with self._lock:
            while self._completions and now - self._completions[0] > _QPS_WINDOW:
                self._completions.popleft()
            recent = len(self._completions)
        window = min(_QPS_WINDOW, max(now - self.started, 1e-6))
        return recent / window

    def snapshot(self) -> dict[str, Any]:
        """All counters plus derived rates, as one JSON-safe document."""
        uptime = self.uptime_s()
        with self._lock:
            statuses = {str(status): count for status, count in self.responses_by_status.items()}
            counters = {
                "requests_total": self.requests_total,
                "answers_total": self.answers_total,
                "rejected_total": self.rejected_total,
                "coalesced_total": self.coalesced_total,
                "errors_total": self.errors_total,
            }
        return {
            "uptime_s": uptime,
            "qps": self.qps(),
            "lifetime_qps": counters["requests_total"] / uptime,
            **counters,
            "responses_by_status": statuses,
            "latency": self.latency_percentiles(),
        }


class Dispatcher:
    """Admission control, coalescing, caching and metrics over one engine.

    Every request runs on the thread that calls :meth:`execute` (an HTTP
    handler thread in a server), against one shared :class:`QuerySession`.

    Parameters
    ----------
    engine:
        The (shared, read-mostly) query engine to serve from.
    max_queue:
        Admission limit on admitted, unfinished requests; beyond it,
        :meth:`execute` raises :class:`~repro.errors.AdmissionError`.
    cache_size:
        Capacity of the session's result and lineage LRUs.
    string_cache_size:
        Capacity of the raw-text result cache (tier 0).
    """

    def __init__(
        self,
        engine: MVQueryEngine,
        max_queue: int = DEFAULT_MAX_QUEUE,
        cache_size: int = DEFAULT_SESSION_CACHE_SIZE,
        string_cache_size: int = DEFAULT_STRING_CACHE_SIZE,
    ) -> None:
        self.engine = engine
        self.max_queue = max_queue
        self.metrics = MetricsRegistry()
        self.session = QuerySession(engine, cache_size=cache_size)
        self._rwlock = _ReadWriteLock()
        self._write_mutex = threading.Lock()
        self._state = threading.Lock()
        self._generation = 0
        self._pending = 0
        self._inflight: dict[tuple[Any, ...], Future] = {}
        self._retry_hint: tuple[float, float] = (-10.0, 0.0)  # (refreshed_at, p50_s)
        self._string_cache: "OrderedDict[tuple[Any, ...], QueryResult]" = OrderedDict()
        self._string_cache_size = string_cache_size
        #: Set by SubscriptionService.attach(); provides the "subscriptions"
        #: section of stats() and handles replayed subscription log entries.
        self.subscription_service: Any | None = None
        self._delta_listeners: list[Any] = []
        self._closed = False

    # ---------------------------------------------------------------- basics
    @property
    def generation(self) -> int:
        """The invalidation epoch; bumped by every :meth:`extend`."""
        with self._state:
            return self._generation

    @property
    def queue_depth(self) -> int:
        """Requests admitted and not yet finished."""
        with self._state:
            return self._pending

    def warm(self) -> None:
        """Warm the session so first requests only read."""
        self.session.warm()

    def add_delta_listener(self, listener: Any) -> None:
        """Register a callable invoked after every published mutation.

        The listener receives the delta descriptor (the document of
        :meth:`PendingExtend.delta_descriptor` plus a ``"generation"`` key)
        *inside* the single-writer critical section, after the read/write
        lock has been released: readers are already flowing against the new
        epoch, but the next mutation cannot start until the listener
        returns.  That ordering is what makes subscription evaluation
        deterministic — every replica observes the same (mutation, tick)
        interleaving.
        """
        self._delta_listeners.append(listener)

    @contextmanager
    def read_pinned(self) -> Iterator[int]:
        """Hold the reader side of the epoch lock; yields the pinned generation.

        While the context is held no mutation can publish, so everything
        computed inside is valid for exactly the yielded generation.  Used
        by the subscription evaluator to guarantee fired answers are
        bit-identical to a fresh query at the same generation.
        """
        with self._rwlock.read_locked():
            with self._state:
                generation = self._generation
            yield generation

    @contextmanager
    def mutation_locked(self) -> Iterator[None]:
        """Hold the single-writer mutex without mutating anything.

        Serializes a non-mutating critical section (e.g. evaluating a new
        subscription's baseline) against the write path, so the baseline
        can never be computed halfway through a publish."""
        with self._write_mutex:
            yield

    def close(self) -> None:
        """Refuse further queries (idempotent); nothing runs in the background."""
        self._closed = True

    # ------------------------------------------------------------- admission
    def _as_ucq(self, query: "str | UCQ | ConjunctiveQuery") -> UCQ:
        if isinstance(query, str):
            return as_ucq(parse_query(query))
        return as_ucq(query)

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("dispatcher is closed")

    def _admit(self) -> None:
        # Called with self._state held.
        if self._pending >= self.max_queue:
            self.metrics.observe_rejected()
            raise AdmissionError(
                f"request queue is full ({self._pending}/{self.max_queue})",
                retry_after=self._retry_after(self._pending),
            )
        self._pending += 1

    def _retry_after(self, depth: int) -> float:
        # Called with self._state held — must not re-acquire it.  Under
        # overload every 429 lands here, so the p50 (which costs a sort of
        # the latency reservoir) is refreshed at most once per second
        # instead of per rejection.
        now = time.monotonic()
        refreshed_at, p50_s = self._retry_hint
        if now - refreshed_at > 1.0:
            p50_s = self.metrics.latency_percentiles()["p50_ms"] / 1000.0
            self._retry_hint = (now, p50_s)
        estimate = depth * max(p50_s, 0.005)
        return min(30.0, max(1.0, math.ceil(estimate)))

    def _string_get(self, generation: int, raw: str, method: str) -> QueryResult | None:
        entry = self._string_cache.get((generation, raw, method))
        if entry is not None:
            self._string_cache.move_to_end((generation, raw, method))
        return entry

    def _string_put(self, generation: int, raw: str, method: str, result: QueryResult) -> None:
        self._string_cache[(generation, raw, method)] = result
        self._string_cache.move_to_end((generation, raw, method))
        while len(self._string_cache) > self._string_cache_size:
            self._string_cache.popitem(last=False)

    def _compute(self, work: Callable[[], Any]) -> tuple[Any, int]:
        """Run an admitted request's work under the read side of the epoch lock."""
        with self._rwlock.read_locked():
            # The generation cannot change while the read side is held
            # (a publish needs the write side), so it is the generation
            # this computation is valid for.
            with self._state:
                generation = self._generation
            return work(), generation

    # ---------------------------------------------------------------- queries
    def execute(
        self, query: "str | UCQ | ConjunctiveQuery", method: str = "mvindex"
    ) -> tuple[QueryResult, int]:
        """Answer one query on the calling thread; returns ``(result, generation)``.

        Raises :class:`~repro.errors.AdmissionError` when ``max_queue``
        requests are already admitted and unfinished, and parse/method
        errors before admission (they are the caller's to map to HTTP 400).
        A caller whose canonical query is already being computed does not
        compute it again: it waits for the leader's result.
        """
        self._check_open()
        start = time.monotonic()
        raw = query.strip() if isinstance(query, str) else None
        if raw is not None:
            with self._state:
                generation = self._generation
                cached = self._string_get(generation, raw, method)
            self.metrics.observe_tier("string", cached is not None)
            if cached is not None:
                result = dataclasses.replace(cached, cached=True, wall_time=0.0)
                self.metrics.observe_request(time.monotonic() - start, answers=len(result))
                return result, generation
        # Admission refusals and parse/method mistakes propagate without
        # touching errors_total — they are the caller's (HTTP 4xx), not
        # failures of the serving tier.
        ucq = self._as_ucq(query)
        self.engine.resolve_method(method)
        self.engine.validate_query(ucq)
        key = canonical_key(ucq)
        with self._state:
            coalesce_key = (self._generation, key, method)
            leader = self._inflight.get(coalesce_key)
            if leader is None:
                self._admit()
                future: "Future[tuple[QueryResult, int]]" = Future()
                self._inflight[coalesce_key] = future
        try:
            if leader is not None:
                self.metrics.observe_coalesced()
                result, generation = leader.result()
            else:
                result, generation = self._lead(future, coalesce_key, ucq, method, raw)
        except Exception:
            self.metrics.observe_error()
            raise
        self.metrics.observe_request(time.monotonic() - start, answers=len(result))
        return result, generation

    def _lead(
        self,
        future: "Future[tuple[QueryResult, int]]",
        coalesce_key: tuple[Any, ...],
        ucq: UCQ,
        method: str,
        raw: str | None,
    ) -> tuple[QueryResult, int]:
        """Compute an admitted query and hand the outcome to its followers."""
        try:
            result, generation = self._compute(lambda: self.session.execute(ucq, method=method))
        except BaseException as exc:
            with self._state:
                self._inflight.pop(coalesce_key, None)
                self._pending -= 1
            future.set_exception(exc)
            raise
        with self._state:
            self._inflight.pop(coalesce_key, None)
            self._pending -= 1
            # Per-request generation check: publish to the string tier only
            # if no mutation invalidated the engine since this result was
            # computed.
            if raw is not None and generation == self._generation:
                self._string_put(generation, raw, method, result)
        future.set_result((result, generation))
        return result, generation

    def execute_batch(
        self,
        queries: Sequence["str | UCQ | ConjunctiveQuery"],
        method: str = "mvindex",
    ) -> tuple[list[QueryResult], int]:
        """One shared relational pass for a whole batch (admitted as one request)."""
        self._check_open()
        start = time.monotonic()
        ucqs = [self._as_ucq(query) for query in queries]
        self.engine.resolve_method(method)
        for ucq in ucqs:
            self.engine.validate_query(ucq)
        with self._state:
            self._admit()
        try:
            results, generation = self._compute(
                lambda: self.session.execute_batch(ucqs, method=method)
            )
        except Exception:
            self.metrics.observe_error()
            raise
        finally:
            with self._state:
                self._pending -= 1
        elapsed = time.monotonic() - start
        for result in results:
            self.metrics.observe_request(elapsed / max(len(results), 1), answers=len(result))
        return results, generation

    # -------------------------------------------------------------- mutation
    def _publish(self, pending: PendingExtend) -> tuple[list[int], int]:
        """Apply a prepared delta and invalidate every tier — the epoch swap.

        The writer side of the read/write lock is held only for the
        O(delta) patch (:meth:`MVQueryEngine.apply_pending`) plus the
        invalidation sweep: bump the generation, clear the string tier and
        the coalescing table, and invalidate the session (which bumps the
        session's own generation).  This is the *only* path that
        mutates the engine, so every cache tier sees exactly one
        invalidation ordering.
        """
        with self._rwlock.write_locked():
            added = self.engine.apply_pending(pending)
            with self._state:
                self._generation += 1
                generation = self._generation
                self._string_cache.clear()
                self._inflight.clear()
            self.session.invalidate()
        if self._delta_listeners:
            descriptor = pending.delta_descriptor()
            descriptor["generation"] = generation
            # Still inside the caller's single-writer mutex: listeners (the
            # subscription tick) run against exactly this generation, and
            # the next mutation waits for them.  Readers are not blocked —
            # the write lock is already released.
            for listener in self._delta_listeners:
                listener(descriptor)
        return added, generation

    def extend(self, mvdb: MVDB) -> tuple[list[int], int, dict[str, Any]]:
        """Extend the engine's view set without stalling readers.

        The compile half (:meth:`MVQueryEngine.prepare_extend`) runs under
        the single-writer mutex but *outside* the read/write lock — queries
        keep flowing while the delta OBDD is built against a snapshot.
        Publication then goes through :meth:`_publish`.  Returns ``(added
        component keys, new generation, sealed artifact)``; the artifact is
        captured *before* publication, so it describes exactly the patch
        that was applied — the router ships it to follower replicas, which
        import it via :meth:`apply_sealed` instead of recompiling.
        """
        with self._write_mutex:
            pending = self.engine.prepare_extend(mvdb)
            sealed = pending.sealed()
            added, generation = self._publish(pending)
        return added, generation, sealed

    def append_facts(self, facts: Any) -> tuple[int, int, dict[str, Any]]:
        """Stream new base facts into the engine; readers never wait.

        Same two-phase shape as :meth:`extend`: incremental lineage
        patching and any delta compilation happen off the read/write lock,
        then the O(delta) publish.  Returns ``(added tuple count, new
        generation, sealed artifact)``.
        """
        with self._write_mutex:
            pending = self.engine.prepare_append(facts)
            sealed = pending.sealed()
            count = pending.added_tuple_count
            _, generation = self._publish(pending)
        return count, generation, sealed

    def apply_sealed(
        self, sealed: dict[str, Any], mvdb: MVDB | None = None
    ) -> tuple[list[int], int]:
        """Import a leader-compiled sealed delta (the follower write path).

        ``mvdb`` is the follower's freshly built spec MVDB (extends only —
        the sealed form carries view *names*, resolved against it).  A
        stale ``base_epoch`` raises :class:`~repro.errors.ServingError`;
        the router reacts by force-restarting the diverged follower.
        """
        with self._write_mutex:
            pending = PendingExtend.from_sealed(sealed, mvdb=mvdb)
            return self._publish(pending)

    # ------------------------------------------------------------ inspection
    def cache_stats(self) -> dict[str, Any]:
        """Per-tier hit/miss counts and ratios (string, result, lineage)."""
        info = self.session.cache_info()
        with self._state:
            string_entries = len(self._string_cache)
        string_hits = self.metrics.tier_hits.get("string", 0)
        string_misses = self.metrics.tier_misses.get("string", 0)

        def tier(hits: int, misses: int, count: int) -> dict[str, Any]:
            total = hits + misses
            return {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / total if total else 0.0,
                "entries": count,
            }

        return {
            "string": tier(string_hits, string_misses, string_entries),
            "result": tier(info["result_hits"], info["result_misses"], info["result_entries"]),
            "lineage": tier(
                info["lineage_hits"], info["lineage_misses"], info["lineage_entries"]
            ),
        }

    def skipping_stats(self) -> dict[str, Any]:
        """The "skipping" section of ``/v1/stats``, read off the session."""
        info = self.session.cache_info()
        skipped, relevant = info["skipped_components"], info["relevant_components"]
        analyzed = skipped + relevant
        return {
            "analyses_total": info["skip_analyses"],
            "skipped_components_total": skipped,
            "relevant_components_total": relevant,
            "skip_ratio": skipped / analyzed if analyzed else 0.0,
        }

    def stats(self) -> dict[str, Any]:
        """The full ``/v1/stats`` document (JSON-safe, nested)."""
        with self._state:
            generation = self._generation
            pending = self._pending
            inflight = len(self._inflight)
        snapshot = self.metrics.snapshot()
        subscriptions = (
            self.subscription_service.stats()
            if self.subscription_service is not None
            else EMPTY_SUBSCRIPTION_STATS.copy()
        )
        return {
            "generation": generation,
            "subscriptions": subscriptions,
            "skipping": self.skipping_stats(),
            "max_queue": self.max_queue,
            "queue_depth": pending,
            "in_flight": inflight,
            "throughput": {
                "qps": snapshot["qps"],
                "lifetime_qps": snapshot["lifetime_qps"],
                "requests_total": snapshot["requests_total"],
                "answers_total": snapshot["answers_total"],
            },
            "latency_ms": snapshot["latency"],
            "admission": {
                "queue_depth": pending,
                "max_queue": self.max_queue,
                "rejected_total": snapshot["rejected_total"],
                "coalesced_total": snapshot["coalesced_total"],
            },
            "errors": {
                "total": snapshot["errors_total"],
                "responses_by_status": snapshot["responses_by_status"],
            },
            "cache": self.cache_stats(),
            "uptime_s": snapshot["uptime_s"],
        }

    def metrics_text(self) -> str:
        """The metrics as Prometheus-style exposition text."""
        return render_metrics(self.stats())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dispatcher(max_queue={self.max_queue}, generation={self.generation})"
        )

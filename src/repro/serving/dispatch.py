"""Admission-controlled request dispatch for the HTTP serving tier.

The :class:`Dispatcher` sits between the HTTP handlers and the query
engine and adds everything a network-facing serving process needs that a
bare :class:`~repro.serving.session.QuerySession` does not have:

* a **bounded request queue with admission control** — when the number of
  queued-plus-running requests reaches ``max_queue``, new submissions are
  refused with :class:`~repro.errors.AdmissionError` (surfaced as HTTP 429
  with a ``Retry-After`` estimate) instead of building an unbounded backlog;
* **per-worker session affinity** — each worker thread owns its own
  :class:`QuerySession`; requests are routed by a stable hash of their
  canonical UCQ key, so repeats of the same (or a re-phrased) query always
  land on the worker whose caches are hot for it;
* **request coalescing** — identical in-flight canonical queries share one
  computation: followers attach to the leader's future instead of queueing
  duplicate work;
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
  clear the string tier and the coalescing table, and invalidate every
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
import queue
import threading
import time
import zlib
from collections import OrderedDict, deque
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

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

#: Default number of worker threads (each owns one QuerySession).
DEFAULT_WORKERS = 4
#: Default admission limit: queued + running requests beyond this are 429'd.
DEFAULT_MAX_QUEUE = 64
#: Default seconds a caller waits for its future before giving up.
DEFAULT_TIMEOUT = 120.0
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
#: work is sharded across workers (and replicas), so merge_stats SUMS these
#: counters, unlike the replicated subscription state above.
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
        "# HELP repro_queue_depth Requests queued or running right now.",
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
    operation: queue depths and worker counts sum, uptime takes the oldest
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
            "workers": 0,
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
        "workers": int(total("workers")),
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
    """Nearest-rank percentile of an already-sorted sequence (0.0 if empty).

    Shared by the dispatcher's metrics registry and the load generator's
    report summaries.
    """
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[rank]


def latency_summary(ordered_seconds: Sequence[float]) -> dict[str, float]:
    """The standard latency document over an already-sorted seconds list.

    One definition for both ``/v1/stats`` and the load generator's reports,
    so the smoke test always compares like with like.
    """
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
    Counters are monotonic for the life of the process — the CI load smoke
    polls ``/v1/stats`` and fails if any of them ever decreases.
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
        # and lineage tiers keep their counters in the per-session
        # statistics (aggregated by Dispatcher.cache_stats), so mirroring
        # them here would just create a second, disagreeing copy.
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


@dataclasses.dataclass
class _Job:
    """One unit of work queued to a dispatch worker."""

    kind: str  # "query" | "batch"
    payload: Any
    method: str
    raw: str | None
    coalesce_key: tuple[Any, ...] | None
    future: "Future[tuple[Any, int]]"


class Dispatcher:
    """Admission control, affinity, coalescing and metrics over one engine.

    Parameters
    ----------
    engine:
        The (shared, read-mostly) query engine to serve from.
    workers:
        Worker threads; each owns a :class:`QuerySession` whose caches stay
        hot thanks to canonical-key affinity routing.
    max_queue:
        Admission limit on queued-plus-running requests; beyond it,
        :meth:`submit` raises :class:`~repro.errors.AdmissionError`.
    cache_size:
        Capacity of each per-worker session LRU (results and lineages).
    string_cache_size:
        Capacity of the shared raw-text result cache (tier 0).
    """

    def __init__(
        self,
        engine: MVQueryEngine,
        workers: int = DEFAULT_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        cache_size: int = DEFAULT_CACHE_SIZE,
        string_cache_size: int = DEFAULT_STRING_CACHE_SIZE,
    ) -> None:
        if workers < 1:
            raise ServingError(f"dispatcher needs at least one worker, got {workers}")
        self.engine = engine
        self.max_queue = max_queue
        self.metrics = MetricsRegistry()
        self.sessions = [QuerySession(engine, cache_size=cache_size) for _ in range(workers)]
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
        self._queues: list["queue.SimpleQueue[_Job | None]"] = [
            queue.SimpleQueue() for _ in range(workers)
        ]
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(index,), daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ---------------------------------------------------------------- basics
    @property
    def generation(self) -> int:
        """The invalidation epoch; bumped by every :meth:`extend`."""
        with self._state:
            return self._generation

    @property
    def queue_depth(self) -> int:
        """Requests currently queued or running."""
        with self._state:
            return self._pending

    def warm(self) -> None:
        """Warm every worker session so first requests only read."""
        for session in self.sessions:
            session.warm()

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
        """Stop the worker threads (idempotent)."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        for worker_queue in self._queues:
            worker_queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------ submission
    def _as_ucq(self, query: "str | UCQ | ConjunctiveQuery") -> UCQ:
        if isinstance(query, str):
            return as_ucq(parse_query(query))
        return as_ucq(query)

    def _worker_for(self, key: str) -> int:
        # A stable (process-independent) hash so a canonical query always
        # lands on the session whose caches already hold it.
        return zlib.crc32(key.encode("utf-8")) % len(self.sessions)

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
        estimate = depth * max(p50_s, 0.005) / len(self.sessions)
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

    def submit(
        self, query: "str | UCQ | ConjunctiveQuery", method: str = "mvindex"
    ) -> "Future[tuple[QueryResult, int]]":
        """Enqueue one query; returns a future of ``(result, generation)``.

        Raises :class:`~repro.errors.AdmissionError` when the bounded queue
        is full, and parse/method errors synchronously (they are the
        caller's to map to HTTP 400).  Identical in-flight canonical queries
        are coalesced onto one future.
        """
        if self._closed:
            raise ServingError("dispatcher is closed")
        raw = query.strip() if isinstance(query, str) else None
        if raw is not None:
            with self._state:
                cached = self._string_get(self._generation, raw, method)
                if cached is not None:
                    generation = self._generation
                    self.metrics.observe_tier("string", True)
                    future: "Future[tuple[QueryResult, int]]" = Future()
                    future.set_result(
                        (dataclasses.replace(cached, cached=True, wall_time=0.0), generation)
                    )
                    return future
            self.metrics.observe_tier("string", False)
        ucq = self._as_ucq(query)
        self.engine.resolve_method(method)  # fail unknown methods before queueing
        self.engine.validate_query(ucq)
        key = canonical_key(ucq)
        worker = self._worker_for(key)
        with self._state:
            coalesce_key = (self._generation, key, method)
            existing = self._inflight.get(coalesce_key)
            if existing is not None:
                self.metrics.observe_coalesced()
                return existing
            if self._pending >= self.max_queue:
                self.metrics.observe_rejected()
                raise AdmissionError(
                    f"request queue is full ({self._pending}/{self.max_queue})",
                    retry_after=self._retry_after(self._pending),
                )
            future = Future()
            self._inflight[coalesce_key] = future
            self._pending += 1
        self._queues[worker].put(
            _Job(
                kind="query",
                payload=ucq,
                method=method,
                raw=raw,
                coalesce_key=coalesce_key,
                future=future,
            )
        )
        return future

    def execute(
        self,
        query: "str | UCQ | ConjunctiveQuery",
        method: str = "mvindex",
        timeout: float = DEFAULT_TIMEOUT,
    ) -> tuple[QueryResult, int]:
        """Submit and wait; returns ``(result, generation)`` and records metrics."""
        start = time.monotonic()
        # Admission refusals and parse/method mistakes propagate from
        # submit() without touching errors_total — they are the caller's
        # (HTTP 4xx), not failures of the serving tier.
        future = self.submit(query, method=method)
        try:
            result, generation = future.result(timeout=timeout)
        except Exception:
            self.metrics.observe_error()
            raise
        self.metrics.observe_request(time.monotonic() - start, answers=len(result))
        return result, generation

    def execute_batch(
        self,
        queries: Sequence["str | UCQ | ConjunctiveQuery"],
        method: str = "mvindex",
        timeout: float = DEFAULT_TIMEOUT,
    ) -> tuple[list[QueryResult], int]:
        """One shared relational pass for a whole batch (admitted as one job).

        The batch routes to a single worker session (chosen by the combined
        canonical key) so its cache stays hot for the batch's query mix.
        """
        if self._closed:
            raise ServingError("dispatcher is closed")
        start = time.monotonic()
        ucqs = [self._as_ucq(query) for query in queries]
        self.engine.resolve_method(method)
        for ucq in ucqs:
            self.engine.validate_query(ucq)
        keys = "|".join(canonical_key(ucq) for ucq in ucqs)
        worker = self._worker_for(keys)
        with self._state:
            if self._pending >= self.max_queue:
                self.metrics.observe_rejected()
                raise AdmissionError(
                    f"request queue is full ({self._pending}/{self.max_queue})",
                    retry_after=self._retry_after(self._pending),
                )
            future: "Future[tuple[list[QueryResult], int]]" = Future()
            self._pending += 1
        self._queues[worker].put(
            _Job(
                kind="batch",
                payload=ucqs,
                method=method,
                raw=None,
                coalesce_key=None,
                future=future,
            )
        )
        try:
            results, generation = future.result(timeout=timeout)
        except Exception:
            self.metrics.observe_error()
            raise
        elapsed = time.monotonic() - start
        for result in results:
            self.metrics.observe_request(elapsed / max(len(results), 1), answers=len(result))
        return results, generation

    # ---------------------------------------------------------------- worker
    def _worker_loop(self, index: int) -> None:
        session = self.sessions[index]
        jobs = self._queues[index]
        while True:
            job = jobs.get()
            if job is None:
                return
            outcome: BaseException | tuple[Any, int]
            try:
                with self._rwlock.read_locked():
                    # Generation cannot change while we hold the read side
                    # (extend needs the write side), so the snapshot below is
                    # the generation this computation is valid for.
                    with self._state:
                        generation = self._generation
                    if job.kind == "query":
                        value = session.execute(job.payload, method=job.method)
                    else:
                        value = session.execute_batch(job.payload, method=job.method)
                outcome = (value, generation)
            except BaseException as exc:  # surfaced through the future
                outcome = exc
            with self._state:
                if job.coalesce_key is not None:
                    self._inflight.pop(job.coalesce_key, None)
                self._pending -= 1
                if (
                    not isinstance(outcome, BaseException)
                    and job.raw is not None
                    # Per-request generation check: publish to the string
                    # tier only if no extend() invalidated the engine since
                    # this result was computed.
                    and outcome[1] == self._generation
                ):
                    self._string_put(outcome[1], job.raw, job.method, outcome[0])
            if isinstance(outcome, BaseException):
                job.future.set_exception(outcome)
            else:
                job.future.set_result(outcome)

    # -------------------------------------------------------------- mutation
    def _publish(self, pending: PendingExtend) -> tuple[list[int], int]:
        """Apply a prepared delta and invalidate every tier — the epoch swap.

        The writer side of the read/write lock is held only for the
        O(delta) patch (:meth:`MVQueryEngine.apply_pending`) plus the
        invalidation sweep: bump the generation, clear the string tier and
        the coalescing table, and invalidate every worker session (which
        bumps the sessions' own generations).  This is the *only* path that
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
            for session in self.sessions:
                session.invalidate()
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
        result_hits = result_misses = lineage_hits = lineage_misses = 0
        entries = {"result": 0, "lineage": 0}
        for session in self.sessions:
            info = session.cache_info()
            result_hits += info["result_hits"]
            result_misses += info["result_misses"]
            lineage_hits += info["lineage_hits"]
            lineage_misses += info["lineage_misses"]
            entries["result"] += info["result_entries"]
            entries["lineage"] += info["lineage_entries"]
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
            "result": tier(result_hits, result_misses, entries["result"]),
            "lineage": tier(lineage_hits, lineage_misses, entries["lineage"]),
        }

    def skipping_stats(self) -> dict[str, Any]:
        """The "skipping" section of ``/v1/stats``, summed over worker sessions."""
        analyses = skipped = relevant = 0
        for session in self.sessions:
            info = session.cache_info()
            analyses += info["skip_analyses"]
            skipped += info["skipped_components"]
            relevant += info["relevant_components"]
        analyzed = skipped + relevant
        return {
            "analyses_total": analyses,
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
            "workers": len(self.sessions),
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
            f"Dispatcher({len(self.sessions)} workers, max_queue={self.max_queue}, "
            f"generation={self.generation})"
        )

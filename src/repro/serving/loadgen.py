"""Closed- and open-loop load generation against the HTTP serving tier.

The generator drives a running :class:`~repro.serving.server.ProbServer`
(``python -m repro serve``) with the paper's DBLP workload mix:

* **closed loop** (:func:`run_closed`) — ``concurrency`` workers, each
  issuing its next request as soon as the previous one answers.  Measures
  the server's capacity (throughput at full utilisation);
* **open loop** (:func:`run_open`) — requests arrive on a fixed schedule of
  ``rate`` per second regardless of completions, the way independent users
  arrive.  Measures latency under a target load, including queueing;
* **ingest mode** (:func:`run_ingest`) — closed-loop query workers with a
  concurrent open-loop *writer* streaming fact appends (``/v1/append``) on
  a fixed schedule, optionally firing one view extend (``/v1/extend``)
  mid-run.  Measures read latency while the write path is busy — the
  non-blocking-write claim, as a number;

all with a **zipf-skewed** choice of query entities (:class:`WorkloadMix`),
so traffic is cache-realistic: a few hot queries dominate, with a long tail
of cold ones — exactly the regime the dispatcher's caching tiers and the
per-worker session affinity are built for.

Every worker keeps one persistent HTTP/1.1 connection (``http.client``),
so the measured numbers are request costs, not TCP-handshake costs.  Every
raw sample is tagged with its operation (``query`` / ``append`` /
``extend``), and the resulting :class:`LoadReport` keeps separate latency
histograms per operation (``op_latency_ms``) on top of the headline
query-only ``latency_ms`` — a slow write can never hide inside (or
inflate) the read percentiles.  The ``python -m repro loadtest`` and
``python -m repro ingest`` CLI subcommands are thin wrappers over this
module.  It reports what a client saw; measured performance evidence comes
from ``bench/`` (which drives the server with its own HTTP driver).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ServingError
from repro.serving.dispatch import latency_summary

#: Workload mix mirroring Sect. 5's query families (template name, weight).
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("students_of_advisor", 0.5),
    ("advisor_of_student", 0.3),
    ("affiliation_of_author", 0.2),
)

#: Query templates over the synthetic DBLP schema.  The entity names follow
#: the generator's conventions (advisors are ``"Advisor <g>"``, students
#: ``"Student <g>-<i>"``), so the queries hit real data.
_TEMPLATES = {
    "students_of_advisor": (
        "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
        "n1 like '%Advisor {k}%'"
    ),
    "advisor_of_student": (
        "Q(aid1) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
        "n like '%Student {k}-0%'"
    ),
    "affiliation_of_author": (
        "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Advisor {k}%'"
    ),
}


@dataclass(frozen=True)
class WorkloadMix:
    """A weighted, zipf-skewed population of workload queries.

    Parameters
    ----------
    entities:
        Distinct entity names per template (the ``k`` in ``Advisor k``);
        should not exceed the served artifact's group count, or part of the
        traffic returns empty answers (harmless but unrealistic).
    zipf_exponent:
        Skew ``s`` of the entity popularity: entity rank ``k`` gets weight
        ``1 / (k+1)^s``.  ``0.0`` is uniform; ``1.1`` (the default) gives
        the classic hot-head/long-tail shape of real query logs.
    mix:
        ``(template name, weight)`` pairs; see ``DEFAULT_MIX``.
    """

    entities: int = 8
    zipf_exponent: float = 1.1
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX

    def population(self) -> tuple[list[str], list[float]]:
        """All query strings with their (unnormalized) sampling weights."""
        queries: list[str] = []
        weights: list[float] = []
        for template_name, template_weight in self.mix:
            template = _TEMPLATES.get(template_name)
            if template is None:
                raise ServingError(
                    f"unknown workload template {template_name!r}; "
                    f"choose from {sorted(_TEMPLATES)}"
                )
            for rank in range(self.entities):
                queries.append(template.format(k=rank))
                weights.append(template_weight / (rank + 1) ** self.zipf_exponent)
        return queries, weights

    def sampler(self, rng: random.Random) -> "Any":
        """A zero-argument callable drawing query strings from the mix."""
        queries, weights = self.population()
        cumulative: list[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)

        def sample() -> str:
            return queries[bisect_left(cumulative, rng.random() * total)]

        return sample


@dataclass
class LoadReport:
    """The outcome of one load-generation run."""

    mode: str
    duration_s: float
    concurrency: int
    target_rate: float | None
    requests: int = 0
    ok: int = 0
    rejected: int = 0
    client_errors: int = 0
    server_errors: int = 0
    transport_errors: int = 0
    answers: int = 0
    qps: float = 0.0
    latency_ms: dict[str, float] = field(default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    #: Requests by operation tag (``query``/``append``/``extend``).
    ops: dict[str, int] = field(default_factory=dict)
    #: Per-operation latency summaries over *successful* requests only —
    #: ``latency_ms`` stays query-only, so writes never skew the read tail.
    op_latency_ms: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def error_free(self) -> bool:
        """True when nothing 5xx'd and every request got an HTTP answer."""
        return self.server_errors == 0 and self.transport_errors == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "duration_s": self.duration_s,
            "concurrency": self.concurrency,
            "target_rate": self.target_rate,
            "requests": self.requests,
            "ok": self.ok,
            "rejected": self.rejected,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "transport_errors": self.transport_errors,
            "answers": self.answers,
            "qps": self.qps,
            "latency_ms": self.latency_ms,
            "statuses": self.statuses,
            "ops": self.ops,
            "op_latency_ms": self.op_latency_ms,
            "error_free": self.error_free,
        }

    def render(self) -> str:
        """A human-readable multi-line summary."""
        label = f"{self.mode} loop"
        if self.target_rate is not None:
            label += f" @ {self.target_rate:g} req/s target"
        lines = [
            f"{label}: {self.requests} requests in {self.duration_s:.1f}s "
            f"({self.qps:.1f} queries/s, concurrency {self.concurrency})",
            f"  ok {self.ok}  rejected(429) {self.rejected}  4xx {self.client_errors}  "
            f"5xx {self.server_errors}  transport {self.transport_errors}",
        ]
        if self.latency_ms:
            lines.append(
                "  latency p50 {p50_ms:.2f}ms  p95 {p95_ms:.2f}ms  p99 {p99_ms:.2f}ms  "
                "max {max_ms:.2f}ms".format(**self.latency_ms)
            )
        for op, summary in sorted(self.op_latency_ms.items()):
            if op == "query" or not summary.get("count"):
                continue
            lines.append(
                f"  {op} x{int(summary['count'])}  p50 {summary['p50_ms']:.2f}ms  "
                f"p99 {summary['p99_ms']:.2f}ms  max {summary['max_ms']:.2f}ms"
            )
        return "\n".join(lines)


class _Connection:
    """One worker's persistent HTTP connection (reconnects once on failure)."""

    def __init__(self, url: str, timeout: float) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ServingError(f"loadgen needs an http:// URL, got {url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            import socket

            self._conn = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
            self._conn.connect()
            # Headers and body go out as separate writes; without TCP_NODELAY
            # Nagle holds the body back for the server's delayed ACK (~40ms).
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def post_query(self, query: str, method: str) -> tuple[int, int]:
        """POST one query; returns ``(status, answer_count)``.

        Transport failures are reported as status ``0`` (after one
        reconnect attempt), never raised — the load must go on.
        """
        body = json.dumps({"query": query, "method": method})
        for attempt in (0, 1):
            try:
                connection = self._connect()
                connection.request(
                    "POST", "/v1/query", body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    return 0, 0
                continue
            answers = 0
            if response.status == 200:
                try:
                    answers = len(json.loads(payload)["result"]["answers"])
                except (json.JSONDecodeError, KeyError, TypeError):
                    return 0, 0
            return response.status, answers
        return 0, 0  # pragma: no cover - unreachable

    def post_json(self, path: str, payload: dict[str, Any]) -> int:  # pragma: no cover - only run_ingest calls it
        """POST one JSON document; returns the status (0 on transport failure).

        The write-path sibling of :meth:`post_query` (``/v1/append`` and
        ``/v1/extend`` during ingest runs); the response body is drained
        but not parsed.
        """
        body = json.dumps(payload)
        for attempt in (0, 1):
            try:
                connection = self._connect()
                connection.request(
                    "POST", path, body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt:
                    return 0
                continue
            return response.status
        return 0  # pragma: no cover - unreachable


def _summarize(
    mode: str,
    duration_s: float,
    concurrency: int,
    target_rate: float | None,
    samples: list[tuple[str, int, float, int]],
) -> LoadReport:
    report = LoadReport(
        mode=mode, duration_s=duration_s, concurrency=concurrency, target_rate=target_rate
    )
    latencies_by_op: dict[str, list[float]] = {}
    for op, status, latency_s, answers in samples:
        report.requests += 1
        report.ops[op] = report.ops.get(op, 0) + 1
        report.statuses[str(status)] = report.statuses.get(str(status), 0) + 1
        if status == 0:
            report.transport_errors += 1
        elif status == 429:
            report.rejected += 1
        elif 200 <= status < 300:
            report.ok += 1
            report.answers += answers
            latencies_by_op.setdefault(op, []).append(latency_s)
        elif 400 <= status < 500:
            report.client_errors += 1
        else:
            report.server_errors += 1
    for op, latencies in latencies_by_op.items():
        latencies.sort()
        report.op_latency_ms[op] = latency_summary(latencies)
    report.latency_ms = report.op_latency_ms.get("query", latency_summary([]))
    report.qps = report.ok / duration_s if duration_s > 0 else 0.0
    return report


def _closed_samples(
    url: str,
    duration_s: float,
    concurrency: int,
    mix: WorkloadMix,
    method: str,
    seed: int,
    timeout: float,
) -> list[tuple[str, int, float, int]]:
    """The closed-loop worker pool of one process; returns raw samples."""
    deadline = time.monotonic() + duration_s
    all_samples: list[tuple[str, int, float, int]] = []
    merge_lock = threading.Lock()

    def worker(index: int) -> None:
        rng = random.Random(seed * 7919 + index)
        sample_query = mix.sampler(rng)
        connection = _Connection(url, timeout)
        samples: list[tuple[str, int, float, int]] = []
        try:
            while time.monotonic() < deadline:
                query = sample_query()
                start = time.monotonic()
                status, answers = connection.post_query(query, method)
                samples.append(("query", status, time.monotonic() - start, answers))
        finally:
            connection.close()
            with merge_lock:
                all_samples.extend(samples)

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return all_samples


def run_closed(
    url: str,
    duration_s: float = 10.0,
    concurrency: int = 8,
    mix: WorkloadMix | None = None,
    method: str = "mvindex",
    seed: int = 0,
    timeout: float = 30.0,
    processes: int = 1,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` workers back-to-back for ``duration_s``.

    With ``processes > 1`` the worker pool is forked into that many load
    *processes* (``concurrency`` threads each), and the raw samples are
    merged in the parent so percentiles stay exact.  A single Python
    process tops out around a few thousand requests/s on its own GIL —
    not enough to saturate a multi-replica fleet, which would silently
    turn a server benchmark into a client benchmark.
    """
    mix = mix or WorkloadMix()
    # Fail fast (in the caller's thread) on a bad URL or workload mix —
    # inside a worker these would die silently into an empty report.
    _Connection(url, timeout).close()
    mix.population()
    if processes < 1:
        raise ServingError(f"processes must be >= 1, got {processes}")
    if processes == 1:
        start = time.monotonic()
        samples = _closed_samples(url, duration_s, concurrency, mix, method, seed, timeout)
        elapsed = time.monotonic() - start
        return _summarize("closed", elapsed, concurrency, None, samples)

    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise ServingError("processes > 1 requires the 'fork' start method (POSIX)")
    context = multiprocessing.get_context("fork")

    def child(index: int, conn: Any) -> None:
        samples = _closed_samples(
            url, duration_s, concurrency, mix, method, seed + 7907 * (index + 1), timeout
        )
        conn.send(samples)
        conn.close()

    pipes = []
    children = []
    start = time.monotonic()
    for index in range(processes):
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(target=child, args=(index, child_conn), daemon=True)
        process.start()
        child_conn.close()
        pipes.append(parent_conn)
        children.append(process)
    all_samples: list[tuple[str, int, float, int]] = []
    for parent_conn, process in zip(pipes, children):
        try:
            # Receive BEFORE join: a child blocked on a full pipe buffer
            # cannot exit, so joining first would deadlock on big samples.
            all_samples.extend(parent_conn.recv())
        except EOFError:  # pragma: no cover - a load child crashed
            pass
        parent_conn.close()
        process.join()
    elapsed = time.monotonic() - start
    return _summarize("closed", elapsed, concurrency * processes, None, all_samples)


def run_open(
    url: str,
    duration_s: float = 10.0,
    rate: float = 50.0,
    mix: WorkloadMix | None = None,
    method: str = "mvindex",
    seed: int = 0,
    max_outstanding: int = 64,
    timeout: float = 30.0,
) -> LoadReport:
    """Open-loop load: arrivals on a fixed ``rate``/s schedule.

    Up to ``max_outstanding`` requests run concurrently; when the server
    falls behind the schedule, the measured latency grows to include the
    queueing delay — that is the point of an open loop.
    """
    if rate <= 0:
        raise ServingError(f"open-loop rate must be positive, got {rate}")
    mix = mix or WorkloadMix()
    _Connection(url, timeout).close()  # fail fast on a bad URL
    mix.population()
    rng = random.Random(seed * 104729 + 1)
    sample_query = mix.sampler(rng)
    local = threading.local()
    all_samples: list[tuple[str, int, float, int]] = []
    merge_lock = threading.Lock()
    slots = threading.Semaphore(max_outstanding)

    def fire(query: str, scheduled: float) -> None:
        # The slot MUST be released and the sample recorded no matter what:
        # a raising fire() would otherwise leak its slot and eventually
        # deadlock the arrival loop on slots.acquire().
        status, answers = 0, 0
        try:
            connection = getattr(local, "connection", None)
            if connection is None:
                connection = local.connection = _Connection(url, timeout)
            status, answers = connection.post_query(query, method)
        finally:
            # Latency is measured from the *scheduled* arrival, so schedule
            # slip (the server falling behind) shows up as latency.
            latency = time.monotonic() - scheduled
            with merge_lock:
                all_samples.append(("query", status, latency, answers))
            slots.release()

    from concurrent.futures import ThreadPoolExecutor

    start = time.monotonic()
    planned = int(duration_s * rate)
    with ThreadPoolExecutor(max_workers=max_outstanding) as pool:
        for index in range(planned):
            scheduled = start + index / rate
            now = time.monotonic()
            if scheduled > now:
                time.sleep(scheduled - now)
            slots.acquire()
            # The TRUE scheduled arrival is the latency baseline: when the
            # server (or the outstanding-slot cap) falls behind the
            # schedule, the slip must show up as latency — that is the
            # entire point of an open loop.
            pool.submit(fire, sample_query(), scheduled)
    elapsed = time.monotonic() - start
    return _summarize("open", elapsed, max_outstanding, rate, all_samples)


def dblp_ingest_facts(
    batch_index: int, batch_size: int = 4, base_id: int = 900000
) -> dict[str, list]:
    """A ``/v1/append`` payload of fresh synthetic DBLP facts.

    Batches are disjoint (author ids start at ``base_id`` and advance by
    ``batch_size`` per batch), so every append adds genuinely new tuples —
    a deterministic Author row plus a probabilistic Student row per id.
    The new ids join none of the workload queries' entities, which keeps
    the read answers stable while the write path stays genuinely busy.
    """
    start = base_id + batch_index * batch_size
    return {
        "Author": [[start + i, f"Ingest Author {start + i}"] for i in range(batch_size)],
        "Student": [[[start + i, 2020], 1.5] for i in range(batch_size)],
    }


def run_ingest(  # pragma: no cover - 'repro ingest' load driver, untested
    url: str,
    duration_s: float = 15.0,
    concurrency: int = 4,
    mix: WorkloadMix | None = None,
    method: str = "mvindex",
    seed: int = 0,
    timeout: float = 30.0,
    append_interval_s: float = 1.0,
    append_batch: int = 4,
    extend_spec: dict[str, Any] | None = None,
) -> LoadReport:
    """Mixed read/write load: closed-loop queries plus an open-loop writer.

    ``concurrency`` query workers hammer ``/v1/query`` back-to-back for the
    whole run while one writer thread streams a fact append
    (:func:`dblp_ingest_facts`, ``append_batch`` ids per batch) every
    ``append_interval_s`` seconds and — when ``extend_spec`` is given —
    fires exactly one ``/v1/extend`` mid-run.  Writer operations arrive on
    their schedule regardless of how long they take (open loop), so a
    blocking write path shows up as read-latency spikes in the query
    histogram, tagged separately from the ``append`` / ``extend`` entries in
    ``op_latency_ms``.
    """
    mix = mix or WorkloadMix()
    _Connection(url, timeout).close()  # fail fast on a bad URL
    mix.population()
    if append_interval_s <= 0:
        raise ServingError(f"append_interval_s must be positive, got {append_interval_s}")
    start = time.monotonic()
    deadline = start + duration_s
    writer_samples: list[tuple[str, int, float, int]] = []

    def writer() -> None:
        connection = _Connection(url, timeout)
        batch_index = 0
        extended = extend_spec is None
        try:
            while True:
                scheduled = start + batch_index * append_interval_s
                now = time.monotonic()
                if scheduled >= deadline:
                    return
                if scheduled > now:
                    time.sleep(scheduled - now)
                if not extended and time.monotonic() - start >= duration_s / 2.0:
                    fired = time.monotonic()
                    status = connection.post_json("/v1/extend", dict(extend_spec))
                    writer_samples.append(("extend", status, time.monotonic() - fired, 0))
                    extended = True
                fired = time.monotonic()
                status = connection.post_json(
                    "/v1/append", {"facts": dblp_ingest_facts(batch_index, append_batch)}
                )
                writer_samples.append(("append", status, time.monotonic() - fired, 0))
                batch_index += 1
        finally:
            connection.close()

    writer_thread = threading.Thread(target=writer, daemon=True)
    writer_thread.start()
    samples = _closed_samples(url, duration_s, concurrency, mix, method, seed, timeout)
    writer_thread.join(timeout=timeout)
    elapsed = time.monotonic() - start
    return _summarize("ingest", elapsed, concurrency, None, samples + writer_samples)


def fetch_stats(url: str, timeout: float = 10.0) -> dict[str, Any]:
    """GET ``/v1/stats`` from a running server (for probes and smoke checks)."""
    import urllib.request

    with urllib.request.urlopen(url.rstrip("/") + "/v1/stats", timeout=timeout) as response:
        return json.loads(response.read())

"""The untraced end-to-end runs: set-up, warm-up, measured phase, checks.

Three shapes, one per workload kind:

* ``inprocess`` — ``repro.dblp.build_mvdb`` + ``repro.connect`` + ``ProbDB.query``;
* ``serve`` — one ``repro serve`` (or ``--replicas 2`` fleet) process driven over
  two keep-alive connections;
* ``ingest`` — one ``repro serve`` with standing queries, one closed-loop writer
  and one reader connection, paced in rounds of one append.

Every measured phase is a fixed, seeded operation sequence walked in a closed
loop until ``seconds`` have passed (the sequence is generated far longer than
the program can consume).  Nothing from :mod:`layers` is patched in here.

Every set-up and every measured phase runs inside a :class:`driver.Calibration`
and its times are reported at the reference speed (README.md, "Reference
speed"); memory and counts are as measured.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import checks
import driver
from workloads import (
    DATA_SEED, READS_AFTER_APPEND, READS_BESIDE_APPEND, Inputs, Scale, Workload,
)


@dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    #: metric name -> value (units live in BENCHMARK.json; ``None`` = unmeasurable).
    metrics: dict[str, float | None] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float | None) -> None:
        self.metrics[name] = value


def check_oracle(outcome: Outcome, seed: int) -> None:
    checked, wrong = checks.oracle_failures(seed)
    outcome.attempted += checked
    outcome.failed += wrong


def percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def latency_metrics(
    outcome: Outcome, latencies_s: list[float], wall_s: float, correct: int, slowdown: float
) -> None:
    """Rate and latency percentiles of a measured phase, at the reference speed.

    ``slowdown`` is the phase's :class:`driver.Calibration` reading: times are
    divided by it and the rate multiplied.  The ``#`` notes carry the values
    as the clock read them.
    """
    ordered = sorted(latencies_s)
    outcome.put("ops_per_s", correct / wall_s * slowdown)
    outcome.put("query_p50_ms", percentile(ordered, 0.50) * 1000.0 / slowdown)
    outcome.put("query_p95_ms", percentile(ordered, 0.95) * 1000.0 / slowdown)
    outcome.notes.append(
        f"measured phase at slowdown {slowdown:.4f}; as the clock read it: "
        f"ops_per_s {correct / wall_s:.3f}, latency over {len(ordered)} samples in {wall_s:.3f}s; "
        + " ".join(f"p{q} {percentile(ordered, q / 100) * 1000.0:.3f}"
                   for q in (80, 90, 92, 94, 96, 98, 99))
        + f" max {ordered[-1] * 1000.0:.3f} ms"
    )


@contextlib.contextmanager
def timed_setup(setups: list[tuple[float, float]]) -> Iterator[None]:
    """Times one set-up; appends (seconds, the box's slowdown meanwhile)."""
    with driver.Calibration() as calibration:
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
    setups.append((elapsed, calibration.slowdown))


def put_setup(outcome: Outcome, setups: list[tuple[float, float]]) -> None:
    """``setup_s``: the median set-up, each at the reference speed."""
    outcome.put("setup_s", statistics.median(seconds / slow for seconds, slow in setups))
    outcome.notes.append(
        f"setups as the clock read them {[round(seconds, 3) for seconds, _ in setups]} "
        f"at slowdowns {[round(slow, 4) for _, slow in setups]}")


# ---------------------------------------------------------------- in-process
def build_probdb(groups: int, backend: str | None) -> Any:
    """One full offline pipeline through the front door (what ``setup_s`` times)."""
    import repro
    from repro.dblp import DblpConfig, build_mvdb

    workload = build_mvdb(DblpConfig(group_count=groups, seed=DATA_SEED), backend=backend)
    db = repro.connect(workload.mvdb, backend=backend)
    db.warm()
    return db


def run_inprocess(
    workload: Workload, inputs: Inputs, seed: int, seconds: float, scale: Scale
) -> Outcome:
    outcome = Outcome()
    sample_queries = [inputs.strings[index] for index in inputs.sample]
    setups: list[tuple[float, float]] = []
    expected: list[checks.Answers] = []
    verify_s = 0.0
    db = None
    for repeat in range(scale.setups):
        db = None
        gc.collect()  # closes the previous repeat's sqlite files
        with timed_setup(setups):
            db = build_probdb(scale.groups, workload.backend)
        if repeat == 0:
            # The first engine is the independent path's: answered here, then
            # dropped (with --smoke's single set-up it is also the measured one).
            started = time.perf_counter()
            expected = checks.independent_answers(
                db.engine, sample_queries, workload.verify_skip_off
            )
            verify_s += time.perf_counter() - started
    assert db is not None
    for index in inputs.warm:
        db.query(inputs.strings[index])

    results: dict[int, Any] = {}
    latencies: list[float] = []
    clock = time.perf_counter
    with driver.Calibration() as calibration:
        begin = clock()
        deadline = begin + seconds
        for index in inputs.ops:
            started = clock()
            results[index] = db.query(inputs.strings[index])
            finished = clock()
            latencies.append(finished - started)
            if finished >= deadline:
                break
        wall = clock() - begin
    outcome.put("peak_rss_mb", driver.peak_rss_mb())

    from repro.numerics import GATE_PROBABILITY_ULPS

    started = time.perf_counter()
    for index, answers in zip(inputs.sample, expected):
        first = results[index] if index in results else db.query(inputs.strings[index])
        again = db.query(inputs.strings[index])  # a cache hit now: must not drift
        outcome.attempted += 2
        outcome.failed += not checks.same_answers(
            answers, first.to_dict(), GATE_PROBABILITY_ULPS)
        outcome.failed += first.to_json()["answers"] != again.to_json()["answers"]
    check_oracle(outcome, seed)
    outcome.attempted += len(latencies)
    verify_s += time.perf_counter() - started

    put_setup(outcome, setups)
    latency_metrics(outcome, latencies, wall, len(latencies), calibration.slowdown)
    if len(latencies) == len(inputs.ops):
        outcome.notes.append("operation sequence exhausted before the clock ended the run")
    outcome.notes.append(f"verify_s {verify_s:.3f}")
    return outcome


# -------------------------------------------------------------------- servers
def spawn_warm(
    source_dir: Path, workload: Workload, inputs: Inputs, groups: int,
    bodies: list[bytes], outcome: Outcome,
) -> driver.Server:
    """Spawn -> URL printed -> warm pass (what ``setup_s`` times for a server)."""
    server = driver.Server(source_dir, groups, DATA_SEED, replicas=workload.replicas)
    try:
        connection = server.connect()
        try:
            for index in inputs.warm:
                status, _ = connection.post("/v1/query", bodies[index])
                outcome.attempted += 1
                outcome.failed += status != 200
        finally:
            connection.close()
    except BaseException:
        server.stop()
        raise
    return server


def read_phase(
    server: driver.Server, inputs: Inputs, ops: list[int], bodies: list[bytes],
    connections: int, seconds: float | None = None, writer: Any = None,
    rounds: driver.Rounds | None = None,
) -> tuple[list[driver.ReadLoop], float, float]:
    """Closed-loop readers over ``ops``, one lane per connection.

    The phase ends when ``writer`` returns, else after ``seconds``, else when
    every lane has walked its whole operation list (the traced run's fixed
    counts).  ``rounds``: see :class:`driver.Rounds`.  Returns the lanes, the
    phase's wall seconds and the box's slowdown while it lasted.
    """
    first_answers: dict[tuple[int, int], bytes] = {}
    opened = [server.connect() for _ in range(connections)]
    loops = [
        driver.ReadLoop(connection, bodies, inputs.canonical,
                        ops[lane::connections], first_answers)
        for lane, connection in enumerate(opened)
    ]
    stop = threading.Event()
    keep = frozenset(inputs.sample)
    threads = [threading.Thread(target=loop.run, args=(stop, keep, rounds)) for loop in loops]
    with driver.Calibration() as calibration:
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            if writer is not None:
                writer()
            elif seconds is not None:
                stop.wait(seconds)
            else:
                for thread in threads:
                    thread.join()
        finally:
            stop.set()
            if rounds is not None:
                rounds.grant(len(threads))  # wake readers waiting for the writer
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - begin
            for connection in opened:
                connection.close()
    for loop in loops:
        if loop.error is not None:
            raise loop.error
    return loops, wall, calibration.slowdown


def server_errors(stats: dict[str, Any]) -> int:
    """5xx responses the server itself counted (``/v1/stats``)."""
    return sum(count for status, count in stats["errors"]["responses_by_status"].items()
               if status.startswith("5"))


def repeated_setups(
    source_dir: Path, workload: Workload, inputs: Inputs, groups: int, bodies: list[bytes],
    outcome: Outcome, repeats: int,
) -> driver.Server:
    """Spawn + warm ``repeats`` servers in turn (``setup_s``); the last one stays up."""
    setups: list[tuple[float, float]] = []
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        with timed_setup(setups):
            server = spawn_warm(source_dir, workload, inputs, groups, bodies, outcome)
    assert server is not None
    put_setup(outcome, setups)
    return server


def expected_answers(inputs: Inputs, groups: int) -> tuple[list[checks.Answers], float]:
    """The sample re-answered on a freshly built in-process engine."""
    started = time.perf_counter()
    db = build_probdb(groups, None)
    expected = checks.independent_answers(
        db.engine, [inputs.strings[index] for index in inputs.sample]
    )
    return expected, time.perf_counter() - started


def fold_reads(
    outcome: Outcome, loops: list[driver.ReadLoop], wall: float, slowdown: float,
    acked_writes: int = 0,
) -> None:
    """Query latency, and the rate of every correct request of the phase.

    ``acked_writes``: the appends of ``ingest_subscribe`` (counted in
    ``attempted`` by the writer already): requests like its reads, so its
    ``ops_per_s`` is rounds of one append and its reads per second.
    """
    samples = [latency for loop in loops for _, latency in loop.samples]
    failed = sum(loop.failed for loop in loops)
    outcome.attempted += len(samples)
    outcome.failed += failed
    if any(loop.exhausted for loop in loops):
        outcome.notes.append("operation sequence exhausted before the clock ended the run")
    latency_metrics(outcome, samples, wall, len(samples) - failed + acked_writes, slowdown)


def run_serve(
    workload: Workload, inputs: Inputs, seed: int, seconds: float, scale: Scale, source_dir: Path
) -> Outcome:
    from repro.numerics import GATE_PROBABILITY_ULPS

    outcome = Outcome()
    bodies = inputs.bodies()
    checks.assert_spellings_canonical(inputs.strings, inputs.canonical)
    expected, verify_s = expected_answers(inputs, scale.groups)
    server = repeated_setups(
        source_dir, workload, inputs, scale.groups, bodies, outcome, scale.setups
    )
    try:
        loops, wall, slowdown = read_phase(
            server, inputs, inputs.ops, bodies, 2, seconds=seconds)
        outcome.put("peak_rss_mb", server.peak_rss_mb())

        started = time.perf_counter()
        connection = server.connect()
        try:
            for index, answers in zip(inputs.sample, expected):
                body = next((loop.last_body[index] for loop in loops if index in loop.last_body),
                            None)
                if body is None:  # not reached before the clock stopped
                    status, body = connection.post("/v1/query", bodies[index])
                    outcome.failed += status != 200
                outcome.attempted += 1
                got = checks.answers_of_json(json.loads(body)["result"])
                outcome.failed += not checks.same_answers(answers, got, GATE_PROBABILITY_ULPS)
        finally:
            connection.close()
        stats = server.stats()
        outcome.failed += server_errors(stats)
        check_oracle(outcome, seed)
        verify_s += time.perf_counter() - started
    finally:
        server.stop()
    fold_reads(outcome, loops, wall, slowdown)
    cache = stats["cache"]
    outcome.notes.append(
        f"verify_s {verify_s:.3f}; hit ratios "
        + ", ".join(f"{tier} {cache[tier]['hit_ratio']:.3f}"
                    for tier in ("string", "result", "lineage"))
    )
    return outcome


# --------------------------------------------------------------------- ingest
@dataclass
class IngestReport:
    """What the ingest phase observed (shared with the traced run)."""

    loops: list[driver.ReadLoop]
    wall: float
    slowdown: float
    write_latencies: list[float]
    acked: list[dict[str, list]]
    register_ms: list[float]
    tick_ms: list[float]
    notify_lag_ms: list[float]
    stats_before: dict[str, Any]
    stats: dict[str, Any]
    notifications: list[dict[str, Any]]


def ingest_phase(
    server: driver.Server, inputs: Inputs, bodies: list[bytes], outcome: Outcome,
    seconds: float | None, appends: int | None,
) -> IngestReport:
    """Register the standing queries, then write beside one reader.

    The writer is closed-loop: the next ``/v1/append`` goes out when the
    previous one was acknowledged (the ack includes the synchronous
    subscription tick).  It stops after ``appends`` rounds, or with the first
    round that ends past ``seconds``.  The reader is closed-loop too, paced by
    the writer's rounds: ``READS_BESIDE_APPEND`` requests go out while the
    append is in flight and ``READS_AFTER_APPEND`` once it was acknowledged,
    and the next append waits for their answers.
    """
    stats_before = server.stats()
    control = server.connect()
    register_ms: list[float] = []
    write_latencies: list[float] = []
    acked: list[dict[str, list]] = []
    tick_ms: list[float] = []
    notify_lag_ms: list[float] = []
    notifications: list[dict[str, Any]] = []
    rounds = driver.Rounds()
    try:
        for spec in inputs.subscriptions:
            started = time.perf_counter()
            status, _ = control.post_json("/v1/subscribe", spec)
            register_ms.append((time.perf_counter() - started) * 1000.0)
            outcome.attempted += 1
            outcome.failed += status != 200

        def writer() -> None:
            cursor = 0
            deadline = None if seconds is None else time.perf_counter() + seconds
            for count, payload in enumerate(inputs.appends):
                if appends is not None and count >= appends:
                    break
                rounds.grant(READS_BESIDE_APPEND)
                started = time.perf_counter()
                status, _ = control.post_json("/v1/append", {"facts": payload})
                finished = time.perf_counter()
                outcome.attempted += 1
                if status != 200:
                    outcome.failed += 1
                    rounds.wait(READS_BESIDE_APPEND)
                    continue
                write_latencies.append(finished - started)
                acked.append(payload)
                # The tick is synchronous with the ack, so the stream is
                # already at its head: this read is the notification lag a
                # long-poller resumed at ``cursor`` would still pay.
                _, page = control.post_json(
                    "/v1/notifications", {"since": cursor, "wait_s": 0, "limit": 1000}
                )
                notify_lag_ms.append((time.perf_counter() - finished) * 1000.0)
                notifications.extend(page["notifications"])
                cursor = page["next"]
                _, document = control.get_json("/v1/stats")
                tick_ms.append(document["subscriptions"]["last_tick_ms"])
                rounds.grant(READS_AFTER_APPEND)
                rounds.wait(READS_BESIDE_APPEND + READS_AFTER_APPEND)
                if deadline is not None and time.perf_counter() >= deadline:
                    break

        loops, wall, slowdown = read_phase(server, inputs, inputs.ops, bodies, 1,
                                           writer=writer, rounds=rounds)
        stats = server.stats()
    finally:
        control.close()
    return IngestReport(loops, wall, slowdown, write_latencies, acked, register_ms, tick_ms,
                        notify_lag_ms, stats_before, stats, notifications)


def check_ingest(
    server: driver.Server, inputs: Inputs, bodies: list[bytes], report: IngestReport,
    outcome: Outcome, groups: int,
) -> None:
    """After the writes: rebuild parity, gapless notifications, no 5xx."""
    from repro.numerics import INCREMENTAL_REBUILD_ULPS

    sequence = [notification["seq"] for notification in report.notifications]
    outcome.attempted += 1
    outcome.failed += sequence != list(range(1, len(sequence) + 1))
    outcome.failed += server_errors(report.stats)
    queries = [inputs.strings[index] for index in inputs.sample]
    expected = checks.rebuilt_answers(groups, DATA_SEED, report.acked, queries)
    connection = server.connect()
    try:
        for index, answers in zip(inputs.sample, expected):
            status, body = connection.post("/v1/query", bodies[index])
            outcome.attempted += 1
            if status != 200:
                outcome.failed += 1
                continue
            got = checks.answers_of_json(json.loads(body)["result"])
            outcome.failed += not checks.same_answers(answers, got, INCREMENTAL_REBUILD_ULPS)
    finally:
        connection.close()


def run_ingest(
    workload: Workload, inputs: Inputs, seed: int, seconds: float, scale: Scale, source_dir: Path
) -> Outcome:
    outcome = Outcome()
    bodies = inputs.bodies()
    groups = scale.ingest_groups
    checks.assert_spellings_canonical(inputs.strings, inputs.canonical)
    server = repeated_setups(
        source_dir, workload, inputs, groups, bodies, outcome, scale.setups
    )
    try:
        report = ingest_phase(server, inputs, bodies, outcome, seconds, None)
        outcome.put("peak_rss_mb", server.peak_rss_mb())
        started = time.perf_counter()
        check_ingest(server, inputs, bodies, report, outcome, groups)
        check_oracle(outcome, seed)
        verify_s = time.perf_counter() - started
    finally:
        server.stop()
    fold_reads(outcome, report.loops, report.wall, report.slowdown, len(report.write_latencies))
    subscriptions = report.stats["subscriptions"]
    writes = len(report.write_latencies)
    outcome.notes.append(
        f"verify_s {verify_s:.3f}; {writes} appends acked "
        f"(writes_per_s {writes / report.wall:.3f}, write_p50_ms "
        f"{statistics.median(report.write_latencies) * 1000.0:.1f}) beside "
        f"{sum(len(loop.samples) for loop in report.loops)} reads; "
        f"{subscriptions['notifications_total']} notifications, "
        f"{subscriptions['skips_total']} skips / {subscriptions['evaluations_total']} evaluations"
    )
    return outcome

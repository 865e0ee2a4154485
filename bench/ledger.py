"""The traced run: the per-layer ledger, measured from outside the program.

Four parts, all on inputs drawn from the run's seed, all with fixed operation
counts (derived from ``--seconds``), so the starred counters of README.md
repeat bit-for-bit:

A. *engine trace* — the offline pipeline and a slice of the workload's own
   queries through ``ProbDB.query``, once untraced and once with the spans of
   :mod:`layers` installed (their difference is the tracing overhead);
B. *HTTP probes* — serial one-connection probes of a ``--replicas 2`` fleet:
   direct to a replica (the server layer) and through the router (the hop);
C. *write path* — a short, fixed ``ingest_subscribe`` run over HTTP plus an
   in-process ``Dispatcher.append_facts`` with the prepare/apply spans;
D. *observation* — the workload on its own topology for a fixed number of
   operations, read through ``/v1/stats`` deltas (cache-tier shares, router
   counters) and the harness's own latency samples.

Every per-layer metric of BENCHMARK.json is measured in every traced run: a
layer's cost on this workload's inputs is defined even where the workload
barely exercises it, and "flat here" is part of the contract (README.md).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any

import driver
import layers
import measure
import workloads
from measure import Outcome
from workloads import Inputs, Scale, Workload


def _mean_ms(seconds: float, count: int) -> float:
    return seconds * 1000.0 / max(count, 1)


def _calibration_loop() -> float:
    """A fixed pure-Python loop: how fast this machine runs the interpreter."""
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value & 0xFF
    return time.perf_counter() - started


# ------------------------------------------------------------ A: engine trace
def trace_engine(
    workload: Workload, inputs: Inputs, seconds: float, scale: Scale,
    groups: int, work: Path, outcome: Outcome, tracer: layers.Tracer,
) -> None:
    import repro

    put = outcome.put
    tracer.install()
    try:
        with tracer.request("setup"):
            db = measure.build_probdb(groups, workload.backend)
        with tracer.request("artifact"):
            path = db.save(work / "artifact.json.gz")
            repro.open(path)
    finally:
        tracer.uninstall()
    stage = tracer.totals()
    for span in ("dblp.generate", "core.translate", "indb.w_lineage", "mvindex.build",
                 "mvindex.summaries.build", "mvindex.flat_prewarm",
                 "serving.artifact.save", "serving.artifact.load"):
        put(f"{span}_s", stage[span][0] if span in stage else None)
    put("serving.artifact.bytes", path.stat().st_size)
    info = db.stats()
    put("mvindex.components", info["index_components"])
    put("mvindex.nodes", info["index_nodes"])
    put("obdd.build_apply_steps", layers.read_attr(db, "engine.mv_index.manager.apply_steps"))

    # The slice: the first distinct canonical queries of the workload's own
    # operation sequence, each once (so both passes are cold).
    wanted = max(4, int(seconds * workload.slice_rate))
    seen: dict[int, int] = {}
    for op in inputs.ops:
        seen.setdefault(inputs.canonical[op], op)
        if len(seen) == wanted:
            break
    queries = [inputs.strings[index] for index in seen.values()]
    count = len(queries)

    # Lazy per-engine state (table indexes, flat encodings) is built by the
    # first queries; the reserved warm-up queries pay for it, not a pass.
    warm = repro.ProbDB(db.engine)
    for index in inputs.warm[:24]:
        warm.query(inputs.strings[index])
    untraced = repro.ProbDB(db.engine)
    latencies = []
    begin = time.perf_counter()
    for text in queries:
        started = time.perf_counter()
        untraced.query(text)
        latencies.append(time.perf_counter() - started)
    wall_untraced = time.perf_counter() - begin
    cold_info = untraced.stats()
    hot = queries[: min(count, 128)]
    started = time.perf_counter()
    for text in hot:
        untraced.query(text)
    put("serving.session.hit_ms", _mean_ms(time.perf_counter() - started, len(hot)))
    put("serving.session.miss_ms", _mean_ms(wall_untraced, count))

    traced = repro.ProbDB(db.engine)
    before = len(tracer.spans)
    tracer.install(("query.", "serving.canonical", "mvindex.", "methods.", "obdd.", "results."))
    try:
        results = []
        started = time.perf_counter()
        for text in queries:
            with tracer.request():
                results.append(traced.query(text))
        wall_traced = time.perf_counter() - started
        json_bytes = 0
        for result in results:
            with tracer.request("render"):
                # Only the answers: the rest of the document carries timings.
                json_bytes += len(json.dumps(result.to_json()["answers"]))
    finally:
        tracer.uninstall()
    totals = tracer.totals(before)
    requests_s = totals["request"][0]

    def per_request(span: str) -> float | None:
        if span in tracer.unavailable:
            return None
        return _mean_ms(totals[span][0] if span in totals else 0.0, count)

    put("query.parse_ms", per_request("query.parse"))
    put("serving.canonical.key_ms", per_request("serving.canonical.key"))
    put("mvindex.summaries.analyze_ms", per_request("mvindex.summaries.analyze"))
    put("query.evaluator.lineage_ms", per_request("query.evaluator.lineage"))
    put("methods.probability_ms", per_request("methods.probability"))
    put("obdd.compile_ms", per_request("obdd.compile"))
    intersect, compile_ = per_request("mvindex.intersect"), per_request("obdd.compile")
    put("mvindex.intersect_ms",
        None if intersect is None or compile_ is None else intersect - compile_)
    put("mvindex.touched_factor_ms", per_request("mvindex.touched_factor"))
    put("results.to_json_ms", per_request("results.to_json"))
    put("results.json_bytes", json_bytes)
    put("query.evaluator.clauses",
        sum(answer.lineage_size for result in results for answer in result.answers))
    put("query.evaluator.answers", sum(len(result) for result in results))
    put("obdd.query_nodes", sum(result.obdd_nodes for result in results))
    put("mvindex.pair_expansions", sum(result.steps for result in results))
    put("mvindex.touched_components",
        sum(result.touched_components for result in results))
    info = traced.stats()
    analysed = info["skipped_components"] + info["relevant_components"]
    put("mvindex.summaries.skipped_share", info["skipped_components"] / max(analysed, 1))
    put("trace.request_ms", _mean_ms(requests_s, count))
    put("trace.coverage", tracer.top_level_seconds("request") / requests_s)
    put("trace.overhead_share", (wall_traced - wall_untraced) / wall_untraced)
    outcome.attempted += 2 * count + len(hot)

    # Dispatcher.execute on the string tier, in-process: no HTTP, no JSON.
    dispatcher_class = layers.dispatcher_class()
    if dispatcher_class is None:
        put("serving.dispatch.hit_ms", None)
        outcome.notes.append("serving.dispatch.hit_ms: Dispatcher not found")
    else:
        dispatcher = dispatcher_class(db.engine)
        try:
            for text in hot:
                dispatcher.execute(text)
            started = time.perf_counter()
            for text in hot:
                dispatcher.execute(text)
            put("serving.dispatch.hit_ms",
                _mean_ms(time.perf_counter() - started, len(hot)))
        finally:
            dispatcher.close()

    if workload.kind == "inprocess":
        # D for the in-process workloads is this very slice: no string tier,
        # no dispatcher, one engine-owning process.
        results_seen = cold_info["result_hits"] + cold_info["result_misses"]
        lineages_seen = cold_info["lineage_hits"] + cold_info["lineage_misses"]
        put("serving.dispatch.string_hit_share", 0.0)
        put("serving.session.result_hit_share",
            cold_info["result_hits"] / max(results_seen, 1))
        put("serving.session.lineage_hit_share",
            cold_info["lineage_hits"] / max(lineages_seen, 1))
        put("serving.engine_miss_share", 1.0)
        for name in ("serving.dispatch.coalesced", "serving.dispatch.rejected",
                     "serving.server.responses_5xx", "serving.router.retries",
                     "serving.router.upstream_errors"):
            put(name, 0)
        put("serving.router.slot_share_max", 1.0)
        put("query_p99_ms", measure.percentile(sorted(latencies), 0.99) * 1000.0)


# -------------------------------------------------------------- B: HTTP probes
def probe_http(server: driver.Server, body: bytes, scale: Scale, outcome: Outcome) -> None:
    """Serial one-connection probes: server layer, router layer, their difference."""
    replica_port = server.replica_ports()[0]

    def median_ms(connection: driver.Connection, request: Any) -> float:
        request(connection)  # warm: the timed requests all hit the string tier
        samples = []
        for _ in range(scale.probe_requests):
            started = time.perf_counter()
            status = request(connection)
            samples.append(time.perf_counter() - started)
            outcome.attempted += 1
            outcome.failed += status != 200
        return statistics.median(samples) * 1000.0

    def query(connection: driver.Connection) -> int:
        return connection.post("/v1/query", body)[0]

    def healthz(connection: driver.Connection) -> int:
        return connection.get_json("/healthz")[0]

    direct, routed = server.connect(replica_port), server.connect()
    try:
        server_hit = median_ms(direct, query)
        outcome.put("serving.server.healthz_ms", median_ms(direct, healthz))
        router_hit = median_ms(routed, query)
    finally:
        direct.close()
        routed.close()
    outcome.put("serving.server.hit_ms", server_hit)
    outcome.put("serving.router.hit_ms", router_hit)
    outcome.put("serving.router.hop_ms", router_hit - server_hit)
    outcome.put("serving.fleet.start_s", server.start_s)


# --------------------------------------------------------------- C: write path
def trace_writes(
    seed: int, seconds: float, scale: Scale, source_dir: Path, outcome: Outcome,
    tracer: layers.Tracer,
) -> measure.IngestReport:
    """The fixed ingest probe: over HTTP with subscriptions, in-process without."""
    put = outcome.put
    ingest = workloads.WORKLOADS["ingest_subscribe"]
    inputs = workloads.make_inputs(ingest, seed, seconds, scale)
    bodies = inputs.bodies()
    groups = scale.ingest_groups
    server = driver.Server(source_dir, groups, workloads.DATA_SEED)
    try:
        report = measure.ingest_phase(server, inputs, bodies, outcome, None, scale.probe_appends)
        measure.check_ingest(server, inputs, bodies, report, outcome, groups)
    finally:
        server.stop()
    outcome.attempted += sum(len(loop.samples) for loop in report.loops)
    outcome.failed += sum(loop.failed for loop in report.loops)
    subscriptions = report.stats["subscriptions"]
    put("subscribe.register_ms", statistics.mean(report.register_ms))
    put("subscribe.tick_ms", statistics.mean(report.tick_ms))
    put("subscribe.notify_lag_ms", statistics.mean(report.notify_lag_ms))
    put("subscribe.evaluations", subscriptions["evaluations_total"])
    put("subscribe.skips", subscriptions["skips_total"])
    put("subscribe.notifications", subscriptions["notifications_total"])
    decided = subscriptions["evaluations_total"] + subscriptions["skips_total"]
    put("subscribe.skipped_share", subscriptions["skips_total"] / max(decided, 1))
    put("writes_per_s", len(report.write_latencies) / report.wall)
    put("write_p50_ms", statistics.median(report.write_latencies) * 1000.0)

    # The same payloads through Dispatcher.append_facts without any standing
    # query: what the tick adds is the difference to write_p50_ms.
    spans = ("core.prepare_append", "core.apply_pending", "serving.dispatch.append")
    dispatcher_class = layers.dispatcher_class()
    if dispatcher_class is None:
        for span in spans:
            put(f"{span}_ms", None)
        outcome.notes.append("write-path spans: null — Dispatcher not found")
        return report
    db = measure.build_probdb(groups, None)
    before = len(tracer.spans)
    tracer.install(spans)
    try:
        dispatcher = dispatcher_class(db.engine)
        try:
            for payload in inputs.appends[: scale.probe_appends]:
                dispatcher.append_facts(payload)
        finally:
            dispatcher.close()
    finally:
        tracer.uninstall()
    totals = tracer.totals(before)
    for span in spans:
        seconds_total = totals[span][0] if span in totals else 0.0
        put(f"{span}_ms", None if span in tracer.unavailable
            else _mean_ms(seconds_total, scale.probe_appends))
    return report


# -------------------------------------------------------------- D: observation
def _at(document: dict[str, Any], *path: str) -> Any:
    for part in path:
        document = document[part]
    return document


def observe(
    before: dict[str, Any], after: dict[str, Any], loops: list[driver.ReadLoop],
    slot_share_max: float, outcome: Outcome,
) -> None:
    """Cache-tier shares and serving counters between two ``/v1/stats`` documents."""
    put = outcome.put
    requests = sum(len(loop.samples) for loop in loops)

    def delta(*path: str) -> float:
        return _at(after, *path) - _at(before, *path)

    def hit_share(tier: str) -> float:
        hits = delta("cache", tier, "hits")
        return hits / max(hits + delta("cache", tier, "misses"), 1)

    put("serving.dispatch.string_hit_share", hit_share("string"))
    put("serving.session.result_hit_share", hit_share("result"))
    put("serving.session.lineage_hit_share", hit_share("lineage"))
    put("serving.engine_miss_share", delta("cache", "lineage", "misses") / max(requests, 1))
    put("serving.dispatch.coalesced", delta("admission", "coalesced_total"))
    put("serving.dispatch.rejected", delta("admission", "rejected_total"))
    put("serving.server.responses_5xx",
        measure.server_errors(after) - measure.server_errors(before))
    routed = "router" in after
    put("serving.router.retries", delta("router", "retries_total") if routed else 0)
    put("serving.router.upstream_errors",
        delta("router", "upstream_errors_total") if routed else 0)
    put("serving.router.slot_share_max", slot_share_max)
    samples = sorted(latency for loop in loops for _, latency in loop.samples)
    put("query_p99_ms", measure.percentile(samples, 0.99) * 1000.0)


def _replica_requests(server: driver.Server) -> list[int]:
    """Requests served so far by each replica of a fleet (direct ``/v1/stats``)."""
    counts = []
    for port in server.replica_ports():
        connection = server.connect(port)
        try:
            counts.append(connection.get_json("/v1/stats")[1]["throughput"]["requests_total"])
        finally:
            connection.close()
    return counts


# ----------------------------------------------------------------------- driver
def run_traced(
    workload: Workload, inputs: Inputs, seed: int, seconds: float, scale: Scale,
    source_dir: Path, work: Path,
) -> tuple[Outcome, list[dict[str, Any]]]:
    outcome = Outcome()
    tracer = layers.Tracer()
    groups = scale.ingest_groups if workload.kind == "ingest" else scale.groups
    bodies = inputs.bodies()
    outcome.put("calibration.loop_s", _calibration_loop())
    trace_engine(workload, inputs, seconds, scale, groups, work, outcome, tracer)
    report = trace_writes(seed, seconds, scale, source_dir, outcome, tracer)

    hot_body = bodies[inputs.ops[0]]
    if workload.kind == "serve":
        server = measure.spawn_warm(source_dir, workload, inputs, groups, bodies, outcome)
        try:
            if workload.replicas > 1:
                probe_http(server, hot_body, scale, outcome)
            before = server.stats()
            fleet = workload.replicas > 1
            served_before = _replica_requests(server) if fleet else []
            ops = inputs.ops[: int(seconds * workload.observe_rate)]
            loops, _, _ = measure.read_phase(server, inputs, ops, bodies, 2)
            served = [now - then for now, then in
                      zip(_replica_requests(server) if fleet else [], served_before)]
            observe(before, server.stats(), loops,
                    max(served) / max(sum(served), 1) if served else 1.0, outcome)
            outcome.attempted += sum(len(loop.samples) for loop in loops)
            outcome.failed += sum(loop.failed for loop in loops)
        finally:
            server.stop()
    elif workload.kind == "ingest":
        # The write-path probe *is* this workload at fixed counts: its reader
        # and its server's counters are the observation.
        observe(report.stats_before, report.stats, report.loops, 1.0, outcome)
    if not (workload.kind == "serve" and workload.replicas > 1):
        fleet = driver.Server(source_dir, groups, workloads.DATA_SEED, replicas=2)
        try:
            probe_http(fleet, hot_body, scale, outcome)
        finally:
            fleet.stop()
    for span, reason in sorted(tracer.unavailable.items()):
        outcome.notes.append(f"{span}: null — {reason}")
    return outcome, list(tracer.dump())

"""Scale-out serving tests: hash ring, router, and the replica fleet.

Covers the issue's scale-out contract:

* consistent-hash routing — determinism, full coverage, and key stability
  when a replica dies (the ring is never rebuilt; dead slots are skipped);
* the cluster stats roll-up (``merge_stats``) — counters add, generation
  takes the floor (with ``generation_max`` as the frontier), percentiles
  merge count-weighted;
* router fan-out against live replicas: transport parity with the
  in-process facade, retry-on-transport-failure with no 5xx leaked, 503
  only when every replica is down;
* fleet fault paths over real forked processes: kill -9 mid-load with
  automatic restart, extend-while-serving broadcast keeping all replicas
  byte-identical with an in-process ``ProbDB.extend``, replay of the
  extend log by restarted replicas, and a re-forked follower regenerating
  the byte-identical notification stream of its peers;
* the CLI contract: ``repro serve --port 0 --replicas N`` prints the URL
  only after every replica passed its first health check;
* graceful drain: ``ProbServer.stop()`` must not hang on idle keep-alive
  connections and must wait for in-flight requests.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.dblp.config import DblpConfig
from repro.dblp.workload import build_mvdb
from repro.serving.dispatch import latency_summary, merge_stats
from repro.serving.fleet import ReplicaFleet
from repro.serving.router import HashRing, Router, serve_fleet
from repro.serving.server import ProbServer

GROUPS = 3
SEED = 0

QUERIES = [
    "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
    "n1 like '%Advisor 0%'",
    "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Advisor 1%'",
    "Q :- Student(aid, year), Advisor(aid, aid1)",
]

#: Fast fleet knobs for tests — restarts must resolve in well under a second.
FAST = {"health_interval": 0.15, "restart_backoff": 0.05}


def _extender(spec):
    views = tuple(spec.get("views", ["V1", "V2", "V3"]))
    return build_mvdb(
        DblpConfig(group_count=spec.get("groups", GROUPS), seed=spec.get("seed", SEED)),
        include_views=views,
    ).mvdb


def _answers(result) -> str:
    return json.dumps(result.to_json()["answers"], sort_keys=True)


@pytest.fixture(scope="module")
def engine():
    workload = build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED), include_views=("V1", "V2"))
    return repro.connect(workload.mvdb).engine


@pytest.fixture(scope="module")
def local_db():
    workload = build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED), include_views=("V1", "V2"))
    return repro.connect(workload.mvdb)


# --------------------------------------------------------------------- ring
class TestHashRing:
    def test_deterministic_and_covering(self):
        ring = HashRing([0, 1, 2, 3])
        for key in ("a", "b", "some canonical query key", ""):
            walk = ring.order(key)
            assert walk == ring.order(key)
            assert sorted(walk) == [0, 1, 2, 3]

    def test_keys_spread_over_all_slots(self):
        ring = HashRing([0, 1, 2, 3])
        homes = {ring.order(f"key-{index}")[0] for index in range(200)}
        assert homes == {0, 1, 2, 3}

    def test_dead_slot_skipping_preserves_other_homes(self):
        # The ring is never rebuilt: skipping a dead slot must not move any
        # key whose home replica is still alive (the (K-1)/K guarantee).
        ring = HashRing([0, 1, 2])
        keys = [f"key-{index}" for index in range(100)]
        before = {key: ring.order(key) for key in keys}
        dead = 1
        for key in keys:
            survivors = [slot for slot in before[key] if slot != dead]
            if before[key][0] != dead:
                assert survivors[0] == before[key][0]
            assert [slot for slot in ring.order(key) if slot != dead] == survivors

    def test_single_slot(self):
        ring = HashRing([0])
        assert ring.order("anything") == [0]


# ----------------------------------------------------------------- roll-up
class TestMergeStats:
    def _doc(self, requests=10, generation=1, p50=2.0, count=10, rejected=0):
        return {
            "generation": generation,
            "max_queue": 64,
            "queue_depth": 1,
            "in_flight": 1,
            "throughput": {
                "qps": 5.0,
                "lifetime_qps": 4.0,
                "requests_total": requests,
                "answers_total": requests,
            },
            "latency_ms": {
                "count": count, "p50_ms": p50, "p95_ms": p50 * 2, "p99_ms": p50 * 3,
                "mean_ms": p50, "max_ms": p50 * 4,
            },
            "admission": {
                "queue_depth": 1, "max_queue": 64, "rejected_total": rejected,
                "coalesced_total": 0,
            },
            "errors": {"total": 0, "responses_by_status": {"200": requests}},
            "cache": {
                tier: {"hits": 4, "misses": 6, "hit_ratio": 0.4, "entries": 3}
                for tier in ("string", "result", "lineage")
            },
            "uptime_s": 30.0,
        }

    def test_counters_add_and_generation_takes_floor(self):
        merged = merge_stats([self._doc(requests=10, generation=1),
                              self._doc(requests=30, generation=2)])
        assert merged["throughput"]["requests_total"] == 40
        assert merged["generation"] == 1
        assert merged["generation_max"] == 2
        assert merged["errors"]["responses_by_status"] == {"200": 40}
        assert merged["cache"]["string"]["hits"] == 8
        assert merged["cache"]["string"]["hit_ratio"] == pytest.approx(8 / 20)

    def test_latency_is_count_weighted(self):
        merged = merge_stats([self._doc(p50=1.0, count=10), self._doc(p50=4.0, count=30)])
        assert merged["latency_ms"]["p50_ms"] == pytest.approx(3.25)
        assert merged["latency_ms"]["count"] == 40
        assert merged["latency_ms"]["max_ms"] == pytest.approx(16.0)

    def test_empty_input_has_single_server_shape(self):
        merged = merge_stats([])
        assert merged["generation"] == 0
        assert merged["throughput"]["requests_total"] == 0
        assert merged["latency_ms"] == latency_summary([])
        assert set(merged["cache"]) == {"string", "result", "lineage"}


# ------------------------------------------------------------------- drain
class TestGracefulDrain:
    def test_stop_is_not_blocked_by_idle_keepalive_connections(self, engine):
        server = ProbServer(engine).start()
        # An idle keep-alive connection parks a handler thread in readline;
        # with block_on_close unset, server_close() would join that thread
        # forever.  stop() must return promptly regardless.
        parked = socket.create_connection((server.host, server.port))
        try:
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 3.0
        finally:
            parked.close()

    def test_stop_waits_for_in_flight_requests(self, engine):
        server = ProbServer(engine).start()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        body = json.dumps({"query": QUERIES[0]})
        results = {}

        def slow_request():
            connection.request(
                "POST", "/v1/query", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            results["status"] = response.status
            response.read()

        requester = threading.Thread(target=slow_request)
        requester.start()
        deadline = time.monotonic() + 5.0
        while server.active_requests == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        server.stop()
        requester.join(timeout=10.0)
        connection.close()
        assert results.get("status") == 200
        assert server.active_requests == 0


# ------------------------------------------------- router over a live fleet
@pytest.fixture(scope="module")
def router(engine):
    router = serve_fleet(
        engine,
        replicas=2,
        extender=_extender,
        server_kwargs={"max_queue": 32},
        health_interval=FAST["health_interval"],
    ).start()
    router.fleet.restart_backoff = FAST["restart_backoff"]
    yield router
    router.stop()


@pytest.fixture(scope="module")
def remote(router):
    return repro.connect_remote(router.url)


class TestRouterServing:
    @pytest.mark.parametrize("query", QUERIES)
    def test_transport_parity_through_the_router(self, local_db, remote, query):
        assert _answers(remote.query(query)) == _answers(local_db.query(query))

    def test_batch_parity(self, local_db, remote):
        wire = remote.query_batch(QUERIES)
        local = [local_db.query(query) for query in QUERIES]
        assert [_answers(r) for r in wire] == [_answers(r) for r in local]

    def test_healthz_reports_fleet(self, remote, router):
        health = remote.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["replicas"] == 2
        assert health["replicas_alive"] == 2

    def test_cluster_stats_shape_and_rollup(self, remote, router):
        remote.query(QUERIES[0])
        stats = remote.stats()
        # Single-server document shape, so existing dashboards keep working.
        for section in ("throughput", "latency_ms", "admission", "errors", "cache"):
            assert section in stats
        assert stats["throughput"]["requests_total"] >= 1
        assert stats["generation_max"] >= stats["generation"]
        assert stats["router"]["replicas"] == 2
        assert stats["router"]["replicas_alive"] == 2

    def test_metrics_exposition_includes_fleet_gauges(self, remote):
        text = remote.metrics_text()
        assert "repro_requests_total" in text
        assert "repro_replicas 2" in text
        assert "repro_replicas_alive 2" in text
        assert "repro_replica_restarts_total" in text

    def test_affinity_same_query_same_replica(self, router):
        key = router.routing_key("/v1/query", json.dumps({"query": QUERIES[0]}).encode())
        rephrased = "Q(a) :- Student(a, y), Advisor(a, b), Author(b, n), n like '%Advisor 0%'"
        rekey = router.routing_key("/v1/query", json.dumps({"query": rephrased}).encode())
        assert key == rekey  # canonicalization: re-phrasings share a replica
        assert router.ring.order(key)[0] == router.ring.order(rekey)[0]

    def test_structured_errors_relay(self, router):
        connection = http.client.HTTPConnection(router.host, router.port, timeout=30)
        try:
            connection.request(
                "POST", "/v1/query", body=json.dumps({"query": "not a query ("}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
            assert response.status == 400
            assert json.loads(payload)["error"]["type"] == "parse_error"
            # And the connection survives for the next request (keep-alive).
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        finally:
            connection.close()

    def test_unknown_path_and_wrong_method(self, router):
        connection = http.client.HTTPConnection(router.host, router.port, timeout=30)
        try:
            connection.request("GET", "/nope")
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]["type"] == "not_found"
            connection.request("GET", "/v1/query")
            response = connection.getresponse()
            assert response.status == 405
            assert json.loads(response.read())["error"]["type"] == "method_not_allowed"
        finally:
            connection.close()


class TestFleetFaultPaths:
    def test_kill_dash_nine_mid_load_leaks_no_5xx(self, router, remote, local_db):
        fleet = router.fleet
        victim = fleet.pid(0)
        stop = threading.Event()
        statuses: list[int] = []

        def hammer():
            connection = http.client.HTTPConnection(router.host, router.port, timeout=30)
            body = json.dumps({"query": QUERIES[0]})
            while not stop.is_set():
                try:
                    connection.request(
                        "POST", "/v1/query", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                    statuses.append(response.status)
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        router.host, router.port, timeout=30
                    )
            connection.close()

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        os.kill(victim, signal.SIGKILL)
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert statuses, "the load loop never completed a request"
        bad = [status for status in statuses if status >= 500]
        assert not bad, f"router leaked {len(bad)} 5xx during the kill window"
        # The monitor must restart the dead replica (fast knobs: well under 10s).
        deadline = time.monotonic() + 10.0
        while len(fleet.alive_slots()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(fleet.alive_slots()) == 2
        assert fleet.restarts_total >= 1
        # And answers stay byte-identical after the restart.
        assert _answers(remote.query(QUERIES[1])) == _answers(local_db.query(QUERIES[1]))

    def test_counters_stay_monotonic_across_restart(self, remote, router):
        before = remote.stats()["throughput"]["requests_total"]
        fleet = router.fleet
        restarts = fleet.restarts_total
        os.kill(fleet._slots[1].process.pid, signal.SIGKILL)
        # The alive flags update when the monitor notices the death, so the
        # restart counter (bumped by the re-fork) is the barrier to wait on.
        deadline = time.monotonic() + 10.0
        while fleet.restarts_total == restarts and time.monotonic() < deadline:
            time.sleep(0.05)
        while len(fleet.alive_slots()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(fleet.alive_slots()) == 2
        # The dead incarnation's counters fold into the retired baseline.
        assert remote.stats()["throughput"]["requests_total"] >= before

    def test_extend_broadcast_keeps_replicas_byte_identical(self, router, remote):
        # In-process reference: same base data, extended the same way.
        reference = repro.connect(
            build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED),
                       include_views=("V1", "V2")).mvdb
        )
        for query in QUERIES:
            reference.query(query)
        added = remote.extend({"views": ["V1", "V2", "V3"], "groups": GROUPS, "seed": SEED})
        reference.extend(build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED)).mvdb)
        assert added >= 1
        stats = remote.stats()
        assert stats["generation"] == stats["generation_max"], (
            "replicas disagree on the invalidation epoch after the broadcast"
        )
        # Every replica must now answer with the extended view set: query
        # repeatedly so the consistent hash touches both replicas via the
        # distinct canonical keys of the workload.
        for query in QUERIES:
            assert _answers(remote.query(query)) == _answers(reference.query(query))

    def test_restarted_replica_replays_the_extend_log(self, router, remote):
        # Depends on the broadcast test having extended the fleet: the log
        # is non-empty, so a kill -9 now exercises replay-on-restart.
        fleet = router.fleet
        assert fleet.extend_log_len >= 1
        os.kill(fleet._slots[0].process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while len(fleet.alive_slots()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(fleet.alive_slots()) == 2
        stats = remote.stats()
        assert stats["generation"] == stats["generation_max"], (
            "the restarted replica did not replay the extend log"
        )
        assert fleet.applied_len(0) == fleet.extend_log_len


class TestIngestBroadcast:
    """Streaming appends through the router: compile once, ship the artifact.

    Runs after the extend-broadcast tests on purpose: the mutation log
    already holds an extend entry, so these appends exercise a *mixed*
    log — exactly what a restarted follower must replay mid-ingest.
    """

    FACTS = {
        "Author": [[980001, "Ingest Author 980001"]],
        "Student": [[[980001, 2019], 2.0]],
    }

    def _reference(self):
        # Mirror the fleet's mutation history exactly: V1+V2 base, extended
        # to the full view set (same prepare path as the leader), then the
        # same append.  Same history => bit-identical answers.
        reference = repro.connect(
            build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED),
                       include_views=("V1", "V2")).mvdb
        )
        reference.extend(build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED)).mvdb)
        reference.append_facts(self.FACTS)
        return reference

    def test_append_broadcast_keeps_replicas_in_lock_step(self, router, remote):
        log_before = router.fleet.extend_log_len
        added = remote.append_facts(self.FACTS)
        assert added == 2
        assert router.fleet.extend_log_len == log_before + 1
        stats = remote.stats()
        assert stats["generation"] == stats["generation_max"], (
            "replicas disagree on the invalidation epoch after the append"
        )
        reference = self._reference()
        for query in QUERIES:
            assert _answers(remote.query(query)) == _answers(reference.query(query))

    def test_follower_restart_mid_ingest_replays_the_mixed_log(self, router, remote):
        # Depends on the append test: the log now mixes extend + append
        # entries, so a kill -9 exercises full mixed replay on restart.
        fleet = router.fleet
        assert fleet.extend_log_len >= 2
        os.kill(fleet._slots[1].process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while len(fleet.alive_slots()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(fleet.alive_slots()) == 2
        assert fleet.applied_len(1) == fleet.extend_log_len
        stats = remote.stats()
        assert stats["generation"] == stats["generation_max"], (
            "the restarted replica did not replay the append entries"
        )
        reference = self._reference()
        for query in QUERIES:
            assert _answers(remote.query(query)) == _answers(reference.query(query))


class TestSubscriptionBroadcast:
    """Standing queries through the router: one stream, whichever replica survives."""

    QUERY = "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Advisor 1%'"

    @staticmethod
    def _hot_facts(author_id):
        # A fresh author whose name matches QUERY, with an affiliation: the
        # standing query's answer set gains a row, so the tick must fire.
        return {
            "Author": [[author_id, f"Ingest Advisor 1 Fellow {author_id}"]],
            "Affiliation": [[[author_id, f"Ingest Inst {author_id}"], 3.0]],
        }

    @staticmethod
    def _replica_stream(fleet, slot):
        host, port = fleet.address(slot)
        document = repro.connect_remote(f"http://{host}:{port}").notifications(limit=100000)
        return document["notifications"]

    @staticmethod
    def _settle(fleet):
        # A killed follower comes back through a re-fork and a log replay;
        # wait until every slot is up and has applied the whole log.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if len(fleet.alive_slots()) == 2 and all(
                slot.process is not None and slot.applied_len == fleet.extend_log_len
                for slot in fleet._slots
            ):
                return
            time.sleep(0.05)
        raise AssertionError("the fleet never settled on the full mutation log")

    def test_follower_restart_regenerates_the_identical_notification_stream(self, router, remote):
        fleet = router.fleet
        remote.subscribe(self.QUERY)
        remote.subscribe(self.QUERY, predicate={"kind": "threshold", "op": ">=", "value": 0.5})
        remote.append_facts(self._hot_facts(985001))
        self._settle(fleet)
        restarts = fleet.restarts_total
        os.kill(fleet._slots[1].process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while fleet.restarts_total == restarts and time.monotonic() < deadline:
            time.sleep(0.05)
        assert fleet.restarts_total > restarts
        self._settle(fleet)
        remote.append_facts(self._hot_facts(985002))
        self._settle(fleet)

        # Exactly-once through the router: gapless, duplicate-free from seq 1.
        collected = remote.notifications(limit=100000)["notifications"]
        assert collected, "no notification fired although the answers changed"
        assert [entry["seq"] for entry in collected] == list(range(1, len(collected) + 1))
        # Every replica — the re-forked follower replayed the op log — holds
        # the byte-identical stream the client collected.
        for slot in fleet.alive_slots():
            assert self._replica_stream(fleet, slot) == collected


class TestBroadcastConsistencyCheck:
    def test_monitor_waits_for_the_broadcast_to_finish(self, engine):
        # The monitor re-forks a replica that is behind the log, but an
        # entry still being broadcast is not "behind" yet: re-forking then
        # would kill a healthy follower the router is about to deliver to.
        # The monitor is parked on a long interval; the test runs the
        # check passes itself.
        fleet = ReplicaFleet(
            engine, 1, health_interval=3600.0,
            restart_backoff=0.0,
        ).start()
        try:
            follower = fleet._slots[0]
            incarnation = follower.incarnation
            log_len = fleet.record_extend(
                {"kind": "subscribe", "subscription": {"query": QUERIES[2], "id": "sub-0"}}
            )
            fleet._check(follower)
            assert follower.incarnation == incarnation
            fleet.finish_broadcast(log_len)
            fleet._check(follower)
            assert follower.incarnation == incarnation + 1
            assert fleet.is_alive(0)
            assert fleet.applied_len(0) == fleet.extend_log_len == log_len
            host, port = fleet.address(0)
            listing = repro.connect_remote(f"http://{host}:{port}").subscriptions()
            assert [document["id"] for document in listing["subscriptions"]] == ["sub-0"]
        finally:
            fleet.stop()


class TestRouterAllReplicasDown:
    def test_503_only_when_every_replica_is_down(self, engine):
        fleet = ReplicaFleet(
            engine, 1, health_interval=30.0
        )
        router = Router(fleet)
        router.start()
        try:
            url = router.url
            remote = repro.connect_remote(url)
            assert remote.query(QUERIES[2]) is not None
            # Take the only replica down hard and mark it dead so the
            # router stops routing to it (the monitor is parked on a slow
            # interval on purpose — this tests the router, not the monitor).
            fleet._slots[0].process.kill()
            fleet._slots[0].process.join()
            fleet._slots[0].alive = False
            connection = http.client.HTTPConnection(router.host, router.port, timeout=30)
            try:
                connection.request(
                    "POST", "/v1/query", body=json.dumps({"query": QUERIES[2]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = response.read()
                assert response.status == 503
                assert json.loads(payload)["error"]["type"] == "serving_error"
                connection.request("GET", "/healthz")
                health = connection.getresponse()
                body = json.loads(health.read())
                assert health.status == 503
                assert body["status"] == "down"
            finally:
                connection.close()
        finally:
            router.stop()


class TestServeCliFleet:
    def test_port_zero_prints_url_only_after_health(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--replicas", "2", "--groups", str(GROUPS),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            url = None
            for _ in range(2):
                line = proc.stdout.readline()
                if line.startswith("listening on "):
                    url = line.split()[2]
            assert url, "serve never printed its URL"
            # The URL line is the all-healthy barrier: the fleet must
            # answer immediately, no retry loop needed.
            remote = repro.connect_remote(url)
            health = remote.healthz()
            assert health["status"] == "ok"
            assert health["replicas_alive"] == 2
            assert _answers(remote.query(QUERIES[2]))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

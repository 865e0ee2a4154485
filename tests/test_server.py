"""End-to-end tests of the HTTP serving tier, over a real socket.

Covers the issue's serving contract: transport parity (the HTTP answers
must be byte-identical to the in-process facade's), the batch endpoint,
admission control (429 + Retry-After under a flooded queue), the health /
stats / metrics schemas, extend-while-serving consistency (the shared
generation-counter invalidation path), structured 400s for malformed
requests, and the remote client's typed transport errors (raw socket peers
that hang up, speak something other than HTTP or truncate their reply).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

import repro
from repro.dblp.config import DblpConfig
from repro.dblp.workload import (
    advisor_of_student,
    affiliation_of_author,
    build_mvdb,
    students_of_advisor,
)
from repro.errors import AdmissionError, EvaluationError, InferenceError, ParseError, ServingError
from repro.query.parser import parse_query, to_datalog
from repro.results import QueryResult
from repro.serving.dispatch import Dispatcher
from repro.serving.server import ProbServer
from repro.serving.session import QuerySession

GROUPS = 4
SEED = 0

QUERIES = [
    "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
    "n1 like '%Advisor 0%'",
    "Q(aid1) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
    "n like '%Student 1-0%'",
    "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Advisor 1%'",
    # A union (two rules, same head) and a Boolean query.
    "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 0%' ; "
    "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 2%'",
    "Q :- Student(aid, year), Advisor(aid, aid1)",
]


def _dblp_extender(spec):
    views = tuple(spec.get("views", ["V1", "V2", "V3"]))
    return build_mvdb(
        DblpConfig(group_count=spec.get("groups", GROUPS), seed=spec.get("seed", SEED)),
        include_views=views,
    ).mvdb


@pytest.fixture(scope="module")
def db():
    workload = build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED))
    return repro.connect(workload.mvdb)


@pytest.fixture(scope="module")
def server(db):
    server = ProbServer(db.engine, port=0, max_queue=32, extender=_dblp_extender).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def remote(server):
    return repro.connect_remote(server.url)


def _answers_json(result: QueryResult) -> str:
    return json.dumps(result.to_json()["answers"], sort_keys=True)


def _raw_request(server, method, path, body=None, headers=None):
    """A raw HTTP exchange, for status/header/protocol assertions."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def _scripted_peer(*replies: bytes | None) -> tuple[str, threading.Thread]:
    """A raw TCP peer on 127.0.0.1 that answers one HTTP request per connection.

    Connection ``i`` reads a request, writes ``replies[i]`` and hangs up;
    ``None`` hangs up without writing a byte.  Returns the peer's URL and
    its thread, which ends after the last reply.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener:
            for reply in replies:
                connection, __ = listener.accept()
                with connection:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += connection.recv(4096)
                    if reply is not None:
                        connection.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}", thread


def _http_reply(status: str, document: dict, headers: str = "") -> bytes:
    body = json.dumps(document).encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n{headers}"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


NOT_HTTP = b"SSH-2.0-OpenSSH_9.6\r\n"
TRUNCATED = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n"
    b'{"status": "o'
)


class TestTransportParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_single_query_byte_identical(self, db, remote, query):
        assert _answers_json(remote.query(query)) == _answers_json(db.query(query))

    def test_result_metadata_survives_the_wire(self, db, remote):
        result = remote.query(QUERIES[0])
        assert result.method == "mvindex"
        assert result.exact is True
        assert all(answer.lineage_size > 0 for answer in result)

    def test_parsed_queries_travel_via_to_datalog(self, db, remote):
        ucq = parse_query(QUERIES[3])
        assert parse_query(to_datalog(ucq)).disjuncts == ucq.disjuncts
        assert _answers_json(remote.query(ucq)) == _answers_json(db.query(ucq))

    def test_methods_parity(self, db, remote):
        for method in ("obdd", "mvindex-mv"):
            assert _answers_json(remote.query(QUERIES[0], method=method)) == _answers_json(
                db.query(QUERIES[0], method=method)
            )

    def test_batch_matches_in_process_and_order(self, db, remote):
        local = db.query_batch(QUERIES)
        wire = remote.query_batch(QUERIES)
        assert [_answers_json(r) for r in wire] == [_answers_json(r) for r in local]

    def test_batch_workers_parameter(self, db, server):
        # Old clients still send the retired ``workers`` field; the server
        # ignores unknown fields and answers the batch as usual.
        status, __, payload = _raw_request(
            server,
            "POST",
            "/v1/query_batch",
            body=json.dumps({"queries": QUERIES[:3], "workers": 2}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        wire = [QueryResult.from_json(entry) for entry in json.loads(payload)["results"]]
        local = db.query_batch(QUERIES[:3])
        assert [_answers_json(r) for r in wire] == [_answers_json(r) for r in local]

    def test_boolean_probability(self, db, remote):
        assert remote.boolean_probability(QUERIES[4]) == db.boolean_probability(QUERIES[4])
        with pytest.raises(InferenceError):
            remote.boolean_probability(QUERIES[0])


class TestProtocolSchemas:
    def test_healthz_schema(self, remote):
        health = remote.healthz()
        assert health["status"] == "ok"
        assert isinstance(health["generation"], int)
        assert health["uptime_s"] > 0

    def test_stats_schema(self, remote):
        remote.query(QUERIES[0])
        stats = remote.stats()
        assert {
            "generation",
            "max_queue",
            "queue_depth",
            "in_flight",
            "throughput",
            "latency_ms",
            "admission",
            "errors",
            "cache",
            "uptime_s",
        } <= set(stats)
        assert stats["throughput"]["requests_total"] >= 1
        assert {"p50_ms", "p95_ms", "p99_ms", "count"} <= set(stats["latency_ms"])
        for tier in ("string", "result", "lineage"):
            assert {"hits", "misses", "hit_ratio", "entries"} <= set(stats["cache"][tier])

    def test_metrics_exposition(self, remote):
        text = remote.metrics_text()
        for name in (
            "repro_requests_total",
            "repro_rejected_total",
            "repro_qps",
            "repro_queue_depth",
            "repro_generation",
            'repro_request_latency_ms{quantile="0.95"}',
            'repro_cache_hits_total{tier="string"}',
        ):
            assert name in text

    def test_string_tier_serves_exact_repeats(self, server, remote):
        query = QUERIES[1]
        remote.query(query)
        before = server.dispatcher.cache_stats()["string"]["hits"]
        repeat = remote.query(query)
        assert repeat.cached is True
        assert server.dispatcher.cache_stats()["string"]["hits"] == before + 1

    def test_responses_carry_generation(self, server):
        status, __, payload = _raw_request(
            server,
            "POST",
            "/v1/query",
            body=json.dumps({"query": QUERIES[0]}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        document = json.loads(payload)
        assert document["generation"] == server.dispatcher.generation
        assert "result" in document


class TestProtocolErrors:
    def test_unknown_path_is_404(self, server):
        status, __, payload = _raw_request(server, "GET", "/nope")
        assert status == 404
        assert json.loads(payload)["error"]["type"] == "not_found"

    def test_wrong_verb_is_405(self, server):
        for method, path in (("GET", "/v1/query"), ("POST", "/healthz")):
            status, __, payload = _raw_request(server, method, path)
            assert status == 405
            assert json.loads(payload)["error"]["type"] == "method_not_allowed"

    @pytest.mark.parametrize(
        "body",
        [
            "this is not json",
            json.dumps([1, 2, 3]),
            json.dumps({}),
            json.dumps({"query": 7}),
            json.dumps({"query": "   "}),
            json.dumps({"query": QUERIES[0], "method": 5}),
        ],
    )
    def test_malformed_query_requests_are_structured_400s(self, server, body):
        status, __, payload = _raw_request(
            server, "POST", "/v1/query", body=body, headers={"Content-Type": "application/json"}
        )
        assert status == 400
        error = json.loads(payload)["error"]
        assert error["type"] == "bad_request"
        assert error["status"] == 400
        assert error["message"]

    @pytest.mark.parametrize(
        "body",
        [
            json.dumps({"queries": []}),
            json.dumps({"queries": "Q :- R(x)"}),
            json.dumps({"queries": [QUERIES[0], 9]}),
            json.dumps({"queries": [QUERIES[0]], "method": 7}),
        ],
    )
    def test_malformed_batch_requests_are_structured_400s(self, server, body):
        status, __, payload = _raw_request(
            server,
            "POST",
            "/v1/query_batch",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "bad_request"

    def test_parse_errors_map_to_typed_400(self, server, remote):
        status, __, payload = _raw_request(
            server,
            "POST",
            "/v1/query",
            body=json.dumps({"query": "Q(x) :- !!!"}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "parse_error"
        with pytest.raises(ParseError):
            remote.query("Q(x) :- !!!")

    def test_a_join_past_the_atom_ceiling_is_a_typed_400(self, server, remote):
        body = ", ".join(f"Advisor(a{i}, a{i + 1})" for i in range(13))
        query = f"Q(a0) :- {body}"
        status, __, payload = _raw_request(
            server,
            "POST",
            "/v1/query",
            body=json.dumps({"query": query}),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "evaluation_error"
        with pytest.raises(EvaluationError, match="limited to 12"):
            remote.query(query)

    def test_unknown_method_maps_to_typed_400(self, remote):
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            remote.query(QUERIES[0], method="divination")

    def test_missing_body_is_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/query")
            connection.endheaders()
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        assert response.status == 400
        assert json.loads(payload)["error"]["type"] == "bad_request"

    def test_remote_reports_the_server_url(self, server, remote):
        assert remote.url == server.url

    def test_connect_remote_refuses_dead_server(self):
        with pytest.raises(ServingError):
            repro.connect_remote("http://127.0.0.1:1", timeout=2)

    def test_error_paths_do_not_desync_keepalive_connections(self, db):
        # Error responses that short-circuit before reading the body (501,
        # 404, 405, oversized 400) must still leave the HTTP/1.1 connection
        # usable: an undrained body would be parsed as the next request.
        server = ProbServer(db.engine, port=0).start()  # no extender -> 501
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            probes = [
                ("/v1/extend", json.dumps({"views": ["V1"]}), 501),
                ("/v1/unknown", json.dumps({"pad": "x" * 256}), 404),
                ("/healthz", json.dumps({"pad": "y" * 64}), 405),
            ]
            for path, body, expected in probes:
                connection.request(
                    "POST", path, body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                response.read()
                assert response.status == expected
                # The SAME connection must then serve a normal query.
                connection.request(
                    "POST",
                    "/v1/query",
                    body=json.dumps({"query": QUERIES[0]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = response.read()
                assert response.status == 200, payload
                assert "result" in json.loads(payload)
        finally:
            connection.close()
            server.stop()

    def test_to_datalog_rejects_unserializable_constants(self):
        from repro.query.atoms import Atom
        from repro.query.cq import ConjunctiveQuery
        from repro.query.terms import Constant

        trailing = ConjunctiveQuery((), [Atom("R", [Constant("a\\")])])
        with pytest.raises(ParseError, match="backslash"):
            to_datalog(trailing)
        both_quotes = ConjunctiveQuery((), [Atom("R", [Constant("a'\"b")])])
        with pytest.raises(ParseError, match="quote"):
            to_datalog(both_quotes)
        # A mid-string backslash round-trips verbatim (no unescaping).
        fine = ConjunctiveQuery((), [Atom("R", [Constant("a\\b")])])
        rendered = to_datalog(fine)
        assert parse_query(rendered).disjuncts[0].atoms == fine.atoms


class TestAdmissionControl:
    def test_zero_capacity_rejects_with_retry_after(self, db):
        server = ProbServer(db.engine, port=0, max_queue=0).start()
        try:
            status, headers, payload = _raw_request(
                server,
                "POST",
                "/v1/query",
                body=json.dumps({"query": QUERIES[0]}),
                headers={"Content-Type": "application/json"},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            error = json.loads(payload)["error"]
            assert error["type"] == "admission_error"
            remote = repro.connect_remote(server.url)
            with pytest.raises(AdmissionError) as excinfo:
                remote.query(QUERIES[0])
            assert excinfo.value.retry_after >= 1
        finally:
            server.stop()

    def test_unparsable_retry_after_still_raises_admission_error(self):
        # A Retry-After that is not a number of seconds (an HTTP-date, say,
        # from a proxy) keeps the 429 typed, with the default estimate.
        rejected = {"error": {"type": "admission_error", "message": "queue full"}}
        url, peer = _scripted_peer(
            _http_reply("200 OK", {"status": "ok"}),
            _http_reply(
                "429 Too Many Requests",
                rejected,
                "Retry-After: Wed, 21 Oct 2015 07:28:00 GMT\r\n",
            ),
        )
        with pytest.raises(AdmissionError, match="queue full") as excinfo:
            repro.connect_remote(url).query(QUERIES[0])
        assert excinfo.value.retry_after == 1.0
        peer.join(timeout=30)
        assert not peer.is_alive()

    def test_flooded_queue_429s_without_5xx(self, db):
        server = ProbServer(db.engine, port=0, max_queue=2).start()
        statuses: list[int] = []
        lock = threading.Lock()
        flood = 6

        def one_request(index: int) -> None:
            # Distinct queries so neither coalescing nor the string tier
            # absorbs the flood before admission control sees it.
            query = (
                "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
                f"n1 like '%Advisor {index}%'"
            )
            status, __, ___ = _raw_request(
                server,
                "POST",
                "/v1/query",
                body=json.dumps({"query": query}),
                headers={"Content-Type": "application/json"},
            )
            with lock:
                statuses.append(status)

        try:
            with server.dispatcher._rwlock.write_locked():
                threads = [
                    threading.Thread(target=one_request, args=(index,)) for index in range(flood)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 10
                # Wait until the queue is saturated and the overflow rejected.
                while time.monotonic() < deadline:
                    if (
                        server.dispatcher.queue_depth >= 2
                        and server.dispatcher.metrics.rejected_total >= flood - 2
                    ):
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("queue never saturated")
            for thread in threads:
                thread.join(timeout=30)
            assert sorted(statuses).count(429) == flood - 2
            assert sorted(statuses).count(200) == 2
            stats = repro.connect_remote(server.url).stats()
            assert stats["admission"]["rejected_total"] == flood - 2
            assert stats["errors"]["total"] == 0
        finally:
            server.stop()

    def test_coalescing_shares_one_future(self, db):
        # Two callers of one query while a writer holds the epoch lock: the
        # second waits on the first's computation instead of repeating it.
        dispatcher = Dispatcher(db.engine, max_queue=8)
        query = QUERIES[2]
        outcomes: list[tuple] = []

        def call() -> None:
            outcomes.append(dispatcher.execute(query))

        try:
            threads = [threading.Thread(target=call) for _ in range(2)]
            with dispatcher._rwlock.write_locked():
                for thread in threads:
                    thread.start()
                while dispatcher.metrics.coalesced_total < 1:
                    time.sleep(0.001)
            for thread in threads:
                thread.join()
            (first, first_generation), (second, second_generation) = outcomes
            assert second is first
            assert first_generation == second_generation == 0
            assert dispatcher.metrics.coalesced_total == 1
            assert _answers_json(first) == _answers_json(db.query(query))
        finally:
            dispatcher.close()


class TestExtendWhileServing:
    def test_extend_is_consistent_and_bumps_generation(self):
        workload = build_mvdb(DblpConfig(group_count=3, seed=SEED), include_views=("V1", "V2"))
        db = repro.connect(workload.mvdb)
        server = ProbServer(db.engine, port=0, max_queue=64, extender=_dblp_extender).start()
        stop = threading.Event()
        failures: list[str] = []
        rejected: list[AdmissionError] = []

        def reader() -> None:
            reader_remote = repro.connect_remote(server.url)
            while not stop.is_set():
                try:
                    reader_remote.query(QUERIES[0])
                except AdmissionError as exc:  # a 429 under load is allowed
                    rejected.append(exc)
                except Exception as exc:
                    failures.append(f"reader saw {exc!r}")

        readers = [threading.Thread(target=reader) for __ in range(3)]
        try:
            remote = repro.connect_remote(server.url)
            generation_before = remote.healthz()["generation"]
            # An affiliation query is the kind whose probabilities V3 changes
            # (Student 0-0 has an affiliation at this scale).
            affiliation = (
                "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Student 0-0%'"
            )
            before = remote.query(affiliation)
            for thread in readers:
                thread.start()
            time.sleep(0.2)
            added = remote.extend({"groups": 3, "seed": SEED, "views": ["V1", "V2", "V3"]})
            time.sleep(0.2)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not failures, (failures, len(rejected))
            assert added >= 1
            assert remote.healthz()["generation"] == generation_before + 1

            # Post-extend probabilities must be byte-identical to an
            # in-process ProbDB that performed the same extension — no cache
            # tier may serve the old view set's values.  (A from-scratch
            # build can differ in the last ulp: the incremental compile
            # appends components, changing the product's association order.)
            fresh = repro.connect(
                build_mvdb(DblpConfig(group_count=3, seed=SEED), include_views=("V1", "V2")).mvdb
            )
            fresh.extend(build_mvdb(DblpConfig(group_count=3, seed=SEED)).mvdb)
            after = remote.query(affiliation)
            assert _answers_json(after) == _answers_json(fresh.query(affiliation))
            assert _answers_json(after) != _answers_json(before)
            assert _answers_json(remote.query(QUERIES[0])) == _answers_json(
                fresh.query(QUERIES[0])
            )

            # The same extension again is a no-op but keeps invalidating.
            assert remote.extend({"groups": 3, "seed": SEED, "views": ["V1", "V2", "V3"]}) == 0
            assert remote.healthz()["generation"] == generation_before + 2
        finally:
            stop.set()
            server.stop()

    def test_with_block_serves_a_warmed_dispatcher_then_stops(self, db):
        with ProbServer(db.engine, port=0) as server:
            server.dispatcher.warm()
            remote = repro.connect_remote(server.url)
            for query in QUERIES:
                assert _answers_json(remote.query(query)) == _answers_json(db.query(query))
        with pytest.raises(ServingError):  # stopped: nothing listens any more
            repro.connect_remote(server.url, timeout=2)

    def test_stop_before_start_does_not_hang(self, db):
        server = ProbServer(db.engine, port=0)
        server.stop()  # never started: must return, not block in shutdown()
        server.stop()  # and stay idempotent

    def test_extend_without_extender_is_501(self, db):
        server = ProbServer(db.engine, port=0).start()
        try:
            status, __, payload = _raw_request(
                server,
                "POST",
                "/v1/extend",
                body=json.dumps({"views": ["V1"]}),
                headers={"Content-Type": "application/json"},
            )
            assert status == 501
            assert json.loads(payload)["error"]["type"] == "unsupported"
        finally:
            server.stop()


class TestImportEndpoint:
    """``/v1/import``: a follower applies one fleet op-log entry."""

    FACTS = {
        "Author": [[990001, "Import Author 990001"]],
        "Student": [[[990001, 2020], 2.0]],
    }

    @staticmethod
    def _engine():
        workload = build_mvdb(DblpConfig(group_count=3, seed=SEED), include_views=("V1", "V2"))
        return repro.connect(workload.mvdb).engine

    @pytest.fixture
    def follower(self):
        server = ProbServer(self._engine(), port=0).start()
        yield server
        server.stop()

    @staticmethod
    def _import(server, entry):
        status, __, payload = _raw_request(
            server, "POST", "/v1/import", body=json.dumps(entry),
            headers={"Content-Type": "application/json"},
        )
        return status, json.loads(payload)

    def test_a_sealed_append_applies_once(self, follower):
        leader = Dispatcher(self._engine())
        try:
            __, __, artifact = leader.append_facts(self.FACTS)
        finally:
            leader.close()
        entry = {"kind": "append", "artifact": artifact}
        status, document = self._import(follower, entry)
        assert status == 200
        assert document["generation"] == follower.dispatcher.generation == 1
        status, document = self._import(follower, entry)
        assert status == 400
        assert document["error"]["type"] == "serving_error"
        assert "stale" in document["error"]["message"]
        assert follower.dispatcher.generation == 1

    def test_subscription_ops_apply(self, follower):
        remote = repro.connect_remote(follower.url)
        subscribe = {"kind": "subscribe", "subscription": {"query": QUERIES[4], "id": "sub-7"}}
        assert self._import(follower, subscribe)[0] == 200
        listing = remote.subscriptions()
        assert [document["id"] for document in listing["subscriptions"]] == ["sub-7"]
        assert self._import(follower, {"kind": "unsubscribe", "id": "sub-7"})[0] == 200
        assert remote.subscriptions()["active"] == 0

    @pytest.mark.parametrize("entry", [{}, {"kind": "mystery"}, {"kind": "append"}])
    def test_an_entry_without_an_op_is_a_400(self, follower, entry):
        status, document = self._import(follower, entry)
        assert status == 400
        assert document["error"]["type"] == "serving_error"
        assert follower.dispatcher.generation == 0


class TestSessionGenerationGuard:
    """The satellite fix: one invalidation path, checked per request."""

    def test_invalidate_bumps_generation(self, db):
        session = QuerySession(db.engine)
        generation = session.generation
        session.invalidate()
        assert session.generation == generation + 1
        assert session.cache_info()["generation"] == generation + 1

    def test_straggler_compute_cannot_repollute_caches(self, db, monkeypatch):
        session = QuerySession(db.engine)
        query = parse_query(QUERIES[0])
        original = session._typed_probabilities

        def racing(lineages, method, skip=None):
            computed = original(lineages, method, skip=skip)
            # An extend() lands between this request's computation and its
            # cache publication — exactly the stale-probability race.
            session.invalidate()
            return computed

        monkeypatch.setattr(session, "_typed_probabilities", racing)
        stale = session.execute(query)
        monkeypatch.undo()
        assert session.cache_info()["result_entries"] == 0
        assert session.cache_info()["lineage_entries"] == 0
        fresh = session.execute(query)
        assert fresh.cached is False  # recomputed, not served stale
        assert fresh.to_dict() == stale.to_dict()  # same engine -> same values

    def test_straggler_batch_cannot_repollute_caches(self, db, monkeypatch):
        session = QuerySession(db.engine)
        queries = [parse_query(text) for text in QUERIES[:3]]
        original = session._typed_probabilities

        def racing(lineages, method, skip=None):
            computed = original(lineages, method, skip=skip)
            session.invalidate()
            return computed

        monkeypatch.setattr(session, "_typed_probabilities", racing)
        session.execute_batch(queries)
        monkeypatch.undo()
        assert session.cache_info()["result_entries"] == 0
        assert session.cache_info()["lineage_entries"] == 0

    def test_dispatcher_string_tier_shares_the_invalidation_path(self, db):
        dispatcher = Dispatcher(db.engine, max_queue=8)
        try:
            dispatcher.execute(QUERIES[0])
            assert dispatcher.cache_stats()["string"]["entries"] == 1
            workload = build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED))
            added, generation, __ = dispatcher.extend(workload.mvdb)
            assert added == []  # same views: nothing new to compile
            assert generation == 1
            assert dispatcher.cache_stats()["string"]["entries"] == 0
            assert dispatcher.session.generation == 1
        finally:
            dispatcher.close()


class TestLoadGenerator:
    """The remote-client contracts a load driver stands on (``bench/`` drives the load)."""

    def test_workload_mix_population_and_skew(self, db, remote):
        # The workload's three template builders, served over HTTP, answer
        # exactly like the in-process facade.
        for query in (
            students_of_advisor("Advisor 1"),
            advisor_of_student("Student 2-0"),
            affiliation_of_author("Student 0-0"),
        ):
            served = remote.query(query)
            assert len(served) > 0
            assert _answers_json(served) == _answers_json(db.query(query))

    def test_unknown_template_rejected(self):
        # A malformed URL is a user error raised before any I/O.
        with pytest.raises(ServingError, match="http://"):
            repro.connect_remote("not a url")

    def test_closed_loop_round_trip(self, db, server):
        # Two threads, each with its own client: every answer matches the
        # in-process facade, and each query lands in the latency reservoir once.
        queries = [QUERIES[index % 3] for index in range(6)]
        expected = {query: _answers_json(db.query(query)) for query in queries}
        count_before = repro.connect_remote(server.url).stats()["latency_ms"]["count"]
        failures: list[str] = []

        def worker() -> None:
            own = repro.connect_remote(server.url)
            for query in queries:
                try:
                    if _answers_json(own.query(query)) != expected[query]:
                        failures.append(f"answers differ for {query!r}")
                except Exception as exc:
                    failures.append(f"{query!r} raised {exc!r}")

        threads = [threading.Thread(target=worker) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        count_after = repro.connect_remote(server.url).stats()["latency_ms"]["count"]
        assert count_after == count_before + 2 * len(queries)

    def test_transport_errors_are_counted_not_raised(self):
        # A peer that hangs up without replying is a ServingError, not
        # http.client's RemoteDisconnected.
        url, peer = _scripted_peer(None)
        with pytest.raises(ServingError, match="transport failure"):
            repro.connect_remote(url)
        peer.join(timeout=30)
        assert not peer.is_alive()

    def test_bad_urls_fail_fast_instead_of_hanging(self):
        # Non-http schemes are refused before any I/O: a listener at the
        # named port sees no connection attempt.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            port = listener.getsockname()[1]
            for scheme in ("https", "ftp"):
                with pytest.raises(ServingError, match="http://"):
                    repro.connect_remote(f"{scheme}://127.0.0.1:{port}", timeout=5)
                with pytest.raises(BlockingIOError):
                    listener.accept()

    def test_open_loop_counts_dead_server_as_transport_errors(self):
        # A peer that speaks something other than HTTP, or that cuts its
        # body short, is a ServingError too.
        for reply in (NOT_HTTP, TRUNCATED):
            url, peer = _scripted_peer(reply)
            with pytest.raises(ServingError, match="transport failure"):
                repro.connect_remote(url)
            peer.join(timeout=30)
            assert not peer.is_alive()


class TestQueryResultJsonRoundTrip:
    def test_from_json_inverts_to_json(self, db):
        result = db.query(QUERIES[0])
        rebuilt = QueryResult.from_json(json.loads(json.dumps(result.to_json())))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.method == result.method
        assert rebuilt.steps == result.steps
        assert _answers_json(rebuilt) == _answers_json(result)

    def test_malformed_document_raises(self):
        with pytest.raises(InferenceError, match="malformed QueryResult"):
            QueryResult.from_json({"answers": [{"values": [1]}]})


class TestServeCli:
    def test_serve_and_loadtest_across_processes(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        repo_src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--groups",
                "3",
                "--views",
                "V1,V2",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline() + process.stdout.readline()
            match = re.search(r"listening on (http://[\d.]+:\d+)", banner)
            assert match, f"no URL in serve output: {banner!r}"
            url = match.group(1)
            local = repro.connect(
                build_mvdb(DblpConfig(group_count=3, seed=SEED), include_views=("V1", "V2")).mvdb
            )
            remote = repro.connect_remote(url)
            for query in QUERIES:
                assert _answers_json(remote.query(query)) == _answers_json(local.query(query))
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_loadtest_against_dead_server_fails(self, capsys):
        # A dead port and a non-HTTP peer are the user's to fix: exit 1 with
        # a one-line 'error:', never exit 2 with 'internal error'.
        from repro.cli import main

        url, peer = _scripted_peer(NOT_HTTP)
        for target in ("http://127.0.0.1:1", url):
            code = main(["subscribe", "Q(a) :- Advisor(x, a)", "--url", target])
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")
        peer.join(timeout=30)
        assert not peer.is_alive()

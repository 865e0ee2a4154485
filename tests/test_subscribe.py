"""Standing-query subscription service: parity, predicates, exactly-once.

The heart of the file is the tick-parity loop of the issue's acceptance
bar: after **every** ingest tick, every subscription's stored answers —
fired *and* skipped alike — must be bit-identical to a fresh
``ProbDB.query`` over an independent reference database that replayed the
same appends, on the memory and sqlite backends.  A skipped subscription
whose answers drifted would falsify the delta rule; a fired one would
falsify the evaluator itself.  A second loop checks the rule's selection
against an independent oracle (satisfying assignments counted before and
after each append).

Around that: predicate semantics (change vs threshold), webhook delivery
over loopback, the notification
log's cursor/long-poll contract, registry persistence and restart
re-arming, log-replay determinism (the fleet's exactly-once foundation:
replaying the same op log regenerates a byte-identical notification
stream), the HTTP surface, and the query-only latency reservoir (append,
subscription and notification requests must never enter it).
"""

from __future__ import annotations

import http.server
import json
import random
import threading
import time

import pytest
from dblp_facts import dblp_ingest_facts
from test_ingest import w_changing_append

import repro
from bench.workloads import TEMPLATE_NAMES, append_payload, selective_query
from repro.dblp.config import DblpConfig
from repro.dblp.workload import build_mvdb
from repro.errors import ParseError, ServingError
from repro.query import evaluator
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluator import evaluate_cq
from repro.query.terms import is_variable
from repro.serving.dispatch import Dispatcher
from repro.serving.fleet import replay_entry
from repro.serving.server import ProbServer
from repro.subscribe import (
    NotificationLog,
    SubscriptionRegistry,
    SubscriptionService,
    canonical_predicate,
    canonical_sink,
)

GROUPS = 4
SEED = 0
ENTITIES = 2

#: One standing query per workload template, plus a union.
STANDING_QUERIES = [
    "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
    "n1 like '%Advisor 0%'",
    "Q(aid1) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
    "n like '%Student 1-0%'",
    "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Advisor 0%'",
    "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 0%' ; "
    "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 1%'",
]

THRESHOLD = {"kind": "threshold", "op": ">=", "value": 0.5}


def _fresh_engine(backend=None):
    workload = build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED), backend=backend)
    return repro.connect(workload.mvdb).engine


def _service(backend=None, path=None):
    dispatcher = Dispatcher(_fresh_engine(backend))
    return dispatcher, SubscriptionService(dispatcher, path=path)


def _answers(result):
    return {answer.values: answer.probability for answer in result.answers}


def subscription_batch_facts(batch_index, batch_size, entities):
    """An append payload; the batches rotate through the three kinds of tick.

    * ``batch_index % 3 == 0`` — answers genuinely change: fresh authors whose
      *names* contain a hot advisor entity (``Advisor <k>``, rotating through
      the entities) plus an Affiliation row each, so the affiliation template's
      answer set for that entity gains rows and its subscriptions must fire;
    * ``== 1`` — Affiliation-only rows with brand-new ids: they join no
      Author/Student/Advisor tuple and recompile no MV-index component, so
      every advisor/student standing query is provably skippable;
    * ``== 2`` — overlaps every template's relations but changes no answer.
    """
    rotation = batch_index % 3
    if rotation == 0:
        start = 980000 + batch_index * batch_size
        k = batch_index % entities
        return {
            "Author": [
                [start + i, f"Ingest Advisor {k} Fellow {start + i}"] for i in range(batch_size)
            ],
            "Affiliation": [
                [[start + i, f"Ingest Inst {start + i}"], 3.0] for i in range(batch_size)
            ],
        }
    if rotation == 1:
        start = 950000 + batch_index * batch_size
        return {
            "Affiliation": [
                [[start + i, f"Ingest Inst {start + i}"], 1.2] for i in range(batch_size)
            ]
        }
    return dblp_ingest_facts(batch_index, batch_size=batch_size, base_id=920000)


# --------------------------------------------------------------- tick parity
@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_every_tick_fired_and_skipped_answers_match_fresh_queries(backend):
    """The acceptance bar: per-tick bit-identical parity on both backends."""
    dispatcher, service = _service(backend=backend)
    reference = repro.connect(
        build_mvdb(DblpConfig(group_count=GROUPS, seed=SEED), backend=backend).mvdb
    )
    try:
        for index, query in enumerate(STANDING_QUERIES):
            spec = {"query": query}
            if index % 2:
                spec["predicate"] = THRESHOLD
            service.subscribe(spec, persist=False)

        saw_skip = False
        for batch_index in range(6):  # two full fire/skip/quiet rotations
            facts = subscription_batch_facts(batch_index, batch_size=3, entities=ENTITIES)
            dispatcher.append_facts(facts)
            reference.append_facts(facts)
            generation = dispatcher.generation
            for subscription in service.registry.ordered():
                expected = _answers(reference.query(subscription.query))
                assert subscription.answers == expected, (
                    f"tick {batch_index}: subscription {subscription.sub_id} "
                    f"({'skipped' if subscription.last_generation != generation else 'fired'}) "
                    "drifted from a fresh query"
                )
                if subscription.last_generation != generation:
                    saw_skip = True
        assert saw_skip, "the rotation never skipped a subscription"
        assert service.stats()["skips_total"] > 0
    finally:
        service.close()
        dispatcher.close()


def test_affiliation_only_delta_skips_disjoint_subscriptions():
    """The delta rule's driver case: a fresh-id Affiliation row joins no
    Author, so it derives no row of either subscription and both are
    skipped, although the affiliation query reads Affiliation; an
    Affiliation row of an existing matching author derives one, so only
    that subscription is re-evaluated, and it fires."""
    dispatcher, service = _service()
    try:
        advisor_doc = service.subscribe({"query": STANDING_QUERIES[0]}, persist=False)
        affiliation_doc = service.subscribe({"query": STANDING_QUERIES[2]}, persist=False)
        by_id = {s.sub_id: s for s in service.registry.ordered()}
        advisor, affiliation = by_id[advisor_doc["id"]], by_id[affiliation_doc["id"]]
        before = dispatcher.generation
        dispatcher.append_facts(
            {"Affiliation": [[[990001, "Fresh Inst"], 1.5]]}
        )
        assert advisor.last_generation == before  # skipped
        assert affiliation.last_generation == before  # skipped: no Author 990001
        stats = service.stats()
        assert stats["evaluations_total"] == 0
        assert stats["skips_total"] == 2
        assert service.notifications()["head"] == 0

        (aid,) = [
            aid
            for aid, name in dispatcher.engine.mvdb.database.rows("Author")
            if "Advisor 0" in name
        ]
        dispatcher.append_facts({"Affiliation": [[[aid, "Second Inst"], 1.5]]})
        assert advisor.last_generation == before  # still skipped
        assert affiliation.last_generation == dispatcher.generation
        assert ("Second Inst",) in affiliation.answers
        stats = service.stats()
        assert stats["evaluations_total"] == 1
        assert stats["skips_total"] == 3
        (payload,) = service.notifications()["notifications"]
        assert payload["subscription"] == affiliation.sub_id
    finally:
        service.close()
        dispatcher.close()


#: Subscriptions of the delta-rule test: the bench templates, a UCQ whose
#: second disjunct alone derives from fresh "Ingest Author" students, a
#: constant that no appended Author row matches in front of a Student atom
#: that fresh students do match, a self-join with ``<>`` and a triangle.
#: Then queries that share a shape (``canonical_shape``) but not their
#: constants: ``=`` on 2020 (fresh students) and 2021 (none); two year
#: ranges over advised students, of which the W-changing student years
#: reach only the first; ``2020 <= y`` reversed beside ``y >= 2020``; and a
#: UCQ whose first disjunct shares the ``=`` shape and whose second derives
#: from one Affiliation-only payload.
DELTA_RULE_QUERIES = [
    selective_query(template, entity) for entity in (2, 3) for template in TEMPLATE_NAMES
] + [
    "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 1%' ; "
    "Q(aid) :- Student(aid, year), Author(aid, n), n like '%Ingest Author%'",
    "Q(y) :- Author(a, 'Advisor 0'), Student(s, y), y >= 2020",
    "Q(i) :- Affiliation(a1, i), Affiliation(a2, i), a1 <> a2",
    "Q(s) :- Advisor(s, a), Wrote(a, p), Wrote(s, p)",
    "Q(s) :- Student(s, year), year = 2020",
    "Q(s) :- Student(s, year), year = 2021",
    "Q(s) :- Student(s, y), Advisor(s, a), y >= 1995, y <= 2012",
    "Q(s) :- Student(s, y), Advisor(s, a), y >= 2013, y <= 2030",
    "Q(s) :- Author(a, 'Advisor 0'), Student(s, y), 2020 <= y",
    "Q(s) :- Student(s, year), year = 2021 ; "
    "Q(s) :- Affiliation(s, i), i like '%ingest900004%'",
]


def _valuations(ucq, database) -> list[int]:
    """Per disjunct, how many assignments of all its variables satisfy it."""
    return [
        len(evaluate_cq(
            ConjunctiveQuery(sorted(cq.variables(), key=str), cq.atoms, cq.comparisons),
            database,
        ))
        for cq in ucq.disjuncts
    ]


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_delta_rule_selects_exactly_the_affected_subscriptions(backend, monkeypatch):
    """After every tick, every subscription equals a fresh query bit for bit,
    and the tick re-evaluated exactly the subscriptions whose lineage
    variables meet a recompiled component or that gained a satisfying
    assignment (an independent oracle: valuations counted over the reference
    database before and after the append).  No Δ atom whose constants match
    no appended row is ever planned."""
    config = DblpConfig(group_count=12, seed=SEED)
    dispatcher = Dispatcher(repro.connect(build_mvdb(config, backend=backend).mvdb).engine)
    service = SubscriptionService(dispatcher)
    reference = repro.connect(build_mvdb(config, backend=backend).mvdb)
    descriptors: list[dict] = []
    dispatcher.add_delta_listener(descriptors.append)
    planned: list = []
    order_atoms = evaluator._order_atoms
    monkeypatch.setattr(
        evaluator,
        "_order_atoms",
        lambda query, database: (planned.append(query), order_atoms(query, database))[1],
    )
    rng = random.Random(7)
    steps = [("w", step) for step in range(8)]
    for index in range(3):
        steps.insert(3 * index + 1, ("payload", index))
    overlapping_skip = bitmap_only = False
    try:
        subscriptions = [
            service.registry.get(service.subscribe({"query": query}, persist=False)["id"])
            for query in DELTA_RULE_QUERIES
        ]
        database = reference.engine.indb.database
        before = {s.sub_id: _valuations(s.ucq, database) for s in subscriptions}
        for kind, index in steps:
            if kind == "w":
                facts = w_changing_append(dispatcher.engine.mvdb, rng, index)
            else:
                facts = append_payload(index, entity=2)
            bitmaps = {s.sub_id: s.variables_bitmap for s in subscriptions}
            del planned[:]
            dispatcher.append_facts(facts)
            reference.append_facts(facts)
            descriptor = descriptors[-1]
            for query in planned:
                for atom in query.atoms:
                    if atom.relation.startswith("Δ"):
                        rows = descriptor["rows"][atom.relation.lstrip("Δ")]
                        assert any(
                            all(
                                row[position] == term.value
                                for position, term in enumerate(atom.terms)
                                if not is_variable(term)
                            )
                            for row in rows
                        ), f"{kind} {index}: planned {atom} although no Δ row matches it"
            for subscription in subscriptions:
                after = _valuations(subscription.ucq, database)
                derived = after != before[subscription.sub_id]
                before[subscription.sub_id] = after
                touched = bool(bitmaps[subscription.sub_id] & descriptor["component_bitmap"])
                evaluated = subscription.last_generation == dispatcher.generation
                assert evaluated == (derived or touched), (
                    f"{kind} {index}: {subscription.query!r} evaluated={evaluated}, "
                    f"derived={derived}, touched={touched}"
                )
                assert subscription.answers == _answers(reference.query(subscription.query)), (
                    f"{kind} {index}: {subscription.query!r} drifted from a fresh query"
                )
                overlap = subscription.relations & set(descriptor["relations"])
                overlapping_skip |= bool(overlap) and not evaluated
                bitmap_only |= evaluated and not derived
    finally:
        service.close()
        dispatcher.close()
    assert overlapping_skip, "no tick skipped a subscription that read a Δ relation"
    assert bitmap_only, "no tick re-evaluated a subscription through the bitmap alone"


# ---------------------------------------------------------------- predicates
def test_change_predicate_fires_only_when_answers_move():
    dispatcher, service = _service()
    try:
        service.subscribe({"query": STANDING_QUERIES[2]}, persist=False)
        # Quiet batch: overlaps via Author but changes no answer -> no fire.
        dispatcher.append_facts(subscription_batch_facts(2, batch_size=3, entities=ENTITIES))
        assert service.notifications()["head"] == 0
        # Hot batch: a fresh author named 'Advisor 0' with an affiliation.
        dispatcher.append_facts(subscription_batch_facts(0, batch_size=3, entities=ENTITIES))
        batch = service.notifications()
        assert batch["head"] == 1
        payload = batch["notifications"][0]
        assert payload["kind"] == "change"
        assert payload["seq"] == 1
        assert payload["generation"] == dispatcher.generation
        previous = {tuple(values): p for values, p in payload["previous"]}
        current = {tuple(values): p for values, p in payload["answers"]}
        assert previous != current
        assert not any("time" in key or "stamp" in key for key in payload)
    finally:
        service.close()
        dispatcher.close()


def test_threshold_predicate_fires_on_set_membership_changes():
    dispatcher, service = _service()
    try:
        service.subscribe(
            {"query": STANDING_QUERIES[2], "predicate": THRESHOLD}, persist=False
        )
        # Weight 3.0 -> probability above 0.5: the new answer ENTERS the set.
        dispatcher.append_facts(subscription_batch_facts(0, batch_size=1, entities=ENTITIES))
        first = service.notifications()
        assert first["head"] == 1
        payload = first["notifications"][0]
        assert payload["kind"] == "threshold"
        assert payload["entered"] and not payload["left"]
        # A second hot batch for the same entity (6 % 2 == 0) adds MORE
        # matching answers (entered changes again); a quiet batch afterwards
        # must not fire.
        dispatcher.append_facts(subscription_batch_facts(6, batch_size=1, entities=ENTITIES))
        dispatcher.append_facts(subscription_batch_facts(2, batch_size=1, entities=ENTITIES))
        assert service.notifications()["head"] == 2
    finally:
        service.close()
        dispatcher.close()


def test_predicate_and_sink_validation():
    assert canonical_predicate(None) == {"kind": "change"}
    assert canonical_predicate(THRESHOLD)["value"] == 0.5
    with pytest.raises(ServingError):
        canonical_predicate({"kind": "threshold", "op": "!=", "value": 0.5})
    with pytest.raises(ServingError):
        canonical_predicate({"kind": "threshold", "op": ">", "value": "high"})
    with pytest.raises(ServingError):
        canonical_predicate({"kind": "sometimes"})
    assert canonical_sink(None) == {"kind": "memory"}
    webhook = canonical_sink({"kind": "webhook", "url": "http://127.0.0.1:1/x"})
    assert webhook["retries"] == 3
    with pytest.raises(ServingError):
        canonical_sink({"kind": "webhook"})  # no url
    with pytest.raises(ServingError):
        canonical_sink({"kind": "carrier-pigeon"})


def test_subscribe_rejects_bad_queries_and_unknown_unsubscribe():
    dispatcher, service = _service()
    try:
        with pytest.raises(ParseError):
            service.subscribe({"query": "this is not datalog"}, persist=False)
        assert service.list()["active"] == 0  # registration rolled back
        with pytest.raises(ServingError):
            service.unsubscribe("sub-404", persist=False)
    finally:
        service.close()
        dispatcher.close()


# ---------------------------------------------------------- notification log
def test_notification_log_cursor_and_ring():
    log = NotificationLog(capacity=3)
    for index in range(5):
        log.append({"payload": index})
    batch = log.read(since=0)
    assert batch["head"] == 5
    assert batch["oldest"] == 3
    assert batch["dropped"] == 2
    assert [entry["seq"] for entry in batch["notifications"]] == [3, 4, 5]
    assert batch["next"] == 5
    assert log.read(since=5)["notifications"] == []


def test_notification_log_long_poll_wakes_on_append():
    log = NotificationLog()
    result = {}

    def poll():
        result["batch"] = log.read(since=0, wait_s=5.0)

    thread = threading.Thread(target=poll)
    thread.start()
    time.sleep(0.05)
    log.append({"payload": "news"})
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [entry["seq"] for entry in result["batch"]["notifications"]] == [1]


# ------------------------------------------------------------------- webhooks
class _Receiver(http.server.BaseHTTPRequestHandler):
    """Loopback webhook endpoint: ``/dead`` always fails, ``/flaky`` fails
    its first request; every request is recorded as ``(path, body)``."""

    def do_POST(self):  # noqa: N802 - http.server naming
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        received = self.server.received
        first_flaky = self.path == "/flaky" and all(path != "/flaky" for path, __ in received)
        status = 500 if self.path == "/dead" or first_flaky else 200
        received.append((self.path, body))
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def test_webhook_delivery_retries_and_dead_letters():
    receiver = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Receiver)
    receiver.received = []
    thread = threading.Thread(target=receiver.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{receiver.server_address[1]}"
    dispatcher, service = _service()
    try:
        for path in ("/flaky", "/dead"):
            service.subscribe(
                {
                    "query": STANDING_QUERIES[2],
                    "sink": {"kind": "webhook", "url": url + path, "retries": 1,
                             "backoff_s": 0.01},
                },
                persist=False,
            )
        # Two hot batches for entity 0: each fires both subscriptions.
        for batch_index in (0, 6):
            dispatcher.append_facts(
                subscription_batch_facts(batch_index, batch_size=1, entities=ENTITIES)
            )
        stream = service.notifications()["notifications"]
        service.close()  # drains the delivery queue
        stats = service.stats()
    finally:
        service.close()
        dispatcher.close()
        receiver.shutdown()
        receiver.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert [entry["seq"] for entry in stream] == [1, 2, 3, 4]
    # One worker delivers in seq order: each /flaky notification after one
    # failed attempt at most, each /dead one twice (retries=1), then dropped.
    assert [(path, body["seq"]) for path, body in receiver.received] == [
        ("/flaky", 1), ("/flaky", 1), ("/dead", 2), ("/dead", 2),
        ("/flaky", 3), ("/dead", 4), ("/dead", 4),
    ]
    assert receiver.received[1][1] == stream[0]
    assert stats["delivered_total"] == 2
    assert stats["delivery_failures_total"] == 5
    assert stats["dead_letter_total"] == 2


# ------------------------------------------------------ persistence / replay
def test_registry_persists_and_restart_rearms(tmp_path):
    path = str(tmp_path / "index.subs.json")
    dispatcher, service = _service(path=path)
    try:
        students = service.subscribe({"query": STANDING_QUERIES[0]})
        service.subscribe({"query": STANDING_QUERIES[2], "predicate": THRESHOLD})
        dropped = service.subscribe({"query": STANDING_QUERIES[1]})
        service.unsubscribe(dropped["id"])
    finally:
        service.close()
        dispatcher.close()

    dispatcher2, service2 = _service(path=path)
    try:
        listing = service2.list()
        assert listing["active"] == 2  # the unsubscribe persisted too
        by_id = {doc["id"]: doc for doc in listing["subscriptions"]}
        assert dropped["id"] not in by_id
        survivor = by_id[students["id"]]
        assert survivor["predicate"] == {"kind": "change"}
        assert survivor["answers"]  # baseline re-evaluated on re-arm
        # Ticks keep working against the re-armed registry.
        dispatcher2.append_facts(subscription_batch_facts(0, batch_size=1, entities=ENTITIES))
        assert service2.notifications()["head"] == 1
    finally:
        service2.close()
        dispatcher2.close()

    registry = SubscriptionRegistry(str(tmp_path / "missing.json"))
    assert registry.load_specs() == []


def test_log_replay_regenerates_identical_notification_stream():
    """The fleet's exactly-once foundation, in-process: replaying the same
    interleaved op log produces a byte-identical notification stream."""
    dispatcher_a, service_a = _service()
    log_entries = []
    try:
        for index, query in enumerate(STANDING_QUERIES[:3]):
            spec = {"query": query}
            if index % 2:
                spec["predicate"] = THRESHOLD
            document = service_a.subscribe(spec, persist=False)
            log_entries.append(
                {"kind": "subscribe", "subscription": {**spec, "id": document["id"]}}
            )
        for batch_index in range(4):
            facts = subscription_batch_facts(batch_index, batch_size=2, entities=ENTITIES)
            __, __, artifact = dispatcher_a.append_facts(facts)
            log_entries.append({"kind": "append", "facts": facts, "artifact": artifact})
        stream_a = service_a.notifications(limit=10000)["notifications"]
    finally:
        service_a.close()
        dispatcher_a.close()

    dispatcher_b, service_b = _service()
    try:
        for entry in log_entries:
            replay_entry(dispatcher_b, None, entry)
        stream_b = service_b.notifications(limit=10000)["notifications"]
    finally:
        service_b.close()
        dispatcher_b.close()

    assert stream_a, "the replayed run never fired a notification"
    assert json.dumps(stream_a, sort_keys=True) == json.dumps(stream_b, sort_keys=True)


def test_replay_subscription_entry_without_service_is_an_error():
    dispatcher = Dispatcher(_fresh_engine())
    try:
        with pytest.raises(ServingError):
            replay_entry(dispatcher, None, {"kind": "subscribe", "subscription": {}})
        # A mutation entry is a sealed artifact; a raw spec is not replayable.
        with pytest.raises(ServingError, match="no sealed artifact"):
            replay_entry(dispatcher, None, {"groups": GROUPS, "seed": SEED, "views": ["V3"]})
    finally:
        dispatcher.close()


# ------------------------------------------------------------- HTTP surface
@pytest.fixture(scope="module")
def server():
    server = ProbServer(_fresh_engine(), port=0, max_queue=32).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def remote(server):
    return repro.connect_remote(server.url)


def test_http_subscribe_notify_unsubscribe_roundtrip(server, remote):
    document = remote.subscribe(STANDING_QUERIES[2], predicate=THRESHOLD)
    assert document["id"]
    assert document["predicate"] == dict(THRESHOLD)
    listing = remote.subscriptions()
    assert listing["active"] == 1

    head_before = remote.notifications()["head"]
    remote.append_facts(subscription_batch_facts(0, batch_size=1, entities=ENTITIES))
    batch = remote.notifications(since=head_before, wait_s=5.0)
    assert batch["notifications"], "threshold crossing must notify over HTTP"
    payload = batch["notifications"][0]
    assert payload["kind"] == "threshold"
    assert payload["subscription"] == document["id"]
    assert batch["next"] == payload["seq"]

    stats = remote.stats()["subscriptions"]
    assert stats["active"] == 1
    assert stats["notifications_total"] >= 1
    metrics = remote.metrics_text()
    assert "repro_subscriptions_active 1" in metrics
    assert "repro_notifications_total" in metrics

    assert remote.unsubscribe(document["id"])["removed"] is True
    assert remote.subscriptions()["active"] == 0
    with pytest.raises(ServingError):
        remote.unsubscribe(document["id"])


def test_http_notification_validation(remote):
    with pytest.raises(ServingError):
        remote.notifications(since=-1)
    with pytest.raises(ServingError):
        remote.subscribe("Q(x) :- Student(x, y)", predicate={"kind": "nope"})


# ------------------------------------------------ query-only latency reservoir
def test_load_report_headline_latency_stays_query_only():
    server = ProbServer(_fresh_engine(), port=0, max_queue=32).start()
    try:
        remote = repro.connect_remote(server.url)
        count_before = remote.stats()["latency_ms"]["count"]
        for query in STANDING_QUERIES:
            remote.query(query)
        assert remote.append_facts(dblp_ingest_facts(0, batch_size=2, base_id=930000)) == 4
        assert remote.subscribe(STANDING_QUERIES[0])["id"]
        assert remote.notifications(since=0)["next"] >= 0
        assert remote.stats()["latency_ms"]["count"] == count_before + len(STANDING_QUERIES)
    finally:
        server.stop()

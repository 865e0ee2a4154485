"""Standing-query subscription service: parity, predicates, exactly-once.

The heart of the file is the tick-parity loop of the issue's acceptance
bar: after **every** ingest tick, every subscription's stored answers —
fired *and* skipped alike — must be bit-identical to a fresh
``ProbDB.query`` over an independent reference database that replayed the
same appends, on the memory and sqlite backends.  A skipped subscription
whose answers drifted would falsify the delta-overlap skip rule; a fired
one would falsify the evaluator itself.

Around that: predicate semantics (change vs threshold), the notification
log's cursor/long-poll contract, registry persistence and restart
re-arming, log-replay determinism (the fleet's exactly-once foundation:
replaying the same op log regenerates a byte-identical notification
stream), the HTTP surface, and the loadgen's op tagging (subscription ops
must never leak into the query-only latency headline).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro
from repro.dblp.config import DblpConfig
from repro.dblp.workload import build_mvdb
from repro.errors import ParseError, ServingError
from repro.serving.dispatch import Dispatcher
from repro.serving.fleet import replay_entry
from repro.serving.loadgen import _summarize, dblp_ingest_facts
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
    dispatcher = Dispatcher(_fresh_engine(backend), workers=2)
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
    """The skip rule's driver case: fresh-id Affiliation rows leave every
    Student/Advisor-template subscription provably untouched."""
    dispatcher, service = _service()
    try:
        advisor_doc = service.subscribe({"query": STANDING_QUERIES[0]}, persist=False)
        affiliation_doc = service.subscribe({"query": STANDING_QUERIES[2]}, persist=False)
        before = dispatcher.generation
        dispatcher.append_facts(
            {"Affiliation": [[[990001, "Fresh Inst"], 1.5]]}
        )
        by_id = {s.sub_id: s for s in service.registry.ordered()}
        assert by_id[advisor_doc["id"]].last_generation == before  # skipped
        assert by_id[affiliation_doc["id"]].last_generation == dispatcher.generation
        stats = service.stats()
        assert stats["skips_total"] == 1
        assert stats["evaluations_total"] == 1
    finally:
        service.close()
        dispatcher.close()


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
    dispatcher = Dispatcher(_fresh_engine(), workers=1)
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
    server = ProbServer(_fresh_engine(), port=0, workers=2, max_queue=32).start()
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


# ------------------------------------------------------------ loadgen tagging
def test_load_report_headline_latency_stays_query_only():
    samples = [
        ("query", 200, 0.010, 2),
        ("sub", 200, 5.000, 0),
        ("notify", 200, 9.000, 0),
        ("append", 200, 7.000, 0),
    ]
    report = _summarize("subscriptions", 1.0, 1, None, samples)
    assert report.latency_ms["max_ms"] == pytest.approx(10.0)
    assert set(report.ops) == {"query", "sub", "notify", "append"}
    assert report.op_latency_ms["notify"]["max_ms"] == pytest.approx(9000.0)
    assert report.op_latency_ms["sub"]["count"] == 1

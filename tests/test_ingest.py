"""Streaming ingest and the non-blocking write path.

Covers the issue's write-path contract at the engine and dispatcher layers:

* differential append — streaming facts into a live engine must give
  *bit-identical* answers to a from-scratch build over the grown base, on
  both storage backends (the memory/sqlite pair must also agree with each
  other bit-for-bit);
* sealed artifacts — a leader-prepared :class:`PendingExtend`, serialized
  through JSON and applied on a follower, leaves both engines with
  byte-identical state; a stale artifact (epoch moved on) is rejected;
* the concurrency contract — with the compile half of an extend padded to
  a known duration, reader threads hammering :meth:`Dispatcher.execute`
  must keep completing *during* the compile with latencies far below the
  pad (the old design excluded readers for the whole compile), every
  thread must observe a monotonically non-decreasing generation, and the
  post-swap answers must reflect the new view set — no stale cache hits;
* semi-naive appends — appends that change ``W`` (new V1/V2/V3 outputs,
  new derivations of existing outputs, a clause absorbed by a deterministic
  fact) leave the engine equal to a from-scratch rebuild, prepare reads the
  live state without changing it, and its relational work does not grow
  with the database.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

import pytest
from dblp_facts import dblp_ingest_facts

import repro
from bench.workloads import append_payload, subscription_specs
from repro.core.engine import MVQueryEngine
from repro.core.pending import PendingExtend
from repro.dblp.config import DblpConfig
from repro.dblp.workload import build_mvdb
from repro.errors import InferenceError, SchemaError, ServingError
from repro.indb.weights import CERTAIN_WEIGHT
from repro.numerics import INCREMENTAL_REBUILD_ULPS, within_ulps
from repro.query import evaluator
from repro.serving.artifact import engine_state
from repro.serving.dispatch import Dispatcher
from repro.subscribe import SubscriptionService
from repro.subscribe import evaluator as subscribe_evaluator

GROUPS = 3
SEED = 0

AFFILIATION = (
    "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Student 0-0%'"
)
STUDENTS = (
    "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
    "n1 like '%Advisor 0%'"
)

#: Disjoint ingest rows: ids far above the generated DBLP id space, joining
#: none of the workload queries' entities — appends change lineages without
#: changing any answer set, which is exactly the streaming-ingest shape.
FACTS = {
    "Author": [[990001, "Ingest Author 990001"], [990002, "Ingest Author 990002"]],
    "Student": [[[990001, 2020], 1.5], [[990002, 2021], 0.5]],
}


def _config() -> DblpConfig:
    return DblpConfig(group_count=GROUPS, seed=SEED)


def _state(engine) -> str:
    return json.dumps(engine_state(engine), sort_keys=True)


def _answers(db, query) -> dict:
    return {row.values: row.probability for row in db.query(query)}


def _grown_rebuild(backend=None):
    """A from-scratch build whose base already contains ``FACTS``."""
    mvdb = build_mvdb(_config(), backend=backend).mvdb
    for row in FACTS["Author"]:
        mvdb.database.insert("Author", row)
    for row, weight in FACTS["Student"]:
        mvdb.add_probabilistic_tuple("Student", row, weight)
    return repro.connect(mvdb)


# ------------------------------------------------------------- differential
class TestAppendDifferential:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_append_matches_rebuild_bit_identically(self, backend):
        appended = repro.connect(build_mvdb(_config(), backend=backend).mvdb)
        # Warm the caches first: the append must invalidate them, so any
        # stale entry leaking through shows up as a mismatch below.
        appended.query(AFFILIATION)
        assert appended.append_facts(FACTS) == 4

        rebuilt = _grown_rebuild(backend=backend)
        for query in (AFFILIATION, STUDENTS):
            assert _answers(appended, query) == _answers(rebuilt, query), (
                f"append differs from rebuild on {backend} for {query!r}"
            )

    def test_memory_and_sqlite_appends_agree_bit_identically(self):
        results = {}
        for backend in ("memory", "sqlite"):
            db = repro.connect(build_mvdb(_config(), backend=backend).mvdb)
            db.append_facts(FACTS)
            results[backend] = {
                query: _answers(db, query) for query in (AFFILIATION, STUDENTS)
            }
        assert results["memory"] == results["sqlite"]

    def test_loadgen_ingest_facts_are_appendable(self):
        # The test-side ingest fact batches must be valid engine input and
        # disjoint across batch indices (no duplicate-row no-ops).
        db = repro.connect(build_mvdb(_config()).mvdb)
        first = dblp_ingest_facts(0, batch_size=3)
        second = dblp_ingest_facts(1, batch_size=3)
        assert db.append_facts(first) == 6
        assert db.append_facts(second) == 6


# ---------------------------------------------------------- sealed artifacts
class TestSealedArtifacts:
    def test_sealed_append_round_trip_is_byte_identical(self):
        leader = repro.connect(build_mvdb(_config()).mvdb).engine
        pending = leader.prepare_append(FACTS)
        sealed = json.loads(json.dumps(pending.sealed()))
        leader.apply_pending(pending)

        follower = repro.connect(build_mvdb(_config()).mvdb).engine
        imported = PendingExtend.from_sealed(sealed)
        follower.apply_pending(imported)
        assert _state(leader) == _state(follower)
        # The subscription tick of every replica sees the same Δ rows.
        assert imported.delta_descriptor() == pending.delta_descriptor()
        assert pending.delta_descriptor()["rows"]["Student"] == [(990001, 2020), (990002, 2021)]

    def test_sealed_extend_round_trip_is_byte_identical(self):
        leader = repro.connect(
            build_mvdb(_config(), include_views=("V1", "V2")).mvdb
        ).engine
        pending = leader.prepare_extend(build_mvdb(_config()).mvdb)
        sealed = json.loads(json.dumps(pending.sealed()))
        leader.apply_pending(pending)

        follower = repro.connect(
            build_mvdb(_config(), include_views=("V1", "V2")).mvdb
        ).engine
        follower.apply_pending(
            PendingExtend.from_sealed(sealed, mvdb=build_mvdb(_config()).mvdb)
        )
        assert _state(leader) == _state(follower)

    def test_stale_sealed_artifact_is_rejected(self):
        engine = repro.connect(build_mvdb(_config()).mvdb).engine
        pending = engine.prepare_append(FACTS)
        sealed = json.loads(json.dumps(pending.sealed()))
        engine.apply_pending(pending)  # the epoch moves on
        with pytest.raises(ServingError, match="stale"):
            engine.apply_pending(PendingExtend.from_sealed(sealed))

    def test_malformed_artifact_is_rejected(self):
        with pytest.raises(ServingError):
            PendingExtend.from_sealed({"kind": "mystery"})


# ------------------------------------------------------ concurrency contract
#: The compile pad.  Under the old design readers were excluded for the
#: whole compile, so read latency during an extend was >= the pad; the
#: epoch-swap design must keep reads an order of magnitude below it.
PAD_S = 0.8
READ_LATENCY_BOUND_S = PAD_S / 2


class TestNonBlockingWritePath:
    def test_reads_proceed_during_a_padded_compile(self, monkeypatch):
        engine = repro.connect(
            build_mvdb(_config(), include_views=("V1", "V2")).mvdb
        ).engine
        dispatcher = Dispatcher(engine)
        try:
            dispatcher.execute(STUDENTS)  # warm: lineage + caches

            real_prepare = type(engine).prepare_extend

            def padded_prepare(self, mvdb):
                pending = real_prepare(self, mvdb)
                time.sleep(PAD_S)
                return pending

            monkeypatch.setattr(type(engine), "prepare_extend", padded_prepare)

            stop = threading.Event()
            samples: list[list[tuple[float, float, int]]] = [[] for _ in range(3)]
            errors: list[BaseException] = []

            def hammer(slot: int) -> None:
                while not stop.is_set():
                    begin = time.monotonic()
                    try:
                        __, generation = dispatcher.execute(STUDENTS)
                    except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                        errors.append(exc)
                        return
                    samples[slot].append((begin, time.monotonic(), generation))

            threads = [
                threading.Thread(target=hammer, args=(slot,)) for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # steady-state reads before the write begins

            write_begin = time.monotonic()
            added, generation, __ = dispatcher.extend(build_mvdb(_config()).mvdb)
            write_end = time.monotonic()

            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors, f"reader thread failed: {errors[0]!r}"
            assert added and generation == 1
            assert write_end - write_begin >= PAD_S  # the pad was really in play

            flat = [item for per_thread in samples for item in per_thread]
            during = [
                end - begin
                for begin, end, __ in flat
                if begin >= write_begin and end <= write_end
            ]
            # Reads must keep *completing* inside the compile window...
            assert len(during) >= 5, (
                f"only {len(during)} reads completed during the {PAD_S}s compile"
            )
            # ...and none of them may have waited out the compile.
            assert max(during) < READ_LATENCY_BOUND_S, (
                f"a read stalled {max(during):.3f}s during the compile "
                f"(bound {READ_LATENCY_BOUND_S}s)"
            )
            # Every thread observes a monotonically non-decreasing epoch.
            for per_thread in samples:
                generations = [generation for __, __, generation in per_thread]
                assert generations == sorted(generations)
            observed = {generation for __, __, generation in flat}
            assert observed <= {0, 1}
        finally:
            dispatcher.close()
        monkeypatch.undo()

        # No stale cache answers after the swap: the dispatcher must now
        # agree bit-for-bit with a reference that extended the same way.
        reference = repro.connect(
            build_mvdb(_config(), include_views=("V1", "V2")).mvdb
        )
        reference.extend(build_mvdb(_config()).mvdb)
        post = Dispatcher(engine)
        try:
            result, __ = post.execute(AFFILIATION)
            swapped = {row.values: row.probability for row in result}
            assert swapped == _answers(reference, AFFILIATION)
        finally:
            post.close()

    def test_append_through_the_dispatcher_bumps_the_generation(self):
        engine = repro.connect(build_mvdb(_config()).mvdb).engine
        dispatcher = Dispatcher(engine)
        try:
            __, before = dispatcher.execute(STUDENTS)
            count, generation, sealed = dispatcher.append_facts(FACTS)
            assert count == 4
            assert generation == before + 1
            assert sealed["kind"] == "append"
            result, after = dispatcher.execute(STUDENTS)
            assert after == generation
            assert {row.values: row.probability for row in result} == _answers(
                _grown_rebuild(), STUDENTS
            )
        finally:
            dispatcher.close()

    def test_the_dispatcher_starts_no_thread(self, monkeypatch):
        # Every request runs on its caller's thread: construction, a miss, a
        # string-tier hit, an append and close() start nothing.  Threads left
        # over from other tests may exit meanwhile, so the check is "no
        # thread started and none alive that was not alive before", not a
        # count.
        engine = repro.connect(build_mvdb(_config()).mvdb).engine
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def recording_start(thread: threading.Thread) -> None:
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = set(threading.enumerate())
        dispatcher = Dispatcher(engine)
        result, __ = dispatcher.execute(STUDENTS)
        assert not result.cached
        result, __ = dispatcher.execute(STUDENTS)
        assert result.cached and dispatcher.cache_stats()["string"]["hits"] == 1
        dispatcher.append_facts(FACTS)
        dispatcher.close()
        assert started == []
        assert set(threading.enumerate()) <= before


# ------------------------------------------------------- semi-naive appends
W_GROUPS = 24

#: Queries whose answers the ``W``-changing appends below move.
W_QUERIES = (
    "Q(aid1, aid2) :- Advisor(aid1, aid2)",
    "Q(aid, inst) :- Affiliation(aid, inst)",
    "Q(aid) :- Student(aid, year), Advisor(aid, aid1), aid < 40",
)


def w_changing_append(mvdb, rng: random.Random, step: int) -> dict:
    """Append number ``step`` of a seeded sequence whose every kind can change ``W``.

    The four kinds rotate: a second advisor for an advised student (new V2
    outputs); the newest advisor co-writing a paper of the student's
    student years (a V1 output, of weight 0 when the pair never co-wrote);
    a shared institution plus a recent co-publication (new V3 outputs); a
    student year in which the student co-wrote with an advisor, beside a
    fresh author (a new derivation of a V1 output).  Choices read the
    current ``mvdb``, which the engine mirrors after every append.
    """
    database = mvdb.database
    advisor = database.rows("Advisor")
    year_of = {pid: year for pid, __, year in database.rows("Pub")}
    pids: dict[int, set[int]] = {}
    for aid, pid in database.rows("Wrote"):
        pids.setdefault(aid, set()).add(pid)
    years: dict[int, set[int]] = {}
    for aid, year in database.rows("Student"):
        years.setdefault(aid, set()).add(year)
    kind = step % 4
    if kind == 0:
        aid1, __ = rng.choice(advisor)
        taken = {a2 for a1, a2 in advisor if a1 == aid1} | {aid1}
        return {"Advisor": [[[aid1, rng.choice(sorted(set(pids) - taken))], 0.8]]}
    if kind == 1:
        aid1, aid2 = advisor[-1]
        papers = pids[aid1] - pids.get(aid2, set())
        papers = sorted(pid for pid in papers if year_of[pid] in years[aid1])
        return {"Wrote": [[aid2, rng.choice(papers)]]}
    if kind == 2:
        affiliation = database.rows("Affiliation")
        aid1, inst = rng.choice(affiliation)
        placed = {aid for aid, other in affiliation if other == inst}
        aid2 = rng.choice(sorted(set(pids) - placed))
        return {
            "Affiliation": [[[aid2, inst], 1.5]],
            "RecentCoPub": [[aid1, aid2], [aid2, aid1]],
        }
    candidates = sorted(
        {
            (aid1, year_of[pid])
            for aid1, aid2 in advisor
            for pid in pids.get(aid1, set()) & pids.get(aid2, set())
            if year_of[pid] not in years.get(aid1, ())
        }
    )
    aid1, year = rng.choice(candidates)
    fresh = 800000 + step
    return {
        "Author": [[fresh, f"Ingest Author {fresh}"]],
        "Student": [[[aid1, year], 0.7]],
    }


def _w_tuples(engine) -> set:
    """``W``'s clauses with every variable mapped to its ``(relation, row)``."""
    tuple_of = engine.indb.tuple_of
    return {frozenset(tuple_of(v) for v in clause) for clause in engine.w_lineage.clauses}


def _nv_tables(engine) -> dict:
    indb = engine.indb
    return {
        table.name: {row: indb.weight(table.name, row) for row in table.rows()}
        for table in indb.database
        if table.name.startswith("NV_")
    }


def _assert_matches_rebuild(engine, queries) -> None:
    rebuilt = MVQueryEngine(engine.mvdb)
    try:
        assert _w_tuples(engine) == _w_tuples(rebuilt)
        assert _nv_tables(engine) == _nv_tables(rebuilt)
        for query in queries:
            parsed = repro.parse_query(query)
            appended, fresh = engine.query(parsed), rebuilt.query(parsed)
            assert appended.keys() == fresh.keys()
            for answer, probability in appended.items():
                assert within_ulps(probability, fresh[answer], INCREMENTAL_REBUILD_ULPS), (
                    f"{query!r} {answer}: appended {probability!r} vs rebuilt {fresh[answer]!r}"
                )
    finally:
        rebuilt.indb.database.close()


def _cases(engine, pending, base_count: int) -> set[str]:
    """Which of the covered ``W`` changes one applied append made."""
    cases = set()
    for relation, __, weight, __ in pending.new_tuples:
        if relation == "NV_V1" and weight == CERTAIN_WEIGHT:
            cases.add("certain V1 output")
        if relation == "NV_V2":
            cases.add("new V2 output")
    for clause in pending.added_clauses:
        if any(
            v < base_count and engine.indb.tuple_of(v)[0].startswith("NV_") for v in clause
        ):
            cases.add("new derivation of an existing output")
    return cases


class TestSemiNaiveAppend:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_w_changing_appends_match_a_rebuild(self, backend):
        engine = MVQueryEngine(
            build_mvdb(DblpConfig(group_count=W_GROUPS, seed=SEED), backend=backend).mvdb
        )
        rng = random.Random(7)
        covered: set[str] = set()
        for step in range(12):
            base_count = engine.indb.tuple_count()
            pending = engine.prepare_append(w_changing_append(engine.mvdb, rng, step))
            engine.apply_pending(pending)
            covered |= _cases(engine, pending, base_count)
            _assert_matches_rebuild(engine, W_QUERIES)
        assert covered == {
            "certain V1 output",
            "new V2 output",
            "new derivation of an existing output",
        }

    def test_deterministic_append_absorbs_an_indexed_clause(self):
        mvdb = repro.MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
        mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0)])
        mvdb.add_deterministic_table("T", ["x"])
        view = repro.parse_query("V(x) :- R(x), S(x); V(x) :- T(x)")
        mvdb.add_markoview(repro.MarkoView("V", view, weight=0.25))
        engine = MVQueryEngine(mvdb)
        (indexed,) = engine.w_lineage.clauses
        assert len(indexed) == 3  # R(a), S(a) and NV_V(a)

        pending = engine.prepare_append({"T": [["a"]]})
        assert pending.removed_clauses == [sorted(indexed)]
        assert pending.added_clauses == [[engine.indb.variable_for("NV_V", ("a",))]]
        engine.apply_pending(pending)
        _assert_matches_rebuild(engine, ["Q(x) :- R(x)", "Q(x) :- S(x)"])

    def test_a_bulk_append_hash_joins_the_live_and_appended_rows(self, monkeypatch):
        # A delta wide enough that the view body's derivation hash-joins the
        # live table followed by its appended rows, instead of probing them.
        from repro.core import engine as engine_module

        union_scans = []
        scan = engine_module._UnionTable.scan
        monkeypatch.setattr(
            engine_module._UnionTable,
            "scan",
            lambda table, bindings=None: union_scans.append(table.name) or scan(table, bindings),
        )
        mvdb = repro.MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [((f"a{i}",), 1.0) for i in range(4)])
        mvdb.add_probabilistic_table("S", ["x", "y"], [((f"a{i}", 1), 2.0) for i in range(4)])
        mvdb.add_markoview(repro.MarkoView("V", repro.parse_query("V(x) :- R(x), S(x, y)"), 2.0))
        engine = MVQueryEngine(mvdb)
        engine.append_facts({
            "R": [[[f"b{i}"], 0.5] for i in range(70)],
            "S": [[[f"b{i}", 1], 1.5] for i in range(70)],
        })
        assert union_scans
        _assert_matches_rebuild(engine, ["Q(x) :- R(x)", "Q(x) :- R(x), S(x, y)"])


class TestPrepareIsReadOnly:
    @staticmethod
    def _snapshot(engine):
        rows = {table.name: len(table) for table in engine.indb.database}
        return rows, engine.indb.tuple_count(), engine.mutation_epoch, engine.w_lineage

    def test_prepare_changes_no_live_state(self):
        engine = MVQueryEngine(build_mvdb(_config()).mvdb)
        before = self._snapshot(engine)
        student, __ = engine.mvdb.database.rows("Advisor")[0]
        pending = engine.prepare_append({"Advisor": [[[student, student], 0.8]]})
        assert pending.added_clauses  # a W-changing append...
        assert self._snapshot(engine) == before  # ...left nothing behind

        existing_student = engine.mvdb.database.rows("Student")[0]
        failing = [
            ({"Student": [[[990001, 2020], 1.5], [[990001, 2020], 2.0]]}, InferenceError),
            ({"Student": [[list(existing_student), 1.5]]}, InferenceError),
            ({"NV_V1": [[[1, 2], 1.5]]}, InferenceError),
            ({"Nowhere": [[1]]}, SchemaError),
        ]
        for facts, error in failing:
            with pytest.raises(error):
                engine.prepare_append(facts)
            assert self._snapshot(engine) == before

        existing_author = list(engine.mvdb.database.rows("Author")[0])
        fresh = [990003, "Ingest Author 990003"]
        pending = engine.prepare_append({"Author": [existing_author, fresh, fresh]})
        assert pending.deterministic_facts == {"Author": [tuple(fresh)]}
        assert pending.added_tuple_count == 1
        assert self._snapshot(engine) == before


    def test_unstorable_rows_fail_in_prepare_not_in_apply(self):
        # The sqlite backend stores int/float/str/bool/None only; prepare
        # checks appended rows against the live table, so apply never meets
        # a row it cannot store halfway through a batch.
        engine = MVQueryEngine(build_mvdb(_config(), backend="sqlite").mvdb)
        before = self._snapshot(engine)
        facts = {
            "Author": [[990004, "Ingest Author 990004"]],
            "Student": [[[990004, (2020,)], 1.5]],
        }
        with pytest.raises(SchemaError, match="not storable"):
            engine.prepare_append(facts)
        assert self._snapshot(engine) == before


@pytest.fixture
def emitted(monkeypatch) -> list[str]:
    """The relation of every row ``_JoinStep.emit`` is called with, in order."""
    rows: list[str] = []
    emit = evaluator._JoinStep.emit
    monkeypatch.setattr(
        evaluator._JoinStep,
        "emit",
        lambda step, *args: (rows.append(step.atom.relation), emit(step, *args)),
    )
    return rows


class TestAppendIsDeltaSized:
    def test_prepare_emits_do_not_grow_with_the_database(self, emitted):
        counts = {}
        for groups in (24, 96):
            mvdb = build_mvdb(DblpConfig(group_count=groups, seed=SEED)).mvdb
            engine = MVQueryEngine(mvdb, build_index=False)
            per_append = []
            for index in range(3):
                del emitted[:]
                engine.prepare_append(append_payload(index, entity=0))
                per_append.append(len(emitted))
            counts[groups] = per_append
        assert counts[24] == counts[96], counts
        assert all(count > 0 for count in counts[24])

    def test_tick_work_does_not_grow_with_the_database(self, emitted):
        # The bench's standing queries for entities 3-12 and its three kinds
        # of append: per tick, the re-evaluations and the rows emitted (delta
        # rule and re-evaluation together) are the same at 24 and 96 groups.
        counts = {}
        for groups in (24, 96):
            mvdb = build_mvdb(DblpConfig(group_count=groups, seed=SEED)).mvdb
            dispatcher = Dispatcher(MVQueryEngine(mvdb))
            # Registered before the service's tick, so it runs first.
            dispatcher.add_delta_listener(lambda descriptor: emitted.clear())
            service = SubscriptionService(dispatcher)
            try:
                for spec in subscription_specs(range(3, 13)):
                    service.subscribe(spec, persist=False)
                per_tick = []
                for index in range(3):
                    evaluations = service.stats()["evaluations_total"]
                    dispatcher.append_facts(append_payload(index, entity=3))
                    per_tick.append(
                        (service.stats()["evaluations_total"] - evaluations, len(emitted))
                    )
            finally:
                service.close()
                dispatcher.close()
            counts[groups] = per_tick
        assert counts[24] == counts[96], counts
        assert all(evaluations <= 1 for evaluations, __ in counts[24]), counts

    def test_tick_work_does_not_grow_with_the_subscriptions(self, monkeypatch):
        # The delta rule runs once per query shape and Δ atom: the bench's
        # templates for 10 entities and for 54 are the same three shapes, so
        # each of the three kinds of append makes as many evaluate_cq calls
        # at 30 subscriptions as at 162.
        calls: list[object] = []
        evaluate_cq = subscribe_evaluator.evaluate_cq
        monkeypatch.setattr(
            subscribe_evaluator,
            "evaluate_cq",
            lambda query, database: (calls.append(query), evaluate_cq(query, database))[1],
        )
        counts = {}
        for entities in (range(3, 13), range(3, 57)):
            mvdb = build_mvdb(DblpConfig(group_count=60, seed=SEED)).mvdb
            dispatcher = Dispatcher(MVQueryEngine(mvdb))
            service = SubscriptionService(dispatcher)
            try:
                for spec in subscription_specs(entities):
                    service.subscribe(spec, persist=False)
                per_tick = []
                for index in range(3):
                    del calls[:]
                    dispatcher.append_facts(append_payload(index, entity=3))
                    per_tick.append(len(calls))
            finally:
                service.close()
                dispatcher.close()
            counts[len(service.registry)] = per_tick
        assert counts[30] == counts[162], counts
        assert all(counts[30]), counts


class TestConcurrentAppendsOnSqlite:
    def test_readers_stream_beside_w_changing_appends(self):
        config = DblpConfig(group_count=GROUPS, seed=SEED)
        engine = MVQueryEngine(build_mvdb(config, backend="sqlite").mvdb)
        dispatcher = Dispatcher(engine)
        stop = threading.Event()
        generations: list[list[int]] = [[] for _ in range(3)]
        errors: list[BaseException] = []

        def read(slot: int) -> None:
            while not stop.is_set():
                try:
                    __, generation = dispatcher.execute(W_QUERIES[slot])
                except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return
                generations[slot].append(generation)

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave prepare's live reads with the readers'
        try:
            for thread in threads:
                thread.start()
            rng = random.Random(7)
            for step in range(8):
                dispatcher.append_facts(w_changing_append(engine.mvdb, rng, step))
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            dispatcher.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"reader thread failed: {errors[0]!r}"
        for observed in generations:
            assert observed and observed == sorted(observed)
        _assert_matches_rebuild(engine, W_QUERIES)


class TestLinearisableReads:
    def test_every_read_equals_the_reference_at_its_generation(self):
        # Linearisability of reads beside one writer (Herlihy and Wing):
        # each answer is bit-identical to a sequential replay at the
        # generation the read returned, and that generation lies between
        # the last append acknowledged before the read began and the first
        # append begun after it ended.  Order is taken from counters, not
        # from a clock.
        reference = repro.connect(build_mvdb(_config()).mvdb)
        rng = random.Random(7)
        payloads: list[dict] = []
        expected = [{query: _answers(reference, query) for query in W_QUERIES}]
        for step in range(8):
            payloads.append(w_changing_append(reference.engine.mvdb, rng, step))
            reference.append_facts(payloads[-1])
            expected.append({query: _answers(reference, query) for query in W_QUERIES})

        dispatcher = Dispatcher(MVQueryEngine(build_mvdb(_config()).mvdb))
        begun = acknowledged = 0
        stop = threading.Event()
        reads: list[tuple[int, int, int, str, dict]] = []
        errors: list[BaseException] = []

        def read(slot: int) -> None:
            turn = slot
            while not stop.is_set():
                query = W_QUERIES[turn % len(W_QUERIES)]
                turn += 1
                low = acknowledged
                try:
                    result, generation = dispatcher.execute(query)
                except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                    errors.append(exc)
                    return
                high = begun
                answers = {row.values: row.probability for row in result}
                reads.append((low, generation, high, query, answers))

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for payload in payloads:
                begun += 1
                dispatcher.append_facts(payload)
                acknowledged += 1
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join()
            dispatcher.close()
        assert not errors, f"reader thread failed: {errors[0]!r}"
        assert reads
        for low, generation, high, query, answers in reads:
            assert low <= generation <= high, (low, generation, high, query)
            assert answers == expected[generation][query], (generation, query)

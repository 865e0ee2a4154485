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
  post-swap answers must reflect the new view set — no stale cache hits.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro
from repro.core.pending import PendingExtend
from repro.dblp.config import DblpConfig
from repro.dblp.workload import build_mvdb
from repro.errors import ServingError
from repro.serving.artifact import engine_state
from repro.serving.dispatch import Dispatcher
from repro.serving.loadgen import dblp_ingest_facts

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
        # The ingest loadgen's fact batches must be valid engine input and
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
        follower.apply_pending(PendingExtend.from_sealed(sealed))
        assert _state(leader) == _state(follower)

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
        dispatcher = Dispatcher(engine, workers=4)
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
                        __, generation = dispatcher.execute(STUDENTS, timeout=30)
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
        post = Dispatcher(engine, workers=1)
        try:
            result, __ = post.execute(AFFILIATION)
            swapped = {row.values: row.probability for row in result}
            assert swapped == _answers(reference, AFFILIATION)
        finally:
            post.close()

    def test_append_through_the_dispatcher_bumps_the_generation(self):
        engine = repro.connect(build_mvdb(_config()).mvdb).engine
        dispatcher = Dispatcher(engine, workers=2)
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

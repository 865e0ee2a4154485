"""Tests for the serving layer: artifacts, canonical keys, query sessions.

The round-trip tests assert *exact* (bit-identical) equality between a
freshly built engine and one cold-started from a saved artifact — the
artifact format preserves variable ids, OBDD node ids and component order,
so every floating-point computation replays identically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import methods
from repro.core.engine import MVQueryEngine
from repro.core.translate import clamp_probability
from repro.dblp.config import DblpConfig
from repro.dblp.workload import (
    advisor_of_student,
    affiliation_of_author,
    build_mvdb,
    students_of_advisor,
)
from repro.errors import ArtifactError, InferenceError
from repro.obdd.manager import ObddManager
from repro.query import parse_query
from repro.serving.artifact import (
    ARTIFACT_VERSION,
    engine_from_state,
    engine_state,
    load_engine,
    save_engine,
)
from repro.serving.canonical import canonical_key
from repro.serving.session import QuerySession

#: ``(method, build_index)`` pairs exercised by the round-trip tests: every
#: exact registered method but "enumeration" (exponential, it needs tiny
#: inputs, so the DBLP workload excludes it).  The ``shannon`` id pins the path the retired Shannon
#: method served: an engine without an index, answering through ``obdd``
#: and its ``P0(W)`` fallback.
ROUND_TRIP_METHODS = [
    pytest.param(method, True, id=method)
    for method in methods.names()
    if methods.get(method).exact and method != "enumeration"
] + [pytest.param("obdd", False, id="shannon")]


def _maps(results) -> list[dict]:
    """The ``{answer: probability}`` map of every result of a batch."""
    return [result.to_dict() for result in results]


@pytest.fixture(scope="module")
def workload():
    return build_mvdb(DblpConfig(group_count=4, seed=0))


@pytest.fixture(scope="module")
def engine(workload):
    return MVQueryEngine(workload.mvdb)


@pytest.fixture(scope="module")
def artifact(engine, tmp_path_factory) -> Path:
    return save_engine(engine, tmp_path_factory.mktemp("artifacts") / "dblp.json.gz")


@pytest.fixture(scope="module")
def loaded(artifact) -> MVQueryEngine:
    return load_engine(artifact)


class TestObddManagerSerialization:
    def test_export_import_round_trip(self):
        manager = ObddManager()
        x, y, z = manager.variable(0), manager.variable(1), manager.variable(2)
        root = manager.apply_or(manager.apply_and(x, y), z)
        exported = manager.export_nodes([root])
        restored = ObddManager.import_nodes(exported["nodes"])
        new_root = exported["roots"][0]
        for bits in range(8):
            assignment = {level: bool(bits >> level & 1) for level in range(3)}
            assert restored.evaluate(new_root, assignment) == manager.evaluate(root, assignment)

    def test_export_skips_garbage_nodes(self):
        manager = ObddManager()
        manager.variable(5)  # unreachable from the exported root
        x = manager.variable(0)
        exported = manager.export_nodes([x])
        assert len(exported["nodes"]) == 1

    def test_import_rejects_corrupt_tables(self):
        from repro.errors import CompilationError

        with pytest.raises(CompilationError):
            # Duplicate entries break the id mapping and must be detected.
            ObddManager.import_nodes([[0, 0, 1], [0, 0, 1]])


class TestCanonicalKeys:
    def test_variable_renaming_is_ignored(self):
        a = parse_query("Q(x) :- Student(x, y), Advisor(x, z)")
        b = parse_query("Q(aid) :- Student(aid, year), Advisor(aid, boss)")
        assert canonical_key(a) == canonical_key(b)

    def test_atom_order_is_ignored(self):
        a = parse_query("Q(x) :- Student(x, y), Advisor(x, z)")
        b = parse_query("Q(x) :- Advisor(x, z), Student(x, y)")
        assert canonical_key(a) == canonical_key(b)

    def test_disjunct_order_is_ignored(self):
        a = parse_query("Q(x) :- Student(x, y); Q(x) :- Advisor(x, z)")
        b = parse_query("Q(x) :- Advisor(x, z); Q(x) :- Student(x, y)")
        assert canonical_key(a) == canonical_key(b)

    def test_constants_distinguish_queries(self):
        a = parse_query("Q(x) :- Author(x, n), n like '%A%'")
        b = parse_query("Q(x) :- Author(x, n), n like '%B%'")
        assert canonical_key(a) != canonical_key(b)

    def test_head_variables_distinguish_queries(self):
        a = parse_query("Q(x) :- Advisor(x, z)")
        b = parse_query("Q(z) :- Advisor(x, z)")
        assert canonical_key(a) != canonical_key(b)


class TestArtifactRoundTrip:
    def test_index_statistics_survive(self, engine, loaded):
        assert loaded.mv_index is not None
        assert loaded.mv_index.component_count() == engine.mv_index.component_count()
        assert loaded.mv_index.size == engine.mv_index.size
        assert loaded.mv_index.width == engine.mv_index.width
        assert loaded.w_lineage == engine.w_lineage
        assert loaded.order.variables() == engine.order.variables()
        assert loaded.probabilities == engine.probabilities

    def test_p0_w_is_bit_identical(self, engine, loaded):
        assert loaded.p0_w() == engine.p0_w()

    @pytest.mark.parametrize("method, build_index", ROUND_TRIP_METHODS)
    def test_probabilities_bit_identical_across_methods(
        self, workload, engine, loaded, tmp_path, method, build_index
    ):
        if not build_index:
            engine = MVQueryEngine(workload.mvdb, build_index=False)
            loaded = load_engine(save_engine(engine, tmp_path / "bare.json.gz"))
            assert loaded.mv_index is None
        queries = [
            students_of_advisor("Advisor 0"),
            advisor_of_student("Student 1-0"),
            affiliation_of_author("Student 2-0"),
        ]
        for query in queries:
            assert loaded.query(query, method=method) == engine.query(query, method=method)

    def test_parallel_build_artifact_is_byte_identical(self, workload, engine, tmp_path):
        # The offline build is deterministic: a second build of the same MVDB
        # writes an artifact byte-identical to the first.
        rebuilt = MVQueryEngine(workload.mvdb)
        first_path = save_engine(engine, tmp_path / "first.json.gz")
        second_path = save_engine(rebuilt, tmp_path / "second.json.gz")
        assert second_path.read_bytes() == first_path.read_bytes()

    def test_extended_engine_round_trips(self, tmp_path):
        # Artifacts saved before an extension load and answer identically
        # under the extended engine's workflow: build V1+V2, persist, reload,
        # extend to V1+V2+V3, persist, reload again.
        partial = build_mvdb(DblpConfig(group_count=4, seed=0), include_views=("V1", "V2"))
        engine = MVQueryEngine(partial.mvdb)
        reloaded = load_engine(save_engine(engine, tmp_path / "partial.json.gz"))

        full = build_mvdb(DblpConfig(group_count=4, seed=0))
        added = reloaded.extend_views(full.mvdb)
        assert reloaded.w_lineage_size > engine.w_lineage_size
        assert added or reloaded.mv_index is None

        reextended = load_engine(save_engine(reloaded, tmp_path / "extended.json.gz"))
        fresh = MVQueryEngine(full.mvdb)
        query = students_of_advisor("Advisor 0")
        extended_answers = reloaded.query(query)
        assert reextended.query(query) == extended_answers
        fresh_answers = fresh.query(query)
        assert set(extended_answers) == set(fresh_answers)
        for answer, probability in fresh_answers.items():
            assert extended_answers[answer] == pytest.approx(probability, abs=1e-12)

    def test_extend_views_rejects_different_base_data(self):
        small = build_mvdb(DblpConfig(group_count=4, seed=0), include_views=("V1",))
        other = build_mvdb(DblpConfig(group_count=5, seed=0))
        engine = MVQueryEngine(small.mvdb)
        with pytest.raises(InferenceError, match="cannot extend"):
            engine.extend_views(other.mvdb)

    def test_round_trip_without_index(self, workload, tmp_path):
        bare = MVQueryEngine(workload.mvdb, build_index=False)
        path = save_engine(bare, tmp_path / "bare.json")
        restored = load_engine(path)
        assert restored.mv_index is None
        query = students_of_advisor("Advisor 0")
        assert restored.query(query, method="obdd") == bare.query(query, method="obdd")

    def test_uncompressed_and_compressed_agree(self, engine, tmp_path):
        plain = save_engine(engine, tmp_path / "a.json")
        packed = save_engine(engine, tmp_path / "a.json.gz")
        assert plain.stat().st_size > packed.stat().st_size
        query = students_of_advisor("Advisor 0")
        assert load_engine(plain).query(query) == load_engine(packed).query(query)

    def test_state_is_json_round_trippable(self, engine):
        state = engine_state(engine)
        rebuilt = engine_from_state(json.loads(json.dumps(state)))
        assert rebuilt.p0_w() == engine.p0_w()

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no MV-index artifact"):
            load_engine(tmp_path / "nope.json")

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else", "version": ARTIFACT_VERSION}))
        with pytest.raises(ArtifactError, match="not an MV-index artifact"):
            load_engine(path)

    def test_wrong_version_raises(self, engine, tmp_path):
        state = engine_state(engine)
        state["version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ArtifactError, match="unsupported artifact version"):
            load_engine(path)

    def test_corrupt_document_raises(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="cannot read"):
            load_engine(path)

    def test_structurally_corrupt_state_raises(self, engine, tmp_path):
        # Parseable JSON with the right format/version but missing structure.
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"format": "repro-mv-index", "version": ARTIFACT_VERSION}))
        with pytest.raises(ArtifactError, match="corrupt MV-index artifact"):
            load_engine(path)
        # ...and with an out-of-range OBDD root id.
        state = engine_state(engine)
        state["index"]["components"][0]["root"] = 10**9
        mangled = tmp_path / "mangled.json"
        mangled.write_text(json.dumps(state))
        with pytest.raises(ArtifactError, match="corrupt MV-index artifact"):
            load_engine(mangled)


class TestNewProcessRoundTrip:
    """The acceptance scenario: reload the artifact in a *fresh* process."""

    def test_new_process_answers_identically(self, engine, artifact):
        query_text = (
            "Q(aid) :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'"
        )
        expected = engine.query(parse_query(query_text), method="mvindex")
        script = (
            "import sys, json, repro\n"
            "db = repro.open(sys.argv[1])\n"
            "answers = db.query(sys.argv[2], method='mvindex').to_dict()\n"
            "print(json.dumps({repr(k): repr(v) for k, v in answers.items()}))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script, str(artifact), query_text],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        ).stdout
        reported = json.loads(output)
        assert reported == {repr(k): repr(v) for k, v in expected.items()}
        assert len(expected) > 0


class TestQuerySession:
    def make_session(self, engine, **kwargs) -> QuerySession:
        return QuerySession(engine, **kwargs)

    def test_result_cache_hit(self, engine):
        session = self.make_session(engine)
        query = students_of_advisor("Advisor 0")
        first = session.execute(query).to_dict()
        second = session.execute(query).to_dict()
        assert first == second
        assert session.statistics.result_hits == 1
        assert session.statistics.result_misses == 1
        assert session.statistics.relational_passes == 1

    def test_canonicalized_variant_hits_cache(self, engine):
        session = self.make_session(engine)
        session.execute(
            parse_query(
                "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
                "n1 like '%Advisor 0%'"
            )
        )
        # Same query with renamed variables and reordered atoms.
        session.execute(
            parse_query(
                "Q(s) :- Author(b, name), Advisor(s, b), Student(s, yr), "
                "name like '%Advisor 0%'"
            )
        )
        assert session.statistics.result_hits == 1
        assert session.statistics.relational_passes == 1

    def test_results_match_uncached_engine(self, engine):
        session = self.make_session(engine)
        for method in ("mvindex", "mvindex-mv"):
            for query in (students_of_advisor("Advisor 1"), advisor_of_student("Student 0-0")):
                expected = engine.query(query, method=method)
                assert session.execute(query, method=method).to_dict() == expected

    def test_session_returns_copies(self, engine):
        session = self.make_session(engine)
        query = students_of_advisor("Advisor 0")
        first = session.execute(query).to_dict()
        first.clear()
        assert session.execute(query).to_dict() != {}

    def test_lineage_cache_shared_across_methods(self, engine):
        session = self.make_session(engine)
        query = students_of_advisor("Advisor 0")
        session.execute(query, method="mvindex")
        session.execute(query, method="mvindex-mv")
        assert session.statistics.relational_passes == 1
        assert session.statistics.lineage_hits == 1

    def test_lru_eviction(self, engine):
        session = self.make_session(engine, cache_size=2)
        for index in range(4):
            session.execute(students_of_advisor(f"Advisor {index}"))
        assert session.statistics.evictions > 0
        info = session.cache_info()
        assert info["result_entries"] <= 2
        assert info["lineage_entries"] <= 2

    def test_prepared_query(self, engine):
        session = self.make_session(engine)
        prepared = session.prepare(students_of_advisor("Advisor 0"))
        assert session.statistics.relational_passes == 1
        by_index = prepared.execute("mvindex").to_dict()
        by_pointer = prepared.execute("mvindex-mv").to_dict()
        assert by_index == by_pointer
        # No further relational work was needed after prepare().
        assert session.statistics.relational_passes == 1
        assert by_index == engine.query(students_of_advisor("Advisor 0"))

    def test_boolean_probability(self, engine):
        session = self.make_session(engine)
        query = parse_query(
            "Q :- Student(aid, y), Advisor(aid, a), Author(a, n), n like '%Advisor 0%'"
        )
        assert session.boolean_probability(query) == engine.boolean_probability(query)

    def test_session_rejects_unknown_method(self, engine):
        session = self.make_session(engine)
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            session.execute(students_of_advisor("Advisor 0"), method="shanon")

    def test_prepared_query_rejects_unknown_method(self, engine):
        prepared = self.make_session(engine).prepare(students_of_advisor("Advisor 0"))
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            prepared.execute(method="mvidnex")

    def test_session_rejects_nv_schema_queries(self, engine):
        session = self.make_session(engine)
        with pytest.raises(InferenceError, match="NV relations"):
            session.execute(parse_query("Q(x) :- NV_V1(x, y)"))
        with pytest.raises(InferenceError, match="NV relations"):
            session.prepare(parse_query("Q(x) :- NV_V1(x, y)"))


class TestQueryBatch:
    def batch_queries(self, count: int = 12) -> list:
        queries = [students_of_advisor(f"Advisor {index}") for index in range(count // 2)]
        queries += [affiliation_of_author(f"Student {index}-0") for index in range(count - len(queries))]
        return queries

    def test_single_relational_pass(self, engine):
        session = QuerySession(engine)
        queries = self.batch_queries(12)
        assert len(queries) >= 10
        results = session.execute_batch(queries)
        assert len(results) == len(queries)
        assert session.statistics.relational_passes == 1
        assert session.statistics.evaluated_disjuncts == len(queries)

    def test_batch_matches_individual_queries(self, engine):
        session = QuerySession(engine)
        queries = self.batch_queries(12)
        results = session.execute_batch(queries)
        for query, result in zip(queries, results):
            assert result.to_dict() == engine.query(query, method="mvindex")

    def test_warm_batch_is_all_hits(self, engine):
        session = QuerySession(engine)
        queries = self.batch_queries(12)
        cold = _maps(session.execute_batch(queries))
        warm = _maps(session.execute_batch(queries))
        assert cold == warm
        assert session.statistics.relational_passes == 1
        assert session.statistics.result_hits == len(queries)

    def test_duplicate_queries_in_batch_are_deduplicated(self, engine):
        session = QuerySession(engine)
        query = students_of_advisor("Advisor 0")
        results = _maps(session.execute_batch([query, query, query]))
        assert results[0] == results[1] == results[2]
        assert session.statistics.result_misses == 1
        # In-batch duplicates are shared computation, not cache hits.
        assert session.statistics.result_hits == 0
        assert session.statistics.deduplicated == 2

    def test_worker_pool_matches_sequential(self, engine):
        # Batches now run their probability stage sequentially; a pool of
        # caller threads sharing one session still gets the sequential
        # answers (two concurrent cold batches may duplicate work, never
        # change it).
        queries = self.batch_queries(12)
        sequential = _maps(QuerySession(engine).execute_batch(queries))
        shared = QuerySession(engine)
        with ThreadPoolExecutor(max_workers=4) as pool:
            rounds = list(pool.map(lambda __: _maps(shared.execute_batch(queries)), range(4)))
        assert rounds == [sequential] * 4

    def test_batch_larger_than_cache_capacity(self, engine):
        # The caches evict mid-batch; the returned answers must not depend on
        # entries surviving until the end of the batch.
        queries = self.batch_queries(12)
        expected = _maps(QuerySession(engine).execute_batch(queries))
        small = QuerySession(engine, cache_size=3)
        assert _maps(small.execute_batch(queries)) == expected
        assert small.statistics.evictions > 0

    def test_batch_rejects_unknown_method(self, engine):
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            QuerySession(engine).execute_batch(self.batch_queries(4), method="shanon")

    def test_batch_shares_disjuncts_across_ucqs(self, engine):
        session = QuerySession(engine)
        union = parse_query(
            "Q(aid) :- Student(aid, y); Q(aid) :- Advisor(aid, a)"
        )
        single = parse_query("Q(aid) :- Student(aid, y)")
        session.execute_batch([union, single])
        # The Student disjunct is shared: 2 distinct CQs, not 3.
        assert session.statistics.evaluated_disjuncts == 2


class TestThreadSafety:
    def test_intersection_never_touches_the_recursion_limit(self):
        # The old kernel raised (and had to guard, across threads) the
        # process-global recursion limit during deep traversals; the
        # iterative kernel must serve deep indexes without ever mutating it.
        from repro.lineage.dnf import DNF
        from repro.mvindex import MVIndex, cc_mv_intersect, mv_intersect
        from repro.obdd import natural_order

        variable_count = 6000
        w = DNF([[2 * i, 2 * i + 1] for i in range(variable_count // 2)])
        probabilities = {v: 0.25 + (v % 7) / 10.0 for v in range(variable_count)}
        base = sys.getrecursionlimit()
        index = MVIndex(w, probabilities, natural_order(range(variable_count)))
        query = DNF([[0], [variable_count - 1]])
        pointer = mv_intersect(index, query, probabilities)
        flat = cc_mv_intersect(index, query, probabilities)
        assert pointer == pytest.approx(flat)
        assert sys.getrecursionlimit() == base

    def test_concurrent_queries_agree_with_sequential(self, engine):
        queries = [students_of_advisor(f"Advisor {index}") for index in range(4)]
        expected = [engine.query(query) for query in queries]
        session = QuerySession(engine)
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            try:
                results[worker_id] = [session.execute(query).to_dict() for query in queries]
            except BaseException as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for answers in results.values():
            assert answers == expected


class TestClampGuard:
    def test_in_range_passes_through(self):
        assert clamp_probability(0.5) == 0.5
        assert clamp_probability(0.0) == 0.0
        assert clamp_probability(1.0) == 1.0

    def test_noise_is_clamped(self):
        assert clamp_probability(-5e-10) == 0.0
        assert clamp_probability(1.0 + 5e-10) == 1.0

    def test_violations_raise(self):
        with pytest.raises(InferenceError, match="outside"):
            clamp_probability(1.5)
        with pytest.raises(InferenceError, match="outside"):
            clamp_probability(-0.2)

    def test_engine_guard_raises_on_corrupt_numerator(self, workload, monkeypatch):
        # Force the intersection to report an impossible numerator: the
        # method strategy must refuse to return an out-of-range probability.
        from repro.methods import MvIndexMethod

        engine = MVQueryEngine(workload.mvdb)
        monkeypatch.setattr(
            MvIndexMethod, "_intersect", staticmethod(lambda *args, **kwargs: -1e6)
        )
        with pytest.raises(InferenceError, match="outside"):
            engine.query(students_of_advisor("Advisor 0"), method="mvindex")

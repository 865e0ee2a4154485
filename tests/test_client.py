"""Tests for the unified client facade, typed results, the inference-method
registry, and the one import path of the names the packages once re-exported."""

from __future__ import annotations

import importlib
import warnings

import pytest

import repro
from repro.core.engine import MVQueryEngine
from repro.dblp.config import DblpConfig
from repro.dblp.workload import affiliation_of_author, build_mvdb, students_of_advisor
from repro.errors import ClientError, InferenceError
from repro.results import Answer, QueryResult
from repro.serving.artifact import save_engine


def example1_mvdb(view_weight: float = 0.25) -> repro.MVDB:
    mvdb = repro.MVDB()
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
    mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0)])
    mvdb.add_markoview(
        repro.MarkoView("V", repro.parse_query("V(x) :- R(x), S(x)"), weight=view_weight)
    )
    return mvdb


@pytest.fixture(scope="module")
def workload():
    return build_mvdb(DblpConfig(group_count=4, seed=0))


@pytest.fixture(scope="module")
def db(workload):
    return repro.connect(workload.mvdb)


class TestConnect:
    def test_connect_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ClientError, match="exactly one"):
            repro.connect()
        with pytest.raises(ClientError, match="exactly one"):
            repro.connect(example1_mvdb(), artifact=tmp_path / "x.json")

    def test_connect_rejects_build_options_with_artifact(self, db, tmp_path):
        path = db.save(tmp_path / "a.json.gz")
        with pytest.raises(ClientError, match="only apply"):
            repro.connect(artifact=path, permutations={"Student": ["aid", "year"]})

    def test_connect_accepts_datalog_strings(self):
        client = repro.connect(example1_mvdb())
        result = client.query("Q :- R(x), S(x)")
        assert isinstance(result, QueryResult)
        assert result.probability(()) == pytest.approx(1.0 / 9.0)

    def test_open_is_exported_alias(self):
        assert repro.open is repro.open_artifact
        assert "open" in repro.__all__

    def test_warm_changes_no_answer(self, workload):
        cold = repro.connect(workload.mvdb)
        warm = repro.connect(workload.mvdb)
        warm.warm()
        for query in (students_of_advisor("Advisor 1"), affiliation_of_author("Student 2-0")):
            assert warm.query(query).to_dict() == cold.query(query).to_dict()

    def test_engine_and_session_reachable(self, db):
        assert isinstance(db.engine, MVQueryEngine)
        assert db.session.engine is db.engine


class TestRoundTrip:
    """Acceptance: the facade round-trips bit-identically with the old path."""

    def test_save_matches_old_export_path_byte_identically(self, db, tmp_path):
        facade_path = db.save(tmp_path / "facade.json.gz")
        legacy_path = save_engine(db.engine, tmp_path / "legacy.json.gz")
        assert facade_path.read_bytes() == legacy_path.read_bytes()

    def test_open_answers_bit_identically(self, db, tmp_path):
        path = db.save(tmp_path / "dblp.json.gz")
        served = repro.open(path)
        query = students_of_advisor("Advisor 0")
        fresh = db.query(query)
        restored = served.query(query)
        # Exact equality, not approx: the artifact preserves variable ids,
        # node ids and component order, so every float replays identically.
        assert restored.to_dict() == fresh.to_dict()
        assert len(fresh) > 0

    def test_stats_surface(self, db):
        stats = db.stats()
        assert stats["possible_tuples"] > 0
        assert stats["w_lineage_clauses"] == db.engine.w_lineage_size
        assert "mvindex" in stats["methods"]
        assert "result_hits" in stats


class TestTypedResults:
    def test_result_and_answer_fields(self, db):
        result = db.query(students_of_advisor("Advisor 1"), method="mvindex")
        assert isinstance(result, QueryResult)
        assert result.method == "mvindex"
        assert result.exact is True
        assert result.wall_time > 0.0
        assert result.touched_components >= 1
        assert result.steps > 0
        assert result.obdd_nodes > 0
        for answer in result:
            assert isinstance(answer, Answer)
            assert 0.0 <= answer.probability <= 1.0
            assert answer.lineage_size >= 1

    def test_answer_unpacks_to_its_values(self, db):
        for answer in db.query(students_of_advisor("Advisor 1")):
            assert tuple(answer) == answer.values

    def test_iteration_is_sorted_by_probability(self, db):
        result = db.query(students_of_advisor("Advisor 1"))
        probabilities = [answer.probability for answer in result]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_to_dict_matches_engine_map(self, db):
        query = students_of_advisor("Advisor 2")
        assert db.query(query).to_dict() == db.engine.query(query)

    def test_getitem_and_probability(self, db):
        result = db.query(students_of_advisor("Advisor 1"))
        answer = next(iter(result))
        assert result[answer.values] == answer.probability
        assert result.probability(answer.values) == answer.probability
        assert result.probability(("no-such-answer",)) == 0.0
        with pytest.raises(KeyError):
            result[("no-such-answer",)]

    def test_to_json_is_serializable(self, db):
        import json

        document = db.query(students_of_advisor("Advisor 1")).to_json()
        parsed = json.loads(json.dumps(document))
        assert parsed["method"] == "mvindex"
        assert parsed["answers"]

    def test_boolean_probability_raises_on_non_boolean_result(self, db):
        result = db.query(students_of_advisor("Advisor 1"))
        with pytest.raises(InferenceError, match="non-Boolean"):
            result.boolean_probability()

    def test_cache_provenance(self, workload):
        client = repro.connect(workload.mvdb)
        query = students_of_advisor("Advisor 3")
        cold = client.query(query)
        warm = client.query(query)
        assert cold.cached is False
        assert warm.cached is True
        assert warm.to_dict() == cold.to_dict()
        # Cached results keep the work counters of the original computation.
        assert warm.steps == cold.steps

    def test_batch_results_typed_with_provenance(self, workload):
        client = repro.connect(workload.mvdb)
        queries = [students_of_advisor(f"Advisor {i}") for i in range(3)]
        cold = client.query_batch(queries)
        warm = client.query_batch(queries)
        assert [r.cached for r in cold] == [False, False, False]
        assert [r.cached for r in warm] == [True, True, True]
        assert [r.to_dict() for r in cold] == [r.to_dict() for r in warm]
        assert client.session.statistics.relational_passes == 1

    def test_prepare_typed_execute(self, db):
        prepared = db.prepare(students_of_advisor("Advisor 0"))
        by_index = prepared.execute("mvindex")
        by_pointer = prepared.execute("mvindex-mv")
        assert isinstance(by_index, QueryResult)
        assert by_index.to_dict() == by_pointer.to_dict()
        assert by_index.method == "mvindex"
        assert by_pointer.method == "mvindex-mv"

    def test_prepared_boolean_probability_rejects_free_variables(self, db):
        prepared = db.prepare(students_of_advisor("Advisor 0"))
        with pytest.raises(InferenceError, match="free head variables"):
            prepared.boolean_probability()


class TestExtend:
    def test_extend_invalidates_session_caches(self):
        partial = build_mvdb(DblpConfig(group_count=4, seed=0), include_views=("V1", "V2"))
        full = build_mvdb(DblpConfig(group_count=4, seed=0), include_views=("V1", "V2", "V3"))
        client = repro.connect(partial.mvdb)
        # An affiliation query: its lineage lives in the components V3
        # creates, so the extension genuinely moves its probabilities.  (A
        # student/advisor query would not budge — components the query does
        # not touch cancel exactly out of the Theorem 1 ratio.)
        query = affiliation_of_author("Student 0-0")
        before = client.query(query)
        assert client.query(query).cached is True

        added = client.extend(full.mvdb)
        assert added
        after = client.query(query)
        # The caches were dropped: this is a fresh computation against the
        # extended view set, and V3 changes the probabilities.
        assert after.cached is False
        oracle = repro.connect(full.mvdb).query(query)
        assert after.to_dict() == pytest.approx(oracle.to_dict())
        assert before.to_dict() != after.to_dict()


class TestMethodRegistry:
    def test_builtins_registered(self):
        names = repro.methods.names()
        for name in ("mvindex", "mvindex-mv", "obdd", "enumeration", "sampling"):
            assert name in names
        assert "shannon" not in names

    def test_registered_is_a_snapshot_of_the_registry(self):
        snapshot = repro.methods.registered()
        assert tuple(sorted(snapshot)) == repro.methods.names()
        for name, method in snapshot.items():
            assert repro.methods.get(name) is method
        snapshot.clear()
        assert repro.methods.names()

    def test_unknown_method(self):
        with pytest.raises(InferenceError, match="unknown evaluation method"):
            repro.methods.get("definitely-not-a-method")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InferenceError, match="already registered"):
            repro.methods.register("mvindex", repro.methods.MvIndexMethod)

    def test_replace_allows_override(self):
        original = repro.methods.get("mvindex")
        try:
            repro.methods.register("mvindex", repro.methods.MvIndexMethod, replace=True)
            assert repro.methods.get("mvindex") is not original
        finally:
            repro.methods.register("mvindex", original, replace=True)

    def test_register_rejects_non_methods(self):
        with pytest.raises(InferenceError, match="InferenceMethod"):
            repro.methods.register("bogus", object())
        with pytest.raises(InferenceError, match="InferenceMethod"):
            repro.methods.register("bogus", dict)

    def test_unregister(self):
        class Dummy(repro.methods.InferenceMethod):
            def probability(self, engine, lineage, statistics=None):
                return 0.5

        repro.methods.register("dummy-method", Dummy)
        assert "dummy-method" in repro.methods.names()
        repro.methods.unregister("dummy-method")
        assert "dummy-method" not in repro.methods.names()
        with pytest.raises(InferenceError, match="nothing to unregister"):
            repro.methods.unregister("dummy-method")

    def test_third_party_method_served_through_facade(self):
        class Constant(repro.methods.InferenceMethod):
            exact = False
            description = "always 0.25"

            def probability(self, engine, lineage, statistics=None):
                return 0.25

        repro.methods.register("constant-demo", Constant)
        try:
            client = repro.connect(example1_mvdb())
            result = client.query("Q :- R(x)", method="constant-demo")
            assert result.method == "constant-demo"
            assert result.exact is False
            assert result.probability(()) == 0.25
        finally:
            repro.methods.unregister("constant-demo")

    def test_register_sets_authoritative_name(self):
        # The registry name keys session caches and typed results; a stale
        # class-level name would collide cache entries across methods.
        method = repro.methods.register(
            "sampling-16", repro.methods.SamplingMethod(samples=16)
        )
        try:
            assert method.name == "sampling-16"
            client = repro.connect(example1_mvdb(view_weight=0.25))
            small = client.query("Q :- R(x)", method="sampling-16")
            default = client.query("Q :- R(x)", method="sampling")
            assert small.method == "sampling-16"
            assert default.method == "sampling"
            # Distinct cache entries: the second query is not a cache hit.
            assert default.cached is False
        finally:
            repro.methods.unregister("sampling-16")

    def test_register_rejects_one_instance_under_two_names(self):
        instance = repro.methods.SamplingMethod()
        repro.methods.register("samp-a", instance)
        try:
            with pytest.raises(InferenceError, match="already registered under"):
                repro.methods.register("samp-b", instance)
        finally:
            repro.methods.unregister("samp-a")

    def test_capability_rejection_on_negative_weights(self):
        # weight 4 > 1: the translated NV tuple has a negative weight, which
        # the sampling method's capability flag must refuse.
        client = repro.connect(example1_mvdb(view_weight=4.0))
        assert client.engine.has_nonstandard_probabilities
        with pytest.raises(InferenceError, match="negative tuple"):
            client.query("Q :- R(x)", method="sampling")

    def test_sampling_close_on_supported_engine(self):
        # weight 0.25 < 1: all translated probabilities are in [0, 1].
        client = repro.connect(example1_mvdb(view_weight=0.25))
        exact = client.boolean_probability("Q :- R(x), S(x)", method="mvindex")
        sampled = client.query("Q :- R(x), S(x)", method="sampling")
        assert sampled.exact is False
        assert sampled.probability(()) == pytest.approx(exact, abs=0.05)

    def test_describe_lists_every_method(self):
        text = repro.methods.describe()
        for name in repro.methods.names():
            assert name in text


#: Names ``repro.core`` and ``repro.serving`` once re-exported, with the
#: module each lives in.  The packages re-export none of them (only
#: ``repro.core.translate``, the function); one import path per name.
_CORE_NAMES = {
    "METHODS": "repro.methods",
    "MVQueryEngine": "repro.core.engine",
    "MVDB": "repro.core.mvdb",
    "MarkoView": "repro.core.markoview",
    "Translation": "repro.core.translate",
    "ViewTranslation": "repro.core.translate",
    "answer_tuple_to_boolean": "repro.core.translate",
    "clamp_probability": "repro.core.translate",
    "theorem1_probability": "repro.core.translate",
}
_SERVING_NAMES = {
    "ARTIFACT_FORMAT": "repro.serving.artifact",
    "ARTIFACT_VERSION": "repro.serving.artifact",
    "DEFAULT_CACHE_SIZE": "repro.serving.session",
    "PreparedQuery": "repro.serving.session",
    "QuerySession": "repro.serving.session",
    "SessionStatistics": "repro.serving.session",
    "canonical_cq_key": "repro.serving.canonical",
    "canonical_key": "repro.serving.canonical",
    "engine_from_state": "repro.serving.artifact",
    "engine_state": "repro.serving.artifact",
    "load_engine": "repro.serving.artifact",
    "save_engine": "repro.serving.artifact",
}
#: The stale ``METHODS`` tuple is gone; the registry lists the methods.
_RENAMED = {"METHODS": "names"}


def _assert_moved(package: str, table: dict[str, str], name: str) -> None:
    """``name`` resolves from its module without a warning, not from ``package``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hasattr(importlib.import_module(table[name]), _RENAMED.get(name, name))
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(package), name)


class TestDeprecationShims:
    @pytest.mark.parametrize("name", _CORE_NAMES)
    def test_core_names_warn_but_work(self, name):
        _assert_moved("repro.core", _CORE_NAMES, name)

    @pytest.mark.parametrize("name", _SERVING_NAMES)
    def test_serving_names_warn_but_work(self, name):
        _assert_moved("repro.serving", _SERVING_NAMES, name)

    def test_core_translate_function_still_shadows_submodule(self):
        # `from repro.core import translate` has always returned the function.
        from repro.core import translate
        from repro.core.translate import translate as deep

        assert translate is deep

    @pytest.mark.parametrize("package", ["repro.core", "repro.serving"])
    def test_dir_lists_the_deprecated_names(self, package):
        module = importlib.import_module(package)
        assert "__getattr__" not in vars(module)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in dir(module):
                getattr(module, name)

    def test_unknown_attributes_still_raise(self):
        package = importlib.import_module("repro.core")
        with pytest.raises(AttributeError):
            package.not_a_name

    def test_deprecated_engine_still_functional(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core.engine import MVQueryEngine as Engine
            from repro.serving.session import QuerySession

            session = QuerySession(Engine(example1_mvdb()))
            direct = session.execute(repro.parse_query("Q :- R(x), S(x)")).to_dict()
        facade = repro.connect(example1_mvdb()).query("Q :- R(x), S(x)")
        assert direct == facade.to_dict()

    def test_top_level_legacy_exports_unchanged(self):
        # The original repro/__init__ surface, silently re-exported.
        for name in [
            "Atom",
            "Comparison",
            "ConjunctiveQuery",
            "DNF",
            "Database",
            "Table",
            "TupleIndependentDatabase",
            "UCQ",
            "Variable",
            "parse_query",
        ]:
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_facade_code_paths_emit_no_deprecation_warnings(self, workload, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            client = repro.connect(workload.mvdb)
            client.query(students_of_advisor("Advisor 0"))
            client.query_batch([students_of_advisor("Advisor 1")])
            path = client.save(tmp_path / "clean.json.gz")
            repro.open(path).query(students_of_advisor("Advisor 0"))

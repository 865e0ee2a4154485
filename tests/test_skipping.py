"""Property-based differential tests for the component summaries.

The read path through the MV-index is one path, so its answers are checked
against the references that stay independent of it: the two intersection
kernels against each other — raw IEEE-754 bytes, not approx, the same way
``test_differential.py`` checks the sqlite backend — and both against
possible-world enumeration, on both storage backends, before and after
extend/append deltas.  Beside that, the structural invariants of the
summaries:

* **soundness**: the analysis' relevant set is a superset of every answer's
  touched component set (the premise of the Theorem-1 cancellation that
  makes skipping exact), and a batch analysis is a superset of each of its
  queries' single analyses;
* **maintenance**: the O(delta) summary updates applied on extend/append
  produce a store bit-equal (via ``export_state``) to a fresh scan of the
  mutated index;
* **persistence**: ``export_state``/``from_state`` round-trips losslessly
  and the restored store analyses identically;
* **serving surface**: the session threads ``skipped_components`` and
  ``skip_analysis_ms`` into :class:`repro.QueryResult`;
* **attribution**: the subscription evaluator credits each provable skip to
  the summary that was decisive (relation signature vs variable bitmap).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import MVDB, MarkoView, parse_query
from repro.core.engine import MVQueryEngine
from repro.db import SqliteBackend
from repro.mvindex.summaries import SummaryStore
from repro.query.ucq import as_ucq
from repro.serving.dispatch import Dispatcher
from repro.subscribe import SubscriptionService

#: Queries mixing variables-only bodies (relation-signature pruning) with
#: constant positions (sketch probes) and a union.  All are answerable over
#: the random instances below.
QUERY_POOL = (
    "Q :- R(x), S(x, y)",
    "Q(x) :- R(x)",
    "Q :- R('a0')",
    "Q :- S(x, 0)",
    "Q(y) :- S('a0', y)",
    "Q :- R('a1') ; Q :- S(x, 1)",
)


@st.composite
def skip_cases(draw):
    """Pure-data spec of one random MVDB + queries + an append batch.

    Returning data (not objects) lets each test materialise the *same*
    instance on both backends with identical insertion order, hence
    identical variable ids — the precondition for bit-level comparison.
    """
    weights = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
    r_size = draw(st.integers(min_value=1, max_value=3))
    s_size = draw(st.integers(min_value=1, max_value=4))
    r_rows = [((f"a{i}",), draw(weights)) for i in range(r_size)]
    s_rows = []
    for j in range(s_size):
        owner = draw(st.integers(min_value=0, max_value=r_size - 1))
        s_rows.append(((f"a{owner}", j), draw(weights)))
    view_weights = [draw(st.sampled_from([0.0, 0.2, 0.5, 2.0, 5.0]))]
    if draw(st.booleans()):
        view_weights.append(draw(st.sampled_from([0.3, 4.0])))
    queries = draw(
        st.lists(st.sampled_from(QUERY_POOL), min_size=1, max_size=3, unique=True)
    )
    append = {
        "R": [((f"b{i}",), draw(weights)) for i in range(draw(st.integers(0, 2)))],
        "S": [(("a0", 90 + j), draw(weights)) for j in range(draw(st.integers(0, 2)))],
    }
    append = {name: rows for name, rows in append.items() if rows}
    return r_rows, s_rows, view_weights, queries, append


def build_mvdb(case) -> MVDB:
    r_rows, s_rows, view_weights, __, __ = case
    mvdb = MVDB()
    mvdb.add_probabilistic_table("R", ["x"], r_rows)
    mvdb.add_probabilistic_table("S", ["x", "y"], s_rows)
    mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), view_weights[0]))
    if len(view_weights) > 1:
        mvdb.add_markoview(MarkoView("V2", parse_query("V2(x, y) :- S(x, y)"), view_weights[1]))
    return mvdb


def bits(answers: dict) -> dict:
    """Probabilities as raw IEEE-754 bytes: equality here is bit-identity."""
    return {answer: struct.pack("<d", value) for answer, value in answers.items()}


def touched_components(engine: MVQueryEngine, query) -> "set[int]":
    """Union of every answer's touched component set, from the lineages."""
    from repro.query.evaluator import evaluate_ucq

    ucq = as_ucq(parse_query(query) if isinstance(query, str) else query)
    result = evaluate_ucq(ucq, engine.indb.database, engine.indb)
    touched: set[int] = set()
    for lineage in result.lineages().values():
        variables = lineage.variables()
        for key, component in engine.mv_index.components.items():
            if variables & set(component.variables):
                touched.add(key)
    return touched


def assert_skip_invariants(engine: MVQueryEngine, queries) -> None:
    """The per-engine contract: soundness + kernels agree with each other and the oracle."""
    for text in queries:
        query = parse_query(text)
        flat = engine.query(query, method="mvindex")
        pointer = engine.query(query, method="mvindex-mv")
        assert bits(flat) == bits(pointer), text
        exact = engine.mvdb.exact_answer_probabilities(query)
        assert flat.keys() == exact.keys(), text
        for answer, probability in exact.items():
            assert flat[answer] == pytest.approx(probability, abs=1e-9), (text, answer)
        if engine.summaries is None:
            continue
        analysis = engine.skip_analysis(as_ucq(query))
        assert touched_components(engine, query) <= analysis.relevant_keys, text
        assert analysis.relevant_count + analysis.skipped_count == len(engine.summaries)


class TestSkipDifferentialProperty:
    @given(skip_cases())
    @settings(max_examples=30, deadline=None)
    def test_skip_is_invisible_on_both_backends(self, case):
        __, __, __, queries, __ = case
        memory = MVQueryEngine(build_mvdb(case))
        sqlite = MVQueryEngine(build_mvdb(case), backend=SqliteBackend())
        try:
            assert_skip_invariants(memory, queries)
            assert_skip_invariants(sqlite, queries)
            for text in queries:
                query = parse_query(text)
                assert bits(memory.query(query)) == bits(sqlite.query(query)), text
        finally:
            sqlite.indb.database.close()

    @given(skip_cases())
    @settings(max_examples=30, deadline=None)
    def test_append_maintains_summaries_and_identity(self, case):
        __, __, __, queries, append = case
        if not append:
            return
        memory = MVQueryEngine(build_mvdb(case))
        sqlite = MVQueryEngine(build_mvdb(case), backend=SqliteBackend())
        try:
            for engine in (memory, sqlite):
                engine.append_facts(append)
                if engine.summaries is not None:
                    fresh = SummaryStore.from_index(engine.mv_index, engine.indb.tuple_of)
                    assert engine.summaries.export_state() == fresh.export_state()
                assert_skip_invariants(engine, queries)
            for text in queries:
                query = parse_query(text)
                assert bits(memory.query(query)) == bits(sqlite.query(query)), text
        finally:
            sqlite.indb.database.close()

    @given(skip_cases())
    @settings(max_examples=20, deadline=None)
    def test_batch_analysis_is_superset_of_singles(self, case):
        __, __, __, queries, __ = case
        engine = MVQueryEngine(build_mvdb(case))
        if engine.summaries is None:
            return
        ucqs = [as_ucq(parse_query(text)) for text in queries]
        batch = engine.skip_analysis(ucqs)
        for ucq in ucqs:
            single = engine.skip_analysis(ucq)
            assert single.relevant_keys <= batch.relevant_keys


def _small_engine() -> MVQueryEngine:
    mvdb = MVDB()
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
    mvdb.add_probabilistic_table(
        "S", ["x", "y"], [(("a", 1), 2.0), (("b", 1), 0.8)]
    )
    mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), 2.0))
    return MVQueryEngine(mvdb)


class TestSummaryStoreContract:
    def test_constant_probe_prunes_disjoint_component(self):
        # R(a)/S(a,1) and R(b)/S(b,1) compile into disjoint components; the
        # 'a'-constant query must prove the 'b' component irrelevant.
        engine = _small_engine()
        analysis = engine.skip_analysis(as_ucq(parse_query("Q :- R('a'), S('a', y)")))
        assert analysis.skipped_count >= 1
        assert_skip_invariants(engine, ["Q :- R('a'), S('a', y)"])

    def test_export_import_round_trip_is_lossless(self):
        engine = _small_engine()
        state = engine.summaries.export_state()
        restored = SummaryStore.from_state(state)
        assert restored.export_state() == state
        query = as_ucq(parse_query("Q :- R('a'), S('a', y)"))
        assert restored.analyze(query).relevant_keys == (
            engine.summaries.analyze(query).relevant_keys
        )

    def test_extend_maintains_summaries_and_identity(self):
        engine = _small_engine()
        spec = MVDB()
        spec.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        spec.add_probabilistic_table(
            "S", ["x", "y"], [(("a", 1), 2.0), (("b", 1), 0.8)]
        )
        spec.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), 2.0))
        spec.add_markoview(MarkoView("V2", parse_query("V2(x, y) :- S(x, y)"), 0.5))
        engine.extend_views(spec)
        fresh = SummaryStore.from_index(engine.mv_index, engine.indb.tuple_of)
        assert engine.summaries.export_state() == fresh.export_state()
        assert_skip_invariants(
            engine, ["Q :- R(x), S(x, y)", "Q :- R('a'), S('a', y)", "Q(x) :- R(x)"]
        )


class TestServingSurface:
    def test_query_result_reports_skipped_components(self):
        db = repro.connect(_small_engine().mvdb)
        result = db.query("Q :- R('a'), S('a', y)")
        assert result.skipped_components >= 1
        assert result.skip_analysis_ms >= 0.0
        # Cache hits replay the recorded skip accounting unchanged.
        again = db.query("Q :- R('a'), S('a', y)")
        assert again.skipped_components == result.skipped_components

    def test_result_json_round_trips_skip_fields(self):
        from repro.results import QueryResult

        db = repro.connect(_small_engine().mvdb)
        result = db.query("Q :- R('a'), S('a', y)")
        restored = QueryResult.from_json(result.to_json())
        assert restored.skipped_components == result.skipped_components
        assert restored.skip_analysis_ms == result.skip_analysis_ms


class TestSubscriptionAttribution:
    def _service(self):
        mvdb = MVDB()
        mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0), (("b",), 0.5)])
        mvdb.add_probabilistic_table(
            "S", ["x", "y"], [(("a", 1), 2.0), (("b", 1), 0.8)]
        )
        mvdb.add_probabilistic_table("T", ["x"], [(("t0",), 1.5)])
        mvdb.add_markoview(MarkoView("V1", parse_query("V1(x) :- R(x), S(x, y)"), 2.0))
        dispatcher = Dispatcher(MVQueryEngine(mvdb))
        return dispatcher, SubscriptionService(dispatcher)

    def test_skips_attributed_to_decisive_summary(self):
        dispatcher, service = self._service()
        try:
            # T is in no view: deltas over R/S are provably disjoint from it.
            service.subscribe({"query": "Q(x) :- T(x)"}, persist=False)

            # A new S derivation recompiles V1 components -> the delta
            # carries a non-empty component bitmap: bitmap-attributed skip.
            dispatcher.append_facts({"S": [[["a", 99], 1.0]]})
            stats = service.stats()
            assert stats["skips_bitmap_total"] == 1
            assert stats["skips_signature_total"] == 0

            # A T append touches no component at all (bitmap 0); a second
            # subscription over R/S is cleared by the signature alone.
            service.subscribe({"query": "Q :- R(x), S(x, y)"}, persist=False)
            dispatcher.append_facts({"T": [[["t1"], 1.5]]})
            stats = service.stats()
            assert stats["skips_signature_total"] == 1
            assert stats["skips_bitmap_total"] == 1

            (t_sub, rs_sub) = service.registry.ordered()
            assert t_sub.skips_bitmap == 1 and t_sub.skips_signature == 0
            # The T subscription overlaps its own delta, so it re-evaluated.
            assert t_sub.evaluations >= 2
            assert rs_sub.skips_signature == 1 and rs_sub.skips_bitmap == 0
            assert {"skips_signature", "skips_bitmap"} <= set(t_sub.describe())
        finally:
            service.close()
            dispatcher.close()

    @pytest.mark.parametrize("kind", ["signature", "bitmap"])
    def test_skipped_answers_match_fresh_queries(self, kind):
        dispatcher, service = self._service()
        try:
            doc = service.subscribe({"query": "Q(x) :- T(x)"}, persist=False)
            facts = (
                {"R": [[["c"], 0.7]]} if kind == "signature" else {"S": [[["a", 99], 1.0]]}
            )
            before = dispatcher.generation
            dispatcher.append_facts(facts)
            subscription = service.registry.ordered()[0]
            assert subscription.sub_id == doc["id"]
            assert subscription.last_generation == before  # provably skipped
            fresh = dispatcher.session.execute(as_ucq(parse_query("Q(x) :- T(x)")))
            expected = {answer.values: answer.probability for answer in fresh.answers}
            assert bits(subscription.answers) == bits(expected)
        finally:
            service.close()
            dispatcher.close()

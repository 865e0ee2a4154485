"""Ablation tests for the design choices called out in DESIGN.md.

* offline index construction: ConOBDD concatenation vs CUDD-style synthesis
  (the same ablation as Fig. 8, but on the full V1+V2 index build);
* online component pruning: a selective workload query touches only a small
  fraction of the MV-index components, which is what makes Figs. 10/11 flat.
"""

from repro.core.engine import MVQueryEngine
from repro.dblp import build_sweep_mvdb, students_of_advisor
from repro.experiments import ExperimentResult, time_call
from repro.experiments.sweeps import base_dataset, sweep_aid_values
from repro.mvindex import IntersectStatistics, MVIndex, cc_mv_intersect
from repro.query.evaluator import evaluate_ucq


def test_ablation_index_construction_method(sweep_settings, emit):
    """Concatenation and pure synthesis must build the same MV-index."""
    data = base_dataset(sweep_settings)
    max_aid = sweep_aid_values(data, sweep_settings.points)[-1]
    workload = build_sweep_mvdb(data, max_aid, include_views=("V1", "V2"))
    engine = MVQueryEngine(workload.mvdb, build_index=False)
    result = ExperimentResult(
        name="ablation_index_construction",
        description="MV-index build: ConOBDD concatenation vs CUDD-style synthesis",
        columns=["method", "seconds", "index_nodes"],
    )
    for method in ("concat", "synthesis"):
        seconds, index = time_call(
            lambda m=method: MVIndex(
                engine.w_lineage, engine.probabilities, engine.order, construction=m
            )
        )
        result.add_row(method=method, seconds=seconds, index_nodes=index.size)
    emit(result)
    by_method = {row["method"]: row for row in result.rows}
    assert by_method["concat"]["index_nodes"] == by_method["synthesis"]["index_nodes"]


def test_ablation_component_pruning(dblp_engine, emit):
    """A selective query must touch only a small fraction of the index components."""
    engine = dblp_engine
    query = students_of_advisor("Advisor 0")
    evaluated = evaluate_ucq(query, engine.indb.database, engine.indb)
    statistics = IntersectStatistics()
    touched_total = 0
    for lineage in evaluated.lineages().values():
        per_answer = IntersectStatistics()
        cc_mv_intersect(engine.mv_index, lineage, engine.probabilities, statistics=per_answer)
        touched_total = max(touched_total, per_answer.touched_components)
        statistics.pair_expansions += per_answer.pair_expansions
    result = ExperimentResult(
        name="ablation_component_pruning",
        description="MV-index components touched by one selective workload query",
        columns=["total_components", "max_touched_components", "pair_expansions"],
    )
    result.add_row(
        total_components=engine.mv_index.component_count(),
        max_touched_components=touched_total,
        pair_expansions=statistics.pair_expansions,
    )
    emit(result)
    row = result.rows[0]
    assert row["max_touched_components"] < row["total_components"] / 2

"""Full-dataset experiments: Fig. 1 inventory, Figs. 10–11, and §5.4 scalability.

These run on the "full" synthetic DBLP dataset (all three MarkoViews), build
the MV-index offline once, and then measure per-query latency for the two
query workloads of Sect. 5.4: *students of an advisor X* (Fig. 10) and
*affiliation of an author Y* (Fig. 11).  Queries are served through a
:class:`~repro.serving.session.QuerySession`, so every figure also reports
the *warm* (result-cached) latency next to the cold one, and
:func:`serving_cold_warm` measures the batch-serving path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client import ProbDB
from repro.core.engine import MVQueryEngine
from repro.dblp.config import DblpConfig
from repro.dblp.workload import (
    DblpWorkload,
    affiliation_of_author,
    build_mvdb,
    students_of_advisor,
)
from repro.experiments.harness import ExperimentResult, query_row, time_call


@dataclass(frozen=True)
class FullDatasetSettings:
    """Scale of the full-dataset experiments.

    ``backend`` is a storage-backend spec (``None``/``"memory"``,
    ``"sqlite"``, ``"sqlite:<path>"``) applied to the generated dataset and
    the MVDB — the sqlite backend is what makes the 10^5–10^6-tuple points
    of the scalability sweep feasible.
    """

    group_count: int = 24
    seed: int = 0
    query_count: int = 10
    backend: str | None = None


def full_workload(settings: FullDatasetSettings | None = None) -> DblpWorkload:
    """The full synthetic DBLP workload (all MarkoViews)."""
    settings = settings or FullDatasetSettings()
    config = DblpConfig(group_count=settings.group_count, seed=settings.seed)
    return build_mvdb(config, backend=settings.backend)


# --------------------------------------------------------------------- Fig. 1
def fig1_dataset_inventory(settings: FullDatasetSettings | None = None) -> ExperimentResult:
    """Fig. 1 (tables): row counts of every base, derived and probabilistic relation."""
    workload = full_workload(settings)
    result = ExperimentResult(
        name="fig1_dataset_inventory",
        description="Synthetic DBLP inventory (cf. the table sizes of Fig. 1)",
        columns=["relation", "rows"],
    )
    for relation, count in workload.size_report().items():
        result.add_row(relation=relation, rows=count)
    return result


# ------------------------------------------------------------- Figs. 10 & 11
def _query_latencies(
    db: ProbDB,
    queries: list,
    name: str,
    description: str,
) -> ExperimentResult:
    """Cold and warm per-query latency through the client facade.

    ``seconds`` is the cold latency (relational round trip plus MV-index
    intersection); ``warm_seconds`` re-issues the same query and measures the
    result-cache path a production serving process would hit.  Both come
    straight from the typed result's own wall clock.
    """
    result = ExperimentResult(
        name=name,
        description=description,
        columns=["query", "seconds", "warm_seconds", "answers", "steps"],
    )
    for position, query in enumerate(queries, start=1):
        cold = db.query(query, method="mvindex")
        warm = db.query(query, method="mvindex")
        if cold.cached or not warm.cached:  # pragma: no cover - serving invariant
            raise AssertionError("cold/warm cache provenance is inverted")
        row = query_row(f"q{position}", cold)
        row.pop("cached")
        row["warm_seconds"] = warm.wall_time
        result.add_row(**row)
    return result


def fig10_students_of_advisor(
    settings: FullDatasetSettings | None = None,
    workload: DblpWorkload | None = None,
    engine: MVQueryEngine | None = None,
) -> ExperimentResult:
    """Fig. 10: latency of ten "students of advisor X" queries on the full dataset."""
    settings = settings or FullDatasetSettings()
    workload = workload or full_workload(settings)
    engine = engine or MVQueryEngine(workload.mvdb)
    advisors = [f"Advisor {group}" for group in range(settings.query_count)]
    queries = [students_of_advisor(name) for name in advisors]
    return _query_latencies(
        ProbDB(engine),
        queries,
        name="fig10_students_of_advisor",
        description="Per-query latency: students of an advisor (MV-index)",
    )


def fig11_affiliation_of_author(
    settings: FullDatasetSettings | None = None,
    workload: DblpWorkload | None = None,
    engine: MVQueryEngine | None = None,
) -> ExperimentResult:
    """Fig. 11: latency of ten "affiliation of author Y" queries on the full dataset."""
    settings = settings or FullDatasetSettings()
    workload = workload or full_workload(settings)
    engine = engine or MVQueryEngine(workload.mvdb)
    authors = [f"Student {group}-0" for group in range(settings.query_count)]
    queries = [affiliation_of_author(name) for name in authors]
    return _query_latencies(
        ProbDB(engine),
        queries,
        name="fig11_affiliation_of_author",
        description="Per-query latency: affiliation of an author (MV-index)",
    )


# ---------------------------------------------------------------- §5.4 scale
def scalability_index_build(
    settings: FullDatasetSettings | None = None,
    workload: DblpWorkload | None = None,
    tuple_targets: "tuple[int, ...] | None" = None,
) -> ExperimentResult:
    """§5.4: offline cost and size of building the MV-index, along a tuples axis.

    One row per dataset scale.  With ``tuple_targets`` (approximate total
    tuple counts, e.g. ``(10_000, 100_000, 1_000_000)``) the synthetic DBLP
    generator is re-run at group counts extrapolated from ``settings`` to hit
    each target; otherwise a single row at ``settings.group_count`` (or the
    supplied ``workload``) is measured.  ``index_build_s`` is the end-to-end
    offline cost (translate + lineage of ``W`` + serial index compile).
    """
    settings = settings or FullDatasetSettings()
    result = ExperimentResult(
        name="scalability_index_build",
        description="Offline MV-index construction along the dataset-size axis",
        columns=[
            "tuples",
            "groups",
            "backend",
            "possible_tuples",
            "w_lineage_clauses",
            "index_nodes",
            "index_components",
            "translate_and_lineage_s",
            "index_build_s",
            "index_build_serial_s",
        ],
    )

    if tuple_targets is None:
        workloads = [workload or full_workload(settings)]
    else:
        base = full_workload(settings)
        per_group = max(1, base.mvdb.database.total_rows() // settings.group_count)
        workloads = []
        for target in tuple_targets:
            groups = max(1, round(target / per_group))
            scaled = FullDatasetSettings(
                group_count=groups,
                seed=settings.seed,
                query_count=settings.query_count,
                backend=settings.backend,
            )
            workloads.append(full_workload(scaled))

    from repro.mvindex.index import MVIndex

    for load in workloads:
        build_seconds, engine = time_call(lambda: MVQueryEngine(load.mvdb, build_index=False))
        serial_seconds, index = time_call(
            lambda: MVIndex(engine.w_lineage, engine.probabilities, engine.order)
            if not engine.w_lineage.is_false
            else None
        )
        result.add_row(
            tuples=load.mvdb.database.total_rows(),
            groups=load.config.group_count,
            backend=load.mvdb.database.backend.name,
            possible_tuples=load.mvdb.possible_tuple_count(),
            w_lineage_clauses=engine.w_lineage_size,
            index_nodes=index.size if index is not None else 0,
            index_components=index.component_count() if index is not None else 0,
            translate_and_lineage_s=build_seconds,
            index_build_s=build_seconds + serial_seconds,
            index_build_serial_s=serial_seconds,
        )
    return result


# ------------------------------------------------------------ serving layer
def serving_cold_warm(
    settings: FullDatasetSettings | None = None,
    workload: DblpWorkload | None = None,
    engine: MVQueryEngine | None = None,
) -> ExperimentResult:
    """Cold-versus-warm batch serving on the full dataset.

    Runs the Figs. 10/11 query mix twice through
    :meth:`~repro.serving.session.QuerySession.execute_batch`: the first round
    pays one shared relational evaluation pass plus the MV-index
    intersections, the second is answered entirely from the result cache.
    Also measures the artifact round trip (save + cold start from disk) the
    ``save-index`` / ``load-index`` CLI commands rely on.
    """
    import os
    import tempfile

    from repro.client import connect

    settings = settings or FullDatasetSettings()
    workload = workload or full_workload(settings)
    engine = engine or MVQueryEngine(workload.mvdb)
    db = ProbDB(engine)
    queries = [students_of_advisor(f"Advisor {index}") for index in range(settings.query_count)]
    queries += [affiliation_of_author(f"Student {index}-0") for index in range(settings.query_count)]

    handle, path = tempfile.mkstemp(suffix=".json.gz")
    os.close(handle)
    try:
        save_seconds, __ = time_call(lambda: db.save(path))
        artifact_bytes = os.path.getsize(path)
        load_seconds, served = time_call(lambda: connect(artifact=path))
    finally:
        os.unlink(path)

    cold_seconds, cold_results = time_call(lambda: served.query_batch(queries))
    warm_seconds, warm_results = time_call(lambda: served.query_batch(queries))
    if [r.to_dict() for r in cold_results] != [r.to_dict() for r in warm_results]:
        raise AssertionError(  # pragma: no cover - serving invariant
            "warm batch results diverged from the cold batch"
        )
    info = served.session.cache_info()

    result = ExperimentResult(
        name="serving_cold_warm",
        description="Batch serving from a saved MV-index artifact: cold vs warm",
        columns=[
            "batch_queries",
            "answers",
            "artifact_bytes",
            "save_s",
            "load_s",
            "cold_batch_s",
            "warm_batch_s",
            "warm_speedup",
            "relational_passes",
            "result_hits",
        ],
    )
    result.add_row(
        batch_queries=len(queries),
        answers=sum(len(answers) for answers in cold_results),
        artifact_bytes=artifact_bytes,
        save_s=save_seconds,
        load_s=load_seconds,
        cold_batch_s=cold_seconds,
        warm_batch_s=warm_seconds,
        warm_speedup=cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        relational_passes=info["relational_passes"],
        result_hits=info["result_hits"],
    )
    return result

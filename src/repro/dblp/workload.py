"""Assembly of the DBLP MVDB and the workload queries of Sect. 5.

:func:`build_mvdb` puts together the deterministic tables (generator), the
probabilistic tables (weights of Fig. 1's middle block) and the MarkoViews
V1–V3, producing the :class:`~repro.core.mvdb.MVDB` on which every experiment of
Sect. 5 runs.  The query builders mirror the paper's workload: *find the
students of advisor X*, *find the advisor of student Y*, and *find the
affiliation of author Z* (plus the running-example "Madden" query).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mvdb import MVDB
from repro.db.backend import resolve_backend
from repro.dblp.config import DblpConfig
from repro.errors import SchemaError
from repro.dblp.generator import DblpData, generate_dblp, restrict_to_aid
from repro.dblp.probabilistic import (
    ProbabilisticTables,
    build_probabilistic_tables,
    iter_weighted_rows,
)
from repro.dblp.views import recent_copub_rows, v1_view, v2_view, v3_view
from repro.query.parser import parse_query
from repro.query.ucq import UCQ


@dataclass
class DblpWorkload:
    """Everything the experiments need: data, probabilistic tables, and the MVDB."""

    config: DblpConfig
    data: DblpData
    tables: ProbabilisticTables
    mvdb: MVDB

    def size_report(self) -> dict[str, int]:
        """Row counts of every deterministic/probabilistic relation and view."""
        return self.mvdb.size_report()


def build_mvdb(
    config: DblpConfig | None = None,
    data: DblpData | None = None,
    include_views: tuple[str, ...] = ("V1", "V2", "V3"),
    include_affiliation: bool = True,
    backend: "str | None" = None,
) -> DblpWorkload:
    """Build the DBLP MVDB of Fig. 1.

    Parameters
    ----------
    config:
        Generator configuration (scale, seed, thresholds).
    data:
        Optionally reuse an existing deterministic dataset (e.g. one produced
        by :func:`repro.dblp.generator.restrict_to_aid` for a domain sweep).
    include_views:
        Which of the MarkoViews V1/V2/V3 to attach — the Alchemy comparison
        of Sect. 5.1 uses only V1 and V2, exactly as the paper does.
    include_affiliation:
        Whether to materialise the Affiliation probabilistic table (not needed
        when V3 is excluded; skipping it speeds up sweeps).
    backend:
        Storage backend spec for the MVDB — ``"memory"`` (default),
        ``"sqlite"`` or ``"sqlite:<path>"``.  The spec is resolved once;
        when ``data`` is not supplied, the generated deterministic dataset
        goes on a fresh sibling of that backend (so a ``sqlite:<path>``
        file holds the MVDB alone).
    """
    unknown = sorted(set(include_views) - {"V1", "V2", "V3"})
    if unknown:
        # Silently dropping a typo'd view name would build an MVDB without the
        # intended correlations and make every probability quietly wrong.
        raise SchemaError(f"unknown MarkoView name(s) {unknown}; choose from V1, V2, V3")
    config = config or DblpConfig()
    storage = resolve_backend(backend)
    data = data or generate_dblp(config, backend=storage.spawn())
    tables = build_probabilistic_tables(data)

    mvdb = MVDB(backend=storage)
    for table in data.database:
        mvdb.add_deterministic_table(table.name, table.schema.attribute_names, table.scan())
    mvdb.add_deterministic_table("RecentCoPub", ["aid1", "aid2"], recent_copub_rows(tables, config))

    mvdb.add_probabilistic_table(
        "Student", ["aid", "year"], iter_weighted_rows(tables.student)
    )
    mvdb.add_probabilistic_table(
        "Advisor", ["aid1", "aid2"], iter_weighted_rows(tables.advisor)
    )
    if include_affiliation or "V3" in include_views:
        mvdb.add_probabilistic_table(
            "Affiliation", ["aid", "inst"], iter_weighted_rows(tables.affiliation)
        )

    if "V1" in include_views:
        mvdb.add_markoview(v1_view(tables))
    if "V2" in include_views:
        mvdb.add_markoview(v2_view())
    if "V3" in include_views:
        mvdb.add_markoview(v3_view(tables, config))

    return DblpWorkload(config=config, data=data, tables=tables, mvdb=mvdb)


def build_sweep_mvdb(
    base_data: DblpData,
    max_aid: int,
    include_views: tuple[str, ...] = ("V1", "V2"),
) -> DblpWorkload:
    """An MVDB over the subset of authors with ``aid ≤ max_aid`` (Sect. 5.1 sweeps)."""
    restricted = restrict_to_aid(base_data, max_aid)
    return build_mvdb(
        config=base_data.config,
        data=restricted,
        include_views=include_views,
        include_affiliation="V3" in include_views,
    )


# --------------------------------------------------------------------- queries
def students_of_advisor(advisor_name: str) -> UCQ:
    """Find all (probable) students of the advisor whose name matches."""
    return parse_query(
        "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid1, n1), "
        f"n1 like '%{advisor_name}%'"
    )


def advisor_of_student(student_name: str) -> UCQ:
    """Find the (probable) advisor of the student whose name matches."""
    return parse_query(
        "Q(aid1) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
        f"n like '%{student_name}%'"
    )


def affiliation_of_author(author_name: str) -> UCQ:
    """Find the (probable) affiliation of the author whose name matches."""
    return parse_query(
        "Q(inst) :- Affiliation(aid, inst), Author(aid, n), " f"n like '%{author_name}%'"
    )


def madden_query(advisor_name: str = "Advisor 0") -> UCQ:
    """The running example of Fig. 2: students advised by a named advisor."""
    return parse_query(
        "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
        f"Author(aid1, n1), n1 like '%{advisor_name}%'"
    )

"""The probabilistic tables of Fig. 1: Studentp, Advisorp, Affiliationp.

Each table is defined by a query over the deterministic DBLP tables together
with a weight expression (the middle block of Fig. 1):

* ``Studentp(aid, year)[exp(1 − 0.15·(year − year'))]`` for every year within
  ``[year' − 1, year' + 5]`` of the author's first publication ``year'``;
* ``Advisorp(aid1, aid2)[exp(0.25·count(pid))]`` when ``aid1`` (a candidate
  student) and ``aid2`` (not a student that year) co-authored more than the
  configured number of papers during ``aid1``'s student years;
* ``Affiliationp(aid, inst)[exp(0.1·count(pid))]`` when ``aid`` (with no
  known DBLP affiliation) recently co-authored papers with authors from
  ``inst``.

The aggregates (``count(pid)``) are computed here directly over the
deterministic tables — in the paper this is the SQL that materialises the
probabilistic tables in Postgres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.dblp.generator import DblpData


@dataclass
class ProbabilisticTables:
    """Weighted rows of the three probabilistic tables plus the support counts."""

    #: (aid, year) -> weight.
    student: dict[tuple[int, int], float] = field(default_factory=dict)
    #: (aid1, aid2) -> weight.
    advisor: dict[tuple[int, int], float] = field(default_factory=dict)
    #: (aid, inst) -> weight.
    affiliation: dict[tuple[int, str], float] = field(default_factory=dict)
    #: (aid1, aid2) -> number of co-authored papers while aid1 was a student
    #: (feeds both the Advisorp weight and the V1 view weight).
    student_copub_count: dict[tuple[int, int], int] = field(default_factory=dict)
    #: (aid1, aid2) -> number of recent co-authored papers (feeds V3).
    recent_copub_count: dict[tuple[int, int], int] = field(default_factory=dict)

def build_probabilistic_tables(data: DblpData) -> ProbabilisticTables:
    """Materialise Studentp, Advisorp, Affiliationp from the deterministic tables."""
    config = data.config
    database = data.database
    tables = ProbabilisticTables()

    first_pub = {aid: year for aid, year in database.rows("FirstPub")}
    pub_year = {pid: year for pid, __, year in database.rows("Pub")}
    authors_of_pid: dict[int, list[int]] = {}
    pids_of_author: dict[int, list[int]] = {}
    for aid, pid in database.rows("Wrote"):
        authors_of_pid.setdefault(pid, []).append(aid)
        pids_of_author.setdefault(aid, []).append(pid)

    # ------------------------------------------------------------- Studentp
    for aid, year_first in first_pub.items():
        for year in range(year_first - 1, year_first + 6):
            tables.student[(aid, year)] = math.exp(1.0 - 0.15 * (year - year_first))

    student_years = {}
    for (aid, year) in tables.student:
        student_years.setdefault(aid, set()).add(year)

    # ------------------------------------------------------------- Advisorp
    copub: dict[tuple[int, int], int] = {}
    for pid, authors in authors_of_pid.items():
        year = pub_year[pid]
        for aid1 in authors:
            if year not in student_years.get(aid1, ()):
                continue
            for aid2 in authors:
                if aid2 == aid1:
                    continue
                if year in student_years.get(aid2, ()):
                    continue
                copub[(aid1, aid2)] = copub.get((aid1, aid2), 0) + 1
    tables.student_copub_count = copub
    for (aid1, aid2), count in copub.items():
        if count > config.advisor_min_papers:
            tables.advisor[(aid1, aid2)] = math.exp(0.25 * count)

    # ---------------------------------------------------------- Affiliationp
    known_affiliation = {aid: inst for aid, inst in database.rows("DBLPAffiliation")}
    recent_copub: dict[tuple[int, int], int] = {}
    affiliation_support: dict[tuple[int, str], int] = {}
    for pid, authors in authors_of_pid.items():
        year = pub_year[pid]
        if year > config.v3_year_cutoff:
            for aid1 in authors:
                for aid2 in authors:
                    if aid1 != aid2:
                        recent_copub[(aid1, aid2)] = recent_copub.get((aid1, aid2), 0) + 1
        if year <= config.affiliation_year_cutoff:
            continue
        for aid in authors:
            if aid in known_affiliation:
                continue
            for aid2 in authors:
                if aid2 == aid or aid2 not in known_affiliation:
                    continue
                key = (aid, known_affiliation[aid2])
                affiliation_support[key] = affiliation_support.get(key, 0) + 1
    tables.recent_copub_count = recent_copub
    for (aid, inst), count in affiliation_support.items():
        tables.affiliation[(aid, inst)] = math.exp(0.1 * count)

    return tables


def iter_weighted_rows(rows: dict) -> Iterable[tuple[tuple, float]]:
    """Yield ``(row, weight)`` pairs in a deterministic order."""
    for key in sorted(rows, key=repr):
        yield key, rows[key]

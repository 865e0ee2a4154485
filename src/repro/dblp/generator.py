"""Synthetic DBLP-style data generator (the deterministic tables of Fig. 1).

Generated relations:

* ``Author(aid, name)`` — advisors are named ``"Advisor <g>"`` and students
  ``"Student <g>-<i>"`` so that the paper's LIKE-based workload queries
  ("find the students of advisor X") have natural selection constants;
* ``Wrote(aid, pid)`` and ``Pub(pid, title, year)`` — each student
  co-authors several papers with their advisor during their PhD years, the
  advisor has earlier solo papers (so the advisor's first publication
  predates the student's), and a few cross-group papers add noise;
* ``HomePage(aid, url)`` — advisors (and a few students) have a home page at
  their group's institution;
* derived views ``FirstPub(aid, year)`` and ``DBLPAffiliation(aid, inst)``,
  exactly as in Fig. 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.db.database import Database
from repro.dblp.config import DblpConfig

#: Rows buffered per relation before a bulk insert into the backend.
STREAM_BATCH = 8192


class _Stream:
    """Buffered writer into one backend table (one transaction per batch)."""

    def __init__(self, table: Any, batch: int = STREAM_BATCH) -> None:
        self.table = table
        self.batch = batch
        self._buffer: list[tuple[Any, ...]] = []

    def add(self, row: tuple[Any, ...]) -> None:
        self._buffer.append(row)
        if len(self._buffer) >= self.batch:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self.table.insert_many(self._buffer)
            self._buffer.clear()


@dataclass
class DblpData:
    """The generated deterministic database plus convenient lookup structures."""

    config: DblpConfig
    database: Database
    #: aid of the advisor of each group.
    advisors: list[int] = field(default_factory=list)
    #: (aid, group index) of every student.
    students: list[tuple[int, int]] = field(default_factory=list)
    #: institution name of each group.
    institutions: list[str] = field(default_factory=list)

def generate_dblp(config: DblpConfig | None = None, backend: Any = None) -> DblpData:
    """Generate the deterministic DBLP-style database described in Fig. 1.

    ``backend`` selects the storage backend of the generated database
    (``"sqlite"`` streams rows straight to disk in batched transactions, so
    million-tuple instances never materialise in Python memory).  Insertion
    order is identical on every backend: ``Author``/``Pub``/``HomePage`` rows
    stream out in generation order, ``Wrote`` is buffered and sorted —
    exactly the order the in-memory generator has always produced, which
    keeps downstream variable assignment reproducible.
    """
    config = config or DblpConfig()
    rng = random.Random(config.seed)

    database = Database(backend=backend)
    authors = _Stream(database.create_table("Author", ["aid", "name"]))
    # Wrote is accumulated as a set: co-authorship generation produces
    # duplicates, and the relation is sorted before loading (stable order).
    wrote: set[tuple[int, int]] = set()
    wrote_table = database.create_table("Wrote", ["aid", "pid"])
    pubs = _Stream(database.create_table("Pub", ["pid", "title", "year"]))
    homepages = _Stream(database.create_table("HomePage", ["aid", "url"]))
    advisors: list[int] = []
    students: list[tuple[int, int]] = []
    institutions: list[str] = []

    next_aid = 1
    next_pid = 1

    def new_paper(year: int, author_ids: list[int]) -> None:
        nonlocal next_pid
        pubs.add((next_pid, f"Paper {next_pid}", year))
        for aid in author_ids:
            wrote.add((aid, next_pid))
        next_pid += 1

    for group in range(config.group_count):
        institution = f"inst{group}.edu"
        institutions.append(institution)

        advisor_aid = next_aid
        next_aid += 1
        authors.add((advisor_aid, f"Advisor {group}"))
        advisors.append(advisor_aid)
        if rng.random() < config.homepage_fraction:
            homepages.add((advisor_aid, f"http://www.{institution}/~adv{group}"))

        group_start = rng.randint(config.first_year, config.last_year - config.phd_years - 2)
        # The advisor publishes alone before the group exists, which pushes the
        # advisor's FirstPub far before the students' and keeps the advisor out
        # of the Student candidate table during the students' PhD years.
        for offset in range(config.advisor_prior_papers):
            new_paper(max(config.first_year, group_start - offset - 1), [advisor_aid])

        student_count = rng.randint(config.min_students, config.max_students)
        group_students: list[int] = []
        for index in range(student_count):
            student_aid = next_aid
            next_aid += 1
            authors.add((student_aid, f"Student {group}-{index}"))
            students.append((student_aid, group))
            group_students.append(student_aid)

            phd_start = group_start + rng.randint(0, 2)
            papers = rng.randint(config.min_coauthored_papers, config.max_coauthored_papers)
            for __ in range(papers):
                year = min(config.last_year, phd_start + rng.randint(0, config.phd_years - 1))
                coauthors = [student_aid, advisor_aid]
                # Occasionally a labmate joins the paper.
                if group_students[:-1] and rng.random() < 0.3:
                    coauthors.append(rng.choice(group_students[:-1]))
                new_paper(year, coauthors)

            # Many students also co-author with a senior from an earlier group:
            # this creates a second advisor candidate, which is what the denial
            # view V2 ("a person has only one advisor") rules against.
            if advisors[:-1] and rng.random() < config.second_advisor_fraction:
                second_advisor = rng.choice(advisors[:-1])
                for __ in range(config.advisor_min_papers + 1):
                    year = min(
                        config.last_year, phd_start + rng.randint(0, config.phd_years - 1)
                    )
                    new_paper(year, [student_aid, second_advisor])

        # Recent collaborations inside the group (drive the Affiliation feature
        # and MarkoView V3): group members publish together after the cutoff,
        # both with the advisor and in student-student pairs (the latter is what
        # gives V3 pairs of inferred-affiliation authors).
        recent_year = max(config.affiliation_year_cutoff + 1, group_start + config.phd_years)
        recent_year = min(recent_year, config.last_year)
        for member in group_students:
            for __ in range(config.v3_copub_threshold + 1):
                new_paper(min(config.last_year, recent_year + rng.randint(0, 2)), [member, advisor_aid])
        for left, right in zip(group_students, group_students[1:]):
            for __ in range(config.v3_copub_threshold + 1):
                new_paper(min(config.last_year, recent_year + rng.randint(0, 2)), [left, right])

    # Cross-group noise papers.
    rng_students = [aid for aid, __ in students]
    for student_aid, group in students:
        for __ in range(config.cross_group_papers):
            other = rng.choice(rng_students)
            if other == student_aid:
                continue
            # Cross-group papers are recent so that they never predate anybody's
            # group publications (keeping FirstPub ordered advisor-before-student).
            year = rng.randint(config.affiliation_year_cutoff, config.last_year)
            new_paper(year, [student_aid, other])

    authors.flush()
    pubs.flush()
    homepages.flush()
    wrote_table.insert_many(sorted(wrote))
    _add_derived_views(database)
    return DblpData(
        config=config,
        database=database,
        advisors=advisors,
        students=students,
        institutions=institutions,
    )


def _add_derived_views(database: Database) -> None:
    """Materialise the derived views FirstPub and DBLPAffiliation of Fig. 1."""
    first_pub: dict[int, int] = {}
    pub_year = {pid: year for pid, __, year in database.table("Pub").scan()}
    for aid, pid in database.table("Wrote").scan():
        year = pub_year[pid]
        if aid not in first_pub or year < first_pub[aid]:
            first_pub[aid] = year
    database.create_table("FirstPub", ["aid", "year"], sorted(first_pub.items()))

    affiliations = []
    for aid, url in database.rows("HomePage"):
        institution = url.split("www.", 1)[-1].split("/", 1)[0]
        affiliations.append((aid, institution))
    database.create_table("DBLPAffiliation", ["aid", "inst"], affiliations)


def restrict_to_aid(data: DblpData, max_aid: int) -> DblpData:
    """Restrict the dataset to authors with ``aid ≤ max_aid``.

    This reproduces the sweep methodology of Sect. 5.1, where the domain of
    ``aid`` is limited to 1000..10000 to scale the workload.
    """
    database = Database()
    keep = {aid for aid, __ in data.database.rows("Author") if aid <= max_aid}
    database.create_table(
        "Author", ["aid", "name"], [row for row in data.database.rows("Author") if row[0] in keep]
    )
    wrote = [row for row in data.database.rows("Wrote") if row[0] in keep]
    kept_pids = {pid for __, pid in wrote}
    database.create_table("Wrote", ["aid", "pid"], wrote)
    database.create_table(
        "Pub", ["pid", "title", "year"], [row for row in data.database.rows("Pub") if row[0] in kept_pids]
    )
    database.create_table(
        "HomePage", ["aid", "url"], [row for row in data.database.rows("HomePage") if row[0] in keep]
    )
    _add_derived_views_from_existing(database, data.database, keep)
    return DblpData(
        config=data.config,
        database=database,
        advisors=[aid for aid in data.advisors if aid in keep],
        students=[(aid, group) for aid, group in data.students if aid in keep],
        institutions=list(data.institutions),
    )


def _add_derived_views_from_existing(
    database: Database, source: Database, keep: set[int]
) -> None:
    database.create_table(
        "FirstPub", ["aid", "year"], [row for row in source.rows("FirstPub") if row[0] in keep]
    )
    database.create_table(
        "DBLPAffiliation",
        ["aid", "inst"],
        [row for row in source.rows("DBLPAffiliation") if row[0] in keep],
    )

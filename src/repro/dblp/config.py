"""Configuration of the synthetic DBLP-style workload.

The paper's experiments run on the real DBLP dump (1M authors, 4.5M Wrote
tuples, Fig. 1).  That dataset is not redistributable here, so the workload
is generated synthetically: research groups with one senior author (the
prospective advisor), several students, co-authored papers during the
students' early years, and home pages that determine a known affiliation for
some authors.  The generator is seeded and scales linearly with
``group_count``, so the domain sweeps of Figs. 4–9 can be reproduced at
laptop scale while keeping the paper's growth shapes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DblpConfig:
    """Parameters of the synthetic DBLP generator."""

    #: Number of research groups (one advisor plus students per group).
    group_count: int = 30
    #: Minimum / maximum number of students per group.
    min_students: int = 2
    max_students: int = 4
    #: Papers co-authored by a student with their advisor during the PhD.
    min_coauthored_papers: int = 3
    max_coauthored_papers: int = 8
    #: Solo / senior papers published by the advisor before the group started.
    advisor_prior_papers: int = 4
    #: Extra cross-group collaborations per student (introduces noise edges).
    cross_group_papers: int = 1
    #: Fraction of students who also publish with a senior from another group,
    #: creating a *second* advisor candidate (what the denial view V2 penalises).
    second_advisor_fraction: float = 0.6
    #: Year range of the synthetic bibliography.
    first_year: int = 1995
    last_year: int = 2012
    #: Length of a student's PhD (years with co-authored papers).
    phd_years: int = 5
    #: Fraction of advisors with a home page (hence a known DBLP affiliation).
    homepage_fraction: float = 0.9
    #: Recent-collaboration threshold used by MarkoView V3 (paper: 30 papers on
    #: full DBLP; scaled down for the synthetic data).
    v3_copub_threshold: int = 4
    #: Year cut-offs of the Affiliation feature / V3 (paper: 2005 and 2004).
    affiliation_year_cutoff: int = 2005
    v3_year_cutoff: int = 2004
    #: Minimum number of co-authored papers for an Advisor candidate (paper: > 2).
    advisor_min_papers: int = 2
    #: Random seed for reproducibility.
    seed: int = 0

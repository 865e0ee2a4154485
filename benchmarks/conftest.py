"""Shared fixtures for the figure-regeneration tests.

Every test regenerates the data series of one table/figure of the paper (at
laptop scale), prints it, and asserts the paper's shape on exact quantities
(lineage clauses, OBDD nodes, apply steps, pair expansions, touched
components).  Timing columns are printed and written but never asserted —
``bench/`` is where time is measured.  CSVs go to the test's ``tmp_path``;
the committed ``benchmarks/results/*.csv`` are ``make bench`` output.
"""

from __future__ import annotations

import pytest

from repro.core.engine import MVQueryEngine
from repro.experiments import (
    FullDatasetSettings,
    SweepSettings,
    full_workload,
)


@pytest.fixture(scope="session")
def sweep_settings() -> SweepSettings:
    """Scale of the domain sweeps (Figs. 4-9)."""
    return SweepSettings(
        group_count=14,
        points=4,
        mcsat_samples=12,
        mcsat_burn_in=3,
        mcsat_max_flips=400,
        alchemy_cutoff=3,
    )


@pytest.fixture(scope="session")
def full_settings() -> FullDatasetSettings:
    """Scale of the full-dataset experiments (Figs. 1, 10, 11, §5.4)."""
    return FullDatasetSettings(group_count=24, query_count=10)


@pytest.fixture(scope="session")
def dblp_workload(full_settings):
    """The full synthetic DBLP workload (built once per benchmark session)."""
    return full_workload(full_settings)


@pytest.fixture(scope="session")
def dblp_engine(dblp_workload):
    """An engine with the MV-index built offline (shared by Figs. 10/11)."""
    return MVQueryEngine(dblp_workload.mvdb)


@pytest.fixture
def emit(tmp_path):
    """Print a result table and persist it as CSV under the test's ``tmp_path``."""

    def _emit(result) -> None:
        print()
        print(result.to_text())
        print(f"[written] {result.write_csv(tmp_path)}")

    return _emit

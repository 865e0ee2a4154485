"""Experiment runners that regenerate every table and figure of Sect. 5."""

from repro.experiments.harness import DEFAULT_RESULTS_DIR, ExperimentResult, report, time_call
from repro.experiments.queries import (
    FullDatasetSettings,
    fig1_dataset_inventory,
    fig10_students_of_advisor,
    fig11_affiliation_of_author,
    full_workload,
    scalability_index_build,
    serving_cold_warm,
)
from repro.experiments.sweeps import (
    SweepSettings,
    base_dataset,
    fig4_lineage_size,
    fig5_advisor_of_student,
    fig6_students_of_advisor,
    fig7_fig8_obdd_construction,
    fig9_intersection,
    sweep_aid_values,
)

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "ExperimentResult",
    "FullDatasetSettings",
    "SweepSettings",
    "base_dataset",
    "fig1_dataset_inventory",
    "fig10_students_of_advisor",
    "fig11_affiliation_of_author",
    "fig4_lineage_size",
    "fig5_advisor_of_student",
    "fig6_students_of_advisor",
    "fig7_fig8_obdd_construction",
    "fig9_intersection",
    "full_workload",
    "report",
    "scalability_index_build",
    "serving_cold_warm",
    "sweep_aid_values",
    "time_call",
]

"""The MV-index: offline compilation of W and online intersection algorithms."""

from repro.mvindex.augmented import AugmentedObdd
from repro.mvindex.cc_intersect import (
    FlatObdd,
    IntersectStatistics,
    cc_mv_intersect,
    compile_query_obdd,
)
from repro.mvindex.index import IndexedComponent, MVIndex
from repro.mvindex.intersect import mv_intersect, p0_q_or_w
from repro.mvindex.summaries import (
    ComponentSummary,
    SkipAnalysis,
    SummaryStore,
    summarize_component,
)

__all__ = [
    "AugmentedObdd",
    "ComponentSummary",
    "FlatObdd",
    "IndexedComponent",
    "IntersectStatistics",
    "MVIndex",
    "SkipAnalysis",
    "SummaryStore",
    "cc_mv_intersect",
    "compile_query_obdd",
    "mv_intersect",
    "p0_q_or_w",
    "summarize_component",
]

"""Markov Logic Network substrate: grounding, exact and MC-SAT inference."""

from repro.mln.exact import marginals, partition_function, query_probability
from repro.mln.mcsat import Constraint, McSatSampler, SampleSat
from repro.mln.model import (
    GroundFeature,
    MarkovLogicNetwork,
    features_as_constraints,
    mln_from_mvdb,
)

__all__ = [
    "Constraint",
    "GroundFeature",
    "MarkovLogicNetwork",
    "McSatSampler",
    "SampleSat",
    "features_as_constraints",
    "marginals",
    "mln_from_mvdb",
    "partition_function",
    "query_probability",
]

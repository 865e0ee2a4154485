"""Tuple-independent probabilistic databases (weights, INDB, possible worlds)."""

from repro.indb.database import TupleIndependentDatabase
from repro.indb.weights import (
    CERTAIN_WEIGHT,
    markoview_weight_to_indb_weight,
    probability_to_weight,
    weight_to_probability,
)

__all__ = [
    "CERTAIN_WEIGHT",
    "TupleIndependentDatabase",
    "markoview_weight_to_indb_weight",
    "probability_to_weight",
    "weight_to_probability",
]

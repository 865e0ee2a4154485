"""Weight / odds / probability conversions.

Following Def. 2 of the paper, tuple-independent databases are specified by
*weights* rather than probabilities: the weight ``w`` of a tuple represents
the odds of its marginal probability, ``w = p / (1 - p)``, so weights
``0, 1, ∞`` correspond to probabilities ``0, 1/2, 1``.

MarkoView weights are translated into INDB weights by ``(1 - w) / w``
(Def. 5), which is *negative* whenever ``w > 1`` — these negative weights
(and the negative probabilities they induce) are a deliberate feature of the
translation and are handled throughout the exact-inference pipeline.
"""

from __future__ import annotations

import math

from repro.errors import WeightError

#: Weight of a deterministic (certain) tuple.
CERTAIN_WEIGHT = math.inf


def weight_to_probability(weight: float) -> float:
    """Convert a tuple weight (odds) into a marginal probability ``w/(1+w)``.

    Handles the deterministic case ``w = ∞`` (probability 1) and negative
    weights produced by the MarkoView translation, for which the result is a
    negative "probability" — a bookkeeping number, see Sect. 3.3.
    """
    if math.isinf(weight):
        if weight > 0:
            return 1.0
        raise WeightError("weight -inf has no probability")
    if weight == -1.0:
        raise WeightError("weight -1 corresponds to an infinite probability")
    return weight / (1.0 + weight)


def probability_to_weight(probability: float) -> float:
    """Convert a marginal probability into a weight (odds) ``p/(1-p)``."""
    if probability == 1.0:
        return CERTAIN_WEIGHT
    return probability / (1.0 - probability)


def markoview_weight_to_indb_weight(view_weight: float) -> float:
    """Translate a MarkoView tuple weight into the weight of its ``NV`` tuple.

    Per Def. 5 this is ``(1 - w) / w``.  The special case ``w = 0`` (a denial
    constraint) yields ``+∞``: the ``NV`` tuple becomes deterministic.
    Infinite view weights are rejected: a MarkoView with weight ``∞`` would
    make its output tuples certain, which the paper handles by declaring the
    contributing tuples deterministic instead.
    """
    if view_weight < 0:
        raise WeightError(f"MarkoView weights must be non-negative, got {view_weight}")
    if math.isinf(view_weight):
        raise WeightError(
            "MarkoView weight ∞ is not supported; model hard positive constraints by "
            "making the contributing tuples deterministic"
        )
    if view_weight == 0.0:
        return CERTAIN_WEIGHT
    return (1.0 - view_weight) / view_weight

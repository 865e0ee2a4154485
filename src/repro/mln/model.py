"""Markov Logic Network substrate (grounded form).

An MVDB *is* an MLN (Def. 4): one single-literal feature per possible base
tuple (weight = the tuple's odds) and one feature per MarkoView output tuple
(formula = the Boolean query ``Q(t)``, weight = the view weight for ``t``).
This module represents that grounded MLN explicitly and is the substrate for
the "Alchemy" baseline of the experiments: exact inference (enumeration)
and MC-SAT.

Weights here are *multiplicative* (a world's weight is the product of the
weights of the satisfied features), exactly as in Eq. 1 of the paper; a
weight ``ω`` corresponds to the conventional log-linear weight ``log ω``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import WeightError
from repro.lineage.dnf import DNF


@dataclass(frozen=True)
class GroundFeature:
    """One grounded feature: a monotone lineage formula and its weight.

    ``weight = 0`` is a hard *denial* constraint (worlds satisfying the
    formula have weight 0); ``weight = math.inf`` is a hard requirement.
    """

    formula: DNF
    weight: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.weight < 0 or math.isnan(self.weight):
            raise WeightError(f"feature weights must be non-negative, got {self.weight}")

    @property
    def is_hard_denial(self) -> bool:
        """True for weight-0 features (the formula must be false)."""
        return self.weight == 0.0

    @property
    def is_hard_requirement(self) -> bool:
        """True for weight-∞ features (the formula must be true)."""
        return math.isinf(self.weight)

    @property
    def log_weight(self) -> float:
        """The conventional MLN log-weight ``log ω``."""
        if self.weight == 0.0:
            return -math.inf
        return math.log(self.weight)


@dataclass
class MarkovLogicNetwork:
    """A grounded MLN over Boolean tuple variables.

    Parameters
    ----------
    variables:
        The tuple variables of the network.
    base_weights:
        Per-variable weight (odds); equivalent to a single-literal feature.
    features:
        The grounded view features.
    """

    variables: list[int]
    base_weights: dict[int, float]
    features: list[GroundFeature] = field(default_factory=list)

    def __post_init__(self) -> None:
        missing = [v for v in self.variables if v not in self.base_weights]
        if missing:
            raise WeightError(f"variables {missing[:5]} have no base weight")

    # ------------------------------------------------------------- inspection
    def variable_count(self) -> int:
        """Number of Boolean variables."""
        return len(self.variables)

    def feature_count(self) -> int:
        """Number of grounded (non-unary) features."""
        return len(self.features)

    def features_of_variable(self) -> dict[int, list[int]]:
        """Index: variable → positions of the features whose formula mentions it."""
        index: dict[int, list[int]] = {variable: [] for variable in self.variables}
        for position, feature in enumerate(self.features):
            for variable in feature.formula.variables():
                index.setdefault(variable, []).append(position)
        return index

    # ------------------------------------------------------------ world weight
    def world_weight(self, assignment: Mapping[int, bool]) -> float:
        """``Φ(I)``: product of base weights of present tuples and satisfied features."""
        weight = 1.0
        for variable in self.variables:
            if assignment.get(variable, False):
                base = self.base_weights[variable]
                if math.isinf(base):
                    continue
                weight *= base
            else:
                if math.isinf(self.base_weights[variable]):
                    return 0.0
        for feature in self.features:
            if feature.formula.evaluate(dict(assignment)):
                if feature.is_hard_denial:
                    return 0.0
                if not feature.is_hard_requirement:
                    weight *= feature.weight
            else:
                if feature.is_hard_requirement:
                    return 0.0
        return weight

    def satisfies_hard_constraints(self, assignment: Mapping[int, bool]) -> bool:
        """True if no hard constraint (weight 0 or ∞ feature) is violated."""
        assignment = dict(assignment)
        for feature in self.features:
            value = feature.formula.evaluate(assignment)
            if feature.is_hard_denial and value:
                return False
            if feature.is_hard_requirement and not value:
                return False
        return True


def mln_from_mvdb(mvdb) -> MarkovLogicNetwork:
    """Ground the MLN associated with an MVDB (Def. 4).

    Certain base tuples (weight ∞) are treated as deterministically present
    and therefore never appear in the variable list; view features keep only
    the lineage over the uncertain tuples.
    """
    variables = [v for v in mvdb.base.variables() if not mvdb.base.is_certain(v)]
    base_weights = {v: mvdb.base.weight_of_variable(v) for v in variables}
    features: list[GroundFeature] = []
    for view in mvdb.views:
        for row, weight, lineage in mvdb.view_tuples(view):
            if weight == 1.0:
                continue
            features.append(GroundFeature(lineage, weight, name=f"{view.name}{row}"))
    return MarkovLogicNetwork(variables, base_weights, features)


def features_as_constraints(mln: MarkovLogicNetwork) -> Iterable[tuple[DNF, float]]:
    """Yield ``(formula, weight)`` pairs including the unary base-weight features."""
    for variable in mln.variables:
        yield DNF.variable(variable), mln.base_weights[variable]
    for feature in mln.features:
        yield feature.formula, feature.weight

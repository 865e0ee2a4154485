"""Gibbs sampling for grounded MLNs.

A straightforward single-site Gibbs sampler over the tuple variables.  Hard
constraints (weight 0 / ∞ features) are respected by giving zero conditional
probability to values that would violate them; note that hard constraints
can in principle disconnect the state space, in which case MC-SAT
(:mod:`repro.mln.mcsat`) is the appropriate sampler — this mirrors the
Alchemy tool-box.
"""

from __future__ import annotations

import math
import random

from repro.lineage.dnf import DNF
from repro.mln.model import MarkovLogicNetwork


class GibbsSampler:
    """Single-site Gibbs sampler with marginal and query estimation."""

    def __init__(self, mln: MarkovLogicNetwork, seed: int | None = None) -> None:
        self.mln = mln
        self.random = random.Random(seed)
        self._feature_index = mln.features_of_variable()
        self.state: dict[int, bool] = {variable: False for variable in mln.variables}
        for variable, weight in mln.base_weights.items():
            if math.isinf(weight):
                self.state[variable] = True

    # ----------------------------------------------------------------- moves
    def _conditional_probability(self, variable: int) -> float:
        """P(X_variable = 1 | rest of the current state)."""
        base = self.mln.base_weights[variable]
        if math.isinf(base):
            return 1.0
        ratio = base
        state = self.state
        for position in self._feature_index.get(variable, ()):
            feature = self.mln.features[position]
            state[variable] = True
            true_if_present = feature.formula.evaluate(state)
            state[variable] = False
            true_if_absent = feature.formula.evaluate(state)
            if true_if_present == true_if_absent:
                continue
            # Monotone formulas: presence can only turn the feature on.
            if feature.is_hard_denial:
                return 0.0
            if feature.is_hard_requirement:
                return 1.0
            ratio *= feature.weight
        return ratio / (1.0 + ratio)

    def sweep(self) -> None:
        """One Gibbs sweep over all variables (random order)."""
        variables = list(self.mln.variables)
        self.random.shuffle(variables)
        for variable in variables:
            probability = self._conditional_probability(variable)
            self.state[variable] = self.random.random() < probability

    # -------------------------------------------------------------- estimates
    def estimate_marginals(self, samples: int = 500, burn_in: int = 50) -> dict[int, float]:
        """Estimated marginal probability of every variable."""
        counts: dict[int, int] = {variable: 0 for variable in self.mln.variables}
        for __ in range(burn_in):
            self.sweep()
        for __ in range(samples):
            self.sweep()
            for variable, present in self.state.items():
                if present:
                    counts[variable] += 1
        return {variable: count / samples for variable, count in counts.items()}

    def estimate_query(self, formula: DNF, samples: int = 500, burn_in: int = 50) -> float:
        """Estimated probability that ``formula`` holds."""
        hits = 0
        for __ in range(burn_in):
            self.sweep()
        for __ in range(samples):
            self.sweep()
            if formula.evaluate(self.state):
                hits += 1
        return hits / samples

"""MC-SAT inference for grounded MLNs (the Alchemy baseline of Figs. 5–6).

MC-SAT (Poon & Domingos, AAAI 2006) is a slice sampler: at every step it
selects a random subset ``M`` of the ground formulas that the current world
satisfies — a formula with multiplicative weight ``ω > 1`` is selected with
probability ``1 − 1/ω`` — plus all hard constraints, and then draws the next
world (near-)uniformly from the assignments satisfying ``M`` using
SampleSAT (a mixture of WalkSAT and simulated-annealing moves).

Features with weight ``ω < 1`` are handled by the standard trick of treating
them as the *negated* formula with weight ``1/ω``; weight-0 features are
hard denial constraints; per-tuple base weights act as single-literal
features.  This mirrors how Alchemy grounds an MLN built from MarkoViews.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from repro.errors import InferenceError
from repro.lineage.dnf import DNF
from repro.mln.model import MarkovLogicNetwork


@dataclass(frozen=True)
class Constraint:
    """A constraint handed to SampleSAT: a formula that must be true or false."""

    formula: DNF
    must_hold: bool

    def satisfied(self, assignment: dict[int, bool]) -> bool:
        """Whether the constraint holds under ``assignment``."""
        return self.formula.evaluate(assignment) == self.must_hold

    def variables(self) -> frozenset[int]:
        """Variables the constraint depends on."""
        return self.formula.variables()


class SampleSat:
    """Approximately uniform sampling of assignments satisfying a constraint set."""

    def __init__(
        self,
        rng: random.Random,
        walk_probability: float = 0.5,
        greedy_probability: float = 0.8,
        temperature: float = 0.5,
        max_flips: int = 2000,
    ) -> None:
        self.rng = rng
        self.walk_probability = walk_probability
        self.greedy_probability = greedy_probability
        self.temperature = temperature
        self.max_flips = max_flips

    def sample(
        self,
        constraints: list[Constraint],
        variables: list[int],
        start: dict[int, bool],
    ) -> dict[int, bool]:
        """Return an assignment satisfying all constraints (best effort).

        The walk starts from a random perturbation of ``start`` and returns the
        first satisfying assignment reached after a randomly chosen number of
        additional flips (to decorrelate), or ``start`` itself if the walk
        fails — ``start`` always satisfies the constraints by construction of
        MC-SAT, so the chain remains valid.

        The set of unsatisfied constraints is maintained incrementally: a flip
        only re-evaluates the constraints mentioning the flipped variable.
        """
        if not constraints:
            return {variable: self.rng.random() < 0.5 for variable in variables}
        state = dict(start)
        for variable in variables:
            if self.rng.random() < 0.2:
                state[variable] = not state[variable]

        by_variable: dict[int, list[int]] = {}
        for position, constraint in enumerate(constraints):
            for variable in constraint.variables():
                by_variable.setdefault(variable, []).append(position)
        unsatisfied = {
            position
            for position, constraint in enumerate(constraints)
            if not constraint.satisfied(state)
        }

        def flip(variable: int) -> None:
            state[variable] = not state[variable]
            for position in by_variable.get(variable, ()):
                if constraints[position].satisfied(state):
                    unsatisfied.discard(position)
                else:
                    unsatisfied.add(position)

        last_good: dict[int, bool] | None = None
        extra_steps = self.rng.randrange(1, 20)
        for __ in range(self.max_flips):
            if not unsatisfied:
                last_good = dict(state)
                if extra_steps <= 0:
                    break
                extra_steps -= 1
                flip(self.rng.choice(variables))
            elif self.rng.random() < self.walk_probability:
                constraint = constraints[next(iter(unsatisfied))]
                candidates = list(constraint.variables()) or variables
                flip(self.rng.choice(candidates))
            else:
                variable = self.rng.choice(variables)
                delta = self._flip_delta(constraints, by_variable, state, variable)
                if delta <= 0 or self.rng.random() < math.exp(-delta / self.temperature):
                    flip(variable)
        if last_good is not None:
            return last_good
        return dict(start)

    def _flip_delta(
        self,
        constraints: list[Constraint],
        by_variable: dict[int, list[int]],
        state: dict[int, bool],
        variable: int,
    ) -> int:
        affected = by_variable.get(variable, ())
        before = sum(not constraints[position].satisfied(state) for position in affected)
        state[variable] = not state[variable]
        after = sum(not constraints[position].satisfied(state) for position in affected)
        state[variable] = not state[variable]
        return after - before


class McSatSampler:
    """The MC-SAT Markov chain over worlds of a grounded MLN."""

    def __init__(self, mln: MarkovLogicNetwork, seed: int | None = 0) -> None:
        self.mln = mln
        self.rng = random.Random(seed)
        self.sample_sat = SampleSat(self.rng)
        self._soft: list[tuple[DNF, bool, float]] = []
        self._hard: list[Constraint] = []
        self._prepare_constraints()
        self.state = self._initial_state()

    # ------------------------------------------------------------------ setup
    def _prepare_constraints(self) -> None:
        for variable, weight in self.mln.base_weights.items():
            formula = DNF.variable(variable)
            if math.isinf(weight):
                self._hard.append(Constraint(formula, True))
            elif weight == 0.0:
                self._hard.append(Constraint(formula, False))
            elif weight > 1.0:
                self._soft.append((formula, True, 1.0 - 1.0 / weight))
            elif weight < 1.0:
                self._soft.append((formula, False, 1.0 - weight))
        for feature in self.mln.features:
            if feature.is_hard_requirement:
                self._hard.append(Constraint(feature.formula, True))
            elif feature.is_hard_denial:
                self._hard.append(Constraint(feature.formula, False))
            elif feature.weight > 1.0:
                self._soft.append((feature.formula, True, 1.0 - 1.0 / feature.weight))
            elif feature.weight < 1.0:
                self._soft.append((feature.formula, False, 1.0 - feature.weight))

    def _initial_state(self) -> dict[int, bool]:
        state = {variable: False for variable in self.mln.variables}
        for constraint in self._hard:
            if constraint.must_hold and not constraint.satisfied(state):
                for variable in constraint.variables():
                    state[variable] = True
        if not all(constraint.satisfied(state) for constraint in self._hard):
            state = self.sample_sat.sample(self._hard, list(self.mln.variables), state)
            if not all(constraint.satisfied(state) for constraint in self._hard):
                raise InferenceError("MC-SAT could not find a world satisfying the hard constraints")
        return state

    # ------------------------------------------------------------------ steps
    def step(self) -> dict[int, bool]:
        """One MC-SAT transition; returns the new world."""
        selected: list[Constraint] = list(self._hard)
        for formula, must_hold, selection_probability in self._soft:
            holds = formula.evaluate(self.state) == must_hold
            if holds and self.rng.random() < selection_probability:
                selected.append(Constraint(formula, must_hold))
        self.state = self.sample_sat.sample(selected, list(self.mln.variables), self.state)
        return self.state

    def samples(self, count: int, burn_in: int = 20) -> Iterable[dict[int, bool]]:
        """Yield ``count`` worlds after ``burn_in`` discarded transitions."""
        for __ in range(burn_in):
            self.step()
        for __ in range(count):
            yield dict(self.step())

    # -------------------------------------------------------------- estimates
    def estimate_query(self, formula: DNF, samples: int = 300, burn_in: int = 30) -> float:
        """Estimate ``P(formula)`` by averaging over MC-SAT samples."""
        hits = 0
        total = 0
        for world in self.samples(samples, burn_in=burn_in):
            total += 1
            if formula.evaluate(world):
                hits += 1
        return hits / total if total else 0.0

    def estimate_marginals(self, samples: int = 300, burn_in: int = 30) -> dict[int, float]:
        """Estimate the marginal probability of every variable."""
        counts = {variable: 0 for variable in self.mln.variables}
        total = 0
        for world in self.samples(samples, burn_in=burn_in):
            total += 1
            for variable, present in world.items():
                if present:
                    counts[variable] += 1
        return {variable: count / total for variable, count in counts.items()}

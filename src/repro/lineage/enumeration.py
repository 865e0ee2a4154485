"""Brute-force probability computation by world enumeration.

This is the ground-truth oracle used by the test suite: it enumerates every
assignment of the variables appearing in a formula and sums the product of
per-variable probabilities.  It works unchanged when some probabilities are
negative (Sect. 3.3 of the paper), because it only relies on the product
form of the tuple-independent distribution.

Complexity is ``O(2^n)``, so it is only ever used for formulas with a small
number of variables (tests, examples, sanity checks).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping

from repro.errors import InferenceError
from repro.lineage.dnf import DNF

#: Above this many variables brute force enumeration refuses to run.
MAX_ENUMERATION_VARIABLES = 24


def _check_size(variables: Iterable[int]) -> list[int]:
    ordered = sorted(set(variables))
    if len(ordered) > MAX_ENUMERATION_VARIABLES:
        raise InferenceError(
            f"brute-force enumeration over {len(ordered)} variables refused "
            f"(limit {MAX_ENUMERATION_VARIABLES}); use OBDD evaluation instead"
        )
    return ordered


def brute_force_probability(formula: DNF, probabilities: Mapping[int, float]) -> float:
    """Exact probability of ``formula`` by enumerating all assignments.

    Parameters
    ----------
    formula:
        A monotone DNF lineage.
    probabilities:
        Mapping from variable id to marginal probability (may be negative,
        per the negative-probability translation of Sect. 3.3).
    """
    variables = _check_size(formula.variables())
    total = 0.0
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if not formula.evaluate(assignment):
            continue
        weight = 1.0
        for var, value in assignment.items():
            probability = probabilities[var]
            weight *= probability if value else (1.0 - probability)
        total += weight
    return total


def enumerate_worlds(variables: Iterable[int], probabilities: Mapping[int, float]):
    """Yield ``(assignment, probability)`` pairs for every world over ``variables``."""
    ordered = _check_size(variables)
    for values in product((False, True), repeat=len(ordered)):
        assignment = dict(zip(ordered, values))
        weight = 1.0
        for var, value in assignment.items():
            probability = probabilities[var]
            weight *= probability if value else (1.0 - probability)
        yield assignment, weight

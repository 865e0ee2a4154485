"""Lineage formulas and the world-enumeration oracle over them."""

from repro.lineage.dnf import DNF, Clause, disjoin
from repro.lineage.enumeration import brute_force_probability, enumerate_worlds

__all__ = [
    "DNF",
    "Clause",
    "disjoin",
    "brute_force_probability",
    "enumerate_worlds",
]

"""MarkoView definitions.

A MarkoView (Def. 3) is a rule ``V(x̄)[wexpr] :- Q`` where ``Q`` is a UCQ
over the probabilistic and deterministic relations and ``wexpr`` assigns a
non-negative weight to every output tuple.  Weights ``< 1`` assert a
negative correlation between the contributing tuples, ``> 1`` a positive
correlation, ``= 1`` independence, and ``= 0`` a hard (denial) constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Union

from repro.errors import QueryError, WeightError
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import UCQ, as_ucq

#: A view weight: a constant, or a function of the output row.
WeightSpec = Union[float, int, Callable[[tuple[Any, ...]], float]]


@dataclass(frozen=True)
class MarkoView:
    """One MarkoView: a named UCQ view plus a per-output-tuple weight.

    Parameters
    ----------
    name:
        View name (also used to derive the ``NV`` relation name in the
        translated INDB, e.g. ``V1`` → ``NV1``).
    query:
        The view definition: a non-Boolean UCQ (or CQ) whose head variables
        are the view's output attributes.
    weight:
        Either a non-negative constant weight applied to every output tuple,
        or a callable mapping an output row to its weight (this is how
        parameterised weights such as ``count(pid)/2`` are expressed — the
        caller pre-computes the aggregate and closes over it).
    description:
        Free-text description (used in reports).
    """

    name: str
    query: UCQ
    weight: WeightSpec
    description: str = ""

    def __init__(
        self,
        name: str,
        query: UCQ | ConjunctiveQuery,
        weight: WeightSpec,
        description: str = "",
    ) -> None:
        ucq = as_ucq(query, name=name)
        if ucq.is_boolean:
            raise QueryError(
                f"MarkoView {name!r} must have head variables (its outputs carry the weights)"
            )
        if not callable(weight):
            weight = float(weight)
            if weight < 0 or math.isnan(weight) or math.isinf(weight):
                raise WeightError(
                    f"MarkoView {name!r} has invalid constant weight {weight}; weights must be "
                    "finite and non-negative"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "query", ucq)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "description", description)

    @property
    def nv_relation(self) -> str:
        """Name of the fresh ``NV`` relation introduced by the translation."""
        return f"NV_{self.name}"

    def weight_of(self, row: tuple[Any, ...]) -> float:
        """Weight asserted by the view for the output tuple ``row``."""
        if callable(self.weight):
            value = float(self.weight(row))
        else:
            value = float(self.weight)
        if value < 0 or math.isnan(value) or math.isinf(value):
            raise WeightError(
                f"MarkoView {self.name!r} produced invalid weight {value} for row {row}; "
                "weights must be finite and non-negative"
            )
        return value

    @property
    def is_denial(self) -> bool:
        """True if the view has the constant weight 0 (a hard denial constraint)."""
        return not callable(self.weight) and float(self.weight) == 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        weight = "fn" if callable(self.weight) else f"{self.weight:g}"
        return f"MarkoView({self.name}[{weight}] :- {self.query!r})"

"""Typed query results: the answers a :class:`repro.ProbDB` hands back.

The pre-facade API returned raw ``dict[tuple, float]`` maps, which lost
everything the pipeline knows about *how* an answer was computed.  The
typed result objects keep that provenance:

* :class:`Answer` — one answer tuple with its probability and the size of
  its lineage (the number of DNF clauses intersected against the MV-index);
* :class:`QueryResult` — all answers of one query plus evaluation metadata:
  the inference method used (and whether it is exact), whether the result
  was served from a session cache, wall-clock time, and the work counters
  of the evaluation (query-OBDD nodes compiled, pairwise Shannon expansion
  steps, MV-index components touched).

``QueryResult.to_dict()`` reproduces the legacy ``{answer: probability}``
shape, so code written against the old surface keeps working after a one
word change; ``to_json()`` is the JSON-safe face used by ``repro --json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import InferenceError


@dataclass(frozen=True)
class Answer:
    """One answer tuple of a query together with its per-answer provenance."""

    #: The answer tuple (empty for a Boolean query).
    values: tuple[Any, ...]
    #: Marginal probability of the answer under the MVDB semantics.
    probability: float
    #: Number of clauses in the answer's lineage DNF (0 for a false lineage).
    lineage_size: int = 0

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)


@dataclass(frozen=True)
class QueryResult:
    """Every answer of one query, plus how the evaluation went.

    Iterating yields :class:`Answer` objects in descending probability
    order (ties broken by answer repr, so the order is deterministic);
    ``result[values]`` looks up one answer's probability by tuple.
    """

    #: Answers, one per derived tuple (Boolean queries have at most one,
    #: keyed by the empty tuple).
    answers: tuple[Answer, ...]
    #: Name of the inference method that produced the probabilities.
    method: str
    #: Whether the method is exact (``False`` e.g. for sampling estimates).
    exact: bool = True
    #: ``True`` when the probabilities came from a session result cache.
    cached: bool = False
    #: Wall-clock seconds spent producing this result (cache hits included).
    wall_time: float = 0.0
    #: Nodes of the query OBDDs compiled during evaluation (0 when the
    #: method does not compile one, e.g. enumeration or sampling).
    obdd_nodes: int = 0
    #: Pairwise expansion steps performed by the MV-index intersections.
    steps: int = 0
    #: MV-index components touched across all answers (0 without an index).
    touched_components: int = 0
    #: MV-index components the summary analysis proved the query's atoms
    #: cannot reach (0 when no analysis ran: no index, or a non-index method).
    skipped_components: int = 0
    #: Wall-clock milliseconds the summary matching itself took (micro-scale;
    #: reported so the analysis' overhead stays observable).
    skip_analysis_ms: float = 0.0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self) -> Iterator[Answer]:
        return iter(
            sorted(self.answers, key=lambda a: (-a.probability, repr(a.values)))
        )

    def __getitem__(self, values: tuple[Any, ...]) -> float:
        for answer in self.answers:
            if answer.values == values:
                return answer.probability
        raise KeyError(values)

    def probability(self, values: tuple[Any, ...] = ()) -> float:
        """Probability of one answer tuple; 0.0 if it has no derivation."""
        try:
            return self[values]
        except KeyError:
            return 0.0

    def boolean_probability(self) -> float:
        """``P(Q)`` for a Boolean query's result.

        Raises :class:`~repro.errors.InferenceError` when the result has
        answers with free variables — asking for "the" probability of a
        non-Boolean result is a category error, not a 0.0.
        """
        non_boolean = [answer.values for answer in self.answers if answer.values]
        if non_boolean:
            raise InferenceError(
                f"the result has {len(non_boolean)} non-Boolean answer(s) "
                f"(e.g. {non_boolean[0]!r}); use probability(values) or iterate"
            )
        return self.probability(())

    # ------------------------------------------------------------- conversion
    def to_dict(self) -> dict[tuple[Any, ...], float]:
        """The legacy ``{answer tuple: probability}`` mapping."""
        return {answer.values: answer.probability for answer in self.answers}

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable document (tuple keys become value lists)."""
        return {
            "method": self.method,
            "exact": self.exact,
            "cached": self.cached,
            "wall_time_ms": self.wall_time * 1000.0,
            "obdd_nodes": self.obdd_nodes,
            "steps": self.steps,
            "touched_components": self.touched_components,
            "skipped_components": self.skipped_components,
            "skip_analysis_ms": self.skip_analysis_ms,
            "answers": [
                {
                    "values": list(answer.values),
                    "probability": answer.probability,
                    "lineage_size": answer.lineage_size,
                }
                for answer in self
            ],
        }

    @classmethod
    def from_json(cls, document: dict[str, Any]) -> "QueryResult":
        """Rebuild a result from its :meth:`to_json` document.

        The inverse of :meth:`to_json` up to tuple-versus-list answer values
        (JSON has no tuples); used by the HTTP client to return the same
        typed results over the wire that the in-process facade returns.
        """
        try:
            answers = tuple(
                Answer(
                    values=tuple(entry["values"]),
                    probability=entry["probability"],
                    lineage_size=entry.get("lineage_size", 0),
                )
                for entry in document["answers"]
            )
            return cls(
                answers=answers,
                method=document["method"],
                exact=document.get("exact", True),
                cached=document.get("cached", False),
                wall_time=document.get("wall_time_ms", 0.0) / 1000.0,
                obdd_nodes=document.get("obdd_nodes", 0),
                steps=document.get("steps", 0),
                touched_components=document.get("touched_components", 0),
                skipped_components=document.get("skipped_components", 0),
                skip_analysis_ms=document.get("skip_analysis_ms", 0.0),
            )
        except (KeyError, TypeError) as exc:
            raise InferenceError(f"malformed QueryResult document: {exc!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        provenance = "cached" if self.cached else "computed"
        return (
            f"QueryResult({len(self.answers)} answers via {self.method!r}, "
            f"{provenance} in {self.wall_time * 1000.0:.2f}ms)"
        )

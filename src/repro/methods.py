"""The inference-method registry: pluggable evaluation strategies.

Every way of turning an answer's lineage into a probability — CC-MVIntersect
against the MV-index, pointer-based MVIntersect, from-scratch OBDD
construction, brute-force enumeration, Monte-Carlo sampling — is an
:class:`InferenceMethod` strategy object carrying
capability flags (``exact``, ``supports_negative_weights``).  The engine,
the serving session, the CLI and the experiment harness all resolve method
names through the one registry in this module, so a third-party method
plugs into every surface at once::

    import repro

    class MyMethod(repro.methods.InferenceMethod):
        name = "my-method"
        exact = False

        def probability(self, engine, lineage, statistics=None):
            ...

    repro.methods.register("my-method", MyMethod)
    db.query(q, method="my-method")

Methods whose ``supports_negative_weights`` flag is ``False`` are rejected
(with a clear :class:`~repro.errors.InferenceError`) on engines whose
Theorem 1 translation produced tuple probabilities outside ``[0, 1]`` —
positive MarkoView correlations do exactly that, and e.g. a sampler cannot
draw from a negative "probability".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping

from repro.core.translate import clamp_probability, theorem1_probability
from repro.errors import InferenceError
from repro.lineage.dnf import DNF
from repro.lineage.enumeration import brute_force_probability
from repro.mvindex.cc_intersect import cc_mv_intersect
from repro.mvindex.intersect import IntersectStatistics, mv_intersect
from repro.obdd.construct import build_obdd

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import MVQueryEngine

#: Name of the method used when a caller does not pick one.
DEFAULT_METHOD = "mvindex"


class InferenceMethod:
    """Base class for evaluation strategies.

    Subclasses implement :meth:`probability` and override the class-level
    capability flags.  Instances must be stateless with respect to engines
    (one instance serves every engine in the process).
    """

    #: Registry name (set on registration when left empty).
    name: str = ""
    #: Whether the method computes exact probabilities.
    exact: bool = True
    #: Whether the method handles tuple probabilities outside ``[0, 1]``
    #: (the negative weights produced by positive MarkoView correlations).
    supports_negative_weights: bool = True
    #: One-line description shown by ``repro.methods.describe()``.
    description: str = ""

    def probability(  # pragma: no cover - abstract stub
        self,
        engine: "MVQueryEngine",
        lineage: DNF,
        statistics: IntersectStatistics | None = None,
    ) -> float:
        """``P(Q)`` of one answer lineage on ``engine``'s MVDB.

        Implementations receive the full engine, so they can use the
        translated INDB, the lineage of ``W``, the variable order and (when
        built) the MV-index.  ``statistics``, when given, should be filled
        with the work counters the evaluation performed.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "exact" if self.exact else "approximate"
        return f"{type(self).__name__}({self.name!r}, {kind})"


class _TheoremOneMethod(InferenceMethod):
    """Shared scaffolding: Eq. 5, ``P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))``.

    Subclasses supply the underlying ``P0`` computation on the translated
    INDB; this class routes the no-views case (an ordinary
    tuple-independent database) and the Theorem 1 combination.
    """

    def probability(self, engine, lineage, statistics=None):
        if lineage.is_false:
            return 0.0
        if engine.w_lineage.is_false:
            # No MarkoViews: this is an ordinary tuple-independent database.
            return self._independent(engine, lineage, statistics)
        p0_w = engine.p0_w()
        combined = lineage.or_(engine.w_lineage)
        p0_q_or_w = self._combined(engine, lineage, combined, statistics)
        return theorem1_probability(p0_q_or_w, p0_w)

    def _independent(self, engine, lineage, statistics) -> float:  # pragma: no cover - abstract stub
        raise NotImplementedError

    def _combined(self, engine, lineage, combined, statistics) -> float:  # pragma: no cover - abstract stub
        raise NotImplementedError


def _obdd_probability(engine, lineage, formula, statistics) -> float:
    """``P0(formula)`` by compiling it under Π extended by the query's variables."""
    order = engine.order.extend(sorted(lineage.variables()))
    compiled = build_obdd(formula, order)
    if statistics is not None:
        statistics.query_obdd_nodes += compiled.size
    return compiled.probability(engine.probabilities)


class _IntersectMethod(InferenceMethod):
    """Online evaluation against the pre-compiled MV-index (Sect. 4)."""

    #: The intersection algorithm (set by subclasses).
    _intersect = None

    def probability(self, engine, lineage, statistics=None):
        if lineage.is_false:
            return 0.0
        if engine.w_lineage.is_false:
            # No MarkoViews, hence no index: the same compile as ``obdd``.
            return _obdd_probability(engine, lineage, lineage, statistics)
        if engine.mv_index is None:
            raise InferenceError(
                "the MV-index was not built (build_index=False); use method='obdd'"
            )
        # Condition on the touched components only: the untouched
        # ``P0(¬W_k)`` factors cancel between numerator and denominator, and
        # materialising them underflows to 0/0 once the index holds a few
        # thousand components (the 10^5+ tuple scales of Sect. 5).
        index = engine.mv_index
        numerator = type(self)._intersect(
            index,
            lineage,
            engine.probabilities,
            statistics=statistics,
            include_untouched=False,
        )
        touched_keys = {c.key for c in index.touched_components(lineage.variables())}
        denominator = index.touched_factor_of(touched_keys)
        if denominator == 0.0:
            raise InferenceError(
                "P0(¬W) = 0: the MarkoView hard constraints are violated in every world"
            )
        value = numerator / denominator
        return clamp_probability(value, context=f"P0(Q ∧ ¬W) / P0(¬W) via {self.name!r}")


class MvIndexMethod(_IntersectMethod):
    """CC-MVIntersect: the cache-conscious flat-array traversal (default)."""

    name = "mvindex"
    description = "MV-index intersection via cache-conscious CC-MVIntersect"
    _intersect = staticmethod(cc_mv_intersect)


class MvIndexPointerMethod(_IntersectMethod):
    """MVIntersect: the pointer-based simultaneous traversal."""

    name = "mvindex-mv"
    description = "MV-index intersection via pointer-based MVIntersect"
    _intersect = staticmethod(mv_intersect)


class ObddMethod(_TheoremOneMethod):
    """Construct the OBDD of ``Q ∨ W`` from scratch for every query.

    The "augmented OBDD" line of Figs. 5/6 — correct but pays the full
    construction cost online.
    """

    name = "obdd"
    description = "from-scratch OBDD construction of Q ∨ W per query"

    def _independent(self, engine, lineage, statistics):
        return _obdd_probability(engine, lineage, lineage, statistics)

    def _combined(self, engine, lineage, combined, statistics):
        return _obdd_probability(engine, lineage, combined, statistics)


class EnumerationMethod(_TheoremOneMethod):
    """Brute-force possible-world enumeration (tiny inputs only)."""

    name = "enumeration"
    description = "brute-force world enumeration (exponential; tiny inputs)"

    def _independent(self, engine, lineage, statistics):
        return brute_force_probability(lineage, engine.probabilities)

    def _combined(self, engine, lineage, combined, statistics):
        return brute_force_probability(combined, engine.probabilities)


class SamplingMethod(InferenceMethod):
    """Monte-Carlo estimation — the pluggable approximate fallback.

    Draws independent worlds over the variables appearing in the formulas
    and estimates ``P(Q)`` by the fraction of satisfying worlds (with the
    Theorem 1 correction when MarkoViews are present).  Sampling cannot
    draw from probabilities outside ``[0, 1]``, so the registry's
    capability check rejects it on engines whose translation produced
    negative weights (positive correlations).
    """

    name = "sampling"
    exact = False
    supports_negative_weights = False
    description = "Monte-Carlo estimate (approximate; rejects negative weights)"

    def __init__(self, samples: int = 4096, seed: int = 0) -> None:
        self.samples = samples
        self.seed = seed

    def probability(self, engine, lineage, statistics=None):
        if lineage.is_false:
            return 0.0
        rng = random.Random(self.seed)
        probabilities = engine.probabilities
        w_lineage = engine.w_lineage
        variables = sorted(lineage.variables() | w_lineage.variables())
        q_hits = w_hits = 0
        for _ in range(self.samples):
            world = {
                variable: rng.random() < probabilities.get(variable, 0.0)
                for variable in variables
            }
            q_true = _satisfied(lineage, world)
            w_true = not w_lineage.is_false and _satisfied(w_lineage, world)
            if q_true or w_true:
                q_hits += 1
            if w_true:
                w_hits += 1
        p_q_or_w = q_hits / self.samples
        if w_lineage.is_false:
            return p_q_or_w
        p_w = w_hits / self.samples
        if p_w >= 1.0:
            raise InferenceError(
                "sampling estimated P0(W) = 1; the MarkoView constraints leave "
                "no sampled world — use an exact method"
            )
        return theorem1_probability(p_q_or_w, p_w)


def _satisfied(formula: DNF, world: Mapping[int, bool]) -> bool:
    """Whether a (monotone) DNF holds in a sampled world."""
    return any(all(world[variable] for variable in clause) for clause in formula.clauses)


# ---------------------------------------------------------------- the registry
_registry: dict[str, InferenceMethod] = {}


def register(
    name: str,
    method: InferenceMethod | type[InferenceMethod],
    *,
    replace: bool = False,
) -> InferenceMethod:
    """Register an inference method under ``name``.

    ``method`` may be an instance or an :class:`InferenceMethod` subclass
    (instantiated with no arguments).  Registering an already-taken name
    raises unless ``replace=True`` — silent shadowing of e.g. ``"mvindex"``
    would change every caller's results.  The registry name is
    authoritative: the instance's ``name`` attribute is set to ``name``
    (session caches and typed results are keyed by it, so a stale
    class-level name would mislabel results and collide cache entries) —
    consequently one instance belongs to exactly one registered name.
    Returns the registered instance.
    """
    if isinstance(method, type):
        if not issubclass(method, InferenceMethod):
            raise InferenceError(
                f"inference methods must subclass InferenceMethod, got {method!r}"
            )
        method = method()
    if not isinstance(method, InferenceMethod):
        raise InferenceError(
            f"inference methods must be InferenceMethod instances, got {method!r}"
        )
    if name in _registry and not replace:
        raise InferenceError(
            f"inference method {name!r} is already registered "
            f"({_registry[name]!r}); pass replace=True to override"
        )
    if any(existing is method for key, existing in _registry.items() if key != name):
        raise InferenceError(
            f"this {type(method).__name__} instance is already registered under "
            "another name; register a separate instance per name"
        )
    method.name = name
    _registry[name] = method
    return method


def unregister(name: str) -> InferenceMethod:
    """Remove a method from the registry (mainly for tests) and return it."""
    try:
        return _registry.pop(name)
    except KeyError:
        raise InferenceError(f"unknown evaluation method {name!r}; nothing to unregister") from None


def get(name: str | InferenceMethod) -> InferenceMethod:
    """Resolve a method name (instances pass through unchanged)."""
    if isinstance(name, InferenceMethod):
        return name
    method = _registry.get(name)
    if method is None:
        raise InferenceError(
            f"unknown evaluation method {name!r}; choose from {names()}"
        )
    return method


def names() -> tuple[str, ...]:
    """Registered method names, sorted."""
    return tuple(sorted(_registry))


def registered() -> dict[str, InferenceMethod]:
    """A snapshot of the registry (name → instance)."""
    return dict(_registry)


def describe() -> str:
    """A human-readable table of the registered methods."""
    lines = []
    for name in names():
        method = _registry[name]
        flags = []
        flags.append("exact" if method.exact else "approximate")
        if not method.supports_negative_weights:
            flags.append("no negative weights")
        lines.append(f"{name:<12} [{', '.join(flags)}] {method.description}")
    return "\n".join(lines)


# The built-in strategies of the paper's Sect. 5 comparison, plus the
# approximate sampling fallback.
register("mvindex", MvIndexMethod)
register("mvindex-mv", MvIndexPointerMethod)
register("obdd", ObddMethod)
register("enumeration", EnumerationMethod)
register("sampling", SamplingMethod)

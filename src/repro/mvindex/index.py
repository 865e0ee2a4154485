"""The MV-index: offline compilation of the view query ``W``.

An MV-index (Sect. 4.1) is a collection of augmented OBDDs — one per
independent component of the lineage of ``W`` — plus two lookup structures:

* the **InterBddIndex** maps a tuple variable to the key of the component
  OBDD containing it, and
* the **IntraBddIndex** maps a tuple variable to the nodes labelled with it
  inside that OBDD.

Each component OBDD stores ``¬W_k`` (the negation is what Theorem 1's
evaluation needs), and the index pre-computes ``P0(¬W_k)`` for every
component so that queries only pay for the components their lineage touches.

An existing index can also grow incrementally, and the growth is split
into two halves so serving reads never wait on a compile:
:meth:`MVIndex.prepare_extend` compiles the new clauses (plus any affected
components) in a *fresh* manager against a snapshot of the index — safe to
run concurrently with queries — and returns a sealed node-block delta;
:meth:`MVIndex.apply_prepared` then imports that block into the shared
manager and swaps the lookup maps, an O(delta) operation that is the only
part a serving write lock needs to cover.  :meth:`MVIndex.extend` is the
single-writer convenience wrapper over the two (see
:meth:`repro.core.engine.MVQueryEngine.extend_views` for the engine-level
workflow).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import CompilationError
from repro.lineage.dnf import DNF, Clause
from repro.obdd.construct import build_component_root
from repro.obdd.manager import ObddManager
from repro.obdd.order import VariableOrder, connected_components
from repro.mvindex.augmented import AugmentedObdd


@dataclass
class IndexedComponent:
    """One component of the MV-index: an augmented OBDD of ``¬W_k``."""

    key: int
    obdd: AugmentedObdd
    min_level: int
    max_level: int
    variables: frozenset[int]

    @property
    def probability_not_w(self) -> float:
        """``P0(¬W_k)`` for this component."""
        return self.obdd.probability


class MVIndex:
    """Offline-compiled index over the MarkoView query ``W``."""

    def __init__(
        self,
        w_lineage: DNF,
        probabilities: Mapping[int, float],
        order: VariableOrder,
        construction: str = "concat",
    ) -> None:
        self.order = order
        self.manager = ObddManager()
        self.probabilities = dict(probabilities)
        self.construction = construction
        self.components: dict[int, IndexedComponent] = {}
        self._component_of_variable: dict[int, int] = {}
        #: Shared ``level → probability`` map, computed once and reused by
        #: every component annotation (re-keying the full probability
        #: dictionary per component used to dominate construction time).
        self._probability_of_level: dict[int, float] = order.probabilities_by_level(
            self.probabilities
        )
        #: Serializes the only query-time mutation of the shared manager (the
        #: interleaved-component fallback), making concurrent reads safe.
        self._lock = threading.RLock()
        self._build(w_lineage, construction)

    # ------------------------------------------------------------------ build
    def _build(self, w_lineage: DNF, construction: str) -> None:
        if w_lineage.is_true:
            raise CompilationError(
                "the view query W is certainly true: every possible world violates a "
                "MarkoView, so the MVDB distribution is undefined (P0(¬W) = 0)"
            )
        components = connected_components(w_lineage.clauses)
        manager = self.manager
        order = self.order
        negated_roots = [
            manager.negate(build_component_root(manager, clauses, order, construction))
            for clauses in components
        ]
        for key, (clauses, negated_root) in enumerate(zip(components, negated_roots)):
            self._register(key, frozenset().union(*clauses), negated_root)

    def _register(self, key: int, variables: Iterable[int], negated_root: int) -> None:
        """Wrap a compiled (negated) component root and wire the lookup maps."""
        augmented = AugmentedObdd(
            self.manager,
            negated_root,
            self.order,
            self.probabilities,
            probability_of_level=self._probability_of_level,
        )
        level_of = self.order.level_map
        levels = [level_of[variable] for variable in variables]
        component = IndexedComponent(
            key=key,
            obdd=augmented,
            min_level=min(levels),
            max_level=max(levels),
            variables=frozenset(variables),
        )
        self.components[key] = component
        for variable in variables:
            self._component_of_variable[variable] = key

    # ------------------------------------------------------------ incremental
    def extend(
        self,
        new_lineage: DNF,
        probabilities: Mapping[int, float] | None = None,
        existing_lineage: DNF | None = None,
    ) -> list[int]:
        """Incrementally compile new view clauses into this index.

        ``new_lineage`` holds only the *new* clauses (the engine diffs the
        full lineage of the extended view set against the indexed one).
        Variables unseen so far are appended to the variable order — the
        existing component OBDDs stay valid — and their probabilities are
        supplied via ``probabilities``.  New components that share variables
        with already-indexed components cannot be compiled independently;
        pass ``existing_lineage`` (the clause set the index was built from)
        and the affected components are recompiled together with the new
        clauses.  Returns the keys of the components added.

        The extended index answers queries with the same probabilities as a
        from-scratch build (component OBDDs are canonical per order), but
        the artifact is not guaranteed byte-identical to a rebuild: appended
        variables and recompiled components change level and key layout.

        This is the single-writer convenience path:
        :meth:`prepare_extend` (slow, snapshot-safe) immediately followed by
        :meth:`apply_prepared` (O(delta), under the index lock).  Serving
        callers run the two halves separately so queries keep flowing while
        the delta compiles — no quiescing required.
        """
        if new_lineage.is_true:
            raise CompilationError(
                "the extended view query W is certainly true (P0(¬W) = 0)"
            )
        if new_lineage.is_false or not new_lineage.clauses:
            return []
        new_variables: set[int] = set()
        for clause in new_lineage.clauses:
            new_variables |= clause
        unseen = sorted(v for v in new_variables if v not in self.order)
        supplied = dict(probabilities or {})
        delta = self.prepare_extend(
            new_lineage,
            order_append=unseen,
            probabilities=supplied,
            existing_lineage=existing_lineage,
        )
        return self.apply_prepared(unseen, supplied, delta)

    def prepare_extend(
        self,
        new_lineage: DNF,
        order_append: Sequence[int],
        probabilities: Mapping[int, float],
        existing_lineage: DNF | None = None,
    ) -> dict[str, Any]:
        """Compile the extension delta against a snapshot, off the index lock.

        Validates the extension (probability conflicts, missing
        probabilities for appended variables, ``W`` certainly true), then
        compiles the new clauses — together with every existing component a
        new clause connects to — in a **fresh** manager over the appended
        variable order.  Nothing queries read is mutated; the slow compile
        may therefore run concurrently with serving reads, provided
        *mutations* are serialized externally (the dispatcher's write mutex).

        Returns the sealed delta consumed by :meth:`apply_prepared`:
        ``{"removed_keys", "nodes", "roots", "component_variables"}`` with
        the node block in stable children-first export form — the same
        artifact shape replicas import, which is what makes the fleet's
        compile-once-ship-artifact broadcast byte-identical.
        """
        if new_lineage.is_true:
            raise CompilationError(
                "the extended view query W is certainly true (P0(¬W) = 0)"
            )
        for variable, probability in probabilities.items():
            known = self.probabilities.get(variable)
            if known is not None and known != probability:
                raise CompilationError(
                    f"cannot change the probability of indexed variable "
                    f"{variable}; rebuild the index instead"
                )
        missing = [
            v for v in order_append if v not in self.probabilities and v not in probabilities
        ]
        if missing:
            raise CompilationError(
                f"no probabilities supplied for new variables {missing[:5]}"
            )
        with self._lock:
            order_variables = self.order.variables()
            new_variables: set[int] = set()
            for clause in new_lineage.clauses:
                new_variables |= clause
            pool: list[Clause] = list(new_lineage.clauses)
            affected = {
                self._component_of_variable[variable]
                for variable in new_variables
                if variable in self._component_of_variable
            }
            if affected:
                if existing_lineage is None:
                    raise CompilationError(
                        "new clauses share variables with existing components; pass "
                        "existing_lineage so the affected components can be recompiled"
                    )
                affected_variables: set[int] = set()
                for key in affected:
                    affected_variables |= self.components[key].variables
                pool.extend(
                    clause
                    for clause in existing_lineage.clauses
                    if clause & affected_variables
                )
        seen = set(order_variables)
        extended = VariableOrder(
            order_variables + [v for v in order_append if v not in seen]
        )
        manager = ObddManager()
        components = connected_components(pool)
        roots = [
            manager.negate(
                build_component_root(manager, clauses, extended, self.construction)
            )
            for clauses in components
        ]
        exported = manager.export_nodes(roots)
        return {
            "removed_keys": sorted(affected),
            "nodes": exported["nodes"],
            "roots": exported["roots"],
            "component_variables": [
                sorted(frozenset().union(*clauses)) for clauses in components
            ],
        }

    def apply_prepared(
        self,
        order_append: Sequence[int],
        probabilities: Mapping[int, float],
        delta: Mapping[str, Any] | None,
    ) -> list[int]:
        """Publish a :meth:`prepare_extend` delta: the O(delta) swap.

        Appends the new variables to the order (existing levels are
        untouched, so live component OBDDs stay valid), updates the shared
        level-probability map **in place** (every registered
        :class:`~repro.mvindex.augmented.AugmentedObdd` holds a reference to
        it), drops the recompiled components, imports the pre-compiled node
        block into the shared manager, and registers the new components
        under deterministic keys.  ``delta`` may be ``None`` when a mutation
        appended variables without touching ``W`` (a pure fact append) —
        then only the order and probabilities grow.  Returns the keys of the
        components added.
        """
        with self._lock:
            for variable, probability in probabilities.items():
                known = self.probabilities.get(variable)
                if known is not None and known != probability:
                    raise CompilationError(
                        f"cannot change the probability of indexed variable "
                        f"{variable}; rebuild the index instead"
                    )
            self.probabilities.update(probabilities)
            unseen = [v for v in order_append if v not in self.order]
            if unseen:
                self.order = self.order.extend(unseen)
                for variable in unseen:
                    self._probability_of_level[self.order.level_of(variable)] = (
                        self.probabilities[variable]
                    )
            if delta is None:
                return []
            for key in delta["removed_keys"]:
                component = self.components.pop(key)
                for variable in component.variables:
                    del self._component_of_variable[variable]
            roots = self.manager.import_into(delta["nodes"], delta["roots"])
            next_key = max(self.components, default=-1) + 1
            added: list[int] = []
            for variables, root in zip(delta["component_variables"], roots):
                self._register(next_key, variables, root)
                added.append(next_key)
                next_key += 1
            return added

    # ---------------------------------------------------------- serialization
    def export_state(self) -> dict[str, Any]:
        """Serialize the index into plain JSON-compatible data.

        The state holds the node tables of every component OBDD (children
        first, see :meth:`repro.obdd.manager.ObddManager.export_nodes`) and,
        per component, its key, root and tuple variables.  The probUnder /
        reachability annotations are *not* stored: they are recomputed in
        linear time by :meth:`from_state`, which guarantees they are always
        consistent with the probabilities supplied at load time.
        """
        ordered = [self.components[key] for key in sorted(self.components)]
        exported = self.manager.export_nodes(component.obdd.root for component in ordered)
        return {
            "nodes": exported["nodes"],
            "components": [
                {
                    "key": component.key,
                    "root": root,
                    "variables": sorted(component.variables),
                }
                for component, root in zip(ordered, exported["roots"])
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping[str, Any],
        probabilities: Mapping[int, float],
        order: VariableOrder,
        construction: str = "concat",
    ) -> "MVIndex":
        """Rebuild an index from :meth:`export_state` output.

        The restored index is bit-identical to the exported one: node ids,
        component iteration order and therefore every floating-point
        annotation and probability product match the original exactly.
        """
        index = cls.__new__(cls)
        index.order = order
        index.manager = ObddManager.import_nodes(state["nodes"])
        index.probabilities = dict(probabilities)
        index.construction = construction
        index.components = {}
        index._component_of_variable = {}
        index._probability_of_level = order.probabilities_by_level(index.probabilities)
        index._lock = threading.RLock()
        for entry in state["components"]:
            variables = entry["variables"]
            if not variables:
                raise CompilationError("corrupt MV-index state: component without variables")
            index._register(entry["key"], variables, entry["root"])
        return index

    # ------------------------------------------------------------- statistics
    @property
    def size(self) -> int:
        """Total number of OBDD nodes across all components."""
        return sum(component.obdd.size for component in self.components.values())

    @property
    def width(self) -> int:
        """Maximum component width."""
        return max((component.obdd.width for component in self.components.values()), default=0)

    def component_count(self) -> int:
        """Number of independent components (augmented OBDDs)."""
        return len(self.components)

    def variables(self) -> set[int]:
        """All tuple variables indexed by W."""
        return set(self._component_of_variable)

    # --------------------------------------------------------------- indexes
    def component_of(self, variable: int) -> int | None:
        """InterBddIndex: the key of the component containing ``variable``."""
        return self._component_of_variable.get(variable)

    def nodes_for(self, variable: int) -> list[int]:
        """IntraBddIndex: OBDD nodes labelled with ``variable`` in its component."""
        key = self.component_of(variable)
        if key is None:
            return []
        return self.components[key].obdd.nodes_at_level(self.order.level_of(variable))

    def touched_components(self, variables: Iterable[int]) -> list[IndexedComponent]:
        """Components containing at least one of the given variables."""
        keys = {
            self._component_of_variable[v]
            for v in variables
            if v in self._component_of_variable
        }
        return [self.components[key] for key in sorted(keys)]

    # ------------------------------------------------------------ probability
    def _product_order(self) -> list[IndexedComponent]:
        """Components in canonical product order: by smallest tuple variable.

        Floating-point multiplication is not associative, so the order in
        which the per-component factors are folded determines the result at
        the ulp level.  Component *keys* are an artifact of build history —
        an incremental extend assigns recompiled components fresh keys while
        a from-scratch build numbers them by discovery — so folding in key
        order lets the summation order drift between a fresh build and an
        extended index.  The smallest contained variable is intrinsic to a
        component (the partition into components is a pure function of the
        clause set), so ordering by it makes every product fold identically
        no matter how the index reached its current state.
        """
        return sorted(self.components.values(), key=lambda c: min(c.variables))

    def probability_not_w(self) -> float:
        """``P0(¬W)``: product of the per-component complements."""
        result = 1.0
        for component in self._product_order():
            result *= component.probability_not_w
        return result

    def probability_w(self) -> float:
        """``P0(W)``."""
        return 1.0 - self.probability_not_w()

    def untouched_factor(self, touched_keys: set[int]) -> float:
        """Product of ``P0(¬W_k)`` over the components *not* touched by a query."""
        result = 1.0
        for component in self._product_order():
            if component.key not in touched_keys:
                result *= component.probability_not_w
        return result

    def touched_factor_of(self, touched_keys: "set[int] | frozenset[int]") -> float:
        """Product of ``P0(¬W_k)`` over the components touched by a query.

        This is the denominator of the *conditional* Theorem 1 ratio: the
        untouched components cancel between ``P0(Q ∧ ¬W)`` and ``P0(¬W)``,
        so dividing the touched-only intersection by this product gives the
        same probability without ever forming the full ``P0(¬W)`` — which
        underflows to 0.0 once the index holds a few thousand components.
        Only the touched components are folded, in the relative order
        :meth:`_product_order` gives them, so the cost is O(T log T) and the
        float product does not depend on how the index was built.
        """
        components = sorted(
            (self.components[key] for key in touched_keys),
            key=lambda component: min(component.variables),
        )
        result = 1.0
        for component in components:
            result *= component.probability_not_w
        return result

    def conjoined_not_w_root(self, components: list[IndexedComponent]) -> int:
        """OBDD root of ``∧_k ¬W_k`` over components whose level ranges interleave.

        Such components cannot be chained by concatenation (the 1-terminal
        of one replaced by the root of the next), so they are conjoined with
        one multi-way apply — the only query-time write to the shared
        manager, hence the lock.
        """
        with self._lock:
            return self.manager.apply_and_multi(
                component.obdd.root for component in components
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MVIndex({self.component_count()} components, {self.size} nodes, "
            f"width {self.width})"
        )

"""Augmented OBDDs: per-node probability and reachability annotations.

Following Sect. 4.1 of the paper, an augmented OBDD stores for every node
``u``:

* ``prob_under[u]`` — the probability of the Boolean function rooted at ``u``
  (``p(u)`` in the paper), and
* ``reachability[u]`` — the sum over all root-to-``u`` paths of the product
  of edge probabilities.

With these two quantities the probability of the conjunction of the indexed
formula with a *small* query formula can be computed while touching only the
nodes on levels spanned by the query (Proposition 3): whenever a traversal
reaches a node below the query's last level, ``prob_under`` closes the whole
sub-OBDD in constant time, and ``reachability`` summarises every path above
the query's first level.  Both annotations are derived quantities: they are
*not* serialized with the MV-index artifact but recomputed (in linear time,
deterministically) when an index is restored, which keeps them consistent
with the probabilities supplied at load time — see
:meth:`repro.mvindex.index.MVIndex.from_state`.

Construction is allocation-lean: only ``prob_under`` and the per-level node
index are computed eagerly (they are what the intersection algorithms need);
``reachability`` is derived lazily on first access, so building an MV-index
over thousands of components never pays for it.  A caller that already holds
a ``level → probability`` map (the MV-index shares one across all of its
components) can pass it as ``probability_of_level`` to skip re-keying the
full probability dictionary per component.
"""

from __future__ import annotations

from typing import Mapping

from repro.obdd.manager import ONE, ZERO, ObddManager
from repro.obdd.order import VariableOrder


class AugmentedObdd:
    """An OBDD root together with probUnder / reachability annotations."""

    def __init__(
        self,
        manager: ObddManager,
        root: int,
        order: VariableOrder,
        probabilities: Mapping[int, float],
        probability_of_level: Mapping[int, float] | None = None,
    ) -> None:
        self.manager = manager
        self.root = root
        self.order = order
        #: probability of each tuple variable, keyed by OBDD level.  When no
        #: shared map is supplied, only the levels actually appearing in this
        #: OBDD are keyed (annotating needs nothing else).
        self.probability_of_level: Mapping[int, float]
        self.prob_under: dict[int, float] = {ZERO: 0.0, ONE: 1.0}
        self.nodes_by_level: dict[int, list[int]] = {}
        self._reachability: dict[int, float] | None = None
        self._annotate(probabilities, probability_of_level)

    # ------------------------------------------------------------------ build
    def _annotate(
        self,
        probabilities: Mapping[int, float],
        probability_of_level: Mapping[int, float] | None,
    ) -> None:
        manager = self.manager
        levels = manager._level
        lows = manager._low
        highs = manager._high
        nodes = manager.reachable_nodes(self.root)
        nodes.sort(key=levels.__getitem__, reverse=True)
        self._nodes_descending = nodes
        if probability_of_level is None:
            variable_at = self.order.variable_at
            probability_of_level = {
                level: probabilities[variable_at(level)]
                for level in {levels[node] for node in nodes}
            }
        self.probability_of_level = probability_of_level
        # probUnder: children before parents (process by decreasing level).
        prob_under = self.prob_under
        nodes_by_level = self.nodes_by_level
        for node in nodes:
            level = levels[node]
            probability = probability_of_level[level]
            prob_under[node] = (1.0 - probability) * prob_under[
                lows[node]
            ] + probability * prob_under[highs[node]]
            bucket = nodes_by_level.get(level)
            if bucket is None:
                nodes_by_level[level] = [node]
            else:
                bucket.append(node)

    @property
    def reachability(self) -> dict[int, float]:
        """Path-mass annotation, derived lazily on first access.

        The intersection algorithms never read it (they only need
        ``prob_under``), so index construction skips it; the worked example
        of Sect. 4.1 (:meth:`conjunction_probability_at_level`) triggers the
        one-time linear derivation.
        """
        if self._reachability is None:
            manager = self.manager
            probability_of_level = self.probability_of_level
            # reachability: parents before children (process by increasing level).
            nodes = self._nodes_descending[::-1]
            reach: dict[int, float] = {node: 0.0 for node in nodes}
            reach[ZERO] = 0.0
            reach[ONE] = 0.0
            if self.root in reach:
                reach[self.root] = 1.0
            for node in nodes:
                probability = probability_of_level[manager.level(node)]
                mass = reach[node]
                low, high = manager.low(node), manager.high(node)
                reach[low] = reach.get(low, 0.0) + mass * (1.0 - probability)
                reach[high] = reach.get(high, 0.0) + mass * probability
            self._reachability = reach
        return self._reachability

    # -------------------------------------------------------------- interface
    @property
    def probability(self) -> float:
        """Probability of the whole indexed formula."""
        if self.manager.is_terminal(self.root):
            return float(self.root == ONE)
        return self.prob_under[self.root]

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        return len(self._nodes_descending)

    @property
    def width(self) -> int:
        """Maximum number of nodes on a single level."""
        return max((len(bucket) for bucket in self.nodes_by_level.values()), default=0)

    def nodes_at_level(self, level: int) -> list[int]:
        """All nodes labelled with ``level`` (the IntraBddIndex of the paper)."""
        return list(self.nodes_by_level.get(level, ()))

    def conjunction_probability_at_level(self, level: int) -> float:
        """``P(X_level ∧ Φ)`` via the reachability/probUnder shortcut.

        This is the worked example of Sect. 4.1: if ``u1..uc`` are the nodes
        labelled with the variable and ``v1..vc`` their 1-children, then
        ``P(X ∧ Φ) = p · Σ_j reachability(u_j) · probUnder(v_j)``.
        """
        probability = self.probability_of_level[level]
        reachability = self.reachability
        total = 0.0
        for node in self.nodes_at_level(level):
            total += reachability[node] * self.prob_under[self.manager.high(node)]
        return probability * total

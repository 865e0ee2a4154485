"""MVIntersect: online evaluation of ``P0(Q ∧ ¬W)`` against an MV-index.

Given a query lineage ``Φ_Q`` (small) and the MV-index of ``W`` (large), the
numerator of Theorem 1, ``P0(Q ∨ W) − P0(W) = P0(Q ∧ ¬W)``, is computed by a
top-down simultaneous traversal of the query OBDD and the indexed component
OBDDs of ``¬W``:

* components of ``W`` not touched by the query contribute their pre-computed
  ``P0(¬W_k)`` as a multiplicative factor (this is why typical queries touch
  only a small fraction of the index);
* inside the touched region the traversal is a memoized pairwise Shannon
  expansion; whenever the query OBDD reaches its 1-terminal, the pre-computed
  ``probUnder`` annotation of the index node closes the remaining sub-OBDD in
  constant time (the augmentation of Sect. 4.1).

Every traversal here is *iterative* — an explicit stack over
``(query node, chain position, index node)`` states — so arbitrarily deep
index OBDDs are evaluated without recursion.  The old implementation
recursed to the depth of the OBDDs and had to raise (and guard, across
threads) the process-global ``sys.setrecursionlimit``; the iterative kernel
made all of that machinery obsolete.

The set-up (query compile, touched chain, probability map) is
:func:`repro.mvindex.cc_intersect.prepare_intersect`, shared with the
cache-conscious kernel; this module is the pointer-based loop over it, kept
because Fig. 9 compares the two loops and because a second kernel is an
independent reference for the first.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import InferenceError
from repro.lineage.dnf import DNF
from repro.mvindex.cc_intersect import (
    IntersectStatistics,
    cc_mv_intersect,
    prepare_intersect,
)
from repro.mvindex.index import MVIndex
from repro.obdd.manager import ONE, ZERO


def mv_intersect(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    statistics: IntersectStatistics | None = None,
    include_untouched: bool = True,
) -> float:
    """``P0(Q ∧ ¬W)`` by the (pointer-based) MVIntersect algorithm.

    ``include_untouched=False`` omits the product over components the query
    does not touch (see :func:`repro.mvindex.cc_intersect.cc_mv_intersect`).
    """
    stats = statistics if statistics is not None else IntersectStatistics()
    prepared = prepare_intersect(
        index, query_lineage, probabilities or {}, stats, include_untouched
    )
    if type(prepared) is float:
        return prepared
    query = prepared.query
    suffix = prepared.suffix
    probability_of_level = prepared.probability_of_level
    untouched = prepared.untouched
    w_manager = index.manager
    q_manager = query.manager

    chain_count = len(prepared.chain)
    chain_roots = [link.root for link in prepared.chain]
    chain_under = [link.prob_under for link in prepared.chain]
    q_under = query.prob_under

    def resolve(q_node: int, chain_index: int, w_node: int):
        """Normalise a state: advance past exhausted components, detect leaves."""
        while True:
            if q_node == ZERO or w_node == ZERO:
                return 0.0
            if w_node == ONE:
                if chain_index + 1 < chain_count:
                    chain_index += 1
                    w_node = chain_roots[chain_index]
                    continue
                return q_under[q_node] if q_node != ONE else 1.0
            if q_node == ONE:
                # The augmentation shortcut: close the remaining index
                # sub-OBDD and the untouched suffix of the chain with
                # pre-computed quantities.
                return chain_under[chain_index][w_node] * suffix[chain_index + 1]
            return (q_node, chain_index, w_node)

    memo: dict[tuple[int, int, int], float] = {}
    memo_get = memo.get
    initial = resolve(query.root, 0, chain_roots[0])
    if type(initial) is float:
        return initial * untouched

    expansions = 0
    stack: list[tuple[int, int, int]] = [initial]
    while stack:
        state = stack[-1]
        if state in memo:
            stack.pop()
            continue
        q_node, chain_index, w_node = state
        q_level = q_manager.level(q_node)
        w_level = w_manager.level(w_node)
        if q_level <= w_level:
            level = q_level
            q_low, q_high = q_manager.low(q_node), q_manager.high(q_node)
        else:
            level = w_level
            q_low, q_high = q_node, q_node
        if w_level <= q_level:
            w_low, w_high = w_manager.low(w_node), w_manager.high(w_node)
        else:
            w_low, w_high = w_node, w_node
        low_state = resolve(q_low, chain_index, w_low)
        high_state = resolve(q_high, chain_index, w_high)
        pending = False
        if type(low_state) is not float:
            low_value = memo_get(low_state)
            if low_value is None:
                stack.append(low_state)
                pending = True
            else:
                low_state = low_value
        if type(high_state) is not float:
            high_value = memo_get(high_state)
            if high_value is None:
                stack.append(high_state)
                pending = True
            else:
                high_state = high_value
        if pending:
            continue
        probability = probability_of_level[level]
        memo[state] = (1.0 - probability) * low_state + probability * high_state
        expansions += 1
        stack.pop()

    stats.pair_expansions += expansions
    return memo[initial] * untouched


def p0_q_or_w(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    algorithm: str = "cc",
) -> float:
    """``P0(Q ∨ W) = P0(W) + P0(Q ∧ ¬W)`` using the chosen intersection algorithm."""
    if algorithm == "cc":
        conjunction = cc_mv_intersect(index, query_lineage, probabilities)
    elif algorithm == "mv":
        conjunction = mv_intersect(index, query_lineage, probabilities)
    else:
        raise InferenceError(f"unknown intersection algorithm {algorithm!r}")
    return index.probability_w() + conjunction

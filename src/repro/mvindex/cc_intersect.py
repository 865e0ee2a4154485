"""CC-MVIntersect, and the set-up both intersection kernels share.

The paper's CC-MVIntersect (Sect. 4.3) replaces the pointer-based BDD node
representation with a flat vector sorted by the DFS order of the OBDD, so
that the traversal touches memory sequentially.  The Python analogue of that
optimisation is to re-encode every component OBDD of the index — once, when
it is first needed — into dense parallel arrays (level, 0-child, 1-child,
probUnder), and to drive the online traversal with an explicit stack over
small integer indices and a flat memo keyed by packed integers, instead of
recursive calls over manager nodes and tuple-keyed dictionaries.  The
algorithmic behaviour (what is traversed, which shortcuts apply) is exactly
that of :func:`repro.mvindex.intersect.mv_intersect`; only the constant
factors differ, which is what Fig. 9 measures.

Everything before the traversal — compiling the query OBDD, finding the
touched components, chaining them, keying the probabilities they need — is
:func:`prepare_intersect`, which both kernels call; the two modules differ
only in the loop that walks the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.lineage.dnf import DNF
from repro.mvindex.augmented import AugmentedObdd
from repro.mvindex.index import MVIndex
from repro.obdd.construct import build_obdd
from repro.obdd.manager import ONE, ZERO, ObddManager
from repro.obdd.order import VariableOrder


@dataclass
class IntersectStatistics:
    """Work counters reported by an intersection run (used by benchmarks)."""

    touched_components: int = 0
    untouched_components: int = 0
    pair_expansions: int = 0
    #: Nodes of the query OBDD compiled for the traversal (also filled by the
    #: from-scratch ``obdd`` method with the size of its ``Q ∨ W`` OBDD).
    query_obdd_nodes: int = 0


def compile_query_obdd(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float],
) -> tuple[AugmentedObdd, VariableOrder]:
    """Compile the query lineage under the index order (free variables appended).

    The common case — every lineage variable already indexed — uses
    ``index.order`` itself; an extended copy would assign every variable
    the same level.
    """
    variables = query_lineage.variables()
    if all(variable in index.order for variable in variables):
        order = index.order
    else:
        order = index.order.extend(sorted(variables))
    # The annotation only keys levels of the compiled OBDD, i.e. the
    # lineage's own variables, so only those are merged (``probabilities``
    # overrides the index's own map).
    merged_probabilities = {}
    for variable in variables:
        value = probabilities.get(variable)
        if value is None:
            value = index.probabilities.get(variable)
        if value is not None:
            merged_probabilities[variable] = value
    manager = ObddManager()
    compiled = build_obdd(query_lineage, order, manager=manager, method="concat")
    augmented = AugmentedObdd(manager, compiled.root, order, merged_probabilities)
    return augmented, order


@dataclass
class PreparedIntersect:
    """What a traversal loop starts from (see :func:`prepare_intersect`)."""

    query: AugmentedObdd
    #: The touched ``¬W_k`` in level order.  ``∧_k ¬W_k`` is never
    #: materialised: reaching the 1-terminal of one link advances the
    #: traversal to the next link's root.  Components whose level ranges
    #: interleave cannot be chained that way and arrive as one link, their
    #: explicit conjunction.
    chain: list[AugmentedObdd]
    #: ``suffix[i] = Π_{j ≥ i} P0(chain[j])``.
    suffix: list[float]
    #: Probability by level, for the levels the query OBDD and the chain use.
    probability_of_level: dict[int, float]
    #: ``Π P0(¬W_k)`` over the untouched components (1.0 when left out).
    untouched: float


def prepare_intersect(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float],
    statistics: IntersectStatistics,
    include_untouched: bool,
) -> "float | PreparedIntersect":
    """Everything :func:`cc_mv_intersect` and ``mv_intersect`` do before looping.

    Returns the answer itself when no traversal is needed (a constant
    lineage, or one that touches no component).  ``statistics`` is filled
    whenever a query OBDD was compiled.
    """
    if query_lineage.is_false:
        return 0.0
    if query_lineage.is_true:
        return index.probability_not_w() if include_untouched else 1.0

    query, order = compile_query_obdd(index, query_lineage, probabilities)
    variables = query_lineage.variables()
    touched = index.touched_components(variables)
    statistics.touched_components = len(touched)
    statistics.untouched_components = index.component_count() - len(touched)
    statistics.query_obdd_nodes = max(0, len(query.prob_under) - 2)
    untouched = (
        index.untouched_factor({component.key for component in touched})
        if include_untouched
        else 1.0
    )
    if not touched:
        return query.probability * untouched

    # The traversal only probes levels of nodes in the query OBDD and the
    # touched components, so only their variables are keyed — not every
    # probabilistic variable of the database, per answer.
    needed = set(variables)
    for component in touched:
        needed.update(component.variables)
    probability_of_level = {}
    for variable in needed:
        value = probabilities.get(variable)
        if value is None:
            value = index.probabilities.get(variable, 0.0)
        probability_of_level[order.level_of(variable)] = value

    ordered = sorted(touched, key=lambda component: component.min_level)
    if any(
        current.min_level <= previous.max_level
        for previous, current in zip(ordered, ordered[1:])
    ):
        chain = [
            AugmentedObdd(
                index.manager,
                index.conjoined_not_w_root(ordered),
                order,
                index.probabilities,
                probability_of_level=probability_of_level,
            )
        ]
    else:
        chain = [component.obdd for component in ordered]
    suffix = [1.0] * (len(chain) + 1)
    for position in range(len(chain) - 1, -1, -1):
        suffix[position] = chain[position].probability * suffix[position + 1]
    return PreparedIntersect(query, chain, suffix, probability_of_level, untouched)


#: Flat-array encoding of the two terminals.
_FLAT_ZERO = 0
_FLAT_ONE = 1
#: Level assigned to the terminals in the flat encoding (larger than any variable).
_FLAT_TERMINAL_LEVEL = 1 << 60


@dataclass
class FlatObdd:
    """A single OBDD re-encoded as dense arrays in DFS order.

    Index 0 and 1 are the terminals; internal nodes start at index 2 and are
    numbered in depth-first order from the root, so a top-down traversal
    walks the arrays mostly sequentially.
    """

    levels: list[int]
    lows: list[int]
    highs: list[int]
    prob_under: list[float]
    root: int

    @staticmethod
    def from_manager(
        manager: ObddManager, root: int, prob_under: Mapping[int, float] | None = None
    ) -> "FlatObdd":
        nodes = manager.reachable_nodes(root)
        position = {ZERO: _FLAT_ZERO, ONE: _FLAT_ONE}
        for offset, node in enumerate(nodes):
            position[node] = offset + 2
        count = len(nodes) + 2
        levels = [_FLAT_TERMINAL_LEVEL] * count
        lows = [0, 1] + [0] * len(nodes)
        highs = [0, 1] + [0] * len(nodes)
        under = [0.0, 1.0] + [0.0] * len(nodes)
        for node in nodes:
            index = position[node]
            levels[index] = manager.level(node)
            lows[index] = position[manager.low(node)]
            highs[index] = position[manager.high(node)]
            if prob_under is not None:
                under[index] = prob_under[node]
        flat_root = position.get(root, _FLAT_ONE if root == ONE else _FLAT_ZERO)
        return FlatObdd(levels, lows, highs, under, flat_root)

    @staticmethod
    def from_augmented(augmented: AugmentedObdd) -> "FlatObdd":
        """Flatten an augmented OBDD, carrying its probUnder annotations over."""
        return FlatObdd.from_manager(augmented.manager, augmented.root, augmented.prob_under)

    def __len__(self) -> int:
        return len(self.levels)


def _flat(augmented: AugmentedObdd) -> FlatObdd:
    """The cached flat encoding of one chain link (built on first use)."""
    cached = getattr(augmented, "_flat", None)
    if cached is None:
        cached = FlatObdd.from_augmented(augmented)
        augmented._flat = cached
    return cached


def prewarm_flat_encodings(index: MVIndex) -> None:
    """Build the flat encoding of every component of ``index`` eagerly.

    The flat arrays are normally built lazily the first time a component is
    touched, which is a (benign) write to shared state.  Serving layers that
    want the index to be strictly read-only during concurrent queries call
    this once up front (see :meth:`repro.serving.session.QuerySession.warm`).
    """
    for component in index.components.values():
        _flat(component.obdd)


def cc_mv_intersect(
    index: MVIndex,
    query_lineage: DNF,
    probabilities: Mapping[int, float] | None = None,
    statistics: IntersectStatistics | None = None,
    include_untouched: bool = True,
) -> float:
    """``P0(Q ∧ ¬W)`` by the cache-conscious flat-array traversal.

    With ``include_untouched=False`` the product over components the query
    does not touch is left out — the caller divides by the touched-only
    ``P0(¬W_k)`` product instead, which keeps the Theorem 1 ratio finite on
    indexes with thousands of components (see
    :meth:`MVIndex.touched_factor_of`).
    """
    stats = statistics if statistics is not None else IntersectStatistics()
    prepared = prepare_intersect(
        index, query_lineage, probabilities or {}, stats, include_untouched
    )
    if type(prepared) is float:
        return prepared
    flat_query = FlatObdd.from_augmented(prepared.query)
    chain = [_flat(link) for link in prepared.chain]
    suffix = prepared.suffix
    probability_of_level = prepared.probability_of_level
    untouched = prepared.untouched

    chain_count = len(chain)
    q_levels, q_lows, q_highs, q_under = (
        flat_query.levels,
        flat_query.lows,
        flat_query.highs,
        flat_query.prob_under,
    )
    # Memo keys pack (chain index, component node, query node) into one integer:
    # nodes of component i are offset by the total size of earlier components.
    q_span = len(q_levels)
    offsets = [0] * chain_count
    running = 0
    for position, component in enumerate(chain):
        offsets[position] = running
        running += len(component.levels)

    def resolve(q_node: int, chain_index: int, w_node: int):
        """Normalise a state: advance past exhausted components, detect leaves."""
        while True:
            if q_node == _FLAT_ZERO or w_node == _FLAT_ZERO:
                return 0.0
            if w_node == _FLAT_ONE:
                if chain_index + 1 < chain_count:
                    chain_index += 1
                    w_node = chain[chain_index].root
                    continue
                return q_under[q_node] if q_node != _FLAT_ONE else 1.0
            if q_node == _FLAT_ONE:
                return chain[chain_index].prob_under[w_node] * suffix[chain_index + 1]
            return (q_node, chain_index, w_node)

    memo: dict[int, float] = {}
    initial = resolve(flat_query.root, 0, chain[0].root)
    if isinstance(initial, float):
        return initial * untouched

    stack: list[tuple[int, int, int]] = [initial]
    while stack:
        q_node, chain_index, w_node = stack[-1]
        component = chain[chain_index]
        key = (offsets[chain_index] + w_node) * q_span + q_node
        if key in memo:
            stack.pop()
            continue
        q_level = q_levels[q_node]
        w_level = component.levels[w_node]
        if q_level <= w_level:
            level = q_level
            q_low, q_high = q_lows[q_node], q_highs[q_node]
        else:
            level = w_level
            q_low, q_high = q_node, q_node
        if w_level <= q_level:
            w_low, w_high = component.lows[w_node], component.highs[w_node]
        else:
            w_low, w_high = w_node, w_node
        low_state = resolve(q_low, chain_index, w_low)
        high_state = resolve(q_high, chain_index, w_high)
        pending = []
        low_key = high_key = -1
        if type(low_state) is not float:
            low_key = (offsets[low_state[1]] + low_state[2]) * q_span + low_state[0]
            if low_key not in memo:
                pending.append(low_state)
        if type(high_state) is not float:
            high_key = (offsets[high_state[1]] + high_state[2]) * q_span + high_state[0]
            if high_key not in memo:
                pending.append(high_state)
        if pending:
            stack.extend(pending)
            continue
        low_value = low_state if type(low_state) is float else memo[low_key]
        high_value = high_state if type(high_state) is float else memo[high_key]
        probability = probability_of_level[level]
        memo[key] = (1.0 - probability) * low_value + probability * high_value
        stats.pair_expansions += 1
        stack.pop()

    initial_key = (offsets[initial[1]] + initial[2]) * q_span + initial[0]
    return memo[initial_key] * untouched

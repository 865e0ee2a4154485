"""OBDD construction for UCQ lineage: synthesis vs concatenation (ConOBDD).

Two construction strategies are provided for a monotone DNF lineage under a
fixed variable order:

* ``synthesis`` — the CUDD-style baseline: build one small OBDD per clause
  and OR them into an accumulator with pairwise ``apply``.  Every step
  re-traverses the accumulated result, so total work grows quadratically in
  the number of independent blocks.

* ``concat`` — the paper's ConOBDD strategy (rules R1–R4): partition the
  clauses into connected components (clauses sharing no variables are
  independent), lay the components out along the variable order, synthesise
  only *inside* a component, and chain consecutive components by
  *concatenation* (replacing the 0-terminal of one component's OBDD with the
  root of the next), which is linear.  When the query has a separator
  variable and the order is derived from separator-first permutations, every
  component is tiny and the whole construction is linear in the data — this
  is Proposition 1/2 of the paper.

Both strategies produce the same reduced OBDD (the order determines it
uniquely); only the construction cost differs, which is what Fig. 8 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

from repro.errors import CompilationError
from repro.lineage.dnf import DNF, Clause
from repro.obdd.manager import _ID_BITS, ONE, ZERO, ObddManager
from repro.obdd.order import VariableOrder, connected_components

ConstructionMethod = Literal["concat", "synthesis"]


@dataclass
class CompiledObdd:
    """A compiled lineage: manager, root node, and the variable order used."""

    manager: ObddManager
    root: int
    order: VariableOrder

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        return self.manager.size(self.root)

    @property
    def width(self) -> int:
        """Maximum number of nodes at any level."""
        return self.manager.width(self.root)

    def probability(self, probabilities: Mapping[int, float]) -> float:
        """Probability of the compiled formula (``probabilities`` keyed by variable)."""
        by_level = self.order.probabilities_by_level(probabilities)
        return self.manager.probability(self.root, by_level)

    def negate(self) -> "CompiledObdd":
        """The compiled complement."""
        return CompiledObdd(self.manager, self.manager.negate(self.root), self.order)


def clause_obdd(manager: ObddManager, levels: Iterable[int]) -> int:
    """OBDD of a conjunction of positive literals given by their levels."""
    return manager.conjunction_chain(levels)


def _synthesize_clauses(manager: ObddManager, clauses: list[Clause], order: VariableOrder) -> int:
    """OR together clause OBDDs with pairwise apply (the CUDD-style schedule).

    Clauses are processed in lexicographic order of their level lists; two
    distinct clauses of a DNF always have distinct level lists (the order is
    a bijection), so the processing order — and hence the apply schedule —
    is a pure function of the formula and the order.
    """
    level_of = order.level_map
    root = ZERO
    for levels in sorted(sorted(map(level_of.__getitem__, clause)) for clause in clauses):
        root = manager.apply_or(root, clause_obdd(manager, levels))
    return root


def _compile_block(manager: ObddManager, level_lists: list[list[int]], default: int) -> int:
    """Direct top-down compile of ``OR(clauses)`` with failure paths → ``default``.

    This is the ConOBDD block synthesis: instead of building one OBDD per
    clause and folding them with pairwise apply (re-traversing the
    accumulated result once per clause), the clause set is compiled in a
    single memoized top-down expansion over *interned clause suffixes*.
    Clauses are sorted by level list, so the clauses not yet entered on the
    current path form a contiguous tail identified by one index, and a
    state is ``(next clause index, active suffix ids)`` — its size is
    bounded by the block's OBDD width, not its clause count.  Passing the
    next block's root as ``default`` fuses the concatenation step (the
    paper's 0-terminal redirection) into the construction itself, so
    chaining blocks costs nothing extra.  The result is the same reduced
    OBDD that pairwise synthesis plus substitution produces — it is
    canonical under the order.

    ``level_lists`` holds one ascending level list per clause.  Multi-clause
    state expansions are counted in ``manager.apply_steps`` as synthesis
    steps; pure chain construction (single-clause blocks and exhausted
    states) is concatenation work and is not counted, matching the paper's
    accounting where concatenation performs no synthesis.
    """
    if not level_lists:
        return default
    levels_arr = manager._level
    lows = manager._low
    highs = manager._high
    unique = manager._unique
    unique_get = unique.get

    # Single clause: a chain whose every failing branch drops to ``default``.
    if len(level_lists) == 1:
        node = ONE
        for level in reversed(level_lists[0]):
            if node == default:
                continue  # reduction: both children equal
            key = (level << 64) | (default << _ID_BITS) | node
            chained = unique_get(key)
            if chained is None:
                chained = len(levels_arr)
                levels_arr.append(level)
                lows.append(default)
                highs.append(node)
                unique[key] = chained
            node = chained
        return node

    # Content-interned clause suffixes: suffix id i has first level
    # ``heads[i]`` and remainder ``tails[i]`` (-1 = clause satisfied after
    # this literal).  Interning by content lets suffixes shared between
    # clauses collapse to one id, so states deduplicate maximally.
    heads: list[int] = []
    tails: list[int] = []
    intern: dict[tuple[int, int], int] = {}
    roots: list[int] = []
    for levels in sorted(level_lists):
        suffix = -1
        for level in reversed(levels):
            key = (level, suffix)
            suffix = intern.get(key, -2)
            if suffix == -2:
                suffix = len(heads)
                heads.append(level)
                tails.append(key[1])
                intern[key] = suffix
        roots.append(suffix)
    clause_count = len(roots)

    #: Compiled OBDD of a single remaining suffix (chain with default lows).
    chain_memo: dict[int, int] = {}

    def chain_of(suffix: int) -> int:
        cached = chain_memo.get(suffix)
        if cached is not None:
            return cached
        node = ONE
        walk = suffix
        path = []
        while walk >= 0:
            path.append(walk)
            walk = tails[walk]
        for position in reversed(path):
            cached = chain_memo.get(position)
            if cached is not None:
                node = cached
                continue
            level = heads[position]
            if node == default:
                chain_memo[position] = node
                continue
            key = (level << 64) | (default << _ID_BITS) | node
            chained = unique_get(key)
            if chained is None:
                chained = len(levels_arr)
                levels_arr.append(level)
                lows.append(default)
                highs.append(node)
                unique[key] = chained
            node = chained
            chain_memo[position] = node
        return node

    # States are ``(next_clause, suffix, suffix, ...)``: clauses are sorted
    # by level list, so the clauses not yet entered on the current path form
    # a contiguous tail of ``roots`` identified by one index, and only the
    # *active* suffixes (entered but undecided clauses) are enumerated —
    # their number is bounded by the block's OBDD width, not its clause
    # count.  This keeps state size (and hashing) small even for
    # thousand-clause chains.
    memo: dict[tuple[int, ...], int] = {}
    memo_get = memo.get
    steps = 0
    frames: list[tuple] = []
    push = frames.append

    def expand(state: tuple[int, ...]):
        """Cofactor a state at its top level.

        Returns ``(level, low_child, high_child)`` where a child is either a
        resolved node id (int) or a state tuple to be compiled.
        """
        next_clause = state[0]
        if next_clause < clause_count:
            level = heads[roots[next_clause]]
            for i in state[1:]:
                head = heads[i]
                if head < level:
                    level = head
        else:
            level = heads[state[1]]
            for i in state[2:]:
                head = heads[i]
                if head < level:
                    level = head
        carried: list[int] = []
        advanced: list[int] = []
        satisfied = False
        for i in state[1:]:
            if heads[i] == level:
                tail = tails[i]
                if tail < 0:
                    satisfied = True
                else:
                    advanced.append(tail)
            else:
                carried.append(i)
        while next_clause < clause_count:
            root = roots[next_clause]
            if heads[root] != level:
                break
            tail = tails[root]
            if tail < 0:
                satisfied = True
            else:
                advanced.append(tail)
            next_clause += 1

        if not carried and next_clause == clause_count:
            low_child = default
        elif len(carried) == 1 and next_clause == clause_count:
            low_child = chain_of(carried[0])
        else:
            low_child = (next_clause, *carried)

        if satisfied:
            high_child = ONE
        else:
            high_ids = carried + advanced
            if not high_ids and next_clause == clause_count:
                high_child = default
            elif len(set(high_ids)) == 1 and next_clause == clause_count:
                high_child = chain_of(high_ids[0])
            else:
                high_child = (next_clause, *sorted(set(high_ids)))
        return level, low_child, high_child

    state: tuple[int, ...] = (0,)
    while True:
        # ---- descend on the state in the register.
        while True:
            level, low_child, high_child = expand(state)
            if type(low_child) is tuple:
                low_result = memo_get(low_child)
                if low_result is None:
                    push((state, level, high_child))
                    state = low_child
                    continue
            else:
                low_result = low_child
            if type(high_child) is tuple:
                high_result = memo_get(high_child)
                if high_result is None:
                    push((state, level, low_result, None))
                    state = high_child
                    continue
            else:
                high_result = high_child
            break

        # ---- emit and unwind.
        descend = False
        while True:
            if low_result == high_result:
                result = low_result
            else:
                key = (level << 64) | (low_result << _ID_BITS) | high_result
                result = unique_get(key)
                if result is None:
                    result = len(levels_arr)
                    levels_arr.append(level)
                    lows.append(low_result)
                    highs.append(high_result)
                    unique[key] = result
            memo[state] = result
            steps += 1
            if not frames:
                manager.apply_steps += steps
                return result
            frame = frames.pop()
            if len(frame) == 3:
                state, level, high_child = frame
                low_result = result
                if type(high_child) is tuple:
                    high_result = memo_get(high_child)
                    if high_result is None:
                        push((state, level, low_result, None))
                        state = high_child
                        descend = True
                        break
                else:
                    high_result = high_child
            else:
                state, level, low_result, __ = frame
                high_result = result
        if descend:
            continue


def build_component_root(
    manager: ObddManager,
    clauses: Iterable[Clause],
    order: VariableOrder,
    method: ConstructionMethod = "concat",
) -> int:
    """Compile one connected component's clauses, skipping re-partitioning.

    The MV-index compiles every component of ``W`` separately; routing those
    compiles through :func:`build_obdd` would re-run connected-component
    discovery and DNF normalization on clause sets already known to be one
    normalized component.  ``"concat"`` compiles the clause set directly
    with the memoized top-down block compile, ``"synthesis"`` folds the
    clause OBDDs pairwise (the CUDD-style schedule); both produce the same
    reduced OBDD.
    """
    clause_list = list(clauses)
    if method == "synthesis":
        return _synthesize_clauses(manager, clause_list, order)
    if method == "concat":
        level_of = order.level_map
        level_lists = [
            sorted(map(level_of.__getitem__, clause)) for clause in clause_list
        ]
        return _compile_block(manager, level_lists, ZERO)
    raise CompilationError(f"unknown construction method {method!r}")


def synthesize_dnf(manager: ObddManager, formula: DNF, order: VariableOrder) -> int:
    """CUDD-style construction: accumulate every clause with pairwise apply."""
    if formula.is_true:
        return ONE
    if formula.is_false:
        return ZERO
    return _synthesize_clauses(manager, list(formula.clauses), order)


def concatenate_dnf(manager: ObddManager, formula: DNF, order: VariableOrder) -> int:
    """ConOBDD construction: synthesis inside components, concatenation across.

    Components whose level ranges interleave cannot be concatenated (the
    result would not be ordered); they are merged into a single synthesis
    block — this is the hybrid case discussed after rule R4 in the paper.
    """
    if formula.is_true:
        return ONE
    if formula.is_false:
        return ZERO

    level_of = order.level_map
    components = connected_components(formula.clauses)
    ranges = []
    for component in components:
        levels = [level_of[v] for clause in component for v in clause]
        ranges.append((min(levels), max(levels), component))
    ranges.sort(key=lambda item: item[0])

    # Merge interleaving components into blocks of non-overlapping level ranges.
    blocks: list[tuple[int, int, list[Clause]]] = []
    for low, high, component in ranges:
        if blocks and low <= blocks[-1][1]:
            previous_low, previous_high, previous_clauses = blocks[-1]
            blocks[-1] = (previous_low, max(previous_high, high), previous_clauses + component)
        else:
            blocks.append((low, high, list(component)))

    # Build blocks from the last (largest levels) to the first.  The paper's
    # concatenation step — redirect the 0-terminal of a block to the
    # disjunction of everything after it — is fused into the block compile
    # itself: the accumulated result rides along as the failure terminal.
    result = ZERO
    for __, __, clauses in reversed(blocks):
        level_lists = [sorted(map(level_of.__getitem__, clause)) for clause in clauses]
        result = _compile_block(manager, level_lists, result)
    return result


def build_obdd(
    formula: DNF,
    order: VariableOrder,
    manager: ObddManager | None = None,
    method: ConstructionMethod = "concat",
) -> CompiledObdd:
    """Compile a monotone DNF lineage into an OBDD under ``order``.

    Parameters
    ----------
    formula:
        The lineage to compile.
    order:
        Variable order; every variable of ``formula`` must be in it.
    manager:
        Optional existing manager (so several formulas share a unique table).
    method:
        ``"concat"`` (ConOBDD, default) or ``"synthesis"`` (CUDD baseline).
    """
    missing = [v for v in formula.variables() if v not in order]
    if missing:
        raise CompilationError(f"variables {missing[:5]} are not in the variable order")
    manager = manager if manager is not None else ObddManager()
    if method == "synthesis":
        root = synthesize_dnf(manager, formula, order)
    elif method == "concat":
        root = concatenate_dnf(manager, formula, order)
    else:
        raise CompilationError(f"unknown construction method {method!r}")
    return CompiledObdd(manager, root, order)

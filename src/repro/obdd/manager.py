"""A reduced, ordered BDD manager (shared unique table, operation caches).

This plays the role of CUDD in the paper: it provides node creation with
reduction, Boolean synthesis (``apply``), negation, restriction, and
probability computation by Shannon expansion.  Probabilities may be negative
(Sect. 3.3): Shannon expansion is oblivious to the sign.

Nodes are integers.  The two terminals are ``ZERO = 0`` and ``ONE = 1``;
internal nodes are indices ≥ 2 into flat arrays (level, low, high), which
keeps the manager compact and makes the cache-conscious MV-index layout
(:mod:`repro.mvindex.cc_intersect`) a straightforward re-encoding.

The synthesis core is *iterative and allocation-lean*: ``apply`` runs an
explicit work stack over ``(f, g)`` pairs instead of recursing, the unique
table and the per-operation caches are keyed by packed integers rather than
tuples, and node creation is inlined into the hot loop.  Nothing here ever
recurses to the depth of the OBDD, so formulas over hundreds of thousands of
variables compile without touching the interpreter recursion limit (the old
kernel needed ``sys.setrecursionlimit`` escapes; the retained recursive
reference implementation, ``tests/obdd_reference.py``, is the oracle of the
equivalence tests).

The flat-array representation also gives the manager a *stable
serialization*: :meth:`ObddManager.export_nodes` walks the nodes reachable
from a set of roots in a deterministic child-first order and emits plain
``(level, low, high)`` triples, and :meth:`ObddManager.import_nodes` replays
them through :meth:`ObddManager.make_node` so that a restored manager is
reduced, shares structure, and assigns exactly the node ids recorded in the
export.  This is what lets a compiled MV-index be persisted to disk and
reloaded in a different process (see :mod:`repro.serving.artifact`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import CompilationError

ZERO = 0
ONE = 1

#: Level assigned to terminal nodes (larger than any variable level).
TERMINAL_LEVEL = 1 << 60

#: Bit width used to pack node ids into cache keys.  Node ids are dense list
#: indices, so 2**32 nodes would need hundreds of GiB of memory long before
#: the packing overflows into ambiguity.
_ID_BITS = 32


class ObddManager:
    """Shared OBDD manager with a unique table and per-operation caches."""

    def __init__(self) -> None:
        # Parallel arrays indexed by node id; entries 0/1 are placeholders for
        # the terminals so that node ids can be used to index directly.
        self._level: list[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: list[int] = [ZERO, ONE]
        self._high: list[int] = [ZERO, ONE]
        #: Unique table keyed by ``level << 64 | low << 32 | high``.
        self._unique: dict[int, int] = {}
        #: Operation caches, keyed by ``f << 32 | g`` with ``f < g`` (both
        #: operations are commutative).  Separate dicts per operation beat a
        #: shared dict with the operation folded into the key.
        self._or_cache: dict[int, int] = {}
        self._and_cache: dict[int, int] = {}
        self._negate_cache: dict[int, int] = {}
        #: Memos of the multi-way applies, keyed by normalized operand tuples.
        self._multi_and_cache: dict[tuple[int, ...], int] = {}
        self._multi_or_cache: dict[tuple[int, ...], int] = {}
        #: Number of apply-cache misses (i.e. real synthesis steps); exposed so
        #: benchmarks can report synthesis effort in a platform-neutral way.
        self.apply_steps = 0

    # ----------------------------------------------------------------- nodes
    def node_count(self) -> int:  # pragma: no cover - growth probe; only __repr__ calls it
        """Total number of nodes ever created (including the two terminals)."""
        return len(self._level)

    def is_terminal(self, node: int) -> bool:
        """True for the ``ZERO``/``ONE`` terminals."""
        return node <= ONE

    def level(self, node: int) -> int:
        """Level of a node (``TERMINAL_LEVEL`` for terminals)."""
        return self._level[node]

    def low(self, node: int) -> int:
        """0-child of a node."""
        return self._low[node]

    def high(self, node: int) -> int:
        """1-child of a node."""
        return self._high[node]

    def make_node(self, level: int, low: int, high: int) -> int:
        """Create (or reuse) the node ``(level, low, high)`` with reduction rules."""
        if low == high:
            return low
        if level >= TERMINAL_LEVEL:
            raise CompilationError(f"invalid variable level {level}")
        if self._level[low] <= level or self._level[high] <= level:
            raise CompilationError(
                f"children of a node at level {level} must have strictly larger levels"
            )
        key = (level << 64) | (low << _ID_BITS) | high
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def variable(self, level: int) -> int:
        """The OBDD of the single variable at ``level``."""
        return self.make_node(level, ZERO, ONE)

    def conjunction_chain(self, levels: Iterable[int]) -> int:
        """The OBDD of a conjunction of positive literals (a chain).

        Equivalent to folding :meth:`make_node` over the levels in
        decreasing order with a ``ZERO`` low child, but with the unique
        table inlined — clause construction is the inner loop of every DNF
        compile.  Duplicate or out-of-range levels raise, as they would
        through :meth:`make_node`.
        """
        unique = self._unique
        unique_get = unique.get
        level_list = self._level
        lows = self._low
        highs = self._high
        node = ONE
        previous = TERMINAL_LEVEL
        for level in sorted(levels, reverse=True):
            if level >= previous:
                if level >= TERMINAL_LEVEL:
                    raise CompilationError(f"invalid variable level {level}")
                raise CompilationError(f"duplicate level {level} in conjunction chain")
            previous = level
            key = (level << 64) | node  # low child is ZERO
            chained = unique_get(key)
            if chained is None:
                chained = len(level_list)
                level_list.append(level)
                lows.append(ZERO)
                highs.append(node)
                unique[key] = chained
            node = chained
        return node

    # ------------------------------------------------------------- synthesis
    def apply_or(self, f: int, g: int) -> int:
        """Synthesis of ``f ∨ g`` (the CUDD-style pairwise apply)."""
        return self._apply(False, f, g)

    def apply_and(self, f: int, g: int) -> int:
        """Synthesis of ``f ∧ g``."""
        return self._apply(True, f, g)

    def _apply(self, conjunction: bool, f: int, g: int) -> int:
        """Iterative pairwise apply — simulated recursion over node pairs.

        The loop keeps the pair being synthesised in registers and an
        explicit frame stack for its ancestors, exactly mirroring the call
        structure of the recursive reference kernel: a frame
        ``(key, level, a1, b1)`` is an ancestor still waiting for its low
        cofactor (the raw high cofactor pair is parked unresolved), a frame
        ``(key, level, low_result)`` one waiting for its high cofactor.
        Because the descent is depth-first and sequential, every pair is
        synthesised at most once, no visited frame is ever re-examined, and
        the set of cache-missing pairs — counted by ``apply_steps`` — is
        identical to the recursive kernel's.  Cofactor pairs that reduce by
        the operation's terminal rules or hit the operation cache are
        resolved inline without touching the stack, and result nodes are
        emitted through an inlined unique-table lookup.
        """
        # Terminal / idempotence shortcuts on the root pair.
        if conjunction:
            if f == ZERO or g == ZERO:
                return ZERO
            if f == ONE:
                return g
            if g == ONE:
                return f
        else:
            if f == ONE or g == ONE:
                return ONE
            if f == ZERO:
                return g
            if g == ZERO:
                return f
        if f == g:
            return f
        if f > g:
            f, g = g, f
        cache = self._and_cache if conjunction else self._or_cache
        root_key = (f << _ID_BITS) | g
        result = cache.get(root_key)
        if result is not None:
            return result

        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        cache_get = cache.get
        unique_get = unique.get
        steps = 0
        frames: list[tuple] = []
        push = frames.append
        a, b, key = f, g, root_key
        while True:
            # ---- descend: synthesise the pair in the (a, b, key) registers.
            while True:
                level_a = levels[a]
                level_b = levels[b]
                if level_a <= level_b:
                    level = level_a
                    a0 = lows[a]
                    a1 = highs[a]
                else:
                    level = level_b
                    a0 = a
                    a1 = a
                if level_b <= level_a:
                    b0 = lows[b]
                    b1 = highs[b]
                else:
                    b0 = b
                    b1 = b

                # Resolve the low cofactor pair: shortcut, cache hit, or descend.
                if conjunction:
                    if a0 == ZERO or b0 == ZERO:
                        low_result = ZERO
                    elif a0 == ONE:
                        low_result = b0
                    elif b0 == ONE or a0 == b0:
                        low_result = a0
                    else:
                        if a0 > b0:
                            a0, b0 = b0, a0
                        low_key = (a0 << _ID_BITS) | b0
                        low_result = cache_get(low_key)
                        if low_result is None:
                            push((key, level, a1, b1))
                            a, b, key = a0, b0, low_key
                            continue
                elif a0 == ONE or b0 == ONE:
                    low_result = ONE
                elif a0 == ZERO:
                    low_result = b0
                elif b0 == ZERO or a0 == b0:
                    low_result = a0
                else:
                    if a0 > b0:
                        a0, b0 = b0, a0
                    low_key = (a0 << _ID_BITS) | b0
                    low_result = cache_get(low_key)
                    if low_result is None:
                        push((key, level, a1, b1))
                        a, b, key = a0, b0, low_key
                        continue

                # Resolve the high cofactor pair the same way.
                if conjunction:
                    if a1 == ZERO or b1 == ZERO:
                        high_result = ZERO
                    elif a1 == ONE:
                        high_result = b1
                    elif b1 == ONE or a1 == b1:
                        high_result = a1
                    else:
                        if a1 > b1:
                            a1, b1 = b1, a1
                        high_key = (a1 << _ID_BITS) | b1
                        high_result = cache_get(high_key)
                        if high_result is None:
                            push((key, level, low_result))
                            a, b, key = a1, b1, high_key
                            continue
                elif a1 == ONE or b1 == ONE:
                    high_result = ONE
                elif a1 == ZERO:
                    high_result = b1
                elif b1 == ZERO or a1 == b1:
                    high_result = a1
                else:
                    if a1 > b1:
                        a1, b1 = b1, a1
                    high_key = (a1 << _ID_BITS) | b1
                    high_result = cache_get(high_key)
                    if high_result is None:
                        push((key, level, low_result))
                        a, b, key = a1, b1, high_key
                        continue

                # Emit the node (inlined make_node) and leave the descent.
                if low_result == high_result:
                    result = low_result
                else:
                    unique_key = (level << 64) | (low_result << _ID_BITS) | high_result
                    result = unique_get(unique_key)
                    if result is None:
                        result = len(levels)
                        levels.append(level)
                        lows.append(low_result)
                        highs.append(high_result)
                        unique[unique_key] = result
                cache[key] = result
                steps += 1
                break

            # ---- unwind: feed the result to waiting ancestors.
            descend = False
            while frames:
                frame = frames.pop()
                if len(frame) == 4:
                    # Ancestor was waiting for its low cofactor.
                    key, level, a1, b1 = frame
                    low_result = result
                    if conjunction:
                        if a1 == ZERO or b1 == ZERO:
                            high_result = ZERO
                        elif a1 == ONE:
                            high_result = b1
                        elif b1 == ONE or a1 == b1:
                            high_result = a1
                        else:
                            if a1 > b1:
                                a1, b1 = b1, a1
                            high_key = (a1 << _ID_BITS) | b1
                            high_result = cache_get(high_key)
                            if high_result is None:
                                push((key, level, low_result))
                                a, b, key = a1, b1, high_key
                                descend = True
                                break
                    elif a1 == ONE or b1 == ONE:
                        high_result = ONE
                    elif a1 == ZERO:
                        high_result = b1
                    elif b1 == ZERO or a1 == b1:
                        high_result = a1
                    else:
                        if a1 > b1:
                            a1, b1 = b1, a1
                        high_key = (a1 << _ID_BITS) | b1
                        high_result = cache_get(high_key)
                        if high_result is None:
                            push((key, level, low_result))
                            a, b, key = a1, b1, high_key
                            descend = True
                            break
                else:
                    # Ancestor was waiting for its high cofactor.
                    key, level, low_result = frame
                    high_result = result
                if low_result == high_result:
                    result = low_result
                else:
                    unique_key = (level << 64) | (low_result << _ID_BITS) | high_result
                    result = unique_get(unique_key)
                    if result is None:
                        result = len(levels)
                        levels.append(level)
                        lows.append(low_result)
                        highs.append(high_result)
                        unique[unique_key] = result
                cache[key] = result
                steps += 1
            if not descend:
                break
        self.apply_steps += steps
        return result

    def apply_and_multi(self, roots: Iterable[int]) -> int:
        """Top-down memoized multi-way AND of several OBDDs.

        Conjoining ``k`` OBDDs pairwise re-traverses every intermediate
        result ``k - 1`` times; the multi-way apply expands all operands
        simultaneously instead, memoizing on the normalized operand tuple
        (duplicates and the operation's identity dropped, sorted).  This is
        what the query-time intersection uses to conjoin interleaving
        MV-index components in a single pass.
        """
        return self._apply_multi(True, roots)

    def apply_or_multi(self, roots: Iterable[int]) -> int:
        """Top-down memoized multi-way OR of several OBDDs.

        The dual of :meth:`apply_and_multi`; the ConOBDD construction uses
        it to disjoin all clause OBDDs of a connected component in one
        simultaneous expansion instead of re-traversing the accumulated
        result once per clause.
        """
        return self._apply_multi(False, roots)

    def _apply_multi(self, conjunction: bool, roots: Iterable[int]) -> int:
        """Shared machinery of the multi-way applies.

        States are normalized operand tuples (the operation's absorbing
        terminal short-circuits, its identity and duplicates are dropped,
        survivors sorted); one- and two-operand states collapse into node
        ids via the pairwise cache.  First-visit frames are the state
        tuples themselves; a frame with unresolved children is replaced by
        a ``[state, level, low, high]`` list (children encoded as state
        tuples to fetch from the memo) so nothing is recomputed on the
        second visit, mirroring :meth:`_apply`.
        """
        absorbing = ZERO if conjunction else ONE
        identity = ONE - absorbing
        entry: set[int] = set()
        for root in roots:
            if root == absorbing:
                return absorbing
            if root != identity:
                entry.add(root)
        if not entry:
            return identity
        if len(entry) == 1:
            return entry.pop()
        if len(entry) == 2:
            first, second = entry
            return self._apply(conjunction, first, second)
        state = tuple(sorted(entry))
        memo = self._multi_and_cache if conjunction else self._multi_or_cache
        result = memo.get(state)
        if result is not None:
            return result

        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        memo_get = memo.get
        unique_get = unique.get
        steps = 0
        stack: list = [state]
        push = stack.append
        while stack:
            frame = stack[-1]
            if type(frame) is tuple:
                operands = frame
                if operands in memo:
                    stack.pop()
                    continue
                level = TERMINAL_LEVEL
                for node in operands:
                    node_level = levels[node]
                    if node_level < level:
                        level = node_level
                # Cofactor every operand at the top level, normalizing the
                # child operand lists on the fly.
                low_set: set[int] = set()
                high_set: set[int] = set()
                low_short = high_short = False
                for node in operands:
                    if levels[node] == level:
                        child = lows[node]
                        if child == absorbing:
                            low_short = True
                        elif child != identity:
                            low_set.add(child)
                        child = highs[node]
                        if child == absorbing:
                            high_short = True
                        elif child != identity:
                            high_set.add(child)
                    else:
                        low_set.add(node)
                        high_set.add(node)

                pending = False
                if low_short:
                    low_result = absorbing
                elif not low_set:
                    low_result = identity
                elif len(low_set) == 1:
                    low_result = low_set.pop()
                elif len(low_set) == 2:
                    first, second = low_set
                    low_result = self._apply(conjunction, first, second)
                else:
                    low_state = tuple(sorted(low_set))
                    low_result = memo_get(low_state)
                    if low_result is None:
                        low_result = low_state
                        pending = True
                if high_short:
                    high_result = absorbing
                elif not high_set:
                    high_result = identity
                elif len(high_set) == 1:
                    high_result = high_set.pop()
                elif len(high_set) == 2:
                    first, second = high_set
                    high_result = self._apply(conjunction, first, second)
                else:
                    high_state = tuple(sorted(high_set))
                    high_result = memo_get(high_state)
                    if high_result is None:
                        high_result = high_state
                        pending = True
                if pending:
                    stack[-1] = [operands, level, low_result, high_result]
                    if type(low_result) is tuple:
                        push(low_result)
                    if type(high_result) is tuple:
                        push(high_result)
                    continue
            else:
                operands, level, low_result, high_result = frame
                if operands in memo:
                    stack.pop()
                    continue
                if type(low_result) is tuple:
                    low_result = memo[low_result]
                if type(high_result) is tuple:
                    high_result = memo[high_result]

            # Emit the node (inlined make_node; invariants hold by construction).
            if low_result == high_result:
                node = low_result
            else:
                unique_key = (level << 64) | (low_result << _ID_BITS) | high_result
                node = unique_get(unique_key)
                if node is None:
                    node = len(levels)
                    levels.append(level)
                    lows.append(low_result)
                    highs.append(high_result)
                    unique[unique_key] = node
            memo[operands] = node
            steps += 1
            stack.pop()
        self.apply_steps += steps
        return memo[state]

    def negate(self, f: int) -> int:
        """The OBDD of ``¬f`` (swap the terminals), iteratively."""
        if f <= ONE:
            return f ^ 1
        cache = self._negate_cache
        result = cache.get(f)
        if result is not None:
            return result
        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        cache_get = cache.get
        unique_get = unique.get
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            low = lows[node]
            high = highs[node]
            pending = False
            if low <= ONE:
                negated_low = low ^ 1
            else:
                negated_low = cache_get(low)
                if negated_low is None:
                    push(low)
                    pending = True
            if high <= ONE:
                negated_high = high ^ 1
            else:
                negated_high = cache_get(high)
                if negated_high is None:
                    push(high)
                    pending = True
            if pending:
                continue
            # Negation maps distinct children to distinct children, so the
            # reduction case never fires; emit via the inlined unique table.
            unique_key = (levels[node] << 64) | (negated_low << _ID_BITS) | negated_high
            negated = unique_get(unique_key)
            if negated is None:
                negated = len(levels)
                levels.append(levels[node])
                lows.append(negated_low)
                highs.append(negated_high)
                unique[unique_key] = negated
            cache[node] = negated
            cache[negated] = node
            stack.pop()
        return cache[f]

    def substitute_terminal(self, f: int, terminal: int, replacement: int) -> int:
        """Replace a terminal of ``f`` by another OBDD (the *concatenation* step).

        Requires every variable level of ``replacement`` to be strictly larger
        than every level of ``f`` so the result remains ordered; this is
        exactly the situation of Proposition 1 (independent sub-OBDDs laid out
        consecutively in the variable order), and the operation is linear in
        the size of ``f`` — no pairwise synthesis.
        """
        cache: dict[int, int] = {terminal: replacement}
        if f in cache:
            return cache[f]
        if f <= ONE:
            return f
        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        cache_get = cache.get
        unique_get = unique.get
        # Simulated recursion, as in _apply: the node being rewritten sits in
        # a register, ancestors wait on the frame stack ((node, -1) for the
        # low child, (node, low_result) for the high child).
        frames: list[tuple[int, int]] = []
        push = frames.append
        node = f
        while True:
            while True:
                low = lows[node]
                new_low = cache_get(low)
                if new_low is None:
                    if low <= ONE:
                        new_low = low
                    else:
                        push((node, -1))
                        node = low
                        continue
                high = highs[node]
                new_high = cache_get(high)
                if new_high is None:
                    if high <= ONE:
                        new_high = high
                    else:
                        push((node, new_low))
                        node = high
                        continue
                break
            while True:
                if new_low == new_high:
                    result = new_low
                else:
                    level = levels[node]
                    if levels[new_low] <= level or levels[new_high] <= level:
                        raise CompilationError(
                            "substitute_terminal would break the order: replacement "
                            f"levels must be strictly larger than level {level}"
                        )
                    unique_key = (level << 64) | (new_low << _ID_BITS) | new_high
                    result = unique_get(unique_key)
                    if result is None:
                        result = len(levels)
                        levels.append(level)
                        lows.append(new_low)
                        highs.append(new_high)
                        unique[unique_key] = result
                cache[node] = result
                if not frames:
                    return result
                node, new_low = frames.pop()
                if new_low < 0:
                    # The low child just resolved; now handle the high child.
                    new_low = result
                    high = highs[node]
                    new_high = cache_get(high)
                    if new_high is None:
                        if high <= ONE:
                            new_high = high
                        else:
                            push((node, new_low))
                            node = high
                            break
                else:
                    new_high = result

    def restrict(self, f: int, level: int, value: bool) -> int:
        """The cofactor of ``f`` with the variable at ``level`` fixed."""
        levels = self._level
        lows = self._low
        highs = self._high
        cache: dict[int, int] = {}
        cache_get = cache.get
        stack = [f]
        push = stack.append
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            node_level = levels[node]
            if node_level > level:  # terminals included (TERMINAL_LEVEL > level)
                cache[node] = node
                stack.pop()
                continue
            if node_level == level:
                # Children always carry strictly larger levels, so the chosen
                # cofactor is already below the restricted level.
                cache[node] = highs[node] if value else lows[node]
                stack.pop()
                continue
            low = lows[node]
            high = highs[node]
            pending = False
            if levels[low] > level:
                new_low = low
            else:
                new_low = cache_get(low)
                if new_low is None:
                    push(low)
                    pending = True
            if levels[high] > level:
                new_high = high
            else:
                new_high = cache_get(high)
                if new_high is None:
                    push(high)
                    pending = True
            if pending:
                continue
            cache[node] = self.make_node(node_level, new_low, new_high)
            stack.pop()
        return cache[f]

    # ------------------------------------------------------------ inspection
    def reachable_nodes(self, root: int) -> list[int]:
        """All nodes reachable from ``root`` (terminals excluded), in DFS order."""
        seen: set[int] = set()
        order: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen or node <= ONE:
                continue
            seen.add(node)
            order.append(node)
            stack.append(self._high[node])
            stack.append(self._low[node])
        return order

    def size(self, root: int) -> int:
        """Number of internal nodes reachable from ``root``."""
        return len(self.reachable_nodes(root))

    def width(self, root: int) -> int:
        """Maximum number of nodes labelled with the same level."""
        counts: dict[int, int] = {}
        for node in self.reachable_nodes(root):
            counts[self._level[node]] = counts.get(self._level[node], 0) + 1
        return max(counts.values(), default=0)

    def evaluate(self, root: int, assignment: Callable[[int], bool] | Mapping[int, bool]) -> bool:
        """Evaluate the function at ``root`` for a truth assignment by level."""
        lookup = assignment if callable(assignment) else lambda lvl: bool(assignment.get(lvl, False))
        node = root
        while not self.is_terminal(node):
            node = self._high[node] if lookup(self._level[node]) else self._low[node]
        return node == ONE

    # ------------------------------------------------------------ probability
    def prob_under_map(
        self, root: int, probability_of_level: Mapping[int, float]
    ) -> dict[int, float]:
        """``probUnder`` for every node reachable from ``root``, iteratively.

        The Shannon expansion processes nodes by decreasing level — children
        always carry strictly larger levels, so this is a topological order
        and no recursion is needed; the per-node arithmetic is exactly that
        of the recursive reference, so every value is bit-identical to it.
        This single sweep backs :meth:`probability` and the intersection
        algorithms' annotation needs.
        """
        levels = self._level
        lows = self._low
        highs = self._high
        nodes = self.reachable_nodes(root)
        nodes.sort(key=levels.__getitem__, reverse=True)
        values: dict[int, float] = {ZERO: 0.0, ONE: 1.0}
        for node in nodes:
            probability = probability_of_level[levels[node]]
            values[node] = (1.0 - probability) * values[lows[node]] + probability * values[
                highs[node]
            ]
        return values

    def probability(self, root: int, probability_of_level: Mapping[int, float]) -> float:
        """Probability of the function at ``root`` by Shannon expansion.

        ``probability_of_level`` maps variable levels to marginal
        probabilities; values may be negative (the formula is linear in each
        probability, so nothing special is needed).
        """
        if root <= ONE:
            return float(root == ONE)
        return self.prob_under_map(root, probability_of_level)[root]

    # ---------------------------------------------------------- serialization
    def export_nodes(self, roots: Iterable[int]) -> dict[str, list]:
        """Serialize the node tables reachable from ``roots``.

        Returns ``{"nodes": [[level, low, high], ...], "roots": [...]}`` where
        node ``i`` of the list is assigned id ``i + 2`` (ids 0/1 are the
        terminals) and ``roots`` holds the re-mapped root ids in input order.
        Nodes are emitted children-first in a deterministic DFS postorder, so
        :meth:`import_nodes` can replay them through :meth:`make_node` and
        obtain exactly the recorded ids.  Unreachable (garbage) nodes of this
        manager are not exported, making the artifact compact and its content
        a pure function of the exported OBDDs.
        """
        root_list = list(roots)
        position: dict[int, int] = {ZERO: ZERO, ONE: ONE}
        nodes: list[list[int]] = []
        for root in root_list:
            if root in position:
                continue
            # Iterative postorder: children receive ids before their parent.
            stack: list[tuple[int, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if node in position:
                    continue
                if expanded:
                    position[node] = len(nodes) + 2
                    nodes.append(
                        [
                            self._level[node],
                            position[self._low[node]],
                            position[self._high[node]],
                        ]
                    )
                else:
                    stack.append((node, True))
                    stack.append((self._high[node], False))
                    stack.append((self._low[node], False))
        return {"nodes": nodes, "roots": [position[root] for root in root_list]}

    @classmethod
    def import_nodes(cls, nodes: Iterable[Sequence[int]]) -> "ObddManager":
        """Rebuild a manager from :meth:`export_nodes` output.

        Every entry is replayed through :meth:`make_node`, which re-validates
        ordering and reduction; because the export is children-first and free
        of duplicates, the ``i``-th entry is assigned id ``i + 2``, matching
        the ids recorded in the export.
        """
        manager = cls()
        for offset, (level, low, high) in enumerate(nodes):
            node = manager.make_node(level, low, high)
            if node != offset + 2:
                raise CompilationError(
                    f"corrupt OBDD serialization: entry {offset} mapped to node {node}"
                )
        return manager

    def import_into(self, nodes: Iterable[Sequence[int]], roots: Iterable[int]) -> list[int]:
        """Replay an :meth:`export_nodes` table into *this* manager.

        Unlike :meth:`import_nodes` the target manager may already hold
        nodes, so the replay maps exported ids to whatever ids this manager
        assigns (reusing structurally identical nodes).  Returns the mapped
        ``roots``.  This is the merge step of an incremental MV-index
        extension: :meth:`repro.mvindex.index.MVIndex.prepare_extend`
        compiles the delta in a fresh manager and exports it, and
        :meth:`~repro.mvindex.index.MVIndex.apply_prepared` replays it into
        the shared one.
        """
        mapping: list[int] = [ZERO, ONE]
        for level, low, high in nodes:
            mapping.append(self.make_node(level, mapping[low], mapping[high]))
        return [mapping[root] for root in roots]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObddManager({self.node_count()} nodes)"


def dump_dot(manager: ObddManager, root: int) -> str:
    """Render the OBDD rooted at ``root`` in Graphviz DOT format (debugging aid)."""
    lines = ["digraph obdd {", '  zero [label="0", shape=box];', '  one [label="1", shape=box];']

    def name(node: int) -> str:
        if node == ZERO:
            return "zero"
        if node == ONE:
            return "one"
        return f"n{node}"

    for node in manager.reachable_nodes(root):
        lines.append(f'  {name(node)} [label="x{manager.level(node)}"];')
        lines.append(f"  {name(node)} -> {name(manager.low(node))} [style=dashed];")
        lines.append(f"  {name(node)} -> {name(manager.high(node))};")
    lines.append("}")
    return "\n".join(lines)


def iter_paths(manager: ObddManager, root: int) -> Iterable[tuple[dict[int, bool], int]]:
    """Yield ``(partial assignment by level, terminal)`` for every root-to-sink path."""

    def walk(node: int, assignment: dict[int, bool]):
        if manager.is_terminal(node):
            yield dict(assignment), node
            return
        level = manager.level(node)
        assignment[level] = False
        yield from walk(manager.low(node), assignment)
        assignment[level] = True
        yield from walk(manager.high(node), assignment)
        del assignment[level]

    yield from walk(root, {})

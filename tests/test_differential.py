"""Differential test harness: memory vs. sqlite backends must agree exactly.

Each case builds the *same* seeded random tuple-independent instance on both
storage backends (identical insertion order, hence identical probabilistic
variable ids), runs the same seeded random CQ/UCQ workload on each, and
asserts that the two evaluations are indistinguishable:

* identical answer sets,
* identical canonical lineage DNFs (frozensets of int-variable clauses),
* bit-identical answer probabilities (compared via ``struct.pack`` so that
  even a 1-ulp divergence fails the test).

The harness runs ``INSTANCES_PER_RUN * QUERIES_PER_INSTANCE`` (>= 200)
instance/query pairs, which is the acceptance bar for the disk-backed
relational layer: any ordering or typing discrepancy introduced by the sqlite
backend (row order, value affinity, duplicate handling) shows up here as a
probability diff.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.db import SqliteBackend
from repro.db.sqlite_backend import BUSY_TIMEOUT_MS
from repro.indb import TupleIndependentDatabase, probability_to_weight
from repro.query import answer_probabilities, evaluate_ucq, evaluator, parse_query

INSTANCES_PER_RUN = 20
QUERIES_PER_INSTANCE = 10

#: (name, column types, probabilistic?) — the relational signature every
#: random instance draws from.  ``int`` columns feed comparisons; the ``str``
#: columns exercise sqlite's text storage class and LIKE predicates.
SIGNATURE = (
    ("R", (int,), True),
    ("S", (int, int), True),
    ("T", (int, str), True),
    ("D", (int, int), False),
    ("E", (str,), False),
)

INT_DOMAIN = tuple(range(8))
STR_DOMAIN = ("alpha", "beta", "gamma", "delta", "epsilon")
VARIABLES = ("x", "y", "z", "w")
COMPARISON_OPS = ("<", "<=", ">", ">=", "!=")


# ------------------------------------------------------------------ instances
def instance_spec(seed: int) -> dict[str, list]:
    """A pure-data description of one random instance (backend-independent)."""
    rng = random.Random(seed)
    spec: dict[str, list] = {}
    for name, types, probabilistic in SIGNATURE:
        rows: list = []
        seen: set = set()
        for _ in range(rng.randint(3, 14)):
            row = tuple(
                rng.choice(INT_DOMAIN) if t is int else rng.choice(STR_DOMAIN)
                for t in types
            )
            if row in seen:
                continue
            seen.add(row)
            if probabilistic:
                rows.append((row, probability_to_weight(rng.uniform(0.05, 0.95))))
            else:
                rows.append(row)
        spec[name] = rows
    return spec


def load_instance(spec: dict[str, list], backend) -> TupleIndependentDatabase:
    """Materialise a spec on a backend, preserving exact insertion order."""
    indb = TupleIndependentDatabase(backend=backend)
    for name, types, probabilistic in SIGNATURE:
        attributes = [f"a{i}" for i in range(len(types))]
        if probabilistic:
            indb.add_probabilistic_table(name, attributes, spec[name])
        else:
            indb.add_deterministic_table(name, attributes, spec[name])
    return indb


# -------------------------------------------------------------------- queries
def _random_body(rng: random.Random) -> "tuple[list, list[str]]":
    """One random CQ body: ``(body parts, variables in first-use order)``.

    Parts are ``("atom", name, [terms])`` or ``("cmp", var, op, const)``;
    variable terms are bare names from VARIABLES, constants are rendered text.
    """
    atom_count = rng.randint(1, 3)
    parts: list = []
    var_types: dict[str, set] = {}
    order: list[str] = []
    for _ in range(atom_count):
        name, types, _ = SIGNATURE[rng.randrange(len(SIGNATURE))]
        terms = []
        for column_type in types:
            if rng.random() < 0.15:
                if column_type is int:
                    terms.append(str(rng.choice(INT_DOMAIN)))
                else:
                    terms.append(f"'{rng.choice(STR_DOMAIN)}'")
            else:
                variable = rng.choice(VARIABLES)
                terms.append(variable)
                var_types.setdefault(variable, set()).add(column_type)
                if variable not in order:
                    order.append(variable)
        parts.append(("atom", name, terms))

    int_vars = [v for v in order if var_types[v] == {int}]
    if int_vars and rng.random() < 0.4:
        variable = rng.choice(int_vars)
        op = rng.choice(COMPARISON_OPS)
        parts.append(("cmp", variable, op, str(rng.choice(INT_DOMAIN))))
    return parts, order


def _render(parts: list, head_vars: "list[str]", rename: "dict[str, str]") -> str:
    """Render one disjunct, applying a variable renaming to body and head."""

    def var(v: str) -> str:
        return rename.get(v, v)

    pieces = []
    for part in parts:
        if part[0] == "atom":
            _, name, terms = part
            rendered = [var(t) if t in VARIABLES else t for t in terms]
            pieces.append(f"{name}({', '.join(rendered)})")
        else:
            _, variable, op, const = part
            pieces.append(f"{var(variable)} {op} {const}")
    head = f"Q({', '.join(var(v) for v in head_vars)})" if head_vars else "Q"
    return f"{head} :- {', '.join(pieces)}"


def random_query(rng: random.Random) -> str:
    """A random CQ, or (35% of the time) a two-disjunct UCQ."""
    parts, order = _random_body(rng)
    arity = rng.randint(0, min(2, len(order)))
    head_vars = order[:arity]
    text = _render(parts, head_vars, {})
    if rng.random() < 0.35:
        other_parts, other_order = _random_body(rng)
        while len(other_order) < arity:
            other_parts, other_order = _random_body(rng)
        # Alpha-rename the second disjunct so its head variables carry the
        # same names as the first's (a UCQ invariant of the parser).
        rename = dict(zip(other_order[:arity], head_vars))
        spare_src = [v for v in VARIABLES if v not in rename]
        spare_dst = [v for v in VARIABLES if v not in rename.values()]
        rename.update(zip(spare_src, spare_dst))
        text = f"{text}\n{_render(other_parts, other_order[:arity], rename)}"
    return text


# ----------------------------------------------------------------- comparison
def canonical_dnfs(result) -> dict:
    """Answer -> canonical lineage clause set (absorption-normalised)."""
    return {answer: dnf.clauses for answer, dnf in result.lineages().items()}


def bits(probabilities: dict) -> dict:
    """Probabilities as raw IEEE-754 bytes: equality here is bit-identity."""
    return {
        answer: struct.pack("<d", value) for answer, value in probabilities.items()
    }


def run_differential_case(seed: int) -> list:
    """One instance, QUERIES_PER_INSTANCE queries, both backends.

    Returns one ``(canonical DNFs, probability bits)`` pair per query, both
    backends having agreed on it.
    """
    spec = instance_spec(seed)
    memory_indb = load_instance(spec, backend="memory")
    sqlite_indb = load_instance(spec, backend=SqliteBackend())
    try:
        assert memory_indb.probabilities() == sqlite_indb.probabilities()
        query_rng = random.Random(10_000 + seed)
        outcomes = []
        for _ in range(QUERIES_PER_INSTANCE):
            query = parse_query(random_query(query_rng))
            reference = evaluate_ucq(query, memory_indb.database, memory_indb)
            candidate = evaluate_ucq(query, sqlite_indb.database, sqlite_indb)
            assert set(reference.answers()) == set(candidate.answers())
            assert canonical_dnfs(reference) == canonical_dnfs(candidate)
            reference_probs = answer_probabilities(
                reference, memory_indb.probabilities()
            )
            candidate_probs = answer_probabilities(
                candidate, sqlite_indb.probabilities()
            )
            assert bits(reference_probs) == bits(candidate_probs)
            outcomes.append((canonical_dnfs(reference), bits(reference_probs)))
        return outcomes
    finally:
        sqlite_indb.database.close()


class TestDifferentialBackends:
    @pytest.mark.parametrize("seed", range(INSTANCES_PER_RUN))
    def test_seeded_instance_agrees_across_backends(self, seed):
        assert len(run_differential_case(seed)) == QUERIES_PER_INSTANCE

    def test_run_covers_acceptance_bar(self):
        assert INSTANCES_PER_RUN * QUERIES_PER_INSTANCE >= 200

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_grace_partition_path_agrees(self, seed, monkeypatch):
        # Every join regime gives bit-identical answers and DNFs across
        # backends: the workload runs once with every keyed step (one with a
        # join key or a constant) forced into a hash join, once with every
        # keyed step forced into an index probe, and the two agree.
        index_probe, hash_join = evaluator._index_probe, evaluator._hash_join
        regime, keyed_hash_joins = ["hash"], [0]

        def keyed(step):
            return bool(step.join_by_pos or step.const_bindings)

        def forced(step, items, table):
            if keyed(step) and regime[0] == "probe":
                return index_probe(step, items, table)
            keyed_hash_joins[0] += keyed(step)
            return hash_join(step, items, table)

        monkeypatch.setattr(evaluator, "_index_probe", forced)
        monkeypatch.setattr(evaluator, "_hash_join", forced)
        hashed = run_differential_case(seed)
        assert keyed_hash_joins[0] > 0
        regime[0], keyed_hash_joins[0] = "probe", 0
        assert run_differential_case(seed) == hashed
        assert keyed_hash_joins[0] == 0
        assert len(hashed) == QUERIES_PER_INSTANCE


class TestSqlitePragmas:
    @pytest.mark.parametrize("location", [":memory:", "file"])
    def test_busy_timeout_is_set(self, location, tmp_path):
        # A second connection to a locked file waits this long for the
        # writer instead of failing with "database is locked".
        backend = SqliteBackend(tmp_path / "db.sqlite" if location == "file" else location)
        try:
            (timeout,) = backend.connection.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == BUSY_TIMEOUT_MS
        finally:
            backend.close()


class TestWorkloadIsNonTrivial:
    """Guard against the generator degenerating into all-empty results."""

    def test_some_queries_have_answers_and_probabilistic_lineage(self):
        answered = 0
        probabilistic = 0
        for seed in range(INSTANCES_PER_RUN):
            spec = instance_spec(seed)
            indb = load_instance(spec, backend="memory")
            query_rng = random.Random(10_000 + seed)
            for _ in range(QUERIES_PER_INSTANCE):
                query = parse_query(random_query(query_rng))
                result = evaluate_ucq(query, indb.database, indb)
                if len(result):
                    answered += 1
                    if any(
                        any(clause for clause in dnf.clauses)
                        for dnf in result.lineages().values()
                    ):
                        probabilistic += 1
        # Loose floors: the exact counts are seed-dependent, but a healthy
        # generator answers a large fraction and exercises real lineage.
        assert answered >= 50
        assert probabilistic >= 30

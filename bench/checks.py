"""Correctness inside the harness, outside the clock.

Every function here runs before or after the measured phase; its time is
reported as ``verify_s`` and never enters ``setup_s`` or a latency sample.
A mismatch is one failed operation (it counts in ``failed`` / ``failed_share``)
— the harness keeps running and reports.  A reference path or ulp constant
that the program no longer has raises instead: the checks never degrade.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Any, Iterable, Mapping

Answers = dict[tuple[Any, ...], float]


def _ordered(value: float) -> int:
    """A float's bit pattern as an integer that sorts like the float."""
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def within_ulps(a: float, b: float, ulps: int) -> bool:
    """At most ``ulps`` representable doubles apart (the harness's own ruler)."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(_ordered(a) - _ordered(b)) <= ulps


def answers_of_json(result: Mapping[str, Any]) -> Answers:
    """``{answer tuple: probability}`` of a wire-format QueryResult document."""
    return {tuple(entry["values"]): entry["probability"] for entry in result["answers"]}


def same_answers(expected: Answers, actual: Answers, ulps: int) -> bool:
    """Same answer tuples, each probability within ``ulps`` rounding steps."""
    return expected.keys() == actual.keys() and all(
        within_ulps(probability, actual[values], ulps) for values, probability in expected.items()
    )


def independent_answers(engine: Any, queries: list[str], skip_off: bool = True) -> list[Answers]:
    """Re-answer ``queries`` by a path the measured run never takes.

    Pointer-based MVIntersect, by default with the skip layer off, on an
    engine the measured phase does not touch: a different intersection
    kernel, no summaries, no session cache, no dispatcher.  A PR that removes
    this path makes every run raise here, and so has to choose a new one.
    """
    import repro

    options = {"use_skip": False} if skip_off else {}
    return [engine.query(repro.parse_query(text), method="mvindex-mv", **options)
            for text in queries]


def assert_spellings_canonical(strings: list[str], canonical: list[int]) -> None:
    """All spellings of one canonical query share one ``canonical_key``."""
    import repro
    from repro.serving.canonical import canonical_key

    keys: dict[int, str] = {}
    for text, query_id in zip(strings, canonical):
        key = canonical_key(repro.parse_query(text))
        if keys.setdefault(query_id, key) != key:
            raise AssertionError(f"spelling {text!r} is not canonically equal to its siblings")
    if len(set(keys.values())) != len(keys):
        raise AssertionError("two distinct workload queries share a canonical key")


def oracle_failures(seed: int) -> tuple[int, int]:
    """A seeded 2-group MVDB against the world-enumeration oracle.

    Two advisor/student groups in the DBLP schema, twelve uncertain tuples,
    a positive-correlation view (weight > 1, i.e. a negative translated
    probability), a damping view and the one-advisor denial view — small
    enough for ``MVDB.exact_answer_probabilities`` to enumerate every world.
    Returns ``(queries checked, queries that disagree)``.
    """
    import repro

    rng = random.Random(f"oracle:{seed}")
    mvdb = repro.MVDB()
    mvdb.add_deterministic_table(
        "Author", ["aid", "name"],
        [(1, "Advisor 0"), (2, "Student 0-0"), (3, "Advisor 1"), (4, "Student 1-0")],
    )

    def weight() -> float:
        return round(rng.uniform(0.3, 3.0), 3)

    mvdb.add_probabilistic_table(
        "Student", ["aid", "year"],
        [((aid, year), weight()) for aid in (2, 4) for year in (2001, 2002)],
    )
    mvdb.add_probabilistic_table(
        "Advisor", ["aid1", "aid2"], [((2, 1), weight()), ((2, 3), weight()), ((4, 3), weight()),
                                      ((4, 1), weight())],
    )
    mvdb.add_probabilistic_table(
        "Affiliation", ["aid", "inst"],
        [((2, "a.edu"), weight()), ((2, "b.edu"), weight()), ((4, "b.edu"), weight()),
         ((4, "a.edu"), weight())],
    )
    parse = repro.parse_query
    mvdb.add_markoview(repro.MarkoView(
        "V1", parse("V1(aid1, aid2) :- Advisor(aid1, aid2), Student(aid1, year)"),
        round(rng.uniform(1.5, 4.0), 3)))
    mvdb.add_markoview(repro.MarkoView(
        "V2", parse("V2(a, b, c) :- Advisor(a, b), Advisor(a, c), b <> c"), 0.0))
    mvdb.add_markoview(repro.MarkoView(
        "V3", parse("V3(a, b, i) :- Affiliation(a, i), Affiliation(b, i), a <> b"),
        round(rng.uniform(0.2, 0.8), 3)))
    db = repro.connect(mvdb)
    queries = [
        "Q(aid) :- Student(aid, year), Advisor(aid, a), Author(a, n), n like '%Advisor 1%'",
        "Q(a) :- Student(aid, year), Advisor(aid, a), Author(aid, n), n like '%Student 0-0%'",
        "Q(inst) :- Affiliation(aid, inst), Author(aid, n), n like '%Student%'",
        "Q :- Student(aid, year), Advisor(aid, a), year > 2001",
    ]
    failed = 0
    for text in queries:
        expected = mvdb.exact_answer_probabilities(parse(text))
        actual = db.query(text).to_dict()
        # The oracle sums worlds in another order: compare by relative error.
        agree = expected.keys() == actual.keys() and all(
            abs(actual[values] - probability) <= 1e-9 * max(1.0, abs(probability))
            for values, probability in expected.items()
        )
        failed += not agree
    return len(queries), failed


def rebuilt_answers(
    groups: int, seed: int, payloads: Iterable[Mapping[str, list]], queries: Iterable[str]
) -> list[Answers]:
    """Answers of a from-scratch build of the MVDB with ``payloads`` appended."""
    import repro
    from repro.dblp import DblpConfig, build_mvdb

    mvdb = build_mvdb(DblpConfig(group_count=groups, seed=seed)).mvdb
    for payload in payloads:
        for relation, facts in payload.items():
            if mvdb.base.is_probabilistic(relation):
                for row, weight in facts:
                    mvdb.add_probabilistic_tuple(relation, tuple(row), weight)
            else:
                for row in facts:
                    mvdb.database.insert(relation, tuple(row))
    db = repro.connect(mvdb)
    return [db.query(text).to_dict() for text in queries]

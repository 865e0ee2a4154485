"""The six workloads: what runs, why it exists, and its seeded inputs.

Everything here is pure input generation — no program code is imported.
Every sequence is drawn from ``random.Random(seed)``, so the same seed gives
the same operation sequence bit-for-bit; the DBLP instance itself is built by
the program (``repro.dblp.build_mvdb`` in-process, ``repro serve --groups G
--seed S`` for the servers) from the same seed.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from typing import Any

#: The DBLP instance is pinned: ``--seed`` draws the operation sequences, the
#: analytical queries' parameters and the oracle MVDB, but every run measures
#: the same database.  Seeding the generator too made runs differ by the size
#: of the instance (2-4 students per group is a coin flip per group): +-2 % in
#: every rate and +-4 % in peak RSS before any measurement noise.
DATA_SEED = 0

# --------------------------------------------------------------------- scale


@dataclass(frozen=True)
class Scale:
    """Sizing of one benchmark run (``FULL`` is what BENCHMARK.json gates)."""

    #: DBLP research groups (400 -> ~16.7k possible tuples, ~1.08k components,
    #: negative translated probabilities present).
    groups: int
    #: Groups of the ``ingest_subscribe`` instance (every append re-derives W).
    ingest_groups: int
    #: Entities with standing queries (x3 templates = registered subscriptions).
    subscribed_entities: int
    #: Times the set-up is repeated per run; ``setup_s`` is their median.
    setups: int
    #: Queries re-answered by the independent path per run.
    verify_sample: int
    #: Hot strings of ``fleet_hot`` (fits every cache tier).
    hot_strings: int
    #: Serial probes per HTTP latency probe of the traced run.
    probe_requests: int
    #: Appends of the traced run's fixed ingest probe.
    probe_appends: int


FULL = Scale(
    groups=400, ingest_groups=60, subscribed_entities=30, setups=3,
    verify_sample=48, hot_strings=192, probe_requests=300, probe_appends=6,
)
#: ``--smoke``: the same code paths at toy size (what bench/test_smoke.py runs).
SMOKE = Scale(
    groups=8, ingest_groups=8, subscribed_entities=4, setups=1,
    verify_sample=6, hot_strings=12, probe_requests=10, probe_appends=3,
)

# ----------------------------------------------------------------- templates
#: The paper's three selective query shapes over the DBLP schema, as
#: (head variable, atoms, filtered variable, entity-name pattern).  Advisors
#: are named "Advisor <g>", students "Student <g>-<i>" by the generator; every
#: group has at least two students, so "-0" and "-1" always exist.
TEMPLATES: dict[str, tuple[str, tuple[tuple[str, tuple[str, ...]], ...], str, str]] = {
    "students_of_advisor": (
        "aid",
        (("Student", ("aid", "year")), ("Advisor", ("aid", "aid1")), ("Author", ("aid1", "n1"))),
        "n1",
        "Advisor {k}",
    ),
    "advisor_of_student": (
        "aid1",
        (("Student", ("aid", "year")), ("Advisor", ("aid", "aid1")), ("Author", ("aid", "n"))),
        "n",
        "Student {k}-0",
    ),
    "affiliation_of_author": (
        "inst",
        (("Affiliation", ("aid", "inst")), ("Author", ("aid", "n"))),
        "n",
        "Student {k}-1",
    ),
}
TEMPLATE_NAMES = tuple(TEMPLATES)


def selective_query(template: str, entity: int, spelling: int = 0) -> str:
    """One of four canonically-equal spellings of a selective query.

    Bit 0 of ``spelling`` renames every variable, bit 1 reverses the atom
    order; ``repro.serving.canonical.canonical_key`` maps all four to one key
    (asserted at set-up by :func:`bench.checks.assert_spellings_canonical`).
    """
    head, atoms, filtered, pattern = TEMPLATES[template]
    rename = (lambda v: f"x_{v}") if spelling & 1 else (lambda v: v)
    ordered = tuple(reversed(atoms)) if spelling & 2 else atoms
    body = ", ".join(
        f"{relation}({', '.join(rename(v) for v in variables)})" for relation, variables in ordered
    )
    return f"Q({rename(head)}) :- {body}, {rename(filtered)} like '%{pattern.format(k=entity)}%'"


def selective_pool(groups: int) -> list[tuple[str, int]]:
    """Every (template, entity) pair whose ``like`` pattern matches one name.

    Entities below ``groups / 10`` are left out: ``'%Advisor 1%'`` also matches
    Advisor 10-19 and 100-199 (111 names, ~150 ms instead of ~10 ms), and a
    handful of such queries landing inside or outside the measured window
    moved ``ops_per_s`` by +-5 %.  400 groups give 3 x 360 canonical queries.
    """
    first = -(-groups // 10)
    return [(template, entity) for template in TEMPLATE_NAMES for entity in range(first, groups)]


# ------------------------------------------------------------ broad analytics
#: Aid-window width of each analytical family, as a share of the author ids,
#: tuned on the pinned instance so that the families cost 20-30 ms each: a mixture
#: of like-cost queries keeps the latency percentiles steady across seeds.
_BROAD_SPAN = (0.18, 0.24, 0.075, 0.55, 0.55, 0.25)


def broad_query(rng: random.Random, groups: int, index: int) -> str:
    """One analytical query without a ``like`` scan (family = ``index % 6``).

    Year cuts and windows, aid ranges, grouped-by-year and many-answer heads:
    lineages of 10^2-10^4 clauses touching up to most of the index, so OBDD
    compilation and CC-MVIntersect carry about half of the wall time.  The
    window start is drawn from the seed, which makes every query of a run
    distinct (no cache tier can hit).
    """
    authors = groups * 4  # ~1 advisor + 2-4 students per group
    family = index % 6
    span = max(2, int(authors * _BROAD_SPAN[family] * rng.uniform(0.95, 1.05)))
    low = rng.randrange(1, max(2, authors - span))
    year = rng.randrange(2000, 2004)
    if family == 0:  # Boolean year cut over an aid window
        return (f"Q :- Student(aid, year), Advisor(aid, a), year > {year}, "
                f"aid >= {low}, aid < {low + span}")
    if family == 1:  # advisors with a student in a year window (many answers)
        return (f"Q(a) :- Student(aid, year), Advisor(aid, a), year >= {year}, "
                f"year <= {year + 2}, aid >= {low}, aid < {low + span}")
    if family == 2:  # grouped by year
        return (f"Q(year) :- Student(aid, year), Advisor(aid, a), "
                f"aid >= {low}, aid < {low + span}")
    if family == 3:  # affiliations of an aid range
        return f"Q(inst) :- Affiliation(aid, inst), aid >= {low}, aid < {low + span}"
    if family == 4:  # Boolean aid cut-off over the affiliations
        return f"Q :- Affiliation(aid, inst), aid >= {low}, aid < {low + span}"
    # students of one cohort year (many answers)
    return (f"Q(aid) :- Student(aid, year), Advisor(aid, a), year = {year + 2}, "
            f"aid >= {low}, aid < {low + span}")


# ------------------------------------------------------------------- ingest
def append_payload(index: int, entity: int) -> dict[str, list]:
    """The ``/v1/append`` batch number ``index`` (three kinds, rotating).

    0. *answer-changing*: new authors whose names contain a subscribed entity
       plus an Affiliation row each — the entity's affiliation subscription
       gains answers and must fire;
    1. *Affiliation-only*: fresh ids that join nothing — touches one relation,
       so every advisor/student subscription is provably skippable;
    2. *overlapping but quiet*: fresh Author + Student rows — overlaps every
       template's relations (all re-evaluated) yet changes no answer.
    """
    start = 900000 + index * 4
    kind = index % 3
    if kind == 0:
        return {
            "Author": [[start + i, f"Ingest Student {entity}-1 Fellow {start + i}"]
                       for i in range(2)],
            "Affiliation": [[[start + i, f"ingest{start + i}.edu"], 3.0] for i in range(2)],
        }
    if kind == 1:
        return {"Affiliation": [[[start + i, f"ingest{start + i}.edu"], 1.2] for i in range(4)]}
    return {
        "Author": [[start + i, f"Ingest Author {start + i}"] for i in range(4)],
        "Student": [[[start + i, 2020], 1.5] for i in range(4)],
    }


def subscription_specs(entities: range) -> list[dict[str, Any]]:
    """Standing queries: entities x 3 templates, alternating change/threshold."""
    specs = []
    for entity in entities:
        for template in TEMPLATE_NAMES:
            predicate: dict[str, Any] = (
                {"kind": "change"} if len(specs) % 2 == 0
                else {"kind": "threshold", "op": ">=", "value": 0.5}
            )
            specs.append({"query": selective_query(template, entity), "predicate": predicate})
    return specs


# ----------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "inprocess" | "serve" | "ingest"
    backend: str | None = None
    replicas: int = 1
    zipf: float = 0.0
    #: Whether the independent path re-answers the sample with the skip layer
    #: off.  Its skip-off branch costs ~5 ms *per answer* at 400 groups
    #: (ROADMAP 2b), i.e. ~27 s for 48 many-answer analytical queries, so
    #: ``intersect_broad`` keeps only the kernel independence (pointer-based
    #: MVIntersect on an untouched engine).
    verify_skip_off: bool = True
    #: Queries of the traced engine slice, and operations of the traced run's
    #: observed phase, per second of ``--seconds``: fixed counts, so the
    #: starred per-layer counters repeat bit-for-bit at one seed.
    slice_rate: float = 20.0
    observe_rate: float = 0.0


#: Why each workload exists is recorded once, in BENCHMARK.json (and README.md).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold_selective", "inprocess", slice_rate=20.0),
        Workload("cold_sqlite", "inprocess", backend="sqlite", slice_rate=14.0),
        Workload("intersect_broad", "inprocess", verify_skip_off=False, slice_rate=10.0),
        Workload("serve_zipf", "serve", zipf=0.9, slice_rate=10.0, observe_rate=400.0),
        Workload("fleet_hot", "serve", replicas=2, zipf=1.1, slice_rate=10.0, observe_rate=800.0),
        Workload("ingest_subscribe", "ingest", zipf=0.9),
    )
}


def zipf_ranks(
    rng: random.Random, population: int, exponent: float, length: int,
    warmed: int, fresh_every: int,
) -> list[int]:
    """``length`` zipf draws over the ranks seen so far, plus scheduled misses.

    Ranks ``0 .. warmed-1`` were requested by the warm-up.  Every
    ``fresh_every``-th draw introduces the next never-requested rank — a
    guaranteed engine miss — and all other draws are zipf(``exponent``) over
    the ranks introduced so far, P(rank) ~ 1/(rank+1)^s.  This pins the share
    of requests that reach the engine to ``1/fresh_every`` instead of leaving
    it to how many distinct queries a seed's draws happen to touch inside the
    window; ``fresh_every=0`` (a working set that was fully warmed) never
    introduces one.  Once the population is exhausted only zipf draws remain.
    """
    cumulative: list[float] = []
    total = 0.0
    for rank in range(population):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    seen = warmed
    ranks = []
    for position in range(length):
        if fresh_every and position % fresh_every == 0 and seen < population:
            ranks.append(seen)
            seen += 1
        else:
            ranks.append(bisect.bisect_left(cumulative, rng.random() * cumulative[seen - 1]))
    return ranks


@dataclass
class Inputs:
    """The seeded inputs of one run."""

    #: Distinct query strings; operations index into this list.
    strings: list[str]
    #: Canonical query id of each string (spellings share one).
    canonical: list[int]
    #: The measured operation sequence (indices into ``strings``).
    ops: list[int]
    #: Unmeasured warm-up operations.
    warm: list[int]
    #: String indices whose answers the independent path re-derives.
    sample: list[int]
    #: ``/v1/append`` payloads (ingest only).
    appends: list[dict[str, list]]
    #: Standing queries (ingest only).
    subscriptions: list[dict[str, Any]]

    def bodies(self) -> list[bytes]:
        """Pre-encoded ``/v1/query`` request bodies, one per string."""
        return [json.dumps({"query": text}).encode("utf-8") for text in self.strings]


#: Measured operations generated per second of run time — several times what
#: the program sustains today, so the clock ends the run, not the sequence.
_OPS_PER_SECOND = {"serve_zipf": 3000, "fleet_hot": 12000, "ingest_subscribe": 1500}
#: Canonical queries a fresh ``serve_zipf`` / ``ingest_subscribe`` server is
#: warmed with (each once: ~12 ms of engine time apiece at 400 groups).
WARM_QUERIES = 64
#: Reads of one ``ingest_subscribe`` round: the first number goes out while the
#: append is in flight, the second after its ack (at the generation it
#: published), and the next append waits for their answers.  A fixed number
#: per append ties ``ops_per_s`` to the append rate (17 requests per round): a
#: free-running reader gets more reads, and more cache hits, the *slower* an
#: append is.  A read beside an append mostly waits for the server's
#: interpreter lock (2.5 ms alone, 6-20 ms beside), so a median over such
#: reads alone sits on that cliff.  With 8 + 8 the disturbed reads were a
#: third of a quiet run and half of a busy one, and ``query_p50_ms`` jumped
#: between 3 and 5 ms with the box (ten-seed spread 0.12-0.25); with 4 + 12
#: the median held (0.05) but the 95th percentile rested on 55 disturbed reads
#: a run (0.15-0.19).  With 6 + 10 a quarter to a third are disturbed:
#: ``query_p50_ms`` is the cold read after a publish, ``query_p95_ms`` the read
#: that waited for the writer, both at 0.09-0.11.
READS_BESIDE_APPEND = 6
READS_AFTER_APPEND = 10
#: One request in this many is a never-seen canonical query: 7.1 % engine
#: misses, so ``query_p95_ms`` sits inside the miss mode (30th percentile of
#: the misses) and ``query_p50_ms`` inside the hit mode, each well away from
#: the cliff between them.  Even, so that with two lanes every miss falls to
#: lane 0: two misses never share the interpreter, which made the miss mode
#: itself bimodal (12 ms alone, 24 ms overlapped).
FRESH_EVERY = 14


def make_inputs(workload: Workload, seed: int, seconds: float, scale: Scale) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.name == "intersect_broad":
        count = max(24, int(seconds * 150))
        strings = [broad_query(rng, scale.groups, index) for index in range(count + 12)]
        strings = list(dict.fromkeys(strings))
        warm = list(range(len(strings) - 12, len(strings)))
        ops = list(range(len(strings) - 12))
        sample = ops[: scale.verify_sample]
        return Inputs(strings, list(range(len(strings))), ops, warm, sample, [], [])

    groups = scale.ingest_groups if workload.kind == "ingest" else scale.groups
    pool = selective_pool(groups)
    rng.shuffle(pool)
    if workload.kind == "inprocess":
        # Each canonical query once; the last few are the unmeasured warm-up.
        strings = [selective_query(template, entity) for template, entity in pool]
        reserve = max(3, min(24, len(strings) // 10))
        ops = list(range(len(strings) - reserve))
        warm = list(range(len(strings) - reserve, len(strings)))
        return Inputs(strings, list(range(len(strings))), ops, warm,
                      ops[: scale.verify_sample], [], [])

    # Server workloads: 4 spellings per canonical query; rank = pool position.
    if workload.name == "fleet_hot":
        pool = pool[: max(1, scale.hot_strings // 4)]
        warmed, fresh_every = len(pool), 0
    else:
        warmed, fresh_every = min(WARM_QUERIES, len(pool) // 2), FRESH_EVERY
    strings = [
        selective_query(template, entity, spelling)
        for template, entity in pool for spelling in range(4)
    ]
    canonical = [index // 4 for index in range(len(strings))]
    length = int(seconds * _OPS_PER_SECOND[workload.name]) + 64
    ranks = zipf_ranks(rng, len(pool), workload.zipf, length, warmed, fresh_every)
    ops = [rank * 4 + rng.randrange(4) for rank in ranks]
    # Warm-up: every string once when the working set fits (fleet_hot), else
    # one spelling of each of the first ranks (filling 1 024 result entries
    # would cost ~12 s of engine time per set-up).
    if workload.name == "fleet_hot":
        warm = list(range(len(strings)))
    else:
        warm = [rank * 4 + rng.randrange(4) for rank in range(warmed)]
    # The first occurrence of each of the first few distinct canonical queries.
    first_spelling: dict[int, int] = {}
    for op in ops:
        first_spelling.setdefault(canonical[op], op)
        if len(first_spelling) == scale.verify_sample:
            break
    sample = list(first_spelling.values())
    appends: list[dict[str, list]] = []
    subscriptions: list[dict[str, Any]] = []
    if workload.kind == "ingest":
        first = -(-groups // 10)
        entities = range(first, min(first + scale.subscribed_entities, groups))
        subscriptions = subscription_specs(entities)
        appends = [append_payload(index, entities[index // 3 % len(entities)])
                   for index in range(int(seconds * 20) + 8)]
    return Inputs(strings, canonical, ops, warm, sample, appends, subscriptions)

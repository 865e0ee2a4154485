"""Modelling custom correlations with MarkoViews: a record-linkage flavoured example.

A small "same-person" resolution scenario:

* ``Match(id1, id2)`` is a probabilistic table of candidate matches between two
  user registries, with a weight from a (fictitious) string-similarity model;
* a denial MarkoView asserts that a record can match at most one record of the
  other registry (weight 0: hard constraint);
* a positive MarkoView boosts pairs of matches that share the same e-mail
  domain (weight > 1: positive correlation).

The example shows the exact evaluation paths agreeing (MV-index, online OBDD)
— and registers the MLN substrate's MC-SAT sampler as a
*third-party inference method* through ``repro.methods``, so the approximate
baseline runs through the very same ``db.query(..., method=...)`` door as
the exact ones, without touching the engine.

Run with::

    python examples/custom_correlations.py
"""

import repro
from repro.mln import McSatSampler, mln_from_mvdb


class McSatMethod(repro.methods.InferenceMethod):
    """Alchemy-style MC-SAT estimation, plugged in as a registry method.

    MC-SAT samples from the MLN view of the MVDB itself, so (unlike naive
    independent sampling) it handles hard constraints and positive
    correlations — the capability flag stays permissive.
    """

    name = "mc-sat"
    exact = False
    supports_negative_weights = True
    description = "MC-SAT sampling on the MLN view of the MVDB"

    def __init__(self, samples: int = 800, burn_in: int = 80, seed: int = 0) -> None:
        self.samples = samples
        self.burn_in = burn_in
        self.seed = seed

    def probability(self, engine, lineage, statistics=None):
        if engine.mvdb is None:
            raise repro.InferenceError(
                "mc-sat needs the source MVDB; engines restored from artifacts "
                "only carry the translated products"
            )
        mln = mln_from_mvdb(engine.mvdb)
        sampler = McSatSampler(mln, seed=self.seed)
        return sampler.estimate_query(lineage, samples=self.samples, burn_in=self.burn_in)


def build_mvdb() -> repro.MVDB:
    mvdb = repro.MVDB()
    # Candidate matches with weights (odds) from a similarity model.
    mvdb.add_probabilistic_table(
        "Match",
        ["id1", "id2"],
        [
            (("a1", "b1"), 3.0),
            (("a1", "b2"), 0.8),
            (("a2", "b2"), 2.0),
            (("a2", "b3"), 1.5),
            (("a3", "b3"), 4.0),
        ],
    )
    # Deterministic attributes of the two registries.
    mvdb.add_deterministic_table(
        "Domain",
        ["id", "domain"],
        [
            ("a1", "uw.edu"),
            ("a2", "uw.edu"),
            ("a3", "mit.edu"),
            ("b1", "uw.edu"),
            ("b2", "uw.edu"),
            ("b3", "mit.edu"),
        ],
    )
    # Hard constraint: a left record matches at most one right record.
    mvdb.add_markoview(
        repro.MarkoView(
            "OneToOne",
            repro.parse_query("OneToOne(x, y1, y2) :- Match(x, y1), Match(x, y2), y1 <> y2"),
            0.0,
            description="a record matches at most one record of the other registry",
        )
    )
    # Positive correlation: matches whose records share an e-mail domain support
    # each other (they likely come from the same organisation's migration).
    mvdb.add_markoview(
        repro.MarkoView(
            "SameDomain",
            repro.parse_query(
                "SameDomain(x1, y1, x2, y2) :- Match(x1, y1), Match(x2, y2), "
                "Domain(x1, d), Domain(x2, d), Domain(y1, d), Domain(y2, d), x1 <> x2"
            ),
            2.5,
            description="matches within the same domain reinforce each other",
        )
    )
    return mvdb


def main() -> None:
    mvdb = build_mvdb()
    db = repro.connect(mvdb)

    print("match marginals under the correlations (vs. independent odds):")
    result = db.query("Q(x, y) :- Match(x, y)")
    for answer in sorted(result, key=lambda a: a.values):
        id1, id2 = answer.values
        weight = mvdb.base.weight("Match", (id1, id2))
        independent = weight / (1 + weight)
        print(
            f"  Match({id1}, {id2}): P = {answer.probability:.4f}   "
            f"(independent would be {independent:.4f})"
        )

    query = "Q :- Match(x, 'b2')"
    print("\nP(someone matches b2), by every exact method:")
    for method in ("mvindex", "mvindex-mv", "obdd"):
        print(f"  {method:<11} {db.boolean_probability(query, method=method):.6f}")
    oracle = mvdb.exact_query_probability(repro.parse_query(query))
    print(f"  {'oracle':<11} {oracle:.6f}   (possible-world enumeration)")

    # Plug the MC-SAT baseline into the registry: every surface — this
    # client, the serving session, even the CLI — can now resolve it.
    if "mc-sat" not in repro.methods.names():
        repro.methods.register("mc-sat", McSatMethod)
    estimate = db.query(query, method="mc-sat")
    print("\nMC-SAT (Alchemy-style) through the same front door:")
    print(f"  mc-sat      {estimate.probability(()):.4f}   (exact={estimate.exact})")


if __name__ == "__main__":
    main()

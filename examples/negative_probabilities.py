"""A look inside the translation: negative probabilities (Sect. 3.3).

Positive correlations (MarkoView weights > 1) translate into NV tuples with
*negative* weights and probabilities on the tuple-independent side.  Every
intermediate quantity of Eq. 5 may stray outside [0, 1]; the final answer is
always a correct probability.  This example connects through the facade and
then reaches into ``db.engine`` to print those intermediate values, so the
mechanics of Theorem 1 are visible — and shows the method registry
rejecting a sampler that cannot draw from negative probabilities.

Run with::

    python examples/negative_probabilities.py
"""

import repro
from repro.obdd import build_obdd


def main() -> None:
    mvdb = repro.MVDB()
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
    mvdb.add_probabilistic_table("S", ["x", "y"], [(("a", 1), 1.0), (("a", 2), 1.0)])
    # A strongly positive correlation: weight 5 (odds multiplier) on R(x) ⋈ S(x,y).
    mvdb.add_markoview(repro.MarkoView("V", repro.parse_query("V(x) :- R(x), S(x, y)"), 5.0))

    db = repro.connect(mvdb)
    engine = db.engine
    indb = engine.indb

    print("translated INDB tuples (weight, probability):")
    for relation in sorted(indb.probabilistic_relations()):
        for row in indb.database.rows(relation):
            weight = indb.weight(relation, row)
            variable = indb.variable_for(relation, row)
            probability = indb.probability_of_variable(variable)
            print(f"  {relation}{row}: weight = {weight:+.3f}, probability = {probability:+.3f}")

    query_text = "Q :- R(x), S(x, y)"
    query = repro.parse_query(query_text)
    q_lineage = indb.lineage_of(query)

    p_w = engine.p0_w()
    # The OBDD's probability pass is a Shannon expansion: blind to the sign.
    q_or_w = build_obdd(q_lineage.or_(engine.w_lineage), engine.order)
    p_q_or_w = q_or_w.probability(engine.probabilities)
    answer = db.boolean_probability(query_text, method="obdd")
    oracle = mvdb.exact_query_probability(query)

    print()
    print(f"P0(W)        = {p_w:+.6f}   <- may be negative!")
    print(f"P0(Q or W)   = {p_q_or_w:+.6f}")
    print(f"Eq. 5        = (P0(Q or W) - P0(W)) / (1 - P0(W)) = {answer:.6f}")
    print(f"ground truth = {oracle:.6f}  (possible-world enumeration of the MLN)")

    # The registry's capability flags make the limits of each method explicit:
    # sampling cannot draw from the negative probabilities printed above.
    print()
    print(f"engine has negative weights: {engine.has_nonstandard_probabilities}")
    try:
        db.query(query_text, method="sampling")
    except repro.InferenceError as exc:
        print(f"sampling rejected, as it must be: {exc}")


if __name__ == "__main__":
    main()

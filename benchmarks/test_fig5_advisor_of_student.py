"""Fig. 5: Alchemy (MC-SAT) vs augmented OBDD vs MV-index — "advisor of a student"."""

import math

from repro.experiments import fig5_advisor_of_student


def assert_index_flat_while_obdd_grows(result, settings) -> None:
    """The shape of Figs. 5/6, on exact work counts instead of a wall clock."""
    obdd_nodes = result.column("augmented_obdd_nodes")
    expansions = result.column("mvindex_pair_expansions")
    # From-scratch work (nodes of the OBDD of Q ∨ W) grows with the database ...
    assert all(later > earlier for earlier, later in zip(obdd_nodes, obdd_nodes[1:]))
    # ... the MV-index's online work does not depend on it at all ...
    assert expansions[0] > 0 and len(set(expansions)) == 1
    # ... and is the smaller of the two at every point.
    assert all(mv < ob for mv, ob in zip(expansions, obdd_nodes))
    # Alchemy ran exactly where expected: up to the cutoff, NaN past it.
    ran = [not math.isnan(seconds) for seconds in result.column("alchemy_total_s")]
    assert ran == [position < settings.alchemy_cutoff for position in range(settings.points)]


def test_fig5_advisor_of_student(sweep_settings, emit):
    result = fig5_advisor_of_student(sweep_settings)
    emit(result)
    assert_index_flat_while_obdd_grows(result, sweep_settings)

"""Fig. 6: Alchemy (MC-SAT) vs augmented OBDD vs MV-index — "students of an advisor"."""

from test_fig5_advisor_of_student import assert_index_flat_while_obdd_grows

from repro.experiments import fig6_students_of_advisor


def test_fig6_students_of_advisor(sweep_settings, emit):
    result = fig6_students_of_advisor(sweep_settings)
    emit(result)
    assert_index_flat_while_obdd_grows(result, sweep_settings)

"""Fig. 10: per-query cost of ten "students of advisor X" queries (full dataset)."""

from repro.experiments import fig10_students_of_advisor


def test_fig10_students_queries(full_settings, dblp_workload, dblp_engine, emit):
    result = fig10_students_of_advisor(full_settings, dblp_workload, dblp_engine)
    emit(result)
    steps = result.column("steps")
    answers = result.column("answers")
    assert len(steps) == full_settings.query_count
    assert any(count > 0 for count in answers)
    # Paper shape: no query degenerates, because only a small portion of the
    # MV-index is touched — expansion steps per answer stay under a tenth of
    # the index's node count.
    budget = dblp_engine.mv_index.size / 10
    assert all(work <= count * budget for work, count in zip(steps, answers))

"""Fig. 11: per-query cost of ten "affiliation of author Y" queries (full dataset)."""

from repro.experiments import fig11_affiliation_of_author


def test_fig11_affiliation_queries(full_settings, dblp_workload, dblp_engine, emit):
    result = fig11_affiliation_of_author(full_settings, dblp_workload, dblp_engine)
    emit(result)
    steps = result.column("steps")
    answers = result.column("answers")
    assert len(steps) == full_settings.query_count
    assert any(count > 0 for count in answers)
    budget = dblp_engine.mv_index.size / 10
    assert all(work <= count * budget for work, count in zip(steps, answers))

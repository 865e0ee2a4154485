"""Fig. 1 (tables): the dataset inventory — base, derived and probabilistic relations."""

from repro.experiments import fig1_dataset_inventory


def test_fig1_dataset_inventory(full_settings, emit):
    result = fig1_dataset_inventory(full_settings)
    emit(result)
    relations = set(result.column("relation"))
    # The full Fig. 1 inventory must be present: base tables, derived views,
    # probabilistic tables and the three MarkoViews.
    assert {"Author", "Wrote", "Pub", "HomePage", "FirstPub", "DBLPAffiliation"} <= relations
    assert {"Student", "Advisor", "Affiliation", "V1", "V2", "V3"} <= relations
    counts = dict(zip(result.column("relation"), result.column("rows")))
    # Shape check: Wrote is the largest base table, Student the largest probabilistic one.
    assert counts["Wrote"] > counts["Author"]
    assert counts["Student"] > counts["Advisor"]

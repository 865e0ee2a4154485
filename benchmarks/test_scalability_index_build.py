"""§5.4: offline scalability — MV-index construction on the full synthetic dataset."""

from repro.experiments import scalability_index_build


def test_scalability_index_build(full_settings, dblp_workload, emit):
    result = scalability_index_build(full_settings, dblp_workload)
    emit(result)
    row = result.rows[0]
    # The index must actually cover the view lineage.
    assert row["index_nodes"] > 0
    assert row["index_components"] > 1
    assert row["w_lineage_clauses"] > 0

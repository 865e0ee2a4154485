"""Fig. 9: worst-case intersection — MVIntersect vs cache-conscious CC-MVIntersect."""

from repro.experiments import fig9_intersection


def test_fig9_intersect(sweep_settings, emit):
    result = fig9_intersection(sweep_settings)
    emit(result)
    nodes = result.column("index_nodes")
    expansions = result.column("mvintersect_expansions")
    # The index (and hence the worst-case traversal) grows along the sweep.
    assert all(later > earlier for earlier, later in zip(nodes, nodes[1:]))
    assert all(later > earlier for earlier, later in zip(expansions, expansions[1:]))
    # Worst case: the query lineage touches every component of the index.
    assert result.column("touched_components") == result.column("index_components")
    # The cache-conscious layout re-encodes the nodes, not the algorithm: both
    # kernels do the same traversal and return the same float, so only the
    # constant factors differ (the paper's ~2x comes from the C++ vector layout).
    assert result.column("cc_mvintersect_expansions") == expansions
    assert result.column("cc_mvintersect_p0") == result.column("mvintersect_p0")

"""Fig. 4: lineage size of the MarkoViews (W) as the aid domain grows."""

from repro.experiments import fig4_lineage_size


def test_fig4_lineage_size(sweep_settings, emit):
    result = fig4_lineage_size(sweep_settings)
    emit(result)
    sizes = result.column("lineage_size")
    domains = result.column("aid_domain")
    assert len(sizes) == sweep_settings.points
    # Paper shape: the lineage grows monotonically (roughly linearly) with the domain.
    assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]
    growth = sizes[-1] / max(1, sizes[0])
    domain_growth = domains[-1] / max(1, domains[0])
    assert growth > 0.3 * domain_growth

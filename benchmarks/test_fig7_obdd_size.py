"""Fig. 7: OBDD size of W (denial view V2) grows linearly with the aid1 domain."""

from repro.experiments import fig7_fig8_obdd_construction


def test_fig7_obdd_size(sweep_settings, emit):
    sizes, __ = fig7_fig8_obdd_construction(sweep_settings)
    emit(sizes)
    obdd_sizes = sizes.column("obdd_size")
    domains = sizes.column("aid_domain")
    assert all(later >= earlier for earlier, later in zip(obdd_sizes, obdd_sizes[1:]))
    # Linear shape: the size per domain element stays within a small constant band.
    ratios = [size / domain for size, domain in zip(obdd_sizes, domains) if size]
    assert ratios and max(ratios) <= 6 * min(ratios)
    # V2 has a separator, so the ConOBDD width stays small (Proposition 2).
    assert max(sizes.column("obdd_width")) <= 16

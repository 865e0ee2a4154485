"""Fig. 8: OBDD construction — CUDD-style synthesis vs ConOBDD concatenation."""

from repro.experiments import fig7_fig8_obdd_construction


def test_fig8_construction_time(sweep_settings, emit):
    __, times = fig7_fig8_obdd_construction(
        sweep_settings.__class__(
            group_count=max(30, sweep_settings.group_count),
            points=sweep_settings.points,
            seed=sweep_settings.seed,
        )
    )
    emit(times)
    synthesis_steps = times.column("synthesis_apply_steps")
    concat_steps = times.column("concat_apply_steps")
    # The concatenation-based construction performs (almost) no apply/synthesis
    # steps on the separator-ordered denial view — only the rare interleaving
    # components fall back to synthesis — while the CUDD baseline performs a
    # super-linearly growing number of them: the source of the Fig. 8 gap.
    assert sum(concat_steps) <= 0.1 * sum(synthesis_steps)
    assert synthesis_steps[-1] > synthesis_steps[0]
    assert synthesis_steps[-1] / max(1, synthesis_steps[0]) > (
        len(synthesis_steps)
    ), "synthesis work should grow super-linearly across the sweep"

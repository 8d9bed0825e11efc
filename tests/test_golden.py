"""Every experiment reproduces its committed reference table at seed 7.

The tables under tests/golden/ were written by ``qwalk <experiment> --set
seed=7`` plus the overrides in REDUCED, which shrink exb and landau so the
whole comparison stays in the fast tier, and stop current-check at 4 steps:
over its default 8 the 1D residual's maximum is 0x1.8p-55 both for the
residual sum and for its reorderings, so that cell could not tell them
apart. Every check passes at these settings. exb's 96x192 plane holds more than lattice._ROWS_ABOVE sites, so
its steps run in row blocks (lattice._run_rows). ``python
tests/golden_tool.py --write EXP...`` rewrites the named files from the
current build. The metadata lists the experiment, the seed, the keys the
experiment declares and the code version, and must match exactly; cells
match bit for bit, as ``golden_tool.py --diff`` compares them, so a sign
flip of a zero or a 1-ulp move of a residual of 1e-16 fails too. These runs
give the same bits with QWALK_THREADS at 1, at 2 and unset. Each
experiment's ordered checks are pinned by name and comparison, and by bound
where the bound is a constant, so a check cannot drop out unnoticed.
"""

from pathlib import Path

import pytest

from qwalk.config import EXPERIMENTS, load_config
from qwalk.experiments import run
from qwalk.table import read_table

GOLDEN = Path(__file__).parent / "golden"

REDUCED = {
    "exb": ("magnetic=0.0490873852", "extents=96,192", "steps=120"),
    "landau": ("epsilon=1/24", "levels=2"),
    "current-check": ("steps=4",),
}

# (name, comparison, bound) of each experiment's checks in order; None where the run computes the bound
CHECKS = {
    "evolve1d": [("norm_drift", "<", 1e-9)],
    "evolve2d": [("norm_drift", "<", 1e-9)],
    "dispersion": [("symbol_eigenvalue_residual", "<", 1e-12)],
    "gauge-check": [("gauge_invariance_1d", "<", 1e-12), ("gauge_invariance_2d", "<", 1e-12)],
    "current-check": [("continuity_1d", "<", 1e-12), ("continuity_2d", "<", 1e-12)],
    "landau": [("sqrt_level_r2", ">", 0.99), ("linear_step_coefficient", "<", None)],
    "bloch": [("bloch_period_relative_error", "<", 0.1)],
    "exb": [("exb_drift_relative_error", "<", 0.15), ("exb_transverse_speed", "<", 0.1)],
    "rational-field": [("participation_dichotomy", ">", None)],
    "nonabelian-check": [(f"{kind}_n{n}", "<", 1e-11)
                         for n in (1, 2, 3) for kind in ("covariance", "holonomy_covariance")]
                        + [("abelian_reduction_n1", "<", 1e-13)],
    "curved-schwarzschild": [("horizon_localization", ">=", 0.45)],
    "gw-scan": [("scan_argmax_wavelength", "within 0.5 of", 2.5), ("unperturbed_stationarity", "<", 1e-10),
                ("amplitude_linearity_ratio", "within 0.1 of", 2.0)],
    "aharonov": [("classical_equivalence", "<", 1e-10)],
    "convergence": [("order_free", ">=", 0.9), ("order_electric", ">=", 0.9)],
}


def bits(table) -> list:
    """Each cell as float.hex(), which also tells -0.0 from 0.0."""
    return [[x.hex() for x in row] for row in table.rows]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_matches_golden_table(experiment):
    table = run(load_config(experiment, overrides=("seed=7",) + REDUCED.get(experiment, ())))
    want = read_table(str(GOLDEN / f"{experiment}.csv"))
    assert table.metadata == want.metadata
    assert table.columns == want.columns
    assert len(table.rows) == len(want.rows)
    assert bits(table) == bits(want)
    want_checks = CHECKS[experiment]
    assert len(table.checks) == len(want_checks)
    assert [(c.name, c.comparison, None if bound is None else c.bound)
            for c, (_, _, bound) in zip(table.checks, want_checks)] == want_checks
    assert all(check.passed for check in table.checks)

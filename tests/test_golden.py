"""Every experiment reproduces its committed reference table at seed 7.

The tables under tests/golden/ were written by ``qwalk <experiment> --set
seed=7`` plus the overrides in REDUCED, which shrink exb and landau so the
whole comparison stays in the fast tier; every check passes at these
settings. The metadata lists the experiment, the seed, the keys the
experiment declares and the code version, and must match exactly; cells
match to rtol = atol = 1e-12.
"""

from pathlib import Path

import numpy as np
import pytest

from qwalk.config import EXPERIMENTS, load_config
from qwalk.experiments import run
from qwalk.table import read_table

GOLDEN = Path(__file__).parent / "golden"

REDUCED = {
    "exb": ("magnetic=0.0490873852", "extents=64,192", "steps=120"),
    "landau": ("epsilon=1/24", "levels=2"),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_matches_golden_table(experiment):
    table = run(load_config(experiment, overrides=("seed=7",) + REDUCED.get(experiment, ())))
    want = read_table(str(GOLDEN / f"{experiment}.csv"))
    assert table.metadata == want.metadata
    assert table.columns == want.columns
    assert len(table.rows) == len(want.rows)
    np.testing.assert_allclose(np.array(table.rows), np.array(want.rows), rtol=1e-12, atol=1e-12)
    assert all(check.passed for check in table.checks)

"""Random ``--set`` overrides through ``cli.main``: every input ends in a table, a verdict or one line.

Each draw starts from small per-experiment settings (so every run stays
cheap) and overrides one to three keys with typical, edge or invalid
values. Whatever the input, ``main`` must return 0, 2 or 3; an exit of 2
prints exactly one ``config error:`` or ``invalid parameters:`` line.
Warnings are errors in this suite, so a numpy or scipy warning fails too.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.cli import main
from qwalk.config import EXPERIMENTS

# small steps, extents and sweeps for each experiment; every drawn value below stays as small
SMALL = {
    "evolve1d": ("steps=12", "extents=32"),
    "evolve2d": ("steps=6", "extents=12,10"),
    "dispersion": ("samples=32",),
    "gauge-check": ("steps=4", "extents=12,6,4", "trials=2"),
    "current-check": ("steps=4", "extents=12,6,4"),
    "landau": ("epsilon=1/8", "epsilons=1/8,1/12,1/16", "levels=2"),
    "bloch": ("extents=64", "electric=1"),
    "exb": ("steps=30", "extents=16,24", "magnetic=0.4"),
    "rational-field": ("steps=6", "extents=12"),
    "nonabelian-check": ("steps=4", "extents=8", "trials=1"),
    "curved-schwarzschild": ("steps=10", "extents=32", "horizon=16"),
    "gw-scan": ("extents=12,12", "wavelengths=2,3"),
    "aharonov": ("steps=8", "extents=24", "samples=64"),
    "convergence": ("epsilons=1/8,1/16",),
}

VALUES = {
    "seed": ("0", "7"),
    "steps": ("0", "1", "2", "-1", "5", "17", "30"),
    "trials": ("0", "1", "-1"),
    "levels": ("0", "1", "3", "-1"),
    "samples": ("0", "1", "17", "-1"),
    "extents": ("0", "1", "1,1", "2,3", "6,1", "8", "12,10", "16,16", "20,12,8", "-1,4", ""),
    "epsilon": ("0", "-1", "1e-320", "1e-9", "1/8", "1/3", "1", "3"),
    "mass": ("0", "-0.3", "1e-320", "7"),
    "electric": ("0", "-0.3", "1e-320", "1e-9", "1/50", "1", "7"),
    "magnetic": ("0", "-0.3", "1e-320", "1e-9", "0.02", "0.3", "7"),
    "xi": ("0", "-0.01", "1e-300", "0.01", "0.025", "0.03"),
    "theta": ("0", "1e-9", "-1.2", "3.14159", "100"),
    "coin_shift": ("0", "1e-300", "1e-9", "-2"),
    "momentum": ("0", "-3", "1e300"),
    "horizon": ("-5", "0", "4", "10", "80"),
    "polarization": ("plus", "cross", "diagonal", ""),
    "base_speed": ("0", "-0.5", "1e-300", "0.8", "1", "1.5"),
    "epsilons": ("", "1/8", "0,1/8", "-1/8,1/16", "1/3,1/5", "1,1/2", "2,1/4", "1/4,1/8,1/16"),
    "wavelengths": ("", "0", "-2", "1", "2", "5", "4,2"),
    "duration": ("-1", "0", "1e-300", "1/3", "0.5", "1"),
    "flux": ("-1", "0", "0.25", "1e300"),
    "spin_up_prob": ("-0.1", "0", "0.5", "1", "1.5"),
    "coin_angle": ("-7", "0", "0.8", "1e300"),
}

# the keys each driver reads; the rest are drawn too, but rarely
READS = {
    "evolve1d": ("steps", "extents", "epsilon", "mass", "electric", "momentum"),
    "evolve2d": ("steps", "extents", "epsilon", "mass", "magnetic", "momentum"),
    "dispersion": ("samples", "theta", "coin_shift"),
    "gauge-check": ("seed", "steps", "trials", "extents", "epsilon", "mass"),
    "current-check": ("seed", "steps", "extents", "epsilon", "mass"),
    "landau": ("levels", "extents", "epsilon", "magnetic", "epsilons"),
    "bloch": ("steps", "extents", "electric"),
    "exb": ("steps", "extents", "electric", "magnetic"),
    "rational-field": ("steps", "extents", "flux"),
    "nonabelian-check": ("seed", "steps", "trials", "extents", "epsilon"),
    "curved-schwarzschild": ("steps", "extents", "horizon"),
    "gw-scan": ("extents", "xi", "polarization", "base_speed", "wavelengths"),
    "aharonov": ("seed", "steps", "samples", "extents", "spin_up_prob", "coin_angle"),
    "convergence": ("mass", "electric", "epsilons", "duration"),
}


def overrides_st(experiment):
    keys = st.one_of(st.sampled_from(READS[experiment]), st.sampled_from(sorted(VALUES)))
    item = keys.flatmap(lambda key: st.sampled_from(VALUES[key]).map(f"{key}=".__add__))
    return st.lists(item, min_size=1, max_size=3)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_overrides_end_in_an_exit_code_and_at_most_one_error_line(experiment, data):
    argv = [experiment, "--out", os.devnull]
    for item in SMALL[experiment] + tuple(data.draw(overrides_st(experiment))):
        argv += ["--set", item]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), lines
    assert all(line.startswith("qwalk: ") for line in lines), lines
    if code == 2:
        assert len(lines) == 1, lines
        assert lines[0].startswith(("qwalk: config error: ", "qwalk: invalid parameters: ")), lines

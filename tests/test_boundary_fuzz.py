"""Random ``--set`` overrides through ``cli.main``: every input ends in a table, a verdict or one line.

Each draw starts from small per-experiment settings (so every run stays
cheap) and overrides one to three keys with typical, edge or invalid
values. Whatever the input, ``main`` must return 0, 2 or 3; an exit of 2
prints exactly one ``config error:`` or ``invalid parameters:`` line, and a
key the experiment does not declare must end there, named in that line.
Warnings are errors in this suite, so a numpy or scipy warning fails too.
A second test runs each driver on a config that records what it reads: the
driver must read exactly the keys its experiment declares.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.cli import main
from qwalk.config import _DECLARATIONS, EXPERIMENTS, load_config
from qwalk.experiments import run

# small steps, extents and sweeps for each experiment; every drawn value below stays as small
SMALL = {
    "evolve1d": ("steps=12", "extents=32"),
    "evolve2d": ("steps=6", "extents=12,10"),
    "dispersion": ("samples=32",),
    "gauge-check": ("steps=4", "extents=12,6,4", "trials=2"),
    "current-check": ("steps=4", "extents=12,6,4"),
    "landau": ("epsilon=1/8", "epsilons=1/8,1/12,1/16", "levels=2"),
    "bloch": ("extents=64", "electric=0.3"),
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

# the keys each experiment declares, which are the keys its driver reads, and seed; every other key in
# VALUES is drawn too, and must end in exit 2 with one config error line that names it
READS = {experiment: ("seed", *_DECLARATIONS[experiment][0]) for experiment in EXPERIMENTS}


def overrides_st(experiment):
    keys = st.one_of(st.sampled_from(READS[experiment]), st.sampled_from(sorted(VALUES)))
    item = keys.flatmap(lambda key: st.sampled_from(VALUES[key]).map(f"{key}=".__add__))
    return st.lists(item, min_size=1, max_size=3)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_overrides_end_in_an_exit_code_and_at_most_one_error_line(experiment, data):
    argv = [experiment, "--out", os.devnull]
    drawn = data.draw(overrides_st(experiment))
    for item in SMALL[experiment] + tuple(drawn):
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
    undeclared = [key for key in (item.partition("=")[0] for item in drawn) if key not in READS[experiment]]
    if undeclared:
        assert code == 2, lines
        assert lines[0].startswith(f"qwalk: config error: {experiment} does not read {undeclared[0]!r}"), lines


class Recorder:
    """Forwards attribute reads to a config and records their names."""

    def __init__(self, config):
        self.config, self.reads = config, set()

    def __getattr__(self, key):
        self.reads.add(key)
        return getattr(self.config, key)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_driver_reads_exactly_the_keys_its_experiment_declares(experiment):
    # aharonov reads samples only on its sampled branch, beyond 16 steps
    overrides = SMALL[experiment] + (("steps=17",) if experiment == "aharonov" else ())
    recorder = Recorder(load_config(experiment, overrides=overrides))
    run(recorder)  # run itself reads experiment and echo
    assert recorder.reads - {"experiment", "echo", "seed"} == set(_DECLARATIONS[experiment][0])

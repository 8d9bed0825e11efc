"""Harness tests: result tables, configuration resolution, CLI behavior."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qwalk
from qwalk.abelian import landau_box_size
from qwalk.cli import main
from qwalk.config import ConfigError, ExperimentConfig, load_config
from qwalk.curved import coin_angles_from_triad, gw_metric, triad_from_metric
from qwalk.experiments import run
from qwalk.table import Check, ResultTable, read_table, render_table, write_table

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# result tables


def sample_table():
    return ResultTable(
        ("k", "E_plus"),
        [(0.1, 0.30000000000000004), (-2.5, 1.0 / 3.0)],
        {"experiment": "dispersion", "note": "has, comma"},
    )


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="entries"):
        ResultTable(("a", "b"), [(1.0,), (2.0, 3.0)])


def test_table_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ResultTable(("a",), [(float("nan"),)])


def test_empty_table_is_header_only_csv():
    table = ResultTable(("a", "b"), [])
    assert table.to_csv() == "a,b\n"


def test_csv_round_trip_is_byte_identical():
    table = sample_table()
    text = table.to_csv()
    again = ResultTable.from_csv(text)
    assert again.to_csv() == text
    assert again.columns == table.columns
    assert again.rows == table.rows
    assert again.metadata == table.metadata


def test_json_round_trip_is_byte_identical():
    table = sample_table()
    text = table.to_json()
    assert ResultTable.from_json(text).to_json() == text
    # and a plain parse/re-serialize of the payload is also stable
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_csv_exact_float_representation():
    table = ResultTable(("x",), [(0.1 + 0.2,)])
    value = ResultTable.from_csv(table.to_csv()).rows[0][0]
    assert value == 0.1 + 0.2  # repr round trip, no decimal truncation


def test_write_and_read_table(tmp_path):
    table = sample_table()
    for fmt, name in (("csv", "t.csv"), ("json", "t.json")):
        path = str(tmp_path / name)
        write_table(table, path, fmt)
        again = read_table(path)
        assert again.rows == table.rows
        assert again.metadata == table.metadata


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render_table(sample_table(), "xml")


def test_column_accessor():
    assert sample_table().column("k") == [0.1, -2.5]


# ---------------------------------------------------------------------------
# configuration


def test_defaults_resolve_per_experiment():
    cfg = load_config("bloch")
    assert cfg.experiment == "bloch"
    assert cfg.steps == 150
    assert cfg.extents == (256,)
    assert cfg.electric == pytest.approx(TAU / 50)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        load_config("teleport")


def test_config_file_sections_and_fractions(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\n"
        "seed = 7\n"
        "steps = 25\n"
        "[lattice]\n"
        "extents = 32, 16  # inline comment\n"
        "epsilon = 1/64\n"
        "[parameters]\n"
        "mass = 0.25\n"
    )
    cfg = load_config("evolve2d", str(path))
    assert cfg.seed == 7
    assert cfg.steps == 25
    assert cfg.extents == (32, 16)
    assert cfg.epsilon == pytest.approx(1 / 64)
    assert cfg.mass == 0.25
    sweep = tmp_path / "sweep.ini"
    sweep.write_text("[parameters]\nepsilons = 1/8 1/16\n")
    assert load_config("convergence", str(sweep)).epsilons == (0.125, 0.0625)
    # evolve2d never reads epsilons, so a file that sets it is rejected
    with path.open("a") as handle:
        handle.write("epsilons = 1/8 1/16\n")
    with pytest.raises(ConfigError, match="evolve2d does not read 'epsilons'"):
        load_config("evolve2d", str(path))


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nstepz = 3\n")
    with pytest.raises(ConfigError, match="stepz"):
        load_config("evolve1d", str(path))


def test_config_file_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[walks]\nsteps = 3\n")
    with pytest.raises(ConfigError, match="section"):
        load_config("evolve1d", str(path))


def test_config_file_experiment_mismatch(tmp_path):
    path = tmp_path / "other.ini"
    path.write_text("[run]\nexperiment = bloch\n")
    with pytest.raises(ConfigError, match="bloch"):
        load_config("evolve1d", str(path))


def test_overrides_bare_and_qualified():
    cfg = load_config("evolve1d", overrides=["steps=11", "lattice.extents=64"])
    assert cfg.steps == 11
    assert cfg.extents == (64,)
    with pytest.raises(ConfigError, match="unknown override"):
        load_config("evolve1d", overrides=["bogus=1"])
    with pytest.raises(ConfigError, match="unknown override"):
        load_config("evolve1d", overrides=["run.extents=64"])  # wrong section
    with pytest.raises(ConfigError, match="key=value"):
        load_config("evolve1d", overrides=["steps"])


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        load_config("evolve1d", overrides=["steps=soon"])
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config("evolve1d", overrides=["steps=-3"])
    with pytest.raises(ConfigError, match="epsilon"):
        load_config("evolve1d", overrides=["epsilon=0"])


def test_echo_is_flat_strings():
    echo = load_config("gw-scan").echo()
    assert echo["experiment"] == "gw-scan"
    assert echo["extents"] == "96 96"
    assert all(isinstance(v, str) for v in echo.values())


# ---------------------------------------------------------------------------
# experiment dispatch


def test_run_stamps_metadata():
    cfg = load_config("dispersion", overrides=["samples=8"])
    table = run(cfg)
    assert table.metadata["experiment"] == "dispersion"
    assert table.metadata["samples"] == "8"
    assert "code_version" in table.metadata
    assert all(isinstance(c, Check) for c in table.checks)


def test_dispersion_theta_zero_gives_abs_k():
    cfg = load_config("dispersion", overrides=["samples=32"])
    table = run(cfg)
    k = np.array(table.column("k"))
    e_plus = np.array(table.column("E_plus"))
    np.testing.assert_allclose(e_plus, np.abs(k), atol=1e-12)
    assert all(c.passed for c in table.checks)


def test_gauge_check_single_row_below_tolerance():
    cfg = load_config(
        "gauge-check",
        overrides=["trials=3", "steps=12", "extents=16 8 6", "seed=5"],
    )
    table = run(cfg)
    assert len(table.rows) == 1
    assert max(table.column("max_residual_1d") + table.column("max_residual_2d")) < 1e-12
    assert all(c.passed for c in table.checks)


def test_gw_scan_argmax_in_shortest_wavelengths():
    cfg = load_config("gw-scan", overrides=["extents=24 24", "wavelengths=2 3 4 6"])
    table = run(cfg)
    responses = table.column("max_density_change")
    best = table.column("wavelength")[int(np.argmax(responses))]
    assert best in (2.0, 3.0)
    assert all(c.passed for c in table.checks)


def test_identical_config_and_seed_give_identical_bytes():
    cfg = load_config("gauge-check", overrides=["trials=2", "steps=8", "extents=12 6 4"])
    first, second = run(cfg), run(cfg)
    assert render_table(first, "csv") == render_table(second, "csv")
    assert render_table(first, "json") == render_table(second, "json")
    different = run(load_config(
        "gauge-check", overrides=["trials=2", "steps=8", "extents=12 6 4", "seed=1"]
    ))
    assert render_table(different, "csv") != render_table(first, "csv")


# ---------------------------------------------------------------------------
# command line


def test_cli_success_writes_file(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["dispersion", "--set", "samples=8", "--out", str(out)])
    assert rc == 0
    table = read_table(str(out))
    assert table.columns == ("k", "E_plus", "E_minus")
    assert "finished in" in capsys.readouterr().err


def test_cli_json_output(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["dispersion", "--set", "samples=8", "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["experiment"] == "dispersion"
    assert len(payload["rows"]) == 8


def test_cli_config_error_is_exit_2(capsys):
    assert main(["evolve1d", "--set", "bogus=1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_zero_denominator_is_config_error(capsys):
    assert main(["evolve1d", "--set", "epsilon=1/0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "config error: bad value for 'epsilon'" in err


@pytest.mark.parametrize("experiment", ["evolve2d", "exb", "gw-scan"])
def test_cli_plane_experiments_need_two_extents(experiment, capsys):
    assert main([experiment, "--set", "extents=64"]) == 2
    err = capsys.readouterr().err
    assert err == f"qwalk: config error: {experiment} needs two extents\n"


# every experiment that indexes a lattice, with one extent below 1 site
@pytest.mark.parametrize("experiment,extents", [
    ("evolve1d", "0"), ("evolve2d", "0,0"), ("evolve2d", "64,0"), ("gauge-check", "0"),
    ("gauge-check", "64,16,0"), ("current-check", "48,0,18"), ("bloch", "0"), ("exb", "0,384"),
    ("rational-field", "0"), ("nonabelian-check", "0"), ("curved-schwarzschild", "0"),
    ("gw-scan", "96,0"), ("aharonov", "0"),
])
def test_cli_empty_lattice_is_config_error(experiment, extents, capsys):
    # an exception escaping main would fail the test, so no traceback can reach stderr
    assert main([experiment, "--set", f"extents={extents}"]) == 2
    err = capsys.readouterr().err
    assert err == f"qwalk: config error: {experiment} needs extents of at least 1 site\n"


# warnings are errors: the 1x1 plane used to normalize a zero packet before failing
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("experiment", ["evolve2d", "exb"])
def test_cli_single_site_plane_is_config_error(experiment, capsys):
    assert main([experiment, "--set", "extents=1,1"]) == 2
    err = capsys.readouterr().err
    assert err == f"qwalk: config error: {experiment} needs a plane of more than one site, got extents 1,1\n"


def test_cli_landau_one_site_box_is_config_error(capsys):
    assert main(["landau", "--set", "extents=1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("qwalk: config error: landau box of 1 site is too small")
    assert "extents=0 for automatic sizing" in err


# warnings are errors: a one-point fit used to pass with two RankWarnings
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilons", ["1/32", "1/32,1/32"])
def test_cli_convergence_needs_two_distinct_epsilons(epsilons, capsys):
    assert main(["convergence", "--set", f"epsilons={epsilons}"]) == 2
    err = capsys.readouterr().err
    assert err == "qwalk: config error: convergence needs at least two distinct epsilons to fit an order\n"


# warnings are errors: a fit through one or two points used to print RankWarning and FAIL
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilons", ["1/32", "1/32,1/64", "1/32,1/64,1/64"])
def test_cli_landau_needs_three_distinct_epsilons(epsilons, capsys):
    assert main(["landau", "--set", f"epsilons={epsilons}"]) == 2
    err = capsys.readouterr().err
    assert err == "qwalk: config error: landau needs at least three distinct epsilons to fit a quadratic in epsilon\n"


# warnings are errors: short bloch runs used to end in a TypeError, LAPACK text or a FAIL
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides, period", [
    (["steps=0"], 50), (["steps=1"], 50), (["steps=2"], 50), (["steps=49"], 50),
    (["electric=7", "steps=1"], 2),
])
def test_cli_bloch_needs_one_predicted_period(overrides, period, capsys):
    argv = ["bloch"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"qwalk: config error: bloch needs at least one predicted Bloch period, steps >= {period}\n"


def test_cli_bloch_runs_from_one_predicted_period(tmp_path):
    assert main(["bloch", "--set", "steps=50", "--out", str(tmp_path / "bloch.csv")]) == 0


# warnings are errors: zero or one step used to end in numpy or holonomy text
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("steps", [0, 1])
def test_cli_nonabelian_check_needs_two_steps(steps, capsys):
    assert main(["nonabelian-check", "--set", f"steps={steps}"]) == 2
    err = capsys.readouterr().err
    assert err == "qwalk: config error: nonabelian-check needs at least 2 steps: the holonomy spans two time slices\n"


# warnings are errors: each row used to end in a traceback, a FAIL or a library's error text
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, message", [
    ("landau --set epsilon=1e-9", "landau at epsilon=1e-09 needs a box of more than 65536 sites"),
    ("landau --set epsilons=1/32,1/48,1e-320", "landau at epsilon=1e-320 needs a box of more than 65536 sites"),
    ("bloch --set electric=7 --set steps=2", "bloch needs electric <= pi"),
    ("rational-field --set steps=0", "rational-field needs at least 2 steps"),
    ("rational-field --set steps=1", "rational-field needs at least 2 steps"),
    ("gw-scan --set xi=0", "gw-scan needs xi in (0, 0.025]"),
    ("gw-scan --set xi=0.03", "gw-scan needs xi in (0, 0.025]"),
    ("convergence --set duration=0", "convergence needs duration > 0"),
])
def test_cli_boundary_rows_are_config_errors(command, message, capsys):
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"qwalk: config error: {message}")


@pytest.mark.parametrize("overrides", [["rational-field", "steps=2"], ["gw-scan", "xi=0.025"],
                                       ["curved-schwarzschild", "steps=1"], ["gw-scan", "xi=1.25e-12"],
                                       ["gw-scan", "xi=1e-6", "base_speed=1e-6"],
                                       ["gw-scan", "xi=1e-12", "polarization=cross", "base_speed=1e-6"]])
def test_cli_runs_at_the_edge_of_the_boundary_rows(overrides, tmp_path):
    experiment, *items = overrides
    settings = [arg for item in items for arg in ("--set", item)]
    assert main([experiment, *settings, "--out", str(tmp_path / "out.csv")]) == 0


# each check line used to print its bound after a comparison that already named it ("2 in {2, 3} 3")
def test_cli_gw_scan_check_lines_state_each_criterion_once(tmp_path, capsys):
    assert main(["gw-scan", "--set", "extents=24,24", "--set", "wavelengths=2,3,4,6",
                 "--out", str(tmp_path / "gw.csv")]) == 0
    checks = [line for line in capsys.readouterr().err.splitlines() if line.startswith("qwalk: check")]
    assert checks[0] == "qwalk: check scan_argmax_wavelength: 2 within 0.5 of 2.5 -> pass"
    assert checks[1].startswith("qwalk: check unperturbed_stationarity: ") and checks[1].endswith(" < 1e-10 -> pass")
    assert checks[2] == "qwalk: check amplitude_linearity_ratio: 1.98743 within 0.1 of 2 -> pass"


# each row used to run its driver and end in a traceback, a vacuous or degenerate verdict, or a
# library's error text; load_config now rejects it before any driver runs
@pytest.mark.parametrize("command, message", [
    ("exb --set electric=0", "exb needs electric > 0"),
    ("exb --set electric=-0.3", "exb needs electric > 0"),
    ("exb --set steps=40", "steps too small: need more than one cyclotron period"),
    ("landau --set magnetic=-0.02", "landau needs magnetic > 0"),
    ("landau --set magnetic=0", "landau needs magnetic > 0"),
    ("landau --set epsilon=3", "landau needs magnetic*epsilon**2 <= 0.02"),
    ("landau --set epsilons=0,1/32,1/48", "landau needs epsilons > 0"),
    ("landau --set epsilon=1e-320 --set extents=64", "landau at epsilon=1e-320 needs a box of more than 65536 sites"),
    ("gw-scan --set polarization=diagonal", "gw-scan needs polarization plus or cross"),
    ("gw-scan --set base_speed=0", "gw-scan needs base_speed in [1e-6, 1]"),
    ("gw-scan --set base_speed=1e-300", "gw-scan needs base_speed in [1e-6, 1]"),
    ("gw-scan --set base_speed=1.5", "gw-scan needs base_speed in [1e-6, 1]"),
    ("gw-scan --set wavelengths=5", "gw-scan needs wavelengths w >= 1 with 2*w dividing both extents"),
    ("gw-scan --set wavelengths=0", "gw-scan needs wavelengths w >= 1 with 2*w dividing both extents"),
    ("gw-scan --set wavelengths=", "gw-scan needs wavelengths w >= 1 with 2*w dividing both extents"),
    ("convergence --set epsilons=1/3,1/5", "convergence needs every epsilon to divide 1 and duration"),
    ("convergence --set duration=1/3", "convergence needs every epsilon to divide 1 and duration"),
    ("convergence --set duration=1e-300", "convergence needs every epsilon to divide 1 and duration"),
    ("convergence --set epsilons=0,1/8", "convergence needs epsilons > 0"),
    ("convergence --set epsilons=-1/8,1/16", "convergence needs epsilons > 0"),
    ("bloch --set electric=1e-320", "bloch needs at least one predicted Bloch period, steps >= inf"),
    ("gauge-check --set epsilon=1e-308", "gauge-check needs epsilon >= 1e-300"),
    ("current-check --set epsilon=1e-9", "current-check needs epsilon >= 1e-3"),
    ("gw-scan --set base_speed=0.99", "gw-scan needs base_speed**2 <= 1 - 2*xi (plus) or 1 - 4*xi**2 (cross)"),
    ("gw-scan --set base_speed=1", "gw-scan needs base_speed**2 <= 1 - 2*xi (plus) or 1 - 4*xi**2 (cross)"),
    ("gw-scan --set base_speed=0.9999 --set polarization=cross",
     "gw-scan needs base_speed**2 <= 1 - 2*xi (plus) or 1 - 4*xi**2 (cross)"),
    ("gw-scan --set xi=1e-14", "gw-scan needs xi*base_speed (plus) or xi (cross) >= 1e-12"),
    ("gw-scan --set xi=1e-20", "gw-scan needs xi*base_speed (plus) or xi (cross) >= 1e-12"),
    ("gw-scan --set xi=1e-7 --set base_speed=1e-6", "gw-scan needs xi*base_speed (plus) or xi (cross) >= 1e-12"),
    ("gw-scan --set xi=1e-13 --set polarization=cross", "gw-scan needs xi*base_speed (plus) or xi (cross) >= 1e-12"),
    ("curved-schwarzschild --set steps=0", "curved-schwarzschild needs at least 1 step"),
    ("convergence --set mass=0", "convergence needs mass != 0"),
    ("convergence --set mass=-0", "convergence needs mass != 0"),
    ("gauge-check --set extents=12,8", "gauge-check needs 1 extent (the 1D sites) or 3 (the 1D sites, then the 2D "
                                       "plane), got 2"),
    ("current-check --set extents=12,8", "current-check needs 1 extent (the 1D sites) or 3"),
    ("gauge-check --set extents=64,16,12,4", "gauge-check needs 1 extent (the 1D sites) or 3"),
    ("landau --set extents=20", "landau box of 20 sites is too small: 4 levels at epsilon=0.015625 need 8192 sites"),
    ("landau --set extents=5", "landau box of 5 sites is too small"),
    ("landau --set extents=8191", "landau box of 8191 sites is too small"),
])
def test_cli_declared_ranges_are_config_errors_before_any_driver(command, message, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("qwalk.cli.run", no_run)
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"qwalk: config error: {message}")


# gw-scan also steps 2*xi; the declaration must accept exactly the speeds whose 2*xi walk the library builds
@pytest.mark.parametrize("polarization", ["plus", "cross"])
@pytest.mark.parametrize("xi", [0.01, 0.025])
def test_gw_scan_declared_light_cone_is_the_walks(polarization, xi):
    limit = math.sqrt(1 - 2 * xi if polarization == "plus" else 1 - 4 * xi**2)
    for speed in (limit * (1 - 1e-9), limit * (1 + 1e-6)):
        try:
            load_config("gw-scan", overrides=[f"base_speed={speed!r}", f"polarization={polarization}", f"xi={xi}"])
            declared = True
        except ConfigError:
            declared = False
        try:
            coin_angles_from_triad(triad_from_metric(gw_metric((4, 4), 2 * xi, polarization, speed)))
            walks = True
        except ValueError:
            walks = False
        assert declared == walks == (speed < limit)


# arccos lost half its digits near the band touching, so this residual used to be 1e-9
@pytest.mark.parametrize("item", ["coin_shift=1e-9", "theta=1e-9"])
def test_cli_dispersion_is_exact_for_tiny_angles(item, tmp_path, capsys):
    assert main(["dispersion", "--set", item, "--out", str(tmp_path / "d.csv")]) == 0
    assert "symbol_eigenvalue_residual" in capsys.readouterr().err


# an explicit box below landau_box_size cut off the levels it had to resolve, and both checks FAILed
def test_cli_landau_runs_at_exactly_the_automatic_box_size(tmp_path, capsys):
    settings = ["landau", "--set", "epsilon=1/24", "--set", "levels=2", "--out", str(tmp_path / "landau.csv")]
    box = landau_box_size(0.02, 1 / 24, 2)
    assert main(settings + ["--set", f"extents={box - 1}"]) == 2
    assert capsys.readouterr().err.startswith(f"qwalk: config error: landau box of {box - 1} sites is too small")
    assert main(settings + ["--set", f"extents={box}"]) == 0


# one extent runs the 2D half on the default plane; three name it
@pytest.mark.parametrize("experiment", ["gauge-check", "current-check"])
def test_check_experiments_take_one_or_three_extents(experiment):
    assert load_config(experiment, overrides=["extents=12"]).extents == (12,)
    assert load_config(experiment, overrides=["extents=12,6,4"]).extents == (12, 6, 4)


def test_zero_extents_stay_valid_where_automatic():
    assert load_config("landau", overrides=["extents=0"]).extents == (0,)


@pytest.mark.parametrize("experiment", ["dispersion", "convergence"])
def test_experiments_without_a_lattice_reject_extents(experiment):
    with pytest.raises(ConfigError, match=f"{experiment} does not read 'extents'"):
        load_config(experiment, overrides=["extents=0"])


@pytest.mark.parametrize("experiment,key,value", [
    ("evolve1d", "mass", "nan"), ("evolve1d", "momentum", "inf"), ("evolve1d", "epsilon", "-inf"),
    ("bloch", "electric", "1e999"), ("convergence", "epsilons", "1/32, nan"),
])
def test_cli_non_finite_float_is_config_error(experiment, key, value, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("qwalk.cli.run", no_run)
    assert main([experiment, "--set", f"{key}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"config error: bad value for '{key}'" in err


@pytest.mark.parametrize("sites", [1, 4])
def test_cli_rational_field_needs_room_for_its_noise_probe(sites, capsys):
    assert main(["rational-field", "--set", f"extents={sites}"]) == 2
    err = capsys.readouterr().err
    assert err == "qwalk: config error: rational-field needs at least 5 sites: the noise probe moves the source 2 sites\n"


def test_cli_invalid_parameters_exit_2(capsys):
    # horizon outside the lattice violates the driver precondition
    rc = main(["curved-schwarzschild", "--set", "extents=64", "--set", "horizon=100"])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err


def test_cli_property_failure_is_exit_3(tmp_path, capsys):
    # 70 steps hold 1.4 of the predicted 50-step periods, so the FFT period estimate is off by 40 %
    # (fewer than 50 steps are a config error)
    out = tmp_path / "bloch.csv"
    rc = main(["bloch", "--set", "steps=70", "--set", "extents=128", "--out", str(out)])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().err
    assert out.exists()  # the artifact is still written


def test_cli_io_failure_is_exit_4(capsys):
    rc = main(["dispersion", "--set", "samples=8", "--out", "/none/x.csv"])
    assert rc == 4
    assert "cannot write" in capsys.readouterr().err


def test_cli_byte_identical_reruns(tmp_path):
    args = ["gauge-check", "--set", "trials=2", "--set", "steps=8",
            "--set", "extents=12 6 4", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _child_env():
    """Environment for a child interpreter that imports the same qwalk as this process."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(qwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_thread_env_seeds_blas_pools():
    env = {k: v for k, v in _child_env().items() if "NUM_THREADS" not in k}
    env["QWALK_THREADS"] = "3"
    script = "import qwalk, os; print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["3", "3"]


def test_python_dash_m_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "qwalk", "dispersion", "--out", "-"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "# experiment = dispersion" in result.stdout

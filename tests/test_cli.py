"""Harness tests: result tables, configuration resolution, CLI behavior."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qwalk
from qwalk.cli import main
from qwalk.config import ConfigError, ExperimentConfig, load_config
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
        "epsilons = 1/8 1/16\n"
    )
    cfg = load_config("evolve2d", str(path))
    assert cfg.seed == 7
    assert cfg.steps == 25
    assert cfg.extents == (32, 16)
    assert cfg.epsilon == pytest.approx(1 / 64)
    assert cfg.mass == 0.25
    assert cfg.epsilons == (0.125, 0.0625)


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


@pytest.mark.parametrize("experiment", ["landau", "dispersion", "convergence"])
def test_zero_extents_stay_valid_where_unused_or_automatic(experiment):
    assert load_config(experiment, overrides=["extents=0"]).extents == (0,)


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
    # a 40-step trace cannot hold the predicted 50-step oscillation period
    out = tmp_path / "bloch.csv"
    rc = main(["bloch", "--set", "steps=40", "--set", "extents=128", "--out", str(out)])
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

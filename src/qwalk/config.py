"""Experiment configuration: INI files with sections, CLI overrides, defaults.

The file format is line-oriented ``key = value`` under ``[run]``,
``[lattice]`` and ``[parameters]`` sections.  Values accept plain numbers,
simple fractions like ``1/64``, and space- or comma-separated lists for the
tuple-valued keys.  CLI ``--set key=value`` overrides take either the bare
key (all keys are unique) or the qualified ``section.key`` form.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields as dataclass_fields

from .lattice import TAU


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def _parse_float(text: str) -> float:
    token = text.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        return float(num) / float(den)
    return float(token)


def _parse_int(text: str) -> int:
    return int(text.strip(), 0)


def _parse_str(text: str) -> str:
    return text.strip()


def _split(text: str):
    return text.replace(",", " ").split()


def _parse_ints(text) -> tuple:
    if not isinstance(text, str):
        return tuple(int(v) for v in text)
    return tuple(_parse_int(tok) for tok in _split(text))


def _parse_floats(text) -> tuple:
    if not isinstance(text, str):
        return tuple(float(v) for v in text)
    return tuple(_parse_float(tok) for tok in _split(text))


# key -> (section, parser, global default); None defaults are supplied per
# experiment in EXPERIMENT_DEFAULTS
SCHEMA = {
    "seed": ("run", _parse_int, 0),
    "steps": ("run", _parse_int, None),
    "trials": ("run", _parse_int, 20),
    "levels": ("run", _parse_int, 4),
    "samples": ("run", _parse_int, 256),
    "extents": ("lattice", _parse_ints, None),
    "epsilon": ("lattice", _parse_float, 1.0),
    "mass": ("parameters", _parse_float, 0.0),
    "electric": ("parameters", _parse_float, 0.0),
    "magnetic": ("parameters", _parse_float, 0.0),
    "xi": ("parameters", _parse_float, 0.01),
    "theta": ("parameters", _parse_float, 0.0),
    "coin_shift": ("parameters", _parse_float, 0.0),
    "momentum": ("parameters", _parse_float, 0.5),
    "horizon": ("parameters", _parse_int, 80),
    "polarization": ("parameters", _parse_str, "plus"),
    "base_speed": ("parameters", _parse_float, 0.8),
    "epsilons": ("parameters", _parse_floats, (1 / 32, 1 / 64, 1 / 128)),
    "wavelengths": ("parameters", _parse_ints, (2, 3, 4, 6, 8, 12, 16, 24)),
    "duration": ("parameters", _parse_float, 0.5),
    "flux": ("parameters", _parse_float, 0.25),
    "spin_up_prob": ("parameters", _parse_float, 0.6),
    "coin_angle": ("parameters", _parse_float, 0.8),
}

SECTIONS = ("run", "lattice", "parameters")

# extents for the *-check experiments read as (1D sites, 2D extent, 2D extent)
EXPERIMENT_DEFAULTS = {
    "evolve1d": {"steps": 200, "extents": (256,), "mass": 0.4, "epsilon": 0.5},
    "evolve2d": {"steps": 100, "extents": (64, 64)},
    "dispersion": {"steps": 0, "extents": (256,), "theta": 0.0},
    "gauge-check": {"steps": 50, "extents": (64, 16, 12), "epsilon": 0.5, "mass": 0.8},
    "current-check": {"steps": 8, "extents": (48, 14, 18), "epsilon": 0.5, "mass": 0.9},
    "landau": {
        "steps": 0,
        "extents": (0,),
        "magnetic": 0.02,
        "epsilon": 1 / 64,
        "epsilons": (1 / 24, 1 / 32, 1 / 48),
    },
    "bloch": {"steps": 150, "extents": (256,), "electric": TAU / 50},
    "exb": {"steps": 480, "extents": (96, 384), "electric": 0.3, "magnetic": TAU / 256},
    "rational-field": {"steps": 100, "extents": (64,)},
    "nonabelian-check": {"steps": 30, "extents": (24,), "epsilon": 0.5, "trials": 3},
    "curved-schwarzschild": {"steps": 200, "extents": (512,)},
    "gw-scan": {"steps": 0, "extents": (96, 96)},
    "aharonov": {"steps": 10, "extents": (32,), "samples": 2000},
    "convergence": {"steps": 0, "extents": (0,), "mass": 0.8, "electric": 0.7},
}

EXPERIMENTS = tuple(EXPERIMENT_DEFAULTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings of one experiment run."""

    experiment: str
    seed: int
    steps: int
    trials: int
    levels: int
    samples: int
    extents: tuple
    epsilon: float
    mass: float
    electric: float
    magnetic: float
    xi: float
    theta: float
    coin_shift: float
    momentum: float
    horizon: int
    polarization: str
    base_speed: float
    epsilons: tuple
    wavelengths: tuple
    duration: float
    flux: float
    spin_up_prob: float
    coin_angle: float

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}: choose from {', '.join(EXPERIMENTS)}"
            )
        if self.steps < 0:
            raise ConfigError("steps must be nonnegative")
        if self.trials <= 0 or self.levels <= 0 or self.samples <= 0:
            raise ConfigError("trials, levels and samples must be positive")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if any(n < 0 for n in self.extents) or not self.extents:
            raise ConfigError("extents must be nonnegative integers")

    def echo(self) -> dict:
        """Resolved configuration as ordered strings, for output metadata."""
        out = {"experiment": self.experiment}
        for field in dataclass_fields(self):
            if field.name == "experiment":
                continue
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                out[field.name] = " ".join(repr(v) for v in value)
            elif isinstance(value, float):
                out[field.name] = repr(value)
            else:
                out[field.name] = str(value)
        return out


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}]: expected one of {SECTIONS}"
            )
        for key, raw in parser.items(section):
            if key == "experiment" and section == "run":
                values["experiment"] = raw.strip()
                continue
            if key not in SCHEMA or SCHEMA[key][0] != section:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            values[key] = raw
    return values


def _apply_overrides(values: dict, overrides) -> None:
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key = key.strip()
        if "." in key:
            section, _, key = key.partition(".")
            if key not in SCHEMA or SCHEMA[key][0] != section:
                raise ConfigError(f"unknown override key {section}.{key}")
        elif key not in SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = raw


def load_config(experiment: str, path: str | None = None, overrides=()) -> ExperimentConfig:
    """Resolve an ExperimentConfig from defaults, an optional file, and overrides."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}: choose from {', '.join(EXPERIMENTS)}"
        )
    values = _read_file(path) if path else {}
    file_experiment = values.pop("experiment", None)
    if file_experiment is not None and file_experiment != experiment:
        raise ConfigError(
            f"config file names experiment {file_experiment!r} but {experiment!r} was requested"
        )
    _apply_overrides(values, overrides)

    resolved = {"experiment": experiment}
    defaults = EXPERIMENT_DEFAULTS[experiment]
    for key, (_, parse, default) in SCHEMA.items():
        if key in values:
            try:
                resolved[key] = parse(values[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {key!r}: {values[key]!r} ({exc})") from exc
        elif key in defaults:
            resolved[key] = defaults[key]
        elif default is not None:
            resolved[key] = default
        else:
            raise ConfigError(f"no value for required key {key!r}")
    return ExperimentConfig(**resolved)

"""Experiment configuration: INI files with sections, CLI overrides, defaults.

The file format is line-oriented ``key = value`` under ``[run]``,
``[lattice]`` and ``[parameters]`` sections.  Values accept plain numbers,
simple fractions like ``1/64``, and space- or comma-separated lists for the
tuple-valued keys.  CLI ``--set key=value`` overrides take either the bare
key (all keys are unique) or the qualified ``section.key`` form.

Each experiment declares the keys it reads, with their defaults, and its
ordered input checks beside its driver, in ``experiments._DECLARATIONS``;
``load_config`` rejects any other key (``seed`` is accepted everywhere) and
runs the checks before it returns.
"""

from __future__ import annotations

import configparser
import math
import types

from .experiments import _DECLARATIONS


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def _parse_float(text: str) -> float:
    token = text.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        value = float(num) / float(den)
    else:
        value = float(token)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse(text: str, default):
    """Parse `text` as the type of the key's declared default: a tuple of comma- or space-separated entries of its
    first entry's type, a stripped string, an int in any Python base prefix, or a finite float or fraction."""
    if isinstance(default, tuple):
        return tuple(_parse(token, default[0]) for token in text.replace(",", " ").split())
    if isinstance(default, str):
        return text.strip()
    return int(text, 0) if isinstance(default, int) else _parse_float(text)


# key -> section, in metadata order; each experiment declares the keys it reads, with their defaults
_PARAMETERS = {
    **dict.fromkeys(("seed", "steps", "trials", "levels", "samples"), "run"),
    **dict.fromkeys(("extents", "epsilon"), "lattice"),
    **dict.fromkeys(("mass", "electric", "magnetic", "xi", "theta", "coin_shift", "momentum", "horizon",
                     "polarization", "base_speed", "epsilons", "wavelengths", "duration", "flux", "spin_up_prob",
                     "coin_angle"), "parameters"),
}

SECTIONS = ("run", "lattice", "parameters")


class ExperimentConfig(types.SimpleNamespace):
    """Resolved settings of one experiment run: experiment, seed and the keys the experiment declares."""

    __slots__ = ()

    def __setattr__(self, key, *_):
        raise AttributeError(f"cannot change {key!r}: an ExperimentConfig is frozen")

    __delattr__ = __setattr__

    def echo(self) -> dict:
        """Resolved configuration as ordered strings, for output metadata."""
        return {key: " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
                for key, value in vars(self).items()}


# one range rule per key, run for each declared key before the experiment's own checks
_RANGES = {
    "steps": (lambda c: c.steps >= 0, "steps must be nonnegative"),
    "trials": (lambda c: c.trials > 0, "trials must be positive"),
    "levels": (lambda c: c.levels > 0, "levels must be positive"),
    "samples": (lambda c: c.samples > 0, "samples must be positive"),
    "epsilon": (lambda c: c.epsilon > 0, "epsilon must be positive"),
    "extents": (lambda c: c.extents and min(c.extents) >= 0, "extents must be nonnegative integers"),
}

EXPERIMENTS = tuple(_DECLARATIONS)


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
            if _PARAMETERS.get(key) != section:
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
            if _PARAMETERS.get(key) != section:
                raise ConfigError(f"unknown override key {section}.{key}")
        elif key not in _PARAMETERS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = raw


def load_config(experiment: str, path: str | None = None, overrides=()) -> ExperimentConfig:
    """Resolve an ExperimentConfig from defaults, an optional file, and overrides of the experiment's keys."""
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

    declared, checks, _ = _DECLARATIONS[experiment]
    defaults = {"seed": 0, **declared}
    for key in values:
        if key not in defaults:
            raise ConfigError(f"{experiment} does not read {key!r}; its keys are "
                              + ", ".join(k for k in _PARAMETERS if k in defaults))
    resolved = {"experiment": experiment}
    for key in _PARAMETERS:
        if key in values:
            try:
                resolved[key] = _parse(values[key], defaults[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {key!r}: {values[key]!r} ({exc})") from exc
        elif key in defaults:
            resolved[key] = defaults[key]
    config = ExperimentConfig(**resolved)
    ranges = (check for key, check in _RANGES.items() if key in declared)
    for condition, message in (*ranges, *checks):
        if not condition(config):
            raise ConfigError(message if isinstance(message, str) else message(config))
    return config

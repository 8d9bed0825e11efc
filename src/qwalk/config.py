"""Experiment configuration: INI files with sections, CLI overrides, defaults.

The file format is line-oriented ``key = value`` under ``[run]``,
``[lattice]`` and ``[parameters]`` sections.  Values accept plain numbers,
simple fractions like ``1/64``, and space- or comma-separated lists for the
tuple-valued keys.  CLI ``--set key=value`` overrides take either the bare
key (all keys are unique) or the qualified ``section.key`` form.

Each experiment declares its defaults and ordered input checks once, in
``_DECLARATIONS``; ``load_config`` runs the checks before it returns.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import make_dataclass

from .abelian import landau_box_size
from .dirac import _walk_grid
from .lattice import TAU


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


def _parse_int(text: str) -> int:
    return int(text.strip(), 0)


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_ints(text: str) -> tuple:
    return tuple(_parse_int(tok) for tok in text.replace(",", " ").split())


def _parse_floats(text: str) -> tuple:
    return tuple(_parse_float(tok) for tok in text.replace(",", " ").split())


# key -> (section, parser, global default); experiments declare their own steps and extents
_PARAMETERS = {
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


def _echo(self) -> dict:
    """Resolved configuration as ordered strings, for output metadata."""
    return {key: " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            for key, value in vars(self).items()}


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    ["experiment", *_PARAMETERS],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": "Fully resolved settings of one experiment run.",
               "echo": _echo},
)


# ---------------------------------------------------------------------------
# per-experiment declarations: defaults, then (condition, message) checks that
# load_config evaluates in order; a message is a string or a function of the config

_COMMON = (
    (lambda c: c.steps >= 0, "steps must be nonnegative"),
    (lambda c: min(c.trials, c.levels, c.samples) > 0, "trials, levels and samples must be positive"),
    (lambda c: c.epsilon > 0, "epsilon must be positive"),
    (lambda c: c.extents and min(c.extents) >= 0, "extents must be nonnegative integers"),
)
# landau reads extent 0 as "size the box automatically"; dispersion and
# convergence never read extents. Every other experiment indexes a lattice.
_LATTICE = _COMMON + (
    (lambda c: min(c.extents) >= 1, lambda c: f"{c.experiment} needs extents of at least 1 site"),
)
# a 1x1 plane's only mode k = 0 can leave the packet with zero norm, and no
# center can move on it
_PLANE = (
    (lambda c: len(c.extents) >= 2, lambda c: f"{c.experiment} needs two extents"),
    (lambda c: c.extents[0] * c.extents[1] > 1,
     lambda c: f"{c.experiment} needs a plane of more than one site, got extents 1,1"),
)

# largest landau box: one shift-invert solve at 2^16 sites takes about 13 s
# and 240 MB on a 2-core x86-64 host
_LANDAU_MAX_SITES = 2**16


def _landau_oversized(c):
    """The first of min(epsilons) (sweep box, one level) and epsilon (level box) whose box exceeds the cap."""
    for epsilon, levels in ((min(c.epsilons), 1), (c.epsilon, c.levels)):
        try:
            if landau_box_size(c.magnetic, epsilon, levels) > _LANDAU_MAX_SITES:
                return epsilon
        except ValueError:  # the magnetic length in sites overflows a float
            return epsilon
    return None


def _bloch_period(c):
    """Steps in one predicted Bloch period, at least 2; inf when 2*pi/electric overflows."""
    period = TAU / c.electric
    return max(2, math.ceil(period)) if math.isfinite(period) else period


# extents for the *-check experiments read as (1D sites, 2D extent, 2D extent)
_DECLARATIONS = {
    "evolve1d": ({"steps": 200, "extents": (256,), "mass": 0.4, "epsilon": 0.5}, _LATTICE),
    "evolve2d": ({"steps": 100, "extents": (64, 64)}, _LATTICE + _PLANE),
    "dispersion": ({"steps": 0, "extents": (256,), "theta": 0.0}, _COMMON),
    "gauge-check": ({"steps": 50, "extents": (64, 16, 12), "epsilon": 0.5, "mass": 0.8}, _LATTICE + (
        (lambda c: c.epsilon >= 1e-300,
         "gauge-check needs epsilon >= 1e-300: the gauge transform divides phase differences by epsilon"),
    )),
    "current-check": ({"steps": 8, "extents": (48, 14, 18), "epsilon": 0.5, "mass": 0.9}, _LATTICE + (
        (lambda c: c.epsilon >= 1e-3,
         "current-check needs epsilon >= 1e-3: the continuity residual is divided by epsilon, "
         "so smaller steps lift rounding toward the 1e-12 bound"),
    )),
    "landau": ({
        "steps": 0,
        "extents": (0,),
        "magnetic": 0.02,
        "epsilon": 1 / 64,
        "epsilons": (1 / 24, 1 / 32, 1 / 48),
    }, _COMMON + (
        (lambda c: c.magnetic > 0, "landau needs magnetic > 0 (the field strength that sets the level spacing)"),
        (lambda c: c.extents[0] != 1, "landau box of 1 site is too small for the eigensolver: "
                                      "give at least 2 sites, or extents=0 for automatic sizing"),
        (lambda c: len(set(c.epsilons)) >= 3,
         "landau needs at least three distinct epsilons to fit a quadratic in epsilon"),
        (lambda c: min(c.epsilons) > 0, "landau needs epsilons > 0"),
        (lambda c: all(c.magnetic * e * e <= 0.02 for e in (c.epsilon, *c.epsilons)),
         "landau needs magnetic*epsilon**2 <= 0.02 for epsilon and every epsilons entry: "
         "coarser lattices do not resolve the lowest Landau levels"),
        (lambda c: _landau_oversized(c) is None,
         lambda c: f"landau at epsilon={_landau_oversized(c)!r} needs a box of more than {_LANDAU_MAX_SITES} "
                   "sites: raise epsilon (and epsilons) or magnetic"),
    )),
    "bloch": ({"steps": 150, "extents": (256,), "electric": TAU / 50}, _LATTICE + (
        (lambda c: c.electric > 0, "bloch needs electric > 0 (the per-step momentum drift)"),
        (lambda c: c.steps >= _bloch_period(c),
         lambda c: f"bloch needs at least one predicted Bloch period, steps >= {_bloch_period(c)}"),
        (lambda c: c.electric <= math.pi,
         "bloch needs electric <= pi: the per-step momentum drift is only defined mod 2*pi"),
    )),
    "exb": ({"steps": 480, "extents": (96, 384), "electric": 0.3, "magnetic": TAU / 256}, _LATTICE + (
        (lambda c: c.magnetic > 0, "exb needs magnetic > 0 (the flux per plaquette)"),
        (lambda c: c.electric > 0, "exb needs electric > 0 (the drift speed E/B it measures)"),
    ) + _PLANE + (
        # the drift fit starts after round(TAU / 4 / magnetic) steps; min() keeps round() finite
        (lambda c: round(min(TAU * 0.25 / c.magnetic, c.steps)) < c.steps - 8,
         "steps too small: need more than one cyclotron period"),
    )),
    "rational-field": ({"steps": 100, "extents": (64,)}, _LATTICE + (
        (lambda c: c.extents[0] >= 5,
         "rational-field needs at least 5 sites: the noise probe moves the source 2 sites"),
        (lambda c: c.steps >= 2, "rational-field needs at least 2 steps: "
                                 "the flux reaches the density only from the second step"),
    )),
    "nonabelian-check": ({"steps": 30, "extents": (24,), "epsilon": 0.5, "trials": 3}, _LATTICE + (
        (lambda c: c.steps >= 2,
         "nonabelian-check needs at least 2 steps: the holonomy spans two time slices"),
    )),
    "curved-schwarzschild": ({"steps": 200, "extents": (512,)}, _LATTICE + (
        (lambda c: 3 < c.horizon < c.extents[0] - 3, "horizon must lie inside the lattice with a 3-site margin"),
        (lambda c: c.steps >= 1, "curved-schwarzschild needs at least 1 step: without one its check is vacuous"),
    )),
    "gw-scan": ({"steps": 0, "extents": (96, 96)}, _LATTICE + _PLANE + (
        (lambda c: 0.0 < c.xi <= 0.025,
         "gw-scan needs xi in (0, 0.025]: it also steps 2*xi, and the response is linear up to 0.05"),
        (lambda c: c.polarization in ("plus", "cross"), "gw-scan needs polarization plus or cross"),
        (lambda c: 1e-6 <= c.base_speed <= 1.0,
         "gw-scan needs base_speed in [1e-6, 1]: slower frames drown the response in rounding"),
        (lambda c: c.base_speed**2 <= (1 - 2 * c.xi if c.polarization == "plus" else 1 - 4 * c.xi**2),
         "gw-scan needs base_speed**2 <= 1 - 2*xi (plus) or 1 - 4*xi**2 (cross): "
         "the step at 2*xi must stay inside the lattice light cone"),
        (lambda c: c.wavelengths and all(w >= 1 and all(n % (2 * w) == 0 for n in c.extents[:2])
                                         for w in c.wavelengths),
         "gw-scan needs wavelengths w >= 1 with 2*w dividing both extents"),
    )),
    "aharonov": ({"steps": 10, "extents": (32,), "samples": 2000}, _LATTICE + (
        (lambda c: 0.0 <= c.spin_up_prob <= 1.0, "spin_up_prob must lie in [0, 1]"),
    )),
    "convergence": ({"steps": 0, "extents": (0,), "mass": 0.8, "electric": 0.7}, _COMMON + (
        (lambda c: c.mass != 0, "convergence needs mass != 0: the massless walk is exact, its error rounding"),
        (lambda c: len(set(c.epsilons)) >= 2, "convergence needs at least two distinct epsilons to fit an order"),
        (lambda c: c.duration > 0, "convergence needs duration > 0"),
        (lambda c: min(c.epsilons) > 0, "convergence needs epsilons > 0"),
        (lambda c: all(_walk_grid(e, c.duration) for e in c.epsilons),
         "convergence needs every epsilon to divide 1 and duration, with at least one step"),
    )),
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
            if key not in _PARAMETERS or _PARAMETERS[key][0] != section:
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
            if key not in _PARAMETERS or _PARAMETERS[key][0] != section:
                raise ConfigError(f"unknown override key {section}.{key}")
        elif key not in _PARAMETERS:
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

    defaults, checks = _DECLARATIONS[experiment]
    resolved = {"experiment": experiment}
    for key, (_, parse, default) in _PARAMETERS.items():
        if key in values:
            try:
                resolved[key] = parse(values[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for {key!r}: {values[key]!r} ({exc})") from exc
        else:
            resolved[key] = defaults.get(key, default)
    config = ExperimentConfig(**resolved)
    for condition, message in checks:
        if not condition(config):
            raise ConfigError(message if isinstance(message, str) else message(config))
    return config

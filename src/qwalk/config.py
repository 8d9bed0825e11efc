"""Experiment configuration: INI files with sections, CLI overrides, defaults.

The file format is line-oriented ``key = value`` under ``[run]``,
``[lattice]`` and ``[parameters]`` sections.  Values accept plain numbers,
simple fractions like ``1/64``, and space- or comma-separated lists for the
tuple-valued keys.  CLI ``--set key=value`` overrides take either the bare
key (all keys are unique) or the qualified ``section.key`` form.

Each experiment declares the keys it reads, with their defaults, and its
ordered input checks once, in ``_DECLARATIONS``; ``load_config`` rejects any
other key (``seed`` is accepted everywhere) and runs the checks before it
returns.
"""

from __future__ import annotations

import configparser
import math
import types

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


# ---------------------------------------------------------------------------
# per-experiment declarations: the keys a driver reads with their defaults, then
# (condition, message) checks that load_config evaluates in order, after the
# _RANGES of the declared keys; a message is a string or a function of the config

_RANGES = {
    "steps": (lambda c: c.steps >= 0, "steps must be nonnegative"),
    "trials": (lambda c: c.trials > 0, "trials must be positive"),
    "levels": (lambda c: c.levels > 0, "levels must be positive"),
    "samples": (lambda c: c.samples > 0, "samples must be positive"),
    "epsilon": (lambda c: c.epsilon > 0, "epsilon must be positive"),
    "extents": (lambda c: c.extents and min(c.extents) >= 0, "extents must be nonnegative integers"),
}
# landau reads extent 0 as "size the box automatically"; every other experiment
# that declares extents indexes a lattice
_LATTICE = (
    (lambda c: min(c.extents) >= 1, lambda c: f"{c.experiment} needs extents of at least 1 site"),
)
# a 1x1 plane's only mode k = 0 can leave the packet with zero norm, and no
# center can move on it
_PLANE = (
    (lambda c: len(c.extents) >= 2, lambda c: f"{c.experiment} needs two extents"),
    (lambda c: c.extents[0] * c.extents[1] > 1,
     lambda c: f"{c.experiment} needs a plane of more than one site, got extents 1,1"),
)

# the *-check experiments read extents as the 1D sites, optionally followed by the two 2D extents
_SITES_THEN_PLANE = (
    (lambda c: len(c.extents) in (1, 3), lambda c: f"{c.experiment} needs 1 extent (the 1D sites) or 3 "
                                                   f"(the 1D sites, then the 2D plane), got {len(c.extents)}"),
)

# largest landau box: one half-fiber shift-invert solve at 2^16 sites (magnetic 0.02, epsilon 1/1024)
# takes about 55 s and 108 MB peak RSS on a 2-core x86-64 host
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


_DECLARATIONS = {
    "evolve1d": ({"steps": 200, "extents": (256,), "epsilon": 0.5, "mass": 0.4, "electric": 0.0, "momentum": 0.5},
                 _LATTICE),
    "evolve2d": ({"steps": 100, "extents": (64, 64), "epsilon": 1.0, "mass": 0.0, "magnetic": 0.0,
                  "momentum": 0.5}, _LATTICE + _PLANE),
    "dispersion": ({"samples": 256, "theta": 0.0, "coin_shift": 0.0}, ()),
    "gauge-check": ({"steps": 50, "trials": 20, "extents": (64, 16, 12), "epsilon": 0.5, "mass": 0.8},
                    _SITES_THEN_PLANE + _LATTICE + (
        (lambda c: c.epsilon >= 1e-300,
         "gauge-check needs epsilon >= 1e-300: the gauge transform divides phase differences by epsilon"),
    )),
    "current-check": ({"steps": 8, "extents": (48, 14, 18), "epsilon": 0.5, "mass": 0.9},
                      _SITES_THEN_PLANE + _LATTICE + (
        (lambda c: c.epsilon >= 1e-3,
         "current-check needs epsilon >= 1e-3: the continuity residual is divided by epsilon, "
         "so smaller steps lift rounding toward the 1e-12 bound"),
    )),
    "landau": ({"levels": 4, "extents": (0,), "epsilon": 1 / 64, "magnetic": 0.02,
                "epsilons": (1 / 24, 1 / 32, 1 / 48)}, (
        (lambda c: c.magnetic > 0, "landau needs magnetic > 0 (the field strength that sets the level spacing)"),
        (lambda c: len(set(c.epsilons)) >= 3,
         "landau needs at least three distinct epsilons to fit a quadratic in epsilon"),
        (lambda c: min(c.epsilons) > 0, "landau needs epsilons > 0"),
        (lambda c: all(c.magnetic * e * e <= 0.02 for e in (c.epsilon, *c.epsilons)),
         "landau needs magnetic*epsilon**2 <= 0.02 for epsilon and every epsilons entry: "
         "coarser lattices do not resolve the lowest Landau levels"),
        (lambda c: _landau_oversized(c) is None,
         lambda c: f"landau at epsilon={_landau_oversized(c)!r} needs a box of more than {_LANDAU_MAX_SITES} "
                   "sites: raise epsilon (and epsilons) or magnetic"),
        # a smaller box than the automatic one cuts off the levels it resolves, and both checks FAIL
        (lambda c: c.extents[0] not in range(1, landau_box_size(c.magnetic, c.epsilon, c.levels)),
         lambda c: f"landau box of {c.extents[0]} site{'s' * (c.extents[0] > 1)} is too small: {c.levels} levels "
                   f"at epsilon={c.epsilon!r} need {landau_box_size(c.magnetic, c.epsilon, c.levels)} sites; "
                   "give at least that many, or extents=0 for automatic sizing"),
        (lambda c: c.extents[0] % 2 == 0,
         "landau needs an even box: the fiber solve splits it into its even and odd sites"),
    )),
    "bloch": ({"steps": 150, "extents": (256,), "electric": TAU / 50}, _LATTICE + (
        (lambda c: c.electric > 0, "bloch needs electric > 0 (the per-step momentum drift)"),
        (lambda c: c.steps >= _bloch_period(c),
         lambda c: f"bloch needs at least one predicted Bloch period, steps >= {_bloch_period(c)}"),
        (lambda c: c.electric <= 0.3, "bloch needs electric <= 0.3: a stronger drift leaks the packet into the "
                                      "other band, and over long traces that leak outgrows the Bloch swing"),
        (lambda c: c.extents[0] >= TAU / c.electric, "bloch needs extents >= 2*pi/electric: the packet swings "
                                                     "over a quarter of the predicted period in sites"),
        # the FFT reads the period as steps/m; the nearest whole m must leave half the 0.10 check bound to the walk
        (lambda c: abs((n := c.steps * c.electric / TAU) - round(n)) <= 0.05 * round(n),
         "bloch needs steps within 5% of a whole number of predicted periods 2*pi/electric"),
    )),
    "exb": ({"steps": 480, "extents": (96, 384), "electric": 0.3, "magnetic": TAU / 256}, _LATTICE + (
        (lambda c: c.magnetic > 0, "exb needs magnetic > 0 (the flux per plaquette)"),
        (lambda c: c.electric > 0, "exb needs electric > 0 (the drift speed E/B it measures)"),
    ) + _PLANE + (
        # the drift fit starts after round(TAU / 4 / magnetic) steps; min() keeps round() finite
        (lambda c: round(min(TAU * 0.25 / c.magnetic, c.steps)) < c.steps - 8,
         "steps too small: need more than one cyclotron period"),
    )),
    "rational-field": ({"steps": 100, "extents": (64,), "flux": 0.25}, _LATTICE + (
        (lambda c: c.extents[0] >= 5,
         "rational-field needs at least 5 sites: the noise probe moves the source 2 sites"),
        (lambda c: c.steps >= 2, "rational-field needs at least 2 steps: "
                                 "the flux reaches the density only from the second step"),
    )),
    "nonabelian-check": ({"steps": 30, "trials": 3, "extents": (24,), "epsilon": 0.5}, _LATTICE + (
        (lambda c: c.steps >= 2,
         "nonabelian-check needs at least 2 steps: the holonomy spans two time slices"),
    )),
    "curved-schwarzschild": ({"steps": 200, "extents": (512,), "horizon": 80}, _LATTICE + (
        (lambda c: 3 < c.horizon < c.extents[0] - 3, "horizon must lie inside the lattice with a 3-site margin"),
        (lambda c: c.steps >= 1, "curved-schwarzschild needs at least 1 step: without one its check is vacuous"),
    )),
    "gw-scan": ({"extents": (96, 96), "xi": 0.01, "polarization": "plus", "base_speed": 0.8,
                 "wavelengths": (2, 3, 4, 6, 8, 12, 16, 24)}, _LATTICE + _PLANE + (
        (lambda c: 0.0 < c.xi <= 0.025,
         "gw-scan needs xi in (0, 0.025]: it also steps 2*xi, and the response is linear up to 0.05"),
        (lambda c: c.polarization in ("plus", "cross"), "gw-scan needs polarization plus or cross"),
        (lambda c: 1e-6 <= c.base_speed <= 1.0,
         "gw-scan needs base_speed in [1e-6, 1]: slower frames drown the response in rounding"),
        (lambda c: c.xi * (c.base_speed if c.polarization == "plus" else 1.0) >= 1e-12,
         "gw-scan needs xi*base_speed (plus) or xi (cross) >= 1e-12: a weaker frame perturbation is rounding"),
        # the step at 2*xi has its light cone at base_speed**2 = 1 - 2*xi (plus) or 1 - 4*xi**2 (cross);
        # the linearity check FAILs up to 2*xi inside it (plus, best wavelength 3)
        (lambda c: c.base_speed**2 <= 1 - 6 * c.xi,
         "gw-scan needs base_speed**2 <= 1 - 6*xi: the step at 2*xi must stay 4*xi inside the lattice "
         "light cone (1 - 2*xi for plus), where its response is still linear in xi"),
        (lambda c: c.wavelengths and all(w >= 1 and all(n % (2 * w) == 0 for n in c.extents[:2])
                                         for w in c.wavelengths),
         "gw-scan needs wavelengths w >= 1 with 2*w dividing both extents"),
        # the response peaks at wavelength 2 and falls off on both sides, so without 2 or 3 the argmax leaves [2, 3]
        (lambda c: {2, 3} & set(c.wavelengths), "gw-scan needs 2 or 3 among its wavelengths: the response peaks at 2"),
    )),
    "aharonov": ({"steps": 10, "samples": 2000, "extents": (32,), "spin_up_prob": 0.6, "coin_angle": 0.8},
                 _LATTICE + (
        (lambda c: 0.0 <= c.spin_up_prob <= 1.0, "spin_up_prob must lie in [0, 1]"),
    )),
    "convergence": ({"mass": 0.8, "electric": 0.7, "epsilons": (1 / 32, 1 / 64, 1 / 128), "duration": 0.5},
                    (
        (lambda c: abs(c.mass) >= 1e-3, "convergence needs |mass| >= 1e-3: the massless walk is exact, "
                                        "and below 1e-3 its error at epsilons down to 1/1024 is rounding"),
        (lambda c: len(set(c.epsilons)) >= 2, "convergence needs at least two distinct epsilons to fit an order"),
        (lambda c: c.duration > 0, "convergence needs duration > 0"),
        (lambda c: min(c.epsilons) > 0, "convergence needs epsilons > 0"),
        (lambda c: min(c.epsilons) >= 1 / 512, "convergence needs min(epsilons) >= 1/512: its run time grows as "
                                               "epsilon**-3, and 1/512 already takes about 13 s"),
        (lambda c: all(_walk_grid(e, c.duration) for e in c.epsilons),
         "convergence needs every epsilon to divide 1 and duration, with at least one step"),
        (lambda c: min(c.epsilons) <= 1 / 8 and abs(c.mass) * max(c.epsilons) <= 1 / 8,
         "convergence needs min(epsilons) <= 1/8 and |mass| * max(epsilons) <= 1/8 for the order fit to hold"),
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

    declared, checks = _DECLARATIONS[experiment]
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

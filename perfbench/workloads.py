"""The three benchmark workloads: inputs from a seed, one pass, its checks.

A workload builds its inputs once (`build`), makes the phases of one pass
from them (`prepare`, untimed, so every pass gets fresh containers), and
checks a pass's outputs after the pass (`verify`).  Every call into qwalk
goes through a module attribute at call time, so the tracer's wrappers are
seen when they are installed.

Bounds of the checks are the package's own: norm drift 1e-9, gauge
residuals 1e-12, U(N) covariance 1e-11, and 5/sqrt(samples) for the
sampled measured walk (the tolerance the `aharonov` experiment uses).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qwalk import abelian, cli, config, curved, lattice, measured, nonabelian

NORM_BOUND = 1e-9
GAUGE_BOUND = 1e-12
COVARIANCE_BOUND = 1e-11


@dataclass
class Phase:
    name: str
    evolve: bool  # its time counts as evolve time for site_steps_per_s
    run: Callable[[], object]


def _random_state(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return lattice.SpinorField(amps).normalized()


def _norm_check(name, field):
    drift = abs(field.norm_sq() - 1.0)
    return (f"norm_drift.{name}", drift <= NORM_BOUND)


def _digest(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def nbytes(obj) -> int:
    """Bytes of every array reachable from a workload's inputs (computed from shapes)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


# ---------------------------------------------------------------------------
# walk-2d-static


class Walk2DStatic:
    """em_step_2d in a static Landau-gauge field and evolve_1p2 on a static triad."""

    name = "walk-2d-static"

    def build(self, seed, small=False):
        rng = np.random.default_rng(seed)
        n = 32 if small else 128
        steps = 4 if small else 32
        flux = rng.uniform(0.005, 0.02)
        gauge = abelian.landau_gauge(flux, 1, n, n, 1.0)
        em_start = lattice.SpinorField.gaussian(
            (n, n), k0=rng.uniform(-0.5, 0.5, size=2), spin=(1.0, 1.0j), width=n / 8)
        x = np.arange(n) * (2.0 * math.pi / n)
        modes = []
        for _ in range(2):
            kx, ky = rng.integers(1, 4, size=2)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            modes.append(np.cos(kx * x[:, None] + ky * x[None, :] + phase))
        xi = 0.1
        speed = 0.8
        metric = curved.MetricField2D(
            -(1.0 + xi * modes[0]) / speed**2,
            -(1.0 - xi * modes[0]) / speed**2,
            xi * modes[1] / speed**2,
        )
        return {
            "steps": steps,
            "gauge": gauge,
            "delta_theta": -rng.uniform(0.1, 0.5),
            "em_start": em_start,
            "triad": curved.triad_from_metric(metric),
            "mass": rng.uniform(0.1, 0.5),
            "triad_start": _random_state(rng, (n, n, 2)),
        }

    def prepare(self, inp):
        steps = inp["steps"]

        def em():
            field, gauge, dt = inp["em_start"], inp["gauge"], inp["delta_theta"]
            for _ in range(steps):
                field = abelian.em_step_2d(field, gauge, dt, 0)
            return field

        def triad():
            return curved.evolve_1p2(inp["triad_start"], inp["triad"], inp["mass"],
                                     steps=steps, epsilon=1.0)

        return [Phase("em_step_2d", True, em), Phase("evolve_1p2", True, triad)]

    def verify(self, inp, out):
        checks = [_norm_check("em_2d", out["em_step_2d"]),
                  _norm_check("curved_1p2", out["evolve_1p2"])]
        return checks, [_digest([out[name].amplitudes]) for name in ("em_step_2d", "evolve_1p2")]


# ---------------------------------------------------------------------------
# walk-1d-dynamic


def _hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _haar(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class Walk1DDynamic:
    """Four 1D families with a fresh field row every step, round trips, sampling."""

    name = "walk-1d-dynamic"

    def build(self, seed, small=False):
        rng = np.random.default_rng(seed)
        sizes = (128, 16) if small else (1024, 64)
        steps = 8 if small else 64
        eps = 0.5
        families = {}
        for sites in sizes:
            t = np.arange(steps)[:, None]
            x = np.arange(sites)[None, :] * (2.0 * math.pi / sites)
            omega, phase = rng.uniform(0.05, 0.2), rng.uniform(0.0, 2.0 * math.pi)
            links = {}
            for n in (2, 3):
                gauge = nonabelian.NonAbelianGaugeField(
                    _hermitian(rng, (steps, sites, n, n)),
                    _hermitian(rng, (steps, sites, n, n)), eps)
                links[n] = (gauge.links(), _random_state(rng, (sites, 2 * n)))
            families[sites] = {
                "coins": lattice.build_coin_euler(*rng.uniform(0.0, math.pi, size=(4, steps))),
                "step_start": _random_state(rng, (sites, 2)),
                "a0": rng.normal(size=(steps, sites)),
                "a1": rng.normal(size=(steps, sites)),
                "electric_start": _random_state(rng, (sites, 2)),
                "links": links,
                "theta": 0.7 + 0.6 * np.sin(x + omega * t + phase),
                "curved_start": _random_state(rng, (sites, 2)),
            }
        trip_sites = sizes[1]
        trip_links = nonabelian.NonAbelianGaugeField(
            _hermitian(rng, (steps, trip_sites, 2, 2)),
            _hermitian(rng, (steps, trip_sites, 2, 2)), eps).links()
        start = np.zeros(trip_sites, dtype=np.complex128)
        start[trip_sites // 2] = 1.0
        p = 0.6
        return {
            "steps": steps,
            "epsilon": eps,
            "mass": rng.uniform(0.2, 1.0),
            "families": families,
            "trip_a0": rng.normal(size=(steps, trip_sites)),
            "trip_a1": rng.normal(size=(steps, trip_sites)),
            "trip_phi": rng.normal(size=(steps + 1, trip_sites)),
            "trip_field": _random_state(rng, (trip_sites, 2)),
            "trip_links": trip_links,
            "trip_g": _haar(rng, (steps + 1, trip_sites, 2, 2)),
            "trip_color_field": _random_state(rng, (trip_sites, 4)),
            "walk": measured.AharonovConfig(
                spin_up=math.sqrt(p), spin_down=math.sqrt(1.0 - p) * np.exp(0.4j),
                coin_alpha=math.cos(0.8) * np.exp(-0.3j),
                coin_beta=math.sin(0.8) * np.exp(0.9j), coin_phase=0.7),
            "walk_start": start,
            "walk_steps": 6 if small else 24,
            "walk_samples": 8 if small else 32,
            "walk_seed": int(rng.integers(2**31)),
            "spin_up_prob": p,
        }

    def prepare(self, inp):
        steps, eps, mass = inp["steps"], inp["epsilon"], inp["mass"]
        phases = []
        for sites, fam in inp["families"].items():
            gauge = abelian.GaugeField1D(fam["a0"], fam["a1"], eps)
            profile = curved.CurvedCoinProfile(fam["theta"])
            fresh = {n: nonabelian.LinkField(lf.u_plus, lf.u_minus, lf.epsilon)
                     for n, (lf, _) in fam["links"].items()}

            def homogeneous(fam=fam):
                field, coins = fam["step_start"], fam["coins"]
                for j in range(steps):
                    field = lattice.step(field, coins[j])
                return field

            def electric(fam=fam, gauge=gauge):
                field = fam["electric_start"]
                for j in range(steps):
                    field = abelian.electric_step_1d(field, gauge, mass, j)
                return field

            def colored(n, fam=fam, fresh=fresh):
                field, links = fam["links"][n][1], fresh[n]
                for j in range(steps):
                    field = nonabelian.nonabelian_step(field, links, mass, j)
                return field

            def reflection(fam=fam, profile=profile):
                field = fam["curved_start"]
                for j in range(steps):
                    field = curved.curved_step_1p1(field, profile, j)
                return field

            phases += [
                Phase(f"step.{sites}", True, homogeneous),
                Phase(f"electric.{sites}", True, electric),
                Phase(f"nonabelian2.{sites}", True, lambda c=colored: c(2)),
                Phase(f"nonabelian3.{sites}", True, lambda c=colored: c(3)),
                Phase(f"curved_1p1.{sites}", True, reflection),
            ]

        trip_gauge = abelian.GaugeField1D(inp["trip_a0"], inp["trip_a1"], eps)
        tl = inp["trip_links"]
        trip_links = nonabelian.LinkField(tl.u_plus, tl.u_minus, tl.epsilon)

        def gauge_trip():
            field, phi = inp["trip_field"], inp["trip_phi"]
            direct = abelian.evolve_electric(field, trip_gauge, mass, steps)
            tfield, tgauge = abelian.gauge_transform_1d(field, trip_gauge, phi)
            return direct, abelian.evolve_electric(tfield, tgauge, mass, steps)

        def links_trip():
            field, g = inp["trip_color_field"], inp["trip_g"]
            direct = nonabelian.evolve_nonabelian(field, trip_links, mass, steps)
            tfield, tlinks = nonabelian.gauge_transform_links(field, trip_links, g)
            return direct, nonabelian.evolve_nonabelian(tfield, tlinks, mass, steps)

        def sampled():
            return measured.sample_averaged_distribution(
                inp["walk_start"], inp["walk"], inp["walk_steps"], inp["walk_samples"],
                inp["walk_seed"])

        return phases + [
            Phase("gauge_round_trip_1d", False, gauge_trip),
            Phase("links_round_trip", False, links_trip),
            Phase("sample_averaged", False, sampled),
        ]

    def verify(self, inp, out):
        checks = []
        digests = []
        for name, value in out.items():
            if isinstance(value, lattice.SpinorField):
                checks.append(_norm_check(name, value))
                digests.append(_digest([value.amplitudes]))

        direct, routed = out["gauge_round_trip_1d"]
        digests.append(_digest([direct.amplitudes, routed.amplitudes]))
        moved = direct.amplitudes * np.exp(-1j * inp["trip_phi"][-1])[:, None]
        residual = float(np.max(np.abs(moved - routed.amplitudes)))
        checks.append(("gauge_round_trip_1d", residual < GAUGE_BOUND))

        direct, routed = out["links_round_trip"]
        digests.append(_digest([direct.amplitudes, routed.amplitudes]))
        rotated = nonabelian.color_rotate(direct, inp["trip_g"][-1])
        residual = float(np.max(np.abs(rotated.amplitudes - routed.amplitudes)))
        checks.append(("links_round_trip", residual < COVARIANCE_BOUND))

        averaged = out["sample_averaged"]
        classical = measured.classical_rw_distribution(
            inp["spin_up_prob"], inp["walk_steps"], np.abs(inp["walk_start"]) ** 2)
        gap = float(np.max(np.abs(averaged - classical)))
        checks.append(("sample_averaged_classical", gap < 5.0 / math.sqrt(inp["walk_samples"])))
        checks.append(("sample_averaged_norm", abs(float(np.sum(averaged)) - 1.0) <= NORM_BOUND))
        digests.append(_digest([averaged]))
        return checks, digests


# ---------------------------------------------------------------------------
# cli-defaults

# Reduced settings for the smoke mode only; every check still passes at them.
SMOKE_OVERRIDES = {
    "exb": ["magnetic=0.0490873852", "extents=64,192", "steps=120"],
    "landau": ["epsilon=1/24", "levels=2"],
    "gauge-check": ["trials=2"],
    "rational-field": ["extents=32", "steps=60"],
    "convergence": ["epsilons=1/16,1/32"],
}


class CliDefaults:
    """All fourteen experiments through qwalk.cli.main at their defaults."""

    name = "cli-defaults"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def build(self, seed, small=False):
        runs = {}
        for experiment in config.EXPERIMENTS:
            overrides = [f"seed={seed}"] + (SMOKE_OVERRIDES.get(experiment, []) if small else [])
            config.load_config(experiment, None, overrides)  # reject a bad set-up early
            argv = [experiment]
            for item in overrides:
                argv += ["--set", item]
            path = f"{self.out_dir}/{experiment}.csv"
            runs[experiment] = (argv + ["--out", path], path)
        return {"runs": runs}

    def prepare(self, inp):
        def call(argv):
            captured = io.StringIO()
            with contextlib.redirect_stderr(captured):
                code = cli.main(argv)
            return code, captured.getvalue()

        return [Phase(exp, True, lambda argv=argv: call(argv))
                for exp, (argv, _) in inp["runs"].items()]

    def verify(self, inp, out):
        checks = []
        tables = []
        for experiment, (code, stderr) in out.items():
            checks.append((f"exit_code.{experiment}", code == 0))
            for line in stderr.splitlines():
                if line.startswith("qwalk: check "):
                    name = line[len("qwalk: check "):].split(":", 1)[0]
                    checks.append((f"verdict.{experiment}.{name}", line.endswith("-> pass")))
            with open(inp["runs"][experiment][1], "rb") as handle:
                tables.append(handle.read())
        return checks, tables


def make(name, out_dir):
    if name == "walk-2d-static":
        return Walk2DStatic()
    if name == "walk-1d-dynamic":
        return Walk1DDynamic()
    if name == "cli-defaults":
        return CliDefaults(out_dir)
    raise KeyError(name)


NAMES = ("walk-2d-static", "walk-1d-dynamic", "cli-defaults")

# lattice sizes named in metric names, and the sizes the smoke mode uses instead
SMALL_SIZES = {"2d128": "2d32", "1d1024": "1d128", "1d64": "1d16"}

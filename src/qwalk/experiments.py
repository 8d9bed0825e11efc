"""Named experiment drivers behind the CLI.

Each driver maps a resolved :class:`~qwalk.config.ExperimentConfig` to a
:class:`~qwalk.table.ResultTable` of plain numbers, built whole with its
:class:`~qwalk.table.Check` entries.  A check states its criterion once, as a
value, a bound and a comparison; its verdict is derived from them, and the CLI
turns a failed check into exit code 3.  Drivers only compute: every input
range they rely on is declared with the experiment in :mod:`qwalk.config` and
checked by ``load_config`` before a driver runs.  Drivers are deterministic for
a fixed seed: randomness only ever comes from
``numpy.random.default_rng(config.seed)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .abelian import (
    GaugeField1D,
    GaugeField2D,
    _circular_means,
    bloch_positions,
    electric_step_1d,
    em_step_2d,
    evolve_electric,
    evolve_em,
    exb_positions,
    gauge_transform_1d,
    gauge_transform_2d,
    landau_box_size,
    landau_gauge,
    landau_quasienergies,
    lattice_current,
    lattice_current_2d,
    measured_period,
    positive_band_packet_2d,
    rational_field_pr,
)
from .config import ExperimentConfig
from .curved import (
    curved_step_1p1,
    gw_relative_density_change,
    gw_two_mode_state,
    gw_wavelength_scan,
    schwarzschild_profile,
)
from .dirac import walk_dirac_convergence
from .lattice import TAU, CoinAngles, SpinorField, dispersion, walk_operator_fourier
from .measured import (
    AharonovConfig,
    classical_rw_distribution,
    enumerate_averaged_distribution,
    sample_averaged_distribution,
)
from .nonabelian import (
    LinkField,
    NonAbelianGaugeField,
    color_rotate,
    evolve_nonabelian,
    field_strength_holonomy,
    gauge_transform_links,
)
from .table import Check, ResultTable


def _random_state(rng, shape):
    """Normalized field with complex Gaussian amplitudes of shape (*extents, internal_dim)."""
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return SpinorField(amps).normalized()


def _random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _haar_unitary(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# ---------------------------------------------------------------------------
# trajectory experiments


def _norm_drift(rows) -> tuple:
    """The norm_drift check over the norm (second) column of trajectory rows; none without rows."""
    if not rows:
        return ()
    return (Check("norm_drift", max(abs(row[1] - 1.0) for row in rows), 1e-9, "<"),)


def _evolve1d(cfg: ExperimentConfig) -> ResultTable:
    sites = cfg.extents[0]
    field = SpinorField.gaussian(sites, k0=cfg.momentum, spin=(1.0, 1.0j), width=8.0)
    a0 = np.zeros((max(cfg.steps, 1), sites))
    # uniform electric field in the temporal gauge: A1(t) = -E t
    a1 = np.broadcast_to(-(cfg.electric * cfg.epsilon) * np.arange(max(cfg.steps, 1))[:, None], a0.shape).copy()
    gauge = GaugeField1D(a0, a1, cfg.epsilon)
    positions = np.arange(sites)
    rows = []

    def probe(j, field):
        prob = field.probability()
        mean = float(np.sum(positions * prob))
        spread = math.sqrt(max(float(np.sum((positions - mean) ** 2 * prob)), 0.0))
        rows.append((j + 1, field.norm_sq(), mean, spread))
    evolve_electric(field, gauge, cfg.mass, cfg.steps, probe=probe)
    return ResultTable(("step", "norm", "mean_x", "sigma_x"), rows, checks=_norm_drift(rows))


def _evolve2d(cfg: ExperimentConfig) -> ResultTable:
    n1, n2 = cfg.extents[:2]
    delta_theta = -cfg.epsilon * cfg.mass
    field = positive_band_packet_2d((n1, n2), (0.0, cfg.momentum), delta_theta=delta_theta)
    gauge = landau_gauge(cfg.magnetic, 1, n1, n2, cfg.epsilon)
    means, rows = _circular_means((n1, n2)), []
    evolve_em(field, gauge, delta_theta, cfg.steps, probe=lambda j, f: rows.append((j + 1, f.norm_sq(), *means(f))))
    return ResultTable(("step", "norm", "center_x", "center_y"), rows, checks=_norm_drift(rows))


def _dispersion(cfg: ExperimentConfig) -> ResultTable:
    k = np.linspace(-math.pi, math.pi, cfg.samples, endpoint=False)
    e_plus, e_minus = dispersion(cfg.theta, cfg.coin_shift, k)
    symbol = walk_operator_fourier(k, CoinAngles(0.0, cfg.theta, cfg.coin_shift, 0.0))
    eigenvalues = np.linalg.eigvals(symbol)
    residual = 0.0
    for branch in (e_plus, e_minus):
        target = np.exp(-1j * branch)[:, None]
        residual = max(residual, float(np.max(np.min(np.abs(eigenvalues - target), axis=1))))
    return ResultTable(("k", "E_plus", "E_minus"), list(zip(k, e_plus, e_minus)),
                       checks=(Check("symbol_eigenvalue_residual", residual, 1e-12, "<"),))


# ---------------------------------------------------------------------------
# invariance checks


def _round_trip_residual(cfg, rng, extents, gauge_type, potentials, evolve, transform, mass) -> float:
    """Largest |e^{-i phi_end} U psi - U' psi'| over cfg.trials draws of psi, the potentials, phi (in that order for
    each trial), stepped as one batch of cfg.trials members."""
    draws = [(_random_state(rng, extents + (2,)).amplitudes,
              *(rng.normal(size=(cfg.steps,) + extents) for _ in range(potentials)),
              rng.normal(size=(cfg.steps + 1,) + extents)) for _ in range(cfg.trials)]
    fields, *arrays = zip(*draws)
    field = SpinorField(np.stack(fields), batch=1)
    *potentials, phi = (np.stack(a, axis=1) for a in arrays)  # (steps, trial, *extents)
    gauge = gauge_type(*potentials, cfg.epsilon, batch=1)
    direct = evolve(field, gauge, mass, cfg.steps).amplitudes * np.exp(-1j * phi[-1])[..., None]
    routed = evolve(*transform(field, gauge, phi), mass, cfg.steps)
    return float(np.max(np.abs(direct - routed.amplitudes)))


def _gauge_check(cfg: ExperimentConfig) -> ResultTable:
    rng = np.random.default_rng(cfg.seed)
    plane = cfg.extents[1:] or (16, 12)  # load_config passes 1 or 3 extents
    residual_1d = _round_trip_residual(cfg, rng, cfg.extents[:1], GaugeField1D, 2, evolve_electric,
                                       gauge_transform_1d, cfg.mass)
    residual_2d = _round_trip_residual(cfg, rng, plane, GaugeField2D, 3, evolve_em, gauge_transform_2d,
                                       -cfg.epsilon * cfg.mass)
    return ResultTable(("trials", "steps", "max_residual_1d", "max_residual_2d"),
                       [(cfg.trials, cfg.steps, residual_1d, residual_2d)],
                       checks=(Check("gauge_invariance_1d", residual_1d, 1e-12, "<"),
                               Check("gauge_invariance_2d", residual_2d, 1e-12, "<")))


def _current_check(cfg: ExperimentConfig) -> ResultTable:
    rng = np.random.default_rng(cfg.seed)
    sites = cfg.extents[0]
    n1, n2 = cfg.extents[1:] or (14, 18)  # load_config passes 1 or 3 extents
    steps, eps = cfg.steps, cfg.epsilon

    field = _random_state(rng, (sites, 2))
    gauge = GaugeField1D(rng.normal(size=(steps, sites)), rng.normal(size=(steps, sites)), eps)
    residual_1d = 0.0
    for j in range(steps):
        nxt = electric_step_1d(field, gauge, cfg.mass, j)
        residual_1d = max(residual_1d, lattice_current(field, nxt, eps).residual)
        field = nxt

    field2 = _random_state(rng, (n1, n2, 2))
    gauge2 = GaugeField2D(*(rng.normal(size=(steps, n1, n2)) for _ in range(3)), eps)
    dtheta = -eps * cfg.mass
    residual_2d = 0.0
    for j in range(steps):
        residual_2d = max(residual_2d, lattice_current_2d(field2, gauge2, dtheta, j).residual)
        field2 = em_step_2d(field2, gauge2, dtheta, j)

    return ResultTable(("steps", "max_residual_1d", "max_residual_2d"), [(steps, residual_1d, residual_2d)],
                       checks=(Check("continuity_1d", residual_1d, 1e-12, "<"),
                               Check("continuity_2d", residual_2d, 1e-12, "<")))


def _nonabelian_check(cfg: ExperimentConfig) -> ResultTable:
    rng = np.random.default_rng(cfg.seed)
    sites, steps, eps = cfg.extents[0], cfg.steps, cfg.epsilon
    rows, checks = [], []
    for n in (1, 2, 3):  # every trial's state, potentials, g and mass drawn in that order, stepped as one batch
        draws = [(_random_state(rng, (sites, 2 * n)).amplitudes,
                  *(_random_hermitian(rng, (steps, sites, n, n)) for _ in range(2)),
                  _haar_unitary(rng, (steps + 1, sites, n, n)), float(rng.normal())) for _ in range(cfg.trials)]
        fields, b0, b1, gs, masses = zip(*draws)
        field, mass, g = SpinorField(np.stack(fields), batch=1), np.array(masses), np.stack(gs, axis=1)
        links = NonAbelianGaugeField(np.stack(b0, axis=1), np.stack(b1, axis=1), eps, batch=1).links()
        direct = color_rotate(evolve_nonabelian(field, links, mass, steps), g[-1])
        tfield, tlinks = gauge_transform_links(field, links, g)
        routed = evolve_nonabelian(tfield, tlinks, mass, steps)
        covariance, holonomy = float(np.max(np.abs(direct.amplitudes - routed.amplitudes))), 0.0
        for t, g0 in enumerate(g[0]):  # the holonomy takes one trial's links at a time
            hol, thol = (field_strength_holonomy(LinkField(u.u_plus[:, t], u.u_minus[:, t], eps), 0)
                         for u in (links, tlinks))
            holonomy = max(holonomy, float(np.max(np.abs(thol - g0 @ hol @ np.swapaxes(g0, -1, -2).conj()))))
        rows.append((n, covariance, holonomy))
        checks += (Check(f"covariance_n{n}", covariance, 1e-11, "<"),
                   Check(f"holonomy_covariance_n{n}", holonomy, 1e-11, "<"))

    # N = 1 reduction: links e^{-i eps B} against the scalar-potential walk
    b0 = rng.normal(size=(steps, sites))
    b1 = rng.normal(size=(steps, sites))
    gauge1 = NonAbelianGaugeField(b0[..., None, None].astype(complex), b1[..., None, None].astype(complex), eps)
    field = _random_state(rng, (sites, 2))
    mass = 0.7
    got = evolve_nonabelian(field, gauge1.links(), mass, steps)
    want = evolve_electric(SpinorField(field.amplitudes.copy()), GaugeField1D(b0, -b1, eps), mass, steps)
    reduction = float(np.max(np.abs(got.amplitudes - want.amplitudes)))
    checks.append(Check("abelian_reduction_n1", reduction, 1e-13, "<"))
    return ResultTable(("group_dim", "covariance_residual", "holonomy_residual"), rows, checks=tuple(checks))


# ---------------------------------------------------------------------------
# spectral and weak-field studies


def _sqrt_level_fit(levels: np.ndarray):
    """Least-squares c for E_n = c sqrt(n) plus the fit's R^2."""
    n = np.arange(1, len(levels) + 1, dtype=float)
    root = np.sqrt(n)
    c = float(np.sum(levels * root) / np.sum(n))
    ss_res = float(np.sum((levels - c * root) ** 2))
    ss_tot = float(np.sum((levels - np.mean(levels)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return c, r2


def _landau(cfg: ExperimentConfig) -> ResultTable:
    # one common box for the whole step-size sweep, else per-point box
    # errors contaminate the fit
    sweep = sorted(cfg.epsilons)
    box = landau_box_size(cfg.magnetic, min(sweep), 1)
    levels = landau_quasienergies(cfg.magnetic, cfg.epsilon, cfg.levels, sites=cfg.extents[0] or None)
    c, r2 = _sqrt_level_fit(levels)
    rows = [(n + 1, float(levels[n]), c * math.sqrt(n + 1)) for n in range(len(levels))]

    # step-size sweep of the lowest level: the linear-in-epsilon coefficient
    # must be dominated by the quadratic one
    ground = [float(landau_quasienergies(cfg.magnetic, e, 1, sites=box)[0]) for e in sweep]
    c2, c1, _ = np.polyfit(sweep, ground, 2)
    return ResultTable(("level", "energy", "sqrt_fit"), rows,
                       checks=(Check("sqrt_level_r2", r2, 0.99, ">"),
                               Check("linear_step_coefficient", abs(float(c1)), 0.1 * abs(c2) * max(sweep), "<")))


def _bloch(cfg: ExperimentConfig) -> ResultTable:
    trace = bloch_positions(cfg.electric, cfg.extents[0], cfg.steps)
    period = measured_period(trace)
    predicted = TAU / cfg.electric
    error = abs(period - predicted) / predicted
    return ResultTable(("step", "mean_x"), [(j + 1, x) for j, x in enumerate(trace)],
                       checks=(Check("bloch_period_relative_error", error, 0.10, "<"),))


def _exb(cfg: ExperimentConfig) -> ResultTable:
    trace = exb_positions(cfg.electric, cfg.magnetic, cfg.extents[:2], cfg.steps)
    t_lo = int(round(TAU * 0.25 / cfg.magnetic))  # skip one cyclotron transient
    t = np.arange(t_lo, cfg.steps)
    vy = float(np.polyfit(t, trace[t_lo:, 1], 1)[0])
    vx = float(np.polyfit(t, trace[t_lo:, 0], 1)[0])
    drift_error = abs(abs(vy) - cfg.electric) / cfg.electric
    rows = [(j + 1, float(x), float(y)) for j, (x, y) in enumerate(trace)]
    return ResultTable(("step", "center_x", "center_y"), rows,
                       checks=(Check("exb_drift_relative_error", drift_error, 0.15, "<"),
                               Check("exb_transverse_speed", abs(vx), 0.1, "<")))


def _rational_field(cfg: ExperimentConfig) -> ResultTable:
    sites, steps = cfg.extents[0], cfg.steps
    flux = cfg.flux % 1.0  # the walk sees e^{2 pi i flux x} at integer x; a flux of 1e12 and up swallowed the offset
    offset = 1e-3  # irrational-side detuning of the flux fraction
    pr_rational = rational_field_pr(flux, sites, steps)
    pr_detuned = rational_field_pr(flux + offset, sites, steps)
    noise = max(
        abs(rational_field_pr(flux, sites, steps, center_offset=d) - pr_rational)
        for d in (1, 2)
    )
    gap = abs(pr_rational - pr_detuned)
    return ResultTable(("flux", "participation_ratio"), [(flux, pr_rational), (flux + offset, pr_detuned)],
                       checks=(Check("participation_dichotomy", gap, 5.0 * max(noise, 1e-9), ">"),))


# ---------------------------------------------------------------------------
# curved spacetime


def _curved_schwarzschild(cfg: ExperimentConfig) -> ResultTable:
    sites, horizon = cfg.extents[0], cfg.horizon
    profile = schwarzschild_profile(sites, horizon)
    field = SpinorField.delta(sites, site=horizon, spin=(1.0, 1.0))
    rows = []
    for j in range(cfg.steps):
        field = curved_step_1p1(field, profile)
        rho = field.probability()
        near = float(np.sum(rho[horizon - 3 : horizon + 4]))
        infall = float(np.sum(rho[: horizon - 3]))
        escape = float(np.sum(rho[horizon + 4 :]))
        rows.append((j + 1, near, infall, escape))
    final_near = rows[-1][1] if rows else 1.0
    return ResultTable(("step", "near_fraction", "infall_fraction", "escape_fraction"), rows,
                       checks=(Check("horizon_localization", final_near, 0.45, ">="),))


def _gw_scan(cfg: ExperimentConfig) -> ResultTable:
    extents = cfg.extents[:2]
    scan = gw_wavelength_scan(
        cfg.wavelengths, extents, cfg.xi, cfg.polarization, cfg.base_speed
    )
    best, response_1 = max(scan, key=lambda item: item[1])

    state = gw_two_mode_state(math.pi / best, extents, cfg.base_speed)
    _, stationary = gw_relative_density_change(state, 0.0, cfg.polarization, cfg.base_speed)
    _, response_2 = gw_relative_density_change(state, 2 * cfg.xi, cfg.polarization, cfg.base_speed)
    ratio = response_2 / response_1

    # best is an integer wavelength, so "within 0.5 of 2.5" means best in (2, 3)
    return ResultTable(("wavelength", "max_density_change"), scan,
                       checks=(Check("scan_argmax_wavelength", float(best), 2.5, "within 0.5 of"),
                               Check("unperturbed_stationarity", stationary, 1e-10, "<"),
                               Check("amplitude_linearity_ratio", ratio, 2.0, "within 0.1 of")))


# ---------------------------------------------------------------------------
# measured walk and continuum limit


def _aharonov(cfg: ExperimentConfig) -> ResultTable:
    sites, steps = cfg.extents[0], cfg.steps
    p = cfg.spin_up_prob
    walk = AharonovConfig(
        spin_up=math.sqrt(p),
        spin_down=math.sqrt(1.0 - p) * np.exp(0.4j),
        coin_alpha=math.cos(cfg.coin_angle) * np.exp(-0.3j),
        coin_beta=math.sin(cfg.coin_angle) * np.exp(0.9j),
        coin_phase=0.7,
    )
    start = np.zeros(sites, dtype=np.complex128)
    start[sites // 2] = 1.0
    if steps <= 16:
        averaged = enumerate_averaged_distribution(start, walk, steps)
        tolerance = 1e-10
    else:
        averaged = sample_averaged_distribution(start, walk, steps, cfg.samples, cfg.seed)
        tolerance = 5.0 / math.sqrt(cfg.samples)
    classical = classical_rw_distribution(p, steps, np.abs(start) ** 2)
    gap = float(np.max(np.abs(averaged - classical)))
    rows = [
        (site, float(averaged[site]), float(classical[site])) for site in range(sites)
    ]
    return ResultTable(("site", "averaged", "classical"), rows,
                       checks=(Check("classical_equivalence", gap, tolerance, "<"),))


def _convergence(cfg: ExperimentConfig) -> ResultTable:
    free = walk_dirac_convergence(cfg.epsilons, cfg.mass, cfg.duration)
    electric = walk_dirac_convergence(
        cfg.epsilons, cfg.mass, cfg.duration, a1=lambda t: -cfg.electric * t
    )
    rows = [
        (float(e), float(free.errors[i]), float(electric.errors[i]))
        for i, e in enumerate(free.epsilons)
    ]
    return ResultTable(("epsilon", "error_free", "error_electric"), rows,
                       checks=(Check("order_free", free.order, 0.9, ">="),
                               Check("order_electric", electric.order, 0.9, ">=")))


_REGISTRY = {
    "evolve1d": _evolve1d,
    "evolve2d": _evolve2d,
    "dispersion": _dispersion,
    "gauge-check": _gauge_check,
    "current-check": _current_check,
    "landau": _landau,
    "bloch": _bloch,
    "exb": _exb,
    "rational-field": _rational_field,
    "nonabelian-check": _nonabelian_check,
    "curved-schwarzschild": _curved_schwarzschild,
    "gw-scan": _gw_scan,
    "aharonov": _aharonov,
    "convergence": _convergence,
}


def run(config: ExperimentConfig) -> ResultTable:
    """Dispatch to the registered experiment and stamp the metadata echo."""
    table = _REGISTRY[config.experiment](config)
    metadata = dict(config.echo())
    metadata["code_version"] = __version__
    table.metadata = metadata
    return table

"""Named experiment drivers behind the CLI.

Each driver maps a resolved :class:`~qwalk.config.ExperimentConfig` to a
:class:`~qwalk.table.ResultTable` of plain numbers, with pass/fail verdicts
attached as :class:`~qwalk.table.Check` entries (the CLI turns a failed check
into exit code 3).  Drivers only compute: every input range they rely on is
declared with the experiment in :mod:`qwalk.config` and checked by
``load_config`` before a driver runs.  Drivers are deterministic for a fixed
seed: randomness only ever comes from ``numpy.random.default_rng(config.seed)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .abelian import (
    GaugeField1D,
    GaugeField2D,
    bloch_positions,
    circular_mean_positions,
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


def _with_norm_drift(table: ResultTable) -> ResultTable:
    """Attach the norm_drift check over the `norm` column of a trajectory (none without rows)."""
    if table.rows:
        drift = max(abs(norm - 1.0) for norm in table.column("norm"))
        table.checks = (Check("norm_drift", drift, 1e-9, drift < 1e-9, "<"),)
    return table


def _evolve1d(cfg: ExperimentConfig) -> ResultTable:
    sites = cfg.extents[0]
    field = SpinorField.gaussian(sites, k0=cfg.momentum, spin=(1.0, 1.0j), width=8.0)
    a0 = np.zeros((max(cfg.steps, 1), sites))
    # uniform electric field in the temporal gauge: A1(t) = -E t
    a1 = np.broadcast_to(-(cfg.electric * cfg.epsilon) * np.arange(max(cfg.steps, 1))[:, None], a0.shape).copy()
    gauge = GaugeField1D(a0, a1, cfg.epsilon)
    positions = np.arange(sites)
    rows = []
    for j in range(cfg.steps):
        field = electric_step_1d(field, gauge, cfg.mass, j)
        prob = field.probability()
        mean = float(np.sum(positions * prob))
        spread = math.sqrt(max(float(np.sum((positions - mean) ** 2 * prob)), 0.0))
        rows.append((j + 1, field.norm_sq(), mean, spread))
    return _with_norm_drift(ResultTable(("step", "norm", "mean_x", "sigma_x"), rows))


def _evolve2d(cfg: ExperimentConfig) -> ResultTable:
    n1, n2 = cfg.extents[:2]
    delta_theta = -cfg.epsilon * cfg.mass
    field = positive_band_packet_2d((n1, n2), (0.0, cfg.momentum), delta_theta=delta_theta)
    gauge = landau_gauge(cfg.magnetic, 1, n1, n2, cfg.epsilon)
    rows = []
    for j in range(cfg.steps):
        field = em_step_2d(field, gauge, delta_theta, 0)
        x, y = circular_mean_positions(field.probability())
        rows.append((j + 1, field.norm_sq(), x, y))
    return _with_norm_drift(ResultTable(("step", "norm", "center_x", "center_y"), rows))


def _dispersion(cfg: ExperimentConfig) -> ResultTable:
    k = np.linspace(-math.pi, math.pi, cfg.samples, endpoint=False)
    e_plus, e_minus = dispersion(cfg.theta, cfg.coin_shift, k)
    symbol = walk_operator_fourier(k, CoinAngles(0.0, cfg.theta, cfg.coin_shift, 0.0))
    eigenvalues = np.linalg.eigvals(symbol)
    residual = 0.0
    for branch in (e_plus, e_minus):
        target = np.exp(-1j * branch)[:, None]
        residual = max(residual, float(np.max(np.min(np.abs(eigenvalues - target), axis=1))))
    rows = list(zip(k, e_plus, e_minus))
    table = ResultTable(("k", "E_plus", "E_minus"), rows)
    table.checks = (Check("symbol_eigenvalue_residual", residual, 1e-12, residual < 1e-12, "<"),)
    return table


# ---------------------------------------------------------------------------
# invariance checks


def _round_trip_residual(cfg, rng, extents, gauge_type, potentials, evolve, transform, mass) -> float:
    """Largest |e^{-i phi_end} U psi - U' psi'| over cfg.trials draws of psi, the potentials, phi (in order)."""
    residual = 0.0
    for _ in range(cfg.trials):
        field = _random_state(rng, extents + (2,))
        gauge = gauge_type(*(rng.normal(size=(cfg.steps,) + extents) for _ in range(potentials)), cfg.epsilon)
        phi = rng.normal(size=(cfg.steps + 1,) + extents)
        direct = evolve(field, gauge, mass, cfg.steps)
        direct = SpinorField(direct.amplitudes * np.exp(-1j * phi[-1])[..., None])
        tfield, tgauge = transform(field, gauge, phi)
        routed = evolve(tfield, tgauge, mass, cfg.steps)
        residual = max(residual, float(np.max(np.abs(direct.amplitudes - routed.amplitudes))))
    return residual


def _gauge_check(cfg: ExperimentConfig) -> ResultTable:
    rng = np.random.default_rng(cfg.seed)
    plane = cfg.extents[1:] or (16, 12)  # load_config passes 1 or 3 extents
    residual_1d = _round_trip_residual(cfg, rng, cfg.extents[:1], GaugeField1D, 2, evolve_electric,
                                       gauge_transform_1d, cfg.mass)
    residual_2d = _round_trip_residual(cfg, rng, plane, GaugeField2D, 3, evolve_em, gauge_transform_2d,
                                       -cfg.epsilon * cfg.mass)
    table = ResultTable(("trials", "steps", "max_residual_1d", "max_residual_2d"),
                        [(cfg.trials, cfg.steps, residual_1d, residual_2d)])
    table.checks = (
        Check("gauge_invariance_1d", residual_1d, 1e-12, residual_1d < 1e-12, "<"),
        Check("gauge_invariance_2d", residual_2d, 1e-12, residual_2d < 1e-12, "<"),
    )
    return table


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

    table = ResultTable(("steps", "max_residual_1d", "max_residual_2d"), [(steps, residual_1d, residual_2d)])
    table.checks = (
        Check("continuity_1d", residual_1d, 1e-12, residual_1d < 1e-12, "<"),
        Check("continuity_2d", residual_2d, 1e-12, residual_2d < 1e-12, "<"),
    )
    return table


def _nonabelian_check(cfg: ExperimentConfig) -> ResultTable:
    rng = np.random.default_rng(cfg.seed)
    sites, steps, eps = cfg.extents[0], cfg.steps, cfg.epsilon
    rows = []
    checks = []
    for n in (1, 2, 3):
        covariance = 0.0
        holonomy = 0.0
        for _ in range(cfg.trials):
            field = _random_state(rng, (sites, 2 * n))
            gauge = NonAbelianGaugeField(*(_random_hermitian(rng, (steps, sites, n, n)) for _ in range(2)), eps)
            links = gauge.links()
            g = _haar_unitary(rng, (steps + 1, sites, n, n))
            mass = float(rng.normal())
            direct = color_rotate(evolve_nonabelian(field, links, mass, steps), g[-1])
            tfield, tlinks = gauge_transform_links(field, links, g)
            routed = evolve_nonabelian(tfield, tlinks, mass, steps)
            covariance = max(covariance, float(np.max(np.abs(direct.amplitudes - routed.amplitudes))))
            hol = field_strength_holonomy(links, 0)
            thol = field_strength_holonomy(tlinks, 0)
            gd = np.swapaxes(g[0], -1, -2).conj()
            holonomy = max(holonomy, float(np.max(np.abs(thol - g[0] @ hol @ gd))))
        rows.append((n, covariance, holonomy))
        checks.append(Check(f"covariance_n{n}", covariance, 1e-11, covariance < 1e-11, "<"))
        checks.append(Check(f"holonomy_covariance_n{n}", holonomy, 1e-11, holonomy < 1e-11, "<"))

    # N = 1 reduction: links e^{-i eps B} against the scalar-potential walk
    b0 = rng.normal(size=(steps, sites))
    b1 = rng.normal(size=(steps, sites))
    gauge1 = NonAbelianGaugeField(b0[..., None, None].astype(complex), b1[..., None, None].astype(complex), eps)
    field = _random_state(rng, (sites, 2))
    mass = 0.7
    got = evolve_nonabelian(field, gauge1.links(), mass, steps)
    want = evolve_electric(SpinorField(field.amplitudes.copy()), GaugeField1D(b0, -b1, eps), mass, steps)
    reduction = float(np.max(np.abs(got.amplitudes - want.amplitudes)))
    checks.append(Check("abelian_reduction_n1", reduction, 1e-13, reduction < 1e-13, "<"))

    table = ResultTable(("group_dim", "covariance_residual", "holonomy_residual"), rows)
    table.checks = tuple(checks)
    return table


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
    sites = cfg.extents[0] or landau_box_size(cfg.magnetic, cfg.epsilon, cfg.levels)
    levels = landau_quasienergies(cfg.magnetic, cfg.epsilon, cfg.levels, sites=sites)
    c, r2 = _sqrt_level_fit(levels)
    rows = [(n + 1, float(levels[n]), c * math.sqrt(n + 1)) for n in range(len(levels))]

    # step-size sweep of the lowest level: the linear-in-epsilon coefficient
    # must be dominated by the quadratic one
    ground = [float(landau_quasienergies(cfg.magnetic, e, 1, sites=box)[0]) for e in sweep]
    c2, c1, _ = np.polyfit(sweep, ground, 2)
    linear_bound = 0.1 * abs(c2) * max(sweep)
    checks = (
        Check("sqrt_level_r2", r2, 0.99, r2 > 0.99, ">"),
        Check("linear_step_coefficient", abs(float(c1)), linear_bound,
              abs(float(c1)) < linear_bound, "<"),
    )
    table = ResultTable(("level", "energy", "sqrt_fit"), rows)
    table.checks = checks
    return table


def _bloch(cfg: ExperimentConfig) -> ResultTable:
    trace = bloch_positions(cfg.electric, cfg.extents[0], cfg.steps)
    period = measured_period(trace)
    predicted = TAU / cfg.electric
    error = abs(period - predicted) / predicted
    table = ResultTable(
        ("step", "mean_x"), [(j + 1, x) for j, x in enumerate(trace)]
    )
    table.checks = (Check("bloch_period_relative_error", error, 0.10, error < 0.10, "<"),)
    return table


def _exb(cfg: ExperimentConfig) -> ResultTable:
    trace = exb_positions(cfg.electric, cfg.magnetic, cfg.extents[:2], cfg.steps)
    t_lo = int(round(TAU * 0.25 / cfg.magnetic))  # skip one cyclotron transient
    t = np.arange(t_lo, cfg.steps)
    vy = float(np.polyfit(t, trace[t_lo:, 1], 1)[0])
    vx = float(np.polyfit(t, trace[t_lo:, 0], 1)[0])
    drift_error = abs(abs(vy) - cfg.electric) / cfg.electric
    rows = [(j + 1, float(x), float(y)) for j, (x, y) in enumerate(trace)]
    table = ResultTable(("step", "center_x", "center_y"), rows)
    table.checks = (
        Check("exb_drift_relative_error", drift_error, 0.15, drift_error < 0.15, "<"),
        Check("exb_transverse_speed", abs(vx), 0.1, abs(vx) < 0.1, "<"),
    )
    return table


def _rational_field(cfg: ExperimentConfig) -> ResultTable:
    sites, steps = cfg.extents[0], cfg.steps
    offset = 1e-3  # irrational-side detuning of the flux fraction
    pr_rational = rational_field_pr(cfg.flux, sites, steps)
    pr_detuned = rational_field_pr(cfg.flux + offset, sites, steps)
    noise = max(
        abs(rational_field_pr(cfg.flux, sites, steps, center_offset=d) - pr_rational)
        for d in (1, 2)
    )
    gap = abs(pr_rational - pr_detuned)
    bound = 5.0 * max(noise, 1e-9)
    table = ResultTable(
        ("flux", "participation_ratio"),
        [(cfg.flux, pr_rational), (cfg.flux + offset, pr_detuned)],
    )
    table.checks = (Check("participation_dichotomy", gap, bound, gap > bound, ">"),)
    return table


# ---------------------------------------------------------------------------
# curved spacetime


def _curved_schwarzschild(cfg: ExperimentConfig) -> ResultTable:
    sites, horizon = cfg.extents[0], cfg.horizon
    profile = schwarzschild_profile(sites, horizon)
    amps = np.zeros((sites, 2), dtype=np.complex128)
    amps[horizon] = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    field = SpinorField(amps)
    rows = []
    for j in range(cfg.steps):
        field = curved_step_1p1(field, profile)
        rho = field.probability()
        near = float(np.sum(rho[horizon - 3 : horizon + 4]))
        infall = float(np.sum(rho[: horizon - 3]))
        escape = float(np.sum(rho[horizon + 4 :]))
        rows.append((j + 1, near, infall, escape))
    table = ResultTable(("step", "near_fraction", "infall_fraction", "escape_fraction"), rows)
    final_near = rows[-1][1] if rows else 1.0
    table.checks = (
        Check("horizon_localization", final_near, 0.45, final_near >= 0.45, ">="),
    )
    return table


def _gw_scan(cfg: ExperimentConfig) -> ResultTable:
    extents = cfg.extents[:2]
    scan = gw_wavelength_scan(
        cfg.wavelengths, extents, cfg.xi, cfg.polarization, cfg.base_speed
    )
    rows = [(lam, change) for lam, change in scan]
    best = max(scan, key=lambda item: item[1])[0]

    state = gw_two_mode_state(math.pi / best, extents, cfg.base_speed)
    _, stationary = gw_relative_density_change(state, 0.0, cfg.polarization, cfg.base_speed)
    _, response_1 = gw_relative_density_change(state, cfg.xi, cfg.polarization, cfg.base_speed)
    _, response_2 = gw_relative_density_change(state, 2 * cfg.xi, cfg.polarization, cfg.base_speed)
    ratio = response_2 / response_1

    table = ResultTable(("wavelength", "max_density_change"), rows)
    table.checks = (
        Check("scan_argmax_wavelength", float(best), 2.5, best in (2, 3), "within 0.5 of"),
        Check("unperturbed_stationarity", stationary, 1e-10, stationary < 1e-10, "<"),
        Check("amplitude_linearity_ratio", ratio, 2.0, abs(ratio - 2.0) <= 0.1, "within 0.1 of"),
    )
    return table


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
    table = ResultTable(("site", "averaged", "classical"), rows)
    table.checks = (Check("classical_equivalence", gap, tolerance, gap < tolerance, "<"),)
    return table


def _convergence(cfg: ExperimentConfig) -> ResultTable:
    free = walk_dirac_convergence(cfg.epsilons, cfg.mass, cfg.duration)
    electric = walk_dirac_convergence(
        cfg.epsilons, cfg.mass, cfg.duration, a1=lambda t: -cfg.electric * t
    )
    rows = [
        (float(e), float(free.errors[i]), float(electric.errors[i]))
        for i, e in enumerate(free.epsilons)
    ]
    table = ResultTable(("epsilon", "error_free", "error_electric"), rows)
    table.checks = (
        Check("order_free", free.order, 0.9, free.order >= 0.9, ">="),
        Check("order_electric", electric.order, 0.9, electric.order >= 0.9, ">="),
    )
    return table


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

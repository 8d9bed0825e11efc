"""Named experiment drivers behind the CLI.

Each driver maps a resolved :class:`~qwalk.config.ExperimentConfig` to a
:class:`~qwalk.table.ResultTable` of plain numbers, built whole with its
:class:`~qwalk.table.Check` entries.  A check states its criterion once, as a
value, a bound and a comparison; its verdict is derived from them, and the CLI
turns a failed check into exit code 3.  ``_DECLARATIONS``, after the drivers,
is the one table of experiments: the keys each driver reads with their
defaults, the input checks that ``config.load_config`` runs first, and the
driver, so drivers only compute.  Drivers are deterministic for a fixed seed:
randomness only ever comes from ``numpy.random.default_rng(config.seed)``.
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
from .curved import (
    evolve_1p1,
    gw_relative_density_change,
    gw_two_mode_state,
    gw_wavelength_scan,
    schwarzschild_profile,
)
from .dirac import _walk_grid, walk_dirac_convergence
from .lattice import TAU, CoinAngles, SpinorField, dispersion, walk_operator_fourier
from .measured import (
    ENUMERATION_LIMIT,
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
    plane = cfg.extents[1:] or _DECLARATIONS["gauge-check"][0]["extents"][1:]  # 1 extent: the default plane
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
    n1, n2 = cfg.extents[1:] or _DECLARATIONS["current-check"][0]["extents"][1:]  # 1 extent: the default plane
    steps, eps = cfg.steps, cfg.epsilon

    field = _random_state(rng, (sites, 2))
    gauge = GaugeField1D(rng.normal(size=(steps, sites)), rng.normal(size=(steps, sites)), eps)
    last, residual_1d = field, 0.0

    def probe(j, nxt):  # keeps the last field only, so memory does not grow with the steps
        nonlocal last, residual_1d
        residual_1d, last = max(residual_1d, lattice_current(last, nxt, eps).residual), nxt
    evolve_electric(field, gauge, cfg.mass, steps, probe=probe)

    field2 = _random_state(rng, (n1, n2, 2))
    gauge2 = GaugeField2D(*(rng.normal(size=(steps, n1, n2)) for _ in range(3)), eps)
    dtheta = -eps * cfg.mass
    residual_2d = 0.0
    for j in range(steps):  # the current's stepped field is em_step_2d's, bit for bit
        current = lattice_current_2d(field2, gauge2, dtheta, j)
        residual_2d, field2 = max(residual_2d, current.residual), current.stepped

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
        covariance = float(np.max(np.abs(direct.amplitudes - routed.amplitudes)))
        hol, thol = field_strength_holonomy(links, 0), field_strength_holonomy(tlinks, 0)
        holonomy = float(np.max(np.abs(thol - g[0] @ hol @ np.swapaxes(g[0], -1, -2).conj())))
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


def _exb_fit_start(c) -> int:
    """The step that exb's drift fit starts at, after one cyclotron transient; min() keeps round() finite."""
    return round(min(TAU * 0.25 / c.magnetic, c.steps))


def _exb(cfg: ExperimentConfig) -> ResultTable:
    trace = exb_positions(cfg.electric, cfg.magnetic, cfg.extents[:2], cfg.steps)
    t_lo = _exb_fit_start(cfg)
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

_NEAR = 3  # sites on each side of the horizon that curved-schwarzschild counts as near it


def _curved_schwarzschild(cfg: ExperimentConfig) -> ResultTable:
    sites, horizon = cfg.extents[0], cfg.horizon
    profile = schwarzschild_profile(sites, horizon)
    field = SpinorField.delta(sites, site=horizon, spin=(1.0, 1.0))
    rows, lo, hi = [], horizon - _NEAR, horizon + _NEAR + 1

    def probe(j, field):  # the near, infall and escape fractions after step j
        rho = field.probability()
        rows.append((j + 1, float(np.sum(rho[lo:hi])), float(np.sum(rho[:lo])), float(np.sum(rho[hi:]))))
    evolve_1p1(field, profile, cfg.steps, probe=probe)
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
    if steps <= ENUMERATION_LIMIT:
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


# ---------------------------------------------------------------------------
# the table of experiments: the keys a driver reads with their defaults, (condition, message) checks that
# config.load_config runs in order after the config._RANGES of those keys (a message is a string or a function
# of the config), and the driver

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
                 _LATTICE, _evolve1d),
    "evolve2d": ({"steps": 100, "extents": (64, 64), "epsilon": 1.0, "mass": 0.0, "magnetic": 0.0,
                  "momentum": 0.5}, _LATTICE + _PLANE, _evolve2d),
    "dispersion": ({"samples": 256, "theta": 0.0, "coin_shift": 0.0}, (), _dispersion),
    "gauge-check": ({"steps": 50, "trials": 20, "extents": (64, 16, 12), "epsilon": 0.5, "mass": 0.8},
                    _SITES_THEN_PLANE + _LATTICE + (
        (lambda c: c.epsilon >= 1e-300,
         "gauge-check needs epsilon >= 1e-300: the gauge transform divides phase differences by epsilon"),
    ), _gauge_check),
    "current-check": ({"steps": 8, "extents": (48, 14, 18), "epsilon": 0.5, "mass": 0.9},
                      _SITES_THEN_PLANE + _LATTICE + (
        (lambda c: c.epsilon >= 1e-3,
         "current-check needs epsilon >= 1e-3: the continuity residual is divided by epsilon, "
         "so smaller steps lift rounding toward the 1e-12 bound"),
    ), _current_check),
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
    ), _landau),
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
    ), _bloch),
    "exb": ({"steps": 480, "extents": (96, 384), "electric": 0.3, "magnetic": TAU / 256}, _LATTICE + (
        (lambda c: c.magnetic > 0, "exb needs magnetic > 0 (the flux per plaquette)"),
        (lambda c: c.electric > 0, "exb needs electric > 0 (the drift speed E/B it measures)"),
    ) + _PLANE + (
        (lambda c: _exb_fit_start(c) < c.steps - 8, "steps too small: need more than one cyclotron period"),
    ), _exb),
    "rational-field": ({"steps": 100, "extents": (64,), "flux": 0.25}, _LATTICE + (
        (lambda c: c.extents[0] >= 5,
         "rational-field needs at least 5 sites: the noise probe moves the source 2 sites"),
        (lambda c: c.steps >= 2, "rational-field needs at least 2 steps: "
                                 "the flux reaches the density only from the second step"),
    ), _rational_field),
    "nonabelian-check": ({"steps": 30, "trials": 3, "extents": (24,), "epsilon": 0.5}, _LATTICE + (
        (lambda c: c.steps >= 2,
         "nonabelian-check needs at least 2 steps: the holonomy spans two time slices"),
    ), _nonabelian_check),
    "curved-schwarzschild": ({"steps": 200, "extents": (512,), "horizon": 80}, _LATTICE + (
        (lambda c: _NEAR < c.horizon < c.extents[0] - _NEAR,
         f"horizon must lie inside the lattice with a {_NEAR}-site margin"),
        (lambda c: c.steps >= 1, "curved-schwarzschild needs at least 1 step: without one its check is vacuous"),
    ), _curved_schwarzschild),
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
    ), _gw_scan),
    "aharonov": ({"steps": 10, "samples": 2000, "extents": (32,), "spin_up_prob": 0.6, "coin_angle": 0.8},
                 _LATTICE + (
        (lambda c: 0.0 <= c.spin_up_prob <= 1.0, "spin_up_prob must lie in [0, 1]"),
    ), _aharonov),
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
    ), _convergence),
}


def run(config: ExperimentConfig) -> ResultTable:
    """Run the experiment's driver and stamp the metadata echo."""
    table = _DECLARATIONS[config.experiment][2](config)
    metadata = dict(config.echo())
    metadata["code_version"] = __version__
    table.metadata = metadata
    return table

"""Tests for the curved-spacetime walks: triads, horizons, spin connection, GW response."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.abelian import GaugeField2D, em_step_2d
from qwalk.curved import (
    CurvedCoinProfile,
    MetricField2D,
    Triad,
    _triad_entries,
    coin_angles_from_triad,
    curved_step_1p1,
    curved_step_1p2,
    dreibein_from_metric,
    evolve_1p1,
    evolve_1p2,
    gw_metric,
    gw_relative_density_change,
    gw_two_mode_state,
    gw_wavelength_scan,
    reflection_coin,
    schwarzschild_profile,
    spin_connection,
    spinor_weight,
    triad_from_metric,
    two_step_dispersion_1p1,
    walk_symbol_1p1,
    walk_symbol_1p2,
)
from qwalk.lattice import SIGMA1, SIGMA2, SIGMA3, SpinorField, build_coin_euler, step

TAU = 2.0 * math.pi


def random_state_2d(rng, n1, n2):
    amps = rng.normal(size=(n1, n2, 2)) + 1j * rng.normal(size=(n1, n2, 2))
    return SpinorField(amps).normalized()


def random_metric(rng, nt, nx, ny):
    gxx = -(0.5 + 3.0 * rng.random((nt, nx, ny)))
    gyy = -(0.5 + 3.0 * rng.random((nt, nx, ny)))
    frac = 0.9 * (2.0 * rng.random((nt, nx, ny)) - 1.0)
    gxy = frac * np.sqrt(gxx * gyy)
    return MetricField2D(gxx, gyy, gxy)


# ---------------------------------------------------------------------------
# triads and dreibeins


def test_flat_metric_gives_unit_triad():
    triad = triad_from_metric(MetricField2D.flat((4, 4)))
    assert np.allclose(triad.e1, 1.0) and np.allclose(triad.e2, 1.0)
    assert np.allclose(triad.b, 0.0)


def test_isotropic_scaling_halves_triad():
    triad = triad_from_metric(MetricField2D.constant(-4.0, -4.0, 0.0, (4, 4)))
    assert np.allclose(triad.e1, 0.5) and np.allclose(triad.e2, 0.5)
    assert np.allclose(triad.b, 0.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dreibein_times_triad_is_identity(seed):
    rng = np.random.default_rng(seed)
    metric = random_metric(rng, 2, 5, 4)
    e = dreibein_from_metric(metric)
    recon = np.einsum("...ij,...jk->...ik", e, triad_from_metric(metric).matrix())
    assert np.abs(recon - np.eye(2)).max() < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dreibein_squares_to_negated_metric(seed):
    rng = np.random.default_rng(seed)
    metric = random_metric(rng, 1, 4, 6)
    e = dreibein_from_metric(metric)
    g = np.einsum("...ij,...jk->...ik", e, e)
    assert np.abs(-g[..., 0, 0] - metric.g_xx).max() < 1e-10
    assert np.abs(-g[..., 1, 1] - metric.g_yy).max() < 1e-10
    assert np.abs(-g[..., 0, 1] - metric.g_xy).max() < 1e-10


def test_metric_rejects_positive_gxx_with_node():
    gxx = -np.ones((1, 3, 3))
    gxx[0, 1, 2] = 0.5
    with pytest.raises(ValueError, match=r"\(0, 1, 2\)"):
        MetricField2D(gxx, -np.ones((1, 3, 3)), np.zeros((1, 3, 3)))


def test_metric_rejects_indefinite_block_with_node():
    gxy = np.zeros((1, 3, 3))
    gxy[0, 2, 0] = 1.5
    with pytest.raises(ValueError, match=r"\(0, 2, 0\)"):
        MetricField2D(-np.ones((1, 3, 3)), -np.ones((1, 3, 3)), gxy)


def test_triad_rejects_positive_definite_block_with_node():
    g = np.full((1, 2, 2), 2.0)
    with pytest.raises(ValueError, match=r"2 sqrt\(G\) - Sigma"):
        _triad_entries(g, g, np.zeros((1, 2, 2)))


def test_metric_of_plane_arrays_is_one_time_sample():
    metric = MetricField2D(-np.ones((5, 3)), -np.ones((5, 3)), np.zeros((5, 3)))
    assert metric.times == 1
    assert metric.extents == (5, 3)
    assert metric.g_xx.shape == (1, 5, 3)


def test_spinor_weight():
    assert np.allclose(spinor_weight(MetricField2D.flat((3, 3))), 1.0)
    assert np.allclose(spinor_weight(MetricField2D.constant(-4.0, -4.0, 0.0, (3, 3))), 2.0)


# ---------------------------------------------------------------------------
# (1+1)D reflection walk


def test_reflection_coin_is_two_step_unitary():
    for theta in (0.0, 0.3, 1.2):
        b = reflection_coin(theta)
        assert np.abs(b.conj().T @ b - np.eye(2)).max() < 1e-15
        assert np.abs(b @ b - np.eye(2)).max() < 1e-15  # k = 2 cycle
        assert np.abs(b - np.eye(2)).max() > 0.5  # never the k = 1 identity
        assert abs(np.linalg.det(b) + 1.0) < 1e-14


def test_zero_angle_two_steps_is_pure_transport():
    rng = np.random.default_rng(3)
    field = SpinorField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))).normalized()
    profile = CurvedCoinProfile(np.zeros(16))
    out = evolve_1p1(field, profile, 2)
    expect = np.empty_like(field.amplitudes)
    expect[:, 0] = np.roll(field.amplitudes[:, 0], -2)
    expect[:, 1] = np.roll(field.amplitudes[:, 1], +2)
    assert np.abs(out.amplitudes - expect).max() < 1e-15


def test_reflection_walk_is_euler_family_member():
    # B(theta) equals the Euler coin (pi/2, theta, pi/2, 0)
    rng = np.random.default_rng(5)
    field = SpinorField(rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))).normalized()
    theta = 0.7
    out_c = curved_step_1p1(field, CurvedCoinProfile(np.full(32, theta)), 0)
    out_e = step(field, build_coin_euler(math.pi / 2, theta, math.pi / 2, 0.0))
    assert np.abs(out_c.amplitudes - out_e.amplitudes).max() < 1e-13


@given(theta=st.floats(0.0, 1.5), k=st.floats(-math.pi, math.pi))
@settings(max_examples=60, deadline=None)
def test_two_step_spectrum_squares_one_step(theta, k):
    w1 = walk_symbol_1p1(k, theta)
    lam1 = np.linalg.eigvals(w1)
    lam2 = np.linalg.eigvals(w1 @ w1)
    for lam in lam2:
        assert min(abs(lam - mu**2) for mu in lam1) < 1e-10
    energy = two_step_dispersion_1p1(theta, k)
    assert min(abs(np.cos(np.angle(l)) - math.cos(energy)) for l in lam2) < 1e-12


def test_profile_rejects_angles_outside_range():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        CurvedCoinProfile(np.array([0.0, 0.1, 0.2, 1.6]))
    speed = schwarzschild_profile(64, 20.0).speed
    assert speed.min() > 0.0 and speed.max() <= 1.0


def test_schwarzschild_walker_splits_but_stays_near_horizon():
    sites, rs = 512, 80
    profile = schwarzschild_profile(sites, float(rs))
    field = SpinorField.delta((sites,), site=rs, spin=(1.0, 1.0))
    rho = evolve_1p1(field, profile, 200).probability()
    assert abs(rho.sum() - 1.0) < 1e-12
    near = rho[rs - 3 : rs + 4].sum()
    assert near >= 0.45  # horizon-pinned fraction
    # the rest visibly departs on both sides of the horizon
    assert rho[: rs - 3].sum() > 0.10
    assert rho[rs + 4 :].sum() > 0.10


# ---------------------------------------------------------------------------
# spin connection


def test_spin_connection_vanishes_for_constant_metric():
    metric = MetricField2D.constant(-2.0, -3.0, 0.4, (5, 5))
    triad = triad_from_metric(metric)
    for mu in range(3):
        assert np.abs(spin_connection(metric, triad, mu)).max() == 0.0


def test_spin_connection_vanishes_for_diagonal_conformal_metric():
    # diagonal metric + symmetric frame pair each leg with itself, and
    # S^{aa} = 0, so the connection is identically zero
    nt, nx, ny = 8, 4, 4
    a2 = (1.5 + 0.3 * np.cos(TAU * np.arange(nt) / nt)) ** 2
    g = -np.broadcast_to(a2[:, None, None], (nt, nx, ny)).copy()
    metric = MetricField2D(g, g.copy(), np.zeros((nt, nx, ny)))
    triad = triad_from_metric(metric)
    for mu in range(3):
        assert np.abs(spin_connection(metric, triad, mu)).max() == 0.0


def _exact_samples(nt, nx, ny):
    """Metric samples that are exact at integer nodes (cos/sin of multiples of pi/2)."""
    t = sp.Symbol("t")
    x = sp.Symbol("x")
    y = sp.Symbol("y")
    gxx = -2 - sp.Rational(3, 10) * sp.cos(2 * sp.pi * x / nx) - sp.Rational(1, 10) * sp.sin(2 * sp.pi * t / nt)
    gyy = -2 - sp.Rational(1, 5) * sp.sin(2 * sp.pi * y / ny)
    gxy = sp.Rational(1, 4) * sp.cos(2 * sp.pi * x / nx) * sp.cos(2 * sp.pi * y / ny) \
        + sp.Rational(1, 10) * sp.sin(2 * sp.pi * t / nt)
    return (t, x, y), (gxx, gyy, gxy)


def _sympy_connection(node, mu, nt, nx, ny):
    """The same contraction evaluated in exact arithmetic at one node."""
    (t, x, y), exprs = _exact_samples(nt, nx, ny)
    periods = (nt, nx, ny)

    def g_at(p):
        subs = {t: p[0] % nt, x: p[1] % nx, y: p[2] % ny}
        gxx, gyy, gxy = (e.subs(subs) for e in exprs)
        return sp.Matrix([[1, 0, 0], [0, gxx, gxy], [0, gxy, gyy]])

    def frame_at(p):
        g = g_at(p)
        gxx, gyy, gxy = g[1, 1], g[2, 2], g[1, 2]
        det = gxx * gyy - gxy**2
        root = sp.sqrt(det)
        den = root * sp.sqrt(2 * root - gxx - gyy)
        e1, e2, b = (-gyy + root) / den, (-gxx + root) / den, gxy / den
        return sp.Matrix([[1, 0, 0], [0, e1, b], [0, b, e2]])

    unit = [0, 0, 0]
    unit[mu] = 1
    plus = tuple(n + d for n, d in zip(node, unit))
    minus = tuple(n - d for n, d in zip(node, unit))
    dlow = (g_at(plus) * frame_at(plus).T - g_at(minus) * frame_at(minus).T) / 2
    contraction = frame_at(node) * dlow  # M[a, b] = E_a^alpha d(g E_b)_alpha
    gammas = [sp.Matrix(SIGMA1), sp.I * sp.Matrix(SIGMA2), sp.I * sp.Matrix(SIGMA3)]
    total = sp.zeros(2, 2)
    for a in range(3):
        for b in range(3):
            s_ab = (gammas[a] * gammas[b] - gammas[b] * gammas[a]) / 4
            total += sp.Rational(1, 2) * contraction[a, b] * s_ab
    return np.array(sp.N(total, 20)).astype(np.complex128)


def test_spin_connection_matches_symbolic_oracle():
    nt, nx, ny = 4, 4, 4
    syms, exprs = _exact_samples(nt, nx, ny)
    grid = np.meshgrid(np.arange(nt), np.arange(nx), np.arange(ny), indexing="ij")
    fns = [sp.lambdify(syms, e, "numpy") for e in exprs]
    metric = MetricField2D(*(np.asarray(f(*grid), dtype=float) for f in fns))
    triad = triad_from_metric(metric)
    node = (1, 2, 3)
    for mu in range(3):
        got = spin_connection(metric, triad, mu)
        assert np.abs(got).max() > 1e-4  # oracle compares nonzero data
        want = _sympy_connection(node, mu, nt, nx, ny)
        assert np.abs(got[node] - want).max() < 1e-12


def test_spin_connection_symmetric_part_drops_out():
    # recompute the contraction by hand and check the symmetrized part
    # contributes nothing (S^{ab} antisymmetry)
    rng = np.random.default_rng(11)
    metric = random_metric(rng, 4, 4, 4)
    triad = triad_from_metric(metric)
    shape = metric.g_xx.shape
    frame = np.zeros(shape + (3, 3))
    frame[..., 0, 0] = 1.0
    frame[..., 1, 1] = triad.e1
    frame[..., 1, 2] = triad.b
    frame[..., 2, 1] = triad.b
    frame[..., 2, 2] = triad.e2
    g = np.zeros(shape + (3, 3))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = metric.g_xx
    g[..., 1, 2] = g[..., 2, 1] = metric.g_xy
    g[..., 2, 2] = metric.g_yy
    lowered = np.einsum("...ab,...cb->...ca", g, frame)
    for mu in range(3):
        dlow = (np.roll(lowered, -1, axis=mu) - np.roll(lowered, +1, axis=mu)) / 2.0
        m = np.einsum("...ac,...bc->...ab", frame, dlow)
        sym = (m + m.swapaxes(-1, -2)) / 2.0
        anti = (m - m.swapaxes(-1, -2)) / 2.0
        gammas = (SIGMA1, 1j * SIGMA2, 1j * SIGMA3)
        table = np.zeros((3, 3, 2, 2), dtype=np.complex128)
        for a in range(3):
            for b in range(3):
                table[a, b] = (gammas[a] @ gammas[b] - gammas[b] @ gammas[a]) / 4.0
        assert np.abs(0.5 * np.einsum("...ab,abij->...ij", sym, table)).max() < 1e-12
        rebuilt = 0.5 * np.einsum("...ab,abij->...ij", anti, table)
        assert np.abs(rebuilt - spin_connection(metric, triad, mu)).max() < 1e-12


# ---------------------------------------------------------------------------
# (1+2)D curved walk


def test_flat_triad_angles():
    angles = coin_angles_from_triad(Triad(np.ones((1, 2, 2)), np.ones((1, 2, 2)), np.zeros((1, 2, 2))))
    assert np.abs(angles.v).max() == 0.0
    assert np.allclose(angles.q1, math.pi / 4) and np.allclose(angles.q3, math.pi / 4)
    assert np.allclose(angles.q2, -math.pi / 4) and np.allclose(angles.q4, -math.pi / 4)


def test_flat_triad_walk_matches_free_em_walk():
    rng = np.random.default_rng(21)
    n = 16
    field = random_state_2d(rng, n, n)
    triad = triad_from_metric(MetricField2D.flat((n, n)))
    zeros = np.zeros((2, n, n))
    gauge = GaugeField2D(zeros, zeros.copy(), zeros.copy(), 1.0)
    for j in range(2):  # both parities reduce to the same free step
        curved = curved_step_1p2(field, triad, j=j)
        flat = em_step_2d(field, gauge, 0.0, j)
        assert np.abs(curved.amplitudes - flat.amplitudes).max() < 1e-13
        field = curved


def test_angles_reject_superluminal_triad_with_node():
    e1 = np.ones((1, 3, 3))
    e1[0, 1, 1] = 1.2
    with pytest.raises(ValueError, match="light cone"):
        coin_angles_from_triad(Triad(e1, np.ones((1, 3, 3)), np.zeros((1, 3, 3))))


@given(
    e1=st.floats(0.1, 0.9),
    e2=st.floats(0.1, 0.9),
    b=st.floats(-0.3, 0.3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_two_step_generator_is_triad_dirac_hamiltonian(e1, e2, b, seed):
    if np.hypot(e1, b) > 0.99 or np.hypot(e2, b) > 0.99:
        return
    rng = np.random.default_rng(seed)
    k = 1e-4 * (rng.random(2) - 0.5)
    w2 = walk_symbol_1p2(k[0], k[1], e1, e2, b, parity=1) @ walk_symbol_1p2(k[0], k[1], e1, e2, b, parity=0)
    anti = (w2 - w2.conj().T) / 2j
    target = 2.0 * (k[0] * (e1 * SIGMA3 - b * SIGMA2) + k[1] * (b * SIGMA3 - e2 * SIGMA2))
    assert np.abs(anti - target).max() < 5e-7  # O(k^2) residual at |k| ~ 1e-4


def test_mass_term_at_zero_momentum():
    from scipy.linalg import expm

    em = 0.02
    w2 = walk_symbol_1p2(0, 0, 0.8, 0.9, 0.2, mass=em, parity=1) @ \
        walk_symbol_1p2(0, 0, 0.8, 0.9, 0.2, mass=em, parity=0)
    assert np.abs(w2 - expm(-2j * em * SIGMA1)).max() < 1e-12


# evolve_1p2 used to end in a numpy broadcast error
@pytest.mark.parametrize("stepper", [curved_step_1p2, evolve_1p2])
def test_1p2_steppers_reject_a_field_off_the_triad_lattice(stepper):
    triad = triad_from_metric(MetricField2D.flat((8, 8)))
    field = SpinorField(np.ones((8, 6, 2), dtype=complex))
    with pytest.raises(ValueError, match=r"triad extents \(8, 8\) do not match field extents \(8, 6\)"):
        stepper(field, triad, 0.1)


def test_evolve_matches_composed_steps():
    rng = np.random.default_rng(8)
    metric = random_metric(rng, 3, 8, 8)
    # rescale so the frame speeds stay inside the light cone
    metric = MetricField2D(16.0 * metric.g_xx, 16.0 * metric.g_yy, 16.0 * metric.g_xy)
    triad = triad_from_metric(metric)
    field = random_state_2d(rng, 8, 8)
    out = field
    for j in range(3):
        out = curved_step_1p2(out, triad, mass=0.1, j=j)
    fast = evolve_1p2(field, triad, mass=0.1, steps=3)
    assert np.abs(out.amplitudes - fast.amplitudes).max() == 0.0


def test_group_speed_scales_with_triad():
    # packet displacement under E1 = 1/2 vs flat, carrier k0 = 0.2
    nx, ny, steps, k0, x0 = 384, 8, 200, 0.2, 64
    x = np.arange(nx, dtype=float)
    envelope = np.exp(-((x - x0) ** 2) / (2.0 * 12.0**2) + 1j * k0 * x)

    def displacement(scale):
        metric = MetricField2D.constant(-scale, -scale, 0.0, (nx, ny))
        triad = triad_from_metric(metric)
        e1 = triad.e1[0, 0, 0]
        w2 = walk_symbol_1p2(k0, 0.0, e1, e1, 0.0, parity=1) @ walk_symbol_1p2(k0, 0.0, e1, e1, 0.0, parity=0)
        lam, vec = np.linalg.eig(w2)
        energy = math.acos(1.0 - 2.0 * e1**2 * math.sin(k0) ** 2)
        spin = vec[:, int(np.argmin(np.abs(lam - np.exp(-1j * energy))))]
        amps = envelope[:, None, None] * spin
        field = SpinorField(np.broadcast_to(amps, (nx, ny, 2)).copy()).normalized()
        rho = evolve_1p2(field, triad, steps=steps).probability().sum(axis=1)
        return float(np.sum(x * rho)) - x0

    ratio = displacement(4.0) / displacement(1.0)
    assert abs(ratio - 0.5) < 0.05  # within 10% of the E1 = 1/2 scaling


def test_unitarity_with_varying_triad():
    rng = np.random.default_rng(17)
    n = 32
    xg = TAU * np.arange(n) / n
    gxx = -((1.4 + 0.25 * np.cos(xg))[None, :, None] * np.ones((1, n, n)))
    gyy = -((1.5 + 0.2 * np.sin(xg))[None, None, :] * np.ones((1, n, n)))
    gxy = 0.1 * np.cos(xg)[None, :, None] * np.sin(xg)[None, None, :]
    triad = triad_from_metric(MetricField2D(gxx, gyy, gxy))
    field = random_state_2d(rng, n, n)
    out = evolve_1p2(field, triad, mass=0.05, steps=1000)
    assert abs(out.norm_sq() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# gravitational-wave response


def test_two_mode_state_constructs_on_spec_lattice():
    state = gw_two_mode_state(TAU / 4.0, (64, 64))
    assert state.extents == (64, 64)
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_two_mode_state_rejects_inadmissible_k():
    with pytest.raises(ValueError, match="multiple"):
        gw_two_mode_state(0.1, (64, 64))


def test_two_mode_density_is_diagonal_interference_pattern():
    state = gw_two_mode_state(math.pi / 2.0, (32, 32))
    rho = state.probability()
    # two-wave pattern depends on x - y only: constant along the main diagonal
    assert np.abs(rho - np.roll(np.roll(rho, 1, axis=0), 1, axis=1)).max() < 1e-12
    assert rho.max() - rho.min() > 1e-3  # and it does modulate


def test_two_mode_state_is_stationary_without_perturbation():
    for pol in ("plus", "cross"):
        state = gw_two_mode_state(math.pi / 3.0, (96, 96))
        _, change = gw_relative_density_change(state, 0.0, polarization=pol)
        assert change < 1e-10


def test_density_change_is_linear_in_xi():
    for pol in ("plus", "cross"):
        state = gw_two_mode_state(math.pi / 2.0, (64, 64))
        _, r1 = gw_relative_density_change(state, 0.01, polarization=pol)
        _, r2 = gw_relative_density_change(state, 0.02, polarization=pol)
        assert r1 > 0.0
        assert abs(r2 / r1 - 2.0) < 0.1  # doubling within 5% of linear


def test_xi_out_of_range_rejected():
    state = gw_two_mode_state(math.pi / 2.0, (16, 16))
    with pytest.raises(ValueError, match="xi"):
        gw_relative_density_change(state, 0.2)


def test_wavelength_scan_peaks_at_short_wavelengths():
    scan = gw_wavelength_scan()
    best = max(scan, key=lambda pair: pair[1])[0]
    assert best in (2, 3)
    responses = [r for _, r in scan]
    assert responses[-1] < 0.1 * responses[0]  # decays toward the continuum


def test_wavelength_scan_rejects_inadmissible_wavelength():
    with pytest.raises(ValueError, match="inadmissible"):
        gw_wavelength_scan(wavelengths=(5,), extents=(96, 96))


def test_gw_metric_polarizations():
    plus = gw_metric((4, 4), 0.02, "plus", base_speed=0.8)
    assert np.allclose(plus.g_xy, 0.0)
    assert plus.g_xx[0, 0, 0] != plus.g_yy[0, 0, 0]
    cross = gw_metric((4, 4), 0.02, "cross", base_speed=0.8)
    assert np.allclose(cross.g_xx, cross.g_yy)
    assert cross.g_xy[0, 0, 0] != 0.0
    with pytest.raises(ValueError, match="polarization"):
        gw_metric((4, 4), 0.02, "circular")

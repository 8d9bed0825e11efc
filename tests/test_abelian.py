"""Tests for the Abelian-coupled walks: gauge closure, currents, spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.abelian import (
    GaugeField1D,
    GaugeField2D,
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
    lattice_derivative,
    lattice_field_strength,
    measured_period,
    rational_field_pr,
    weak_field_ok,
)
from qwalk.lattice import SpinorField, standard_coin

TAU = 2.0 * math.pi


def random_state_1d(rng, sites):
    amps = rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))
    return SpinorField(amps).normalized()


def random_state_2d(rng, n1, n2):
    amps = rng.normal(size=(n1, n2, 2)) + 1j * rng.normal(size=(n1, n2, 2))
    return SpinorField(amps).normalized()


# ---------------------------------------------------------------------------
# single-step behaviour


def test_zero_field_step_is_shift():
    field = SpinorField.delta(8, site=3, spin=(1.0, 0.0))
    gauge = GaugeField1D.zero(1, 8)
    out = electric_step_1d(field, gauge, mass=0.0, j=0)
    assert abs(out.amplitudes[2, 0] - 1.0) < 1e-15
    assert np.sum(np.abs(out.amplitudes) > 0) == 1


def test_constant_scalar_potential_is_global_phase():
    rng = np.random.default_rng(7)
    field = random_state_1d(rng, 16)
    gauge = GaugeField1D.zero(10, 16, epsilon=0.5)
    gauge.a0[:] = 0.8  # dalpha = 0.4 per step
    free = GaugeField1D.zero(10, 16, epsilon=0.5)
    driven = evolve_electric(field, gauge, mass=0.3, steps=10)
    ref = evolve_electric(field, free, mass=0.3, steps=10)
    np.testing.assert_allclose(
        driven.amplitudes, np.exp(1j * 0.4 * 10) * ref.amplitudes, atol=1e-13
    )


def test_electric_step_unitary():
    rng = np.random.default_rng(11)
    field = random_state_1d(rng, 32)
    gauge = GaugeField1D(
        rng.normal(size=(5, 32)), rng.normal(size=(5, 32)), epsilon=0.7
    )
    out = evolve_electric(field, gauge, mass=1.3, steps=5)
    assert abs(out.norm_sq() - 1.0) < 1e-13


def test_em_step_unitary():
    rng = np.random.default_rng(12)
    field = random_state_2d(rng, 12, 10)
    gauge = GaugeField2D(
        rng.normal(size=(4, 12, 10)),
        rng.normal(size=(4, 12, 10)),
        rng.normal(size=(4, 12, 10)),
        epsilon=0.3,
    )
    out = evolve_em(field, gauge, delta_theta=0.2, steps=4)
    assert abs(out.norm_sq() - 1.0) < 1e-13


def test_electric_plane_wave_matches_symbol_power():
    # admissible k so the plane wave is an exact lattice eigenvector family
    sites, k, t = 16, TAU * 3 / 16, 7
    dtheta, dxi = 0.6, -0.45
    field = SpinorField.plane_wave(sites, k, spin=(0.3, 0.8j))
    gauge = GaugeField1D.zero(t, sites, epsilon=1.0)
    gauge.a1[:] = -dxi  # dxi = -eps * a1
    out = evolve_electric(field, gauge, mass=-dtheta, steps=t)
    symbol = standard_coin(dtheta) @ np.diag([np.exp(1j * (k + dxi)), np.exp(-1j * (k + dxi))])
    spin0 = field.amplitudes[0] / np.exp(1j * k * 0)
    expect = np.linalg.matrix_power(symbol, t) @ spin0
    phases = np.exp(1j * k * np.arange(sites))
    np.testing.assert_allclose(out.amplitudes, phases[:, None] * expect[None, :], atol=1e-13)


def test_em_plane_wave_matches_symbol_power():
    n1, n2, t = 8, 16, 5
    k = (TAU * 2 / n1, -TAU * 5 / n2)
    dtheta = 0.34
    field = SpinorField.plane_wave((n1, n2), k, spin=(1.0, -0.5 + 0.2j))
    gauge = GaugeField2D.zero(t, n1, n2)
    out = evolve_em(field, gauge, dtheta, steps=t)
    d1 = np.diag([np.exp(1j * k[0]), np.exp(-1j * k[0])])
    d2 = np.diag([np.exp(1j * k[1]), np.exp(-1j * k[1])])
    symbol = (
        standard_coin(-math.pi / 4 + dtheta / 2)
        @ d2
        @ standard_coin(math.pi / 4 + dtheta / 2)
        @ d1
    )
    spin0 = field.amplitudes[0, 0]
    expect = np.linalg.matrix_power(symbol, t) @ spin0
    phase = np.exp(1j * (k[0] * np.arange(n1)[:, None] + k[1] * np.arange(n2)[None, :]))
    np.testing.assert_allclose(out.amplitudes, phase[..., None] * expect, atol=1e-13)


def test_free_2d_dispersion_cosine_product():
    # eigenphases of the massless 2D symbol satisfy cos E = cos k1 cos k2
    for k1, k2 in [(0.3, 1.1), (2.0, -0.7), (0.0, 2.5)]:
        d1 = np.diag([np.exp(1j * k1), np.exp(-1j * k1)])
        d2 = np.diag([np.exp(1j * k2), np.exp(-1j * k2)])
        symbol = standard_coin(-math.pi / 4) @ d2 @ standard_coin(math.pi / 4) @ d1
        eigs = np.linalg.eigvals(symbol)
        got = np.sort(np.real(np.log(eigs) / 1j))
        e = math.acos(max(-1.0, min(1.0, math.cos(k1) * math.cos(k2))))
        np.testing.assert_allclose(got, [-e, e], atol=1e-12)


# ---------------------------------------------------------------------------
# lattice derivatives and field strength


def test_derivative_shapes_and_constants():
    q = np.ones((5, 8))
    assert lattice_derivative(q, 0, 0.5).shape == (4, 8)
    np.testing.assert_allclose(lattice_derivative(q, 0, 0.5), 0.0, atol=1e-15)
    np.testing.assert_allclose(lattice_derivative(q, 1, 0.5), 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        lattice_derivative(q, 2, 0.5)


def test_uniform_electric_field_strength():
    # A1 = -E * t gives f01 = -E on every slice, exact for these stencils
    eps, e_field, steps, sites = 0.25, 1.7, 6, 12
    t = (np.arange(steps) * eps)[:, None]
    gauge = GaugeField1D(np.zeros((steps, sites)), -e_field * t * np.ones((1, sites)), eps)
    f = lattice_field_strength(gauge)["f01"]
    np.testing.assert_allclose(f, -e_field, atol=1e-12)


def test_pure_gauge_has_zero_field_strength():
    rng = np.random.default_rng(21)
    eps, steps, sites = 0.5, 7, 16
    phi = rng.normal(size=(steps + 1, sites))
    base = GaugeField1D.zero(steps, sites, eps)
    field = SpinorField.delta(sites)
    _, pure = gauge_transform_1d(field, base, phi)
    f = lattice_field_strength(pure)["f01"]
    np.testing.assert_allclose(f, 0.0, atol=1e-12)


def test_field_strength_gauge_invariant_1d_and_2d():
    rng = np.random.default_rng(22)
    eps = 0.5
    gauge = GaugeField1D(rng.normal(size=(6, 16)), rng.normal(size=(6, 16)), eps)
    phi = rng.normal(size=(7, 16))
    _, gp = gauge_transform_1d(SpinorField.delta(16), gauge, phi)
    np.testing.assert_allclose(
        lattice_field_strength(gauge)["f01"], lattice_field_strength(gp)["f01"], atol=1e-12
    )

    g2 = GaugeField2D(
        rng.normal(size=(5, 8, 10)),
        rng.normal(size=(5, 8, 10)),
        rng.normal(size=(5, 8, 10)),
        eps,
    )
    phi2 = rng.normal(size=(6, 8, 10))
    _, gp2 = gauge_transform_2d(SpinorField.delta((8, 10)), g2, phi2)
    fa, fb = lattice_field_strength(g2), lattice_field_strength(gp2)
    for key in ("f01", "f02", "f12"):
        np.testing.assert_allclose(fa[key], fb[key], atol=1e-12)


def test_pure_gauge_2d_zero_field_strength():
    rng = np.random.default_rng(23)
    phi = rng.normal(size=(6, 8, 10))
    base = GaugeField2D.zero(5, 8, 10, epsilon=0.25)
    _, pure = gauge_transform_2d(SpinorField.delta((8, 10)), base, phi)
    for key, f in lattice_field_strength(pure).items():
        np.testing.assert_allclose(f, 0.0, atol=1e-12, err_msg=key)


# ---------------------------------------------------------------------------
# gauge covariance of the dynamics


def test_gauge_commutation_1d():
    rng = np.random.default_rng(31)
    steps, sites, eps = 50, 64, 0.5
    for _ in range(5):
        field = random_state_1d(rng, sites)
        gauge = GaugeField1D(
            rng.normal(size=(steps, sites)), rng.normal(size=(steps, sites)), eps
        )
        phi = rng.normal(size=(steps + 1, sites))
        mass = rng.normal()
        direct = evolve_electric(field, gauge, mass, steps)
        direct = SpinorField(direct.amplitudes * np.exp(-1j * phi[-1])[:, None])
        tfield, tgauge = gauge_transform_1d(field, gauge, phi)
        routed = evolve_electric(tfield, tgauge, mass, steps)
        assert np.max(np.abs(direct.amplitudes - routed.amplitudes)) < 1e-12


def test_gauge_commutation_2d():
    rng = np.random.default_rng(32)
    steps, n1, n2, eps = 25, 16, 12, 0.5
    for _ in range(3):
        field = random_state_2d(rng, n1, n2)
        gauge = GaugeField2D(
            rng.normal(size=(steps, n1, n2)),
            rng.normal(size=(steps, n1, n2)),
            rng.normal(size=(steps, n1, n2)),
            eps,
        )
        phi = rng.normal(size=(steps + 1, n1, n2))
        dtheta = rng.normal()
        direct = evolve_em(field, gauge, dtheta, steps)
        direct = SpinorField(direct.amplitudes * np.exp(-1j * phi[-1])[..., None])
        tfield, tgauge = gauge_transform_2d(field, gauge, phi)
        routed = evolve_em(tfield, tgauge, dtheta, steps)
        assert np.max(np.abs(direct.amplitudes - routed.amplitudes)) < 1e-12


@settings(deadline=None, max_examples=25)
@given(
    theta=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_gauge_commutation_single_step_property(theta, seed):
    rng = np.random.default_rng(seed)
    sites = 16
    field = random_state_1d(rng, sites)
    gauge = GaugeField1D(rng.normal(size=(1, sites)), rng.normal(size=(1, sites)), 1.0)
    phi = rng.normal(size=(2, sites))
    direct = electric_step_1d(field, gauge, theta, 0)
    direct = SpinorField(direct.amplitudes * np.exp(-1j * phi[1])[:, None])
    tfield, tgauge = gauge_transform_1d(field, gauge, phi)
    routed = electric_step_1d(tfield, tgauge, theta, 0)
    assert np.max(np.abs(direct.amplitudes - routed.amplitudes)) < 1e-12


# ---------------------------------------------------------------------------
# conserved current


def test_continuity_1d_exact():
    rng = np.random.default_rng(41)
    sites, eps = 48, 0.5
    field = random_state_1d(rng, sites)
    gauge = GaugeField1D(rng.normal(size=(8, sites)), rng.normal(size=(8, sites)), eps)
    for j in range(8):
        nxt = electric_step_1d(field, gauge, mass=0.9, j=j)
        cur = lattice_current(field, nxt, eps)
        assert cur.residual < 1e-13
        field = nxt


def test_continuity_2d_exact():
    rng = np.random.default_rng(42)
    n1, n2 = 14, 18
    field = random_state_2d(rng, n1, n2)
    gauge = GaugeField2D(
        rng.normal(size=(6, n1, n2)),
        rng.normal(size=(6, n1, n2)),
        rng.normal(size=(6, n1, n2)),
        epsilon=0.5,
    )
    for j in range(6):
        cur = lattice_current_2d(field, gauge, delta_theta=0.7, j=j)
        assert cur.residual < 1e-13
        np.testing.assert_allclose(np.sum(cur.j0_next), 1.0, atol=1e-12)
        field = em_step_2d(field, gauge, 0.7, j)
        np.testing.assert_allclose(cur.j0_next, field.probability(), atol=1e-13)


def test_current_sign_calibration_brute_force():
    # on 16 sites, J1 = |down|^2 - |up|^2 closes the continuity identity
    # and the opposite sign does not
    rng = np.random.default_rng(43)
    sites = 16
    field = random_state_1d(rng, sites)
    gauge = GaugeField1D(rng.normal(size=(1, sites)), rng.normal(size=(1, sites)), 1.0)
    nxt = electric_step_1d(field, gauge, mass=0.4, j=0)
    up = np.abs(field.amplitudes[:, 0]) ** 2
    dn = np.abs(field.amplitudes[:, 1]) ** 2
    j0, j0n = up + dn, nxt.probability()
    avg = 0.5 * (np.roll(j0, -1) + np.roll(j0, 1))
    for sign, ok in ((+1.0, True), (-1.0, False)):
        j1 = sign * (dn - up)
        div = j0n - avg + 0.5 * (np.roll(j1, -1) - np.roll(j1, 1))
        if ok:
            assert np.max(np.abs(div)) < 1e-14
        else:
            assert np.max(np.abs(div)) > 1e-2


@settings(deadline=None, max_examples=20)
@given(theta=st.floats(-3.1, 3.1), seed=st.integers(0, 2**31 - 1))
def test_continuity_1d_property(theta, seed):
    rng = np.random.default_rng(seed)
    field = random_state_1d(rng, 24)
    gauge = GaugeField1D(rng.normal(size=(1, 24)), rng.normal(size=(1, 24)), 1.0)
    nxt = electric_step_1d(field, gauge, theta, 0)
    assert lattice_current(field, nxt, 1.0).residual < 1e-13


# ---------------------------------------------------------------------------
# magnetic spectra and semiclassical drifts


def test_weak_field_predicate():
    g = GaugeField1D.zero(2, 8, epsilon=0.1)
    assert weak_field_ok(g)
    g.a1[:] = 10.0  # eps * |A| = 1.0 > 2 pi / 20
    assert not weak_field_ok(g)


def test_landau_gauge_flux():
    g = landau_gauge(0.5, 1, 8, 4, epsilon=0.25)
    dxi2 = -g.epsilon * g.a2[0, :, 0]
    flux = np.diff(dxi2)
    np.testing.assert_allclose(flux, 0.5 * 0.25**2, atol=1e-15)


def test_landau_levels_sqrt_n():
    b, eps = 0.02, 1.0 / 32.0
    levels = landau_quasienergies(b, eps, n_levels=3)
    expect = np.sqrt(2.0 * b * np.arange(1, 4))
    np.testing.assert_allclose(levels, expect, rtol=0.05)


def test_landau_zero_field_gapless():
    e256 = landau_quasienergies(0.0, 1.0 / 32.0, 1, sites=256)[0]
    e512 = landau_quasienergies(0.0, 1.0 / 32.0, 1, sites=512)[0]
    assert e512 < 0.6 * e256  # IR-limited, halves with the box size


def test_landau_box_size_grows_with_resolution():
    assert landau_box_size(0.0, 1.0 / 32.0, 1) == 256  # zero-field floor
    sizes = [landau_box_size(0.02, eps, 1) for eps in (1 / 16, 1 / 32, 1 / 64)]
    assert all(s & (s - 1) == 0 for s in sizes)  # powers of two
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_landau_box_size_overflow_is_a_value_error():
    # 1/(sqrt(b) eps) overflows a float; math.ceil(inf) used to raise OverflowError
    with pytest.raises(ValueError, match="overflows"):
        landau_box_size(0.02, 1e-320, 4)


def test_landau_linear_step_coefficient_vanishes():
    # E_1(eps) at fixed B and fixed box is even in eps: the fitted linear
    # term must sit far below the quadratic one. All sweep points share one
    # box so finite-size errors cancel in the fit instead of polluting it.
    b, sweep = 0.02, (1 / 24, 1 / 32, 1 / 48)
    sites = landau_box_size(b, min(sweep), 1)
    eps = np.array(sorted(sweep))
    e1 = np.array([landau_quasienergies(b, e, 1, sites=sites)[0] for e in eps])
    c2, c1, _ = np.polyfit(eps, e1, 2)
    assert abs(c1) < 0.1 * abs(c2) * eps.max()


def test_bloch_oscillation_period():
    eta = TAU / 25.0
    trace = bloch_positions(eta, sites=128, steps=100)
    period = measured_period(trace)
    assert abs(period - 25.0) / 25.0 < 0.1


def test_exb_drift_speed():
    b = TAU / 256.0
    steps = 480
    trace = exb_positions(e_ratio=0.3, b_flux=b, extents=(96, 384), steps=steps)
    t_lo = int(round(TAU * 0.25 / b))  # one nominal cyclotron period of transient
    t = np.arange(t_lo, steps)
    vy = np.polyfit(t, trace[t_lo:, 1], 1)[0]
    vx = np.polyfit(t, trace[t_lo:, 0], 1)[0]
    assert abs(abs(vy) - 0.3) < 0.15 * 0.3
    assert abs(vx) < 0.1


def test_rational_flux_dichotomy():
    pr_rat = rational_field_pr(0.25, sites=64, steps=100)
    pr_irr = rational_field_pr(0.25 + 1e-3, sites=64, steps=100)
    noise = [abs(rational_field_pr(0.25, 64, 100, center_offset=d) - pr_rat) for d in (1, 2)]
    assert abs(pr_rat - pr_irr) > 5.0 * max(max(noise), 1e-9)


# a field off the gauge's lattice used to pass through the unit-phase skip of a zero gauge, or end in a
# numpy broadcast error; every stepper now names both shapes
@pytest.mark.parametrize("gauge", [GaugeField2D.zero(1, 8, 8), landau_gauge(0.1, 1, 8, 8, 1.0)],
                         ids=["zero", "landau"])
@pytest.mark.parametrize("stepper", [em_step_2d, lattice_current_2d])
def test_2d_steppers_reject_a_field_off_the_gauge_lattice(stepper, gauge):
    field = SpinorField(np.ones((8, 6, 2), dtype=complex))
    with pytest.raises(ValueError, match=r"gauge extents \(8, 8\) do not match field extents \(8, 6\)"):
        stepper(field, gauge, 0.3, 0)


@pytest.mark.parametrize("gauge", [GaugeField1D.zero(1, 8), GaugeField1D(np.ones((1, 8)), np.ones((1, 8)), 0.5)],
                         ids=["zero", "uniform"])
def test_electric_step_rejects_a_field_off_the_gauge_lattice(gauge):
    field = SpinorField(np.ones((6, 2), dtype=complex))
    with pytest.raises(ValueError, match=r"gauge extents \(8,\) do not match field extents \(6,\)"):
        electric_step_1d(field, gauge, 0.4, 0)

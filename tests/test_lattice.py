"""Walk kernel tests: coins, shifts, dispersion, convention conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.lattice import (
    TAU,
    CoinAngles,
    HADAMARD_ANGLES,
    SpinorField,
    apply_coin,
    build_coin_euler,
    canonicalize_angles,
    convert_convention,
    dispersion,
    factor_unitary,
    inverse_shift,
    shift,
    spin_phase,
    standard_coin,
    step,
    step_standard,
    walk_operator_fourier,
)

RNG = np.random.default_rng(20260814)

angles_st = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


# ---------------------------------------------------------------------------
# coins


def test_hadamard_from_euler_angles():
    u = HADAMARD_ANGLES.matrix()
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.allclose(u, h, atol=1e-15)


def test_euler_coin_at_theta_zero_is_diagonal():
    u = build_coin_euler(0.0, 0.0, 0.7, 1.3)
    assert np.allclose(u, np.diag([np.exp(0.7j), np.exp(-0.7j)]), atol=1e-15)


def test_standard_coin_is_euler_special_case():
    for theta in (0.0, 0.3, math.pi / 4, 1.2):
        assert np.allclose(standard_coin(theta), build_coin_euler(0.0, theta, 0.0, math.pi / 2), atol=1e-15)
    assert np.allclose(standard_coin(0.0), np.eye(2), atol=1e-15)


def test_spin_phase_structure():
    f = spin_phase(0.4)
    assert np.allclose(f, np.diag([np.exp(0.4j), np.exp(-0.4j)]), atol=1e-15)


def test_factor_unitary_scalar_phase_times_identity():
    omega, special = factor_unitary(np.exp(1j * math.pi / 3) * np.eye(2))
    assert abs(omega - 2 * math.pi / 3) < 1e-12
    assert np.allclose(special, np.eye(2), atol=1e-12)


def test_factor_unitary_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        factor_unitary(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_factor_unitary_roundtrip(seed, n):
    u = random_unitary(n, np.random.default_rng(seed))
    omega, special = factor_unitary(u)
    assert 0.0 <= omega < TAU
    assert abs(np.linalg.det(special) - 1.0) < 1e-10
    assert np.allclose(np.exp(1j * omega / n) * special, u, atol=1e-12)


@given(alpha=angles_st, theta=angles_st, xi=angles_st, zeta=angles_st)
@settings(max_examples=200, deadline=None)
def test_canonicalize_preserves_matrix_and_lands_in_canonical_set(alpha, theta, xi, zeta):
    a, t, x, z = canonicalize_angles(alpha, theta, xi, zeta)
    assert 0.0 <= a < math.pi
    assert 0.0 <= t <= math.pi / 2
    assert 0.0 <= x < TAU
    assert 0.0 <= z < TAU
    assert np.allclose(build_coin_euler(a, t, x, z), build_coin_euler(alpha, theta, xi, zeta), atol=1e-13)


def test_canonicalize_degenerate_boundaries():
    # theta = 0: zeta is irrelevant and canonicalized to 0
    a, t, x, z = canonicalize_angles(0.3, 0.0, 0.7, 5.0)
    assert t == 0.0 and z == 0.0
    # theta = pi/2: xi is irrelevant and canonicalized to 0
    a, t, x, z = canonicalize_angles(0.3, math.pi / 2, 5.0, 0.7)
    assert t == math.pi / 2 and x == 0.0


def test_canonical_idempotent():
    c = CoinAngles(7.0, -2.0, 9.0, -4.0).canonical()
    assert c == c.canonical()


# ---------------------------------------------------------------------------
# shifts and steps


def test_shift_moves_components_oppositely():
    f = SpinorField.delta(8, site=3, spin=(1.0, 0.0))
    g = shift(f)
    # upper component at p receives the value from p+1: support moves to p=2
    assert abs(g.amplitudes[2, 0] - 1.0) < 1e-15
    assert g.norm_sq() == pytest.approx(1.0)
    f = SpinorField.delta(8, site=3, spin=(0.0, 1.0))
    g = shift(f)
    assert abs(g.amplitudes[4, 1] - 1.0) < 1e-15


def test_shift_inverse_roundtrip():
    rng = np.random.default_rng(7)
    f = SpinorField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
    assert np.array_equal(inverse_shift(shift(f)).amplitudes, f.amplitudes)


@pytest.mark.parametrize("move", [shift, inverse_shift])
def test_shifts_reject_odd_internal_dimension(move):
    f = SpinorField(np.ones((8, 3), dtype=np.complex128))
    with pytest.raises(ValueError, match="internal dimension must be even"):
        move(f)


def test_light_cone_support():
    f = SpinorField.delta(64, site=32)
    coin = build_coin_euler(0.3, 0.9, 1.1, 2.0)
    for _ in range(10):
        f = step(f, coin)
    prob = f.probability()
    p = np.arange(64)
    outside = np.abs(p - 32) > 10
    assert np.all(prob[outside] == 0.0)


@given(alpha=angles_st, theta=angles_st, xi=angles_st, zeta=angles_st)
@settings(max_examples=50, deadline=None)
def test_single_step_unitarity(alpha, theta, xi, zeta):
    rng = np.random.default_rng(3)
    f = SpinorField(rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))).normalized()
    g = step(f, build_coin_euler(alpha, theta, xi, zeta))
    assert abs(g.norm_sq() - 1.0) < 1e-12


def test_hadamard_walk_against_dense_matrix_power():
    """Oracle: dense position-space one-step matrix raised to the 100th power."""
    n = 256
    coin = HADAMARD_ANGLES.matrix()
    s = np.zeros((2 * n, 2 * n))
    for p in range(n):
        s[2 * p + 0, 2 * ((p + 1) % n) + 0] = 1.0
        s[2 * p + 1, 2 * ((p - 1) % n) + 1] = 1.0
    w = np.kron(np.eye(n), coin) @ s
    psi0 = np.zeros(2 * n, dtype=complex)
    psi0[2 * (n // 2)] = 1.0
    psi_oracle = np.linalg.matrix_power(w, 100) @ psi0

    f = SpinorField.delta(n, site=n // 2, spin=(1.0, 0.0))
    stds = {}
    for j in range(1, 101):
        f = step(f, coin)
        if j >= 50:
            prob = f.probability()
            p = np.arange(n)
            mean = float(np.sum(p * prob))
            stds[j] = math.sqrt(float(np.sum((p - mean) ** 2 * prob)))
    assert np.allclose(f.amplitudes.reshape(-1), psi_oracle, atol=1e-10)

    prob = f.probability()
    # asymmetric double horn: the two halves carry visibly different weight
    left = float(np.sum(prob[: n // 2]))
    right = float(np.sum(prob[n // 2 :]))
    assert abs(left - right) > 0.2
    # ballistic spreading: std grows linearly, slope above 0.3 sites/step
    js = np.array(sorted(stds))
    slope = np.polyfit(js, np.array([stds[j] for j in js]), 1)[0]
    assert slope > 0.3


def test_fourier_and_real_space_evolutions_agree():
    n = 64
    ang = CoinAngles(0.4, 0.8, 1.9, 0.6)
    coin = ang.matrix()
    rng = np.random.default_rng(11)
    f = SpinorField(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))).normalized()

    k = TAU * np.arange(n) / n
    symbol = walk_operator_fourier(k, ang)  # (n, 2, 2)
    sym32 = np.linalg.matrix_power(symbol, 32)
    psi_hat = np.fft.fft(f.amplitudes, axis=0)
    psi_hat = np.einsum("kab,kb->ka", sym32, psi_hat)
    oracle = np.fft.ifft(psi_hat, axis=0)

    g = f
    for _ in range(32):
        g = step(g, coin)
    assert np.allclose(g.amplitudes, oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_massless_is_linear():
    k = np.linspace(0.0, math.pi, 40)
    e_plus, e_minus = dispersion(0.0, 0.0, k)
    assert np.allclose(e_plus, k, atol=1e-14)
    assert np.allclose(e_minus, -k, atol=1e-14)


def test_dispersion_flat_band_points():
    e_plus, e_minus = dispersion(math.pi / 2, 0.0, 0.7)
    assert e_plus == pytest.approx(math.pi / 2)
    e_plus, e_minus = dispersion(0.9, 0.0, math.pi / 2)
    assert e_plus == pytest.approx(math.pi / 2)
    assert e_minus == pytest.approx(-math.pi / 2)


def test_dispersion_branch_point_maps_to_pi():
    e_plus, _ = dispersion(0.0, 0.0, math.pi)
    assert e_plus == pytest.approx(math.pi)


def test_dispersion_matches_fourier_eigenvalues():
    theta, k, xi = 0.7, 1.1, 0.0
    w = walk_operator_fourier(k, CoinAngles(0.0, theta, xi, 2.1))
    eig = np.linalg.eigvals(w)
    energies = np.sort(-np.angle(eig))
    e_plus, e_minus = dispersion(theta, xi, k)
    assert np.allclose(energies, [e_minus, e_plus], atol=1e-12)


def test_dispersion_eigenvalue_match_on_grid():
    thetas = np.linspace(0.0, math.pi / 2, 16)
    ks = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    worst = 0.0
    for theta in thetas:
        for k in ks:
            w = walk_operator_fourier(k, CoinAngles(0.0, theta, 0.0, 0.0))
            eig = np.sort(-np.angle(np.linalg.eigvals(w)))
            e_plus, e_minus = dispersion(theta, 0.0, k)
            worst = max(worst, float(np.max(np.abs(eig - np.array([e_minus, e_plus])))))
    assert worst < 1e-12


small_angles_st = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-1e-12, 1e-12))


# arccos(cos E) lost half its digits where the two bands touch (cos E near +-1)
@given(theta=small_angles_st, xi=small_angles_st)
@settings(max_examples=200, deadline=None)
def test_dispersion_is_exact_near_the_band_touching(theta, xi):
    k = np.concatenate([np.linspace(-math.pi, math.pi, 64, endpoint=False),
                        [-xi, 1e-9 - xi, 1e-5 - xi, math.pi - xi, math.pi - 1e-9 - xi]])
    eig = np.linalg.eigvals(walk_operator_fourier(k, CoinAngles(0.0, theta, xi, 0.0)))
    for branch in dispersion(theta, xi, k):
        residual = np.max(np.min(np.abs(eig - np.exp(-1j * branch)[:, None]), axis=1))
        assert residual <= 1e-12


@given(
    theta=st.floats(0.0, math.pi / 2),
    xi=angles_st,
    zeta1=angles_st,
    zeta2=angles_st,
    k=st.floats(-math.pi, math.pi),
)
@settings(max_examples=80, deadline=None)
def test_zeta_never_affects_spectrum(theta, xi, zeta1, zeta2, k):
    w1 = walk_operator_fourier(k, CoinAngles(0.0, theta, xi, zeta1))
    w2 = walk_operator_fourier(k, CoinAngles(0.0, theta, xi, zeta2))
    e1 = np.sort(np.angle(np.linalg.eigvals(w1)))
    e2 = np.sort(np.angle(np.linalg.eigvals(w2)))
    assert np.allclose(e1, e2, atol=1e-12)


@given(theta=st.floats(0.0, math.pi / 2), xi=angles_st, k=st.floats(-math.pi, math.pi))
@settings(max_examples=80, deadline=None)
def test_xi_acts_as_momentum_shift(theta, xi, k):
    w1 = walk_operator_fourier(k, CoinAngles(0.0, theta, xi, 0.0))
    w2 = walk_operator_fourier(k + xi, CoinAngles(0.0, theta, 0.0, 0.0))
    e1 = np.sort(np.angle(np.linalg.eigvals(w1)))
    e2 = np.sort(np.angle(np.linalg.eigvals(w2)))
    assert np.allclose(e1, e2, atol=1e-11)


# ---------------------------------------------------------------------------
# convention conversion


def test_convert_constant_coin_is_daggered():
    theta = 0.8
    (converted,) = convert_convention([standard_coin(theta)])
    assert np.allclose(converted, standard_coin(-theta), atol=1e-15)


def test_convention_roundtrip_returns_identity():
    n, steps_count = 32, 12
    rng = np.random.default_rng(5)
    coins = [
        build_coin_euler(
            rng.uniform(0, TAU, size=n),
            rng.uniform(0, TAU, size=n),
            rng.uniform(0, TAU, size=n),
            rng.uniform(0, TAU, size=n),
        )
        for _ in range(steps_count)
    ]
    f0 = SpinorField(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))).normalized()
    f = f0
    for u in coins:
        f = step(f, u)
    for v in convert_convention(coins):
        f = step_standard(f, v)
    assert np.allclose(f.amplitudes, f0.amplitudes, atol=1e-12)

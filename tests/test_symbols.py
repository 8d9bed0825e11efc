"""Each Fourier symbol equals one step of its real-space stepper on a plane wave.

A plane wave e^{i k.x} s at admissible k is mapped by one step to
e^{i k.x} W(k) s, so the stepped amplitudes must equal symbol(k) applied
to the spinor at every site. The symbols are derived from the steppers'
layer lists, so they must also equal, bit for bit, the written-out
products frozen in `reference_walks`.
"""

import math

import numpy as np
import pytest

import reference_walks as ref
from qwalk.abelian import GaugeField2D, em_step_2d, em_symbol_2d
from qwalk.curved import (
    CurvedCoinProfile,
    Triad,
    curved_step_1p1,
    curved_step_1p2,
    evolve_1p1,
    evolve_1p2,
    walk_symbol_1p1,
    walk_symbol_1p2,
)
from qwalk.lattice import TAU, CoinAngles, SpinorField, step, walk_operator_fourier
from qwalk.nonabelian import NonAbelianGaugeField, evolve_nonabelian

SPIN = (0.6, -0.3 + 0.7j)
EXTENTS_2D = (8, 16)
K_2D = (TAU * 3 / 8, -TAU * 5 / 16)
ANGLES = CoinAngles(0.3, 0.7, 1.1, 2.3)
TRIAD = Triad(np.full((1,) + EXTENTS_2D, 0.7), np.full((1,) + EXTENTS_2D, 0.6), np.full((1,) + EXTENTS_2D, 0.2))

CASES = {
    "step": (
        (16,),
        (TAU * 5 / 16,),
        lambda f: step(f, ANGLES.matrix()),
        lambda k: walk_operator_fourier(k[0], ANGLES),
    ),
    "em_step_2d": (
        EXTENTS_2D,
        K_2D,
        lambda f: em_step_2d(f, GaugeField2D.zero(1, *EXTENTS_2D, epsilon=0.5), 0.34, 0),
        lambda k: em_symbol_2d(k[0], k[1], 0.34),
    ),
    "curved_step_1p1": (
        (16,),
        (TAU * 3 / 16,),
        lambda f: curved_step_1p1(f, CurvedCoinProfile(np.full(16, 0.7))),
        lambda k: walk_symbol_1p1(k[0], 0.7),
    ),
    "curved_step_1p2_j0": (
        EXTENTS_2D,
        K_2D,
        lambda f: curved_step_1p2(f, TRIAD, mass=0.9, j=0, epsilon=0.5),
        lambda k: walk_symbol_1p2(k[0], k[1], 0.7, 0.6, 0.2, mass=0.9, parity=0, epsilon=0.5),
    ),
    "curved_step_1p2_j1": (
        EXTENTS_2D,
        K_2D,
        lambda f: curved_step_1p2(f, TRIAD, mass=0.9, j=1, epsilon=0.5),
        lambda k: walk_symbol_1p2(k[0], k[1], 0.7, 0.6, 0.2, mass=0.9, parity=1, epsilon=0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_symbol_matches_one_step_on_plane_wave(case):
    extents, k, stepper, symbol = CASES[case]
    field = SpinorField.plane_wave(extents, k, SPIN)
    expect = np.einsum("ab,...b->...a", symbol(k), field.amplitudes)
    np.testing.assert_allclose(stepper(field).amplitudes, expect, rtol=0, atol=1e-12)


# quasimomentum grids that broadcast to (9, 7)
K1 = np.linspace(-math.pi, math.pi, 9)[:, None]
K2 = np.linspace(-math.pi, math.pi, 7)[None, :] + 0.1


def test_walk_operator_fourier_equals_written_out_product():
    k = np.linspace(-math.pi, math.pi, 33)
    assert np.array_equal(walk_operator_fourier(k, ANGLES), ref.walk_operator_fourier(k, ANGLES))


# at delta_theta = pi/2 the stepper skips the Y coin, at -pi/2 the X coin
@pytest.mark.parametrize("delta_theta", [0.34, math.pi / 2, -math.pi / 2])
def test_em_symbol_equals_written_out_product(delta_theta):
    assert np.array_equal(em_symbol_2d(K1, K2, delta_theta), ref.em_symbol_2d(K1, K2, delta_theta))


def test_walk_symbol_1p1_equals_written_out_product():
    k = np.linspace(-math.pi, math.pi, 33)
    assert np.array_equal(walk_symbol_1p1(k, 0.7), ref.walk_symbol_1p1(k, 0.7))


@pytest.mark.parametrize("parity", [0, 1])
def test_walk_symbol_1p2_equals_written_out_product(parity):
    args = (K1, K2, 0.7, 0.6, 0.2)
    kw = dict(mass=0.9, parity=parity, epsilon=0.5)
    assert np.array_equal(walk_symbol_1p2(*args, **kw), ref.walk_symbol_1p2(*args, **kw))


# ---------------------------------------------------------------------------
# long-time spectral oracles: the colour walk on uniform links, the (1+1)D walk at constant theta, the (1+2)D
# walk on a constant triad


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def colour_symbol(k, u_plus, u_minus, theta):
    """W(k) = (C(theta) (x) 1_N) diag(e^{ik} U+, e^{-ik} U-), written out: one step of the colour walk on links
    that are the same at every site and step, on the plane wave e^{ikp}."""
    n = len(u_plus)
    c, s = math.cos(theta), math.sin(theta)
    moved = np.zeros(k.shape + (2 * n, 2 * n), dtype=complex)
    moved[:, :n, :n] = np.exp(1j * k)[:, None, None] * u_plus
    moved[:, n:, n:] = np.exp(-1j * k)[:, None, None] * u_minus
    return np.kron(np.array([[c, 1j * s], [1j * s, c]]), np.eye(n)) @ moved


# 10^3 steps of evolve_nonabelian against the 10^3-th power of the symbol on each Fourier mode of a random field
@pytest.mark.parametrize("n", [2, 3])
def test_colour_walk_on_uniform_links_matches_the_power_of_its_symbol(n):
    rng = np.random.default_rng(120 + n)
    sites, steps, epsilon, mass = 64, 1000, 0.5, 0.7
    b0, b1 = random_hermitian(rng, n), random_hermitian(rng, n)
    u_plus, u_minus = ref.expi_hermitian_eigh(epsilon * (b0 + b1)), ref.expi_hermitian_eigh(epsilon * (b0 - b1))
    links = NonAbelianGaugeField(*(np.broadcast_to(b, (1, sites, n, n)) for b in (b0, b1)), epsilon).links()
    field = SpinorField(rng.normal(size=(sites, 2 * n)) + 1j * rng.normal(size=(sites, 2 * n))).normalized()
    want = ref.spectral_evolve(field.amplitudes, lambda k: colour_symbol(k, u_plus, u_minus, -epsilon * mass), steps)
    got = evolve_nonabelian(field, links, mass, steps)
    assert np.max(np.abs(got.amplitudes - want)) <= 1e-10


# 10^3 steps at constant theta, through evolve_1p1 and through a curved_step_1p1 loop, against the 10^3-th power of
# the written-out symbol on each Fourier mode of a random field
def test_reflection_walk_at_constant_theta_matches_the_power_of_its_symbol():
    rng = np.random.default_rng(130)
    sites, steps, theta = 64, 1000, 0.7
    profile = CurvedCoinProfile(np.full(sites, theta))
    field = SpinorField(rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))).normalized()
    want = ref.spectral_evolve(field.amplitudes, lambda k: ref.walk_symbol_1p1(k, theta), steps)
    looped = field
    for j in range(steps):
        looped = curved_step_1p1(looped, profile, j)
    for got in (evolve_1p1(field, profile, steps), looped):
        assert np.max(np.abs(got.amplitudes - want)) <= 1e-10


# 10^3 steps on a constant triad from an odd start, as two evolve_1p2 calls of which the second reuses the held coins,
# against the 500-th power of the written-out period-2 symbol (odd step first) on each Fourier mode of a random field;
# a walk on another triad of the same plane first leaves coins that the first call must not keep
def test_curved_1p2_walk_on_a_constant_triad_matches_the_power_of_its_period_2_symbol():
    rng = np.random.default_rng(140)
    extents, e1, e2, b, mass, epsilon = (12, 10), 0.7, 0.6, 0.2, 0.9, 0.5
    triad = Triad(*(np.full((1,) + extents, x) for x in (e1, e2, b)))
    field = SpinorField(rng.normal(size=extents + (2,)) + 1j * rng.normal(size=extents + (2,))).normalized()
    evolve_1p2(field, Triad(*(np.full((1,) + extents, x) for x in (0.5, 0.4, -0.3))), mass, 2, 0, epsilon)

    def pair(k1, k2):
        even, odd = (ref.walk_symbol_1p2(k1, k2, e1, e2, b, mass, parity, epsilon) for parity in (0, 1))
        return even @ odd

    half = evolve_1p2(field, triad, mass, 500, 1, epsilon)
    got = evolve_1p2(half, triad, mass, 500, 501, epsilon)
    for walked, pairs in ((half, 250), (got, 500)):
        assert np.max(np.abs(walked.amplitudes - ref.spectral_evolve(field.amplitudes, pair, pairs))) <= 1e-10

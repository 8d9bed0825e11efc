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
    walk_symbol_1p1,
    walk_symbol_1p2,
)
from qwalk.lattice import TAU, CoinAngles, SpinorField, step, walk_operator_fourier

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

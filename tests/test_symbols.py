"""Each Fourier symbol equals one step of its real-space stepper on a plane wave.

A plane wave e^{i k.x} s at admissible k is mapped by one step to
e^{i k.x} W(k) s, so the stepped amplitudes must equal symbol(k) applied
to the spinor at every site.
"""

import numpy as np
import pytest

from qwalk.abelian import GaugeField2D, em_step_2d, em_symbol_2d
from qwalk.curved import (
    CurvedCoinProfile,
    Triad,
    curved_step_1p1,
    curved_step_1p2,
    walk_symbol_1p1,
    walk_symbol_1p2,
)
from qwalk.lattice import TAU, SpinorField

SPIN = (0.6, -0.3 + 0.7j)
EXTENTS_2D = (8, 16)
K_2D = (TAU * 3 / 8, -TAU * 5 / 16)
TRIAD = Triad(np.full((1,) + EXTENTS_2D, 0.7), np.full((1,) + EXTENTS_2D, 0.6), np.full((1,) + EXTENTS_2D, 0.2))

CASES = {
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

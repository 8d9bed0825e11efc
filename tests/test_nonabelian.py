"""Tests for the U(N)-coupled walk: covariance, reduction, field strength."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qwalk.abelian import GaugeField1D, evolve_electric
from qwalk.lattice import SpinorField
from qwalk.nonabelian import (
    LinkField,
    NonAbelianGaugeField,
    color_rotate,
    dirac_generator_residual,
    evolve_nonabelian,
    expi_hermitian,
    extract_field_strength,
    field_strength_holonomy,
    gauge_transform_links,
    logm_unitary,
    nonabelian_step,
)

TAU = 2.0 * math.pi


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def haar_unitary(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_color_state(rng, sites, n):
    amps = rng.normal(size=(sites, 2 * n)) + 1j * rng.normal(size=(sites, 2 * n))
    return SpinorField(amps).normalized()


def random_gauge(rng, steps, sites, n, eps, scale=1.0):
    return NonAbelianGaugeField(
        scale * random_hermitian(rng, (steps, sites, n, n)),
        scale * random_hermitian(rng, (steps, sites, n, n)),
        eps,
    )


# ---------------------------------------------------------------------------
# matrix helpers


def test_expi_matches_expm():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        h = random_hermitian(rng, (4, n, n))
        got = expi_hermitian(h)
        for i in range(4):
            np.testing.assert_allclose(got[i], expm(1j * h[i]), atol=1e-12)


def test_logm_unitary_round_trip():
    rng = np.random.default_rng(2)
    u = haar_unitary(rng, (5, 3, 3))
    log = logm_unitary(u)
    for i in range(5):
        np.testing.assert_allclose(expm(log[i]), u[i], atol=1e-11)
    h = 0.1 * random_hermitian(rng, (5, 3, 3))
    np.testing.assert_allclose(logm_unitary(expi_hermitian(h)), 1j * h, atol=1e-11)


def test_hermitian_validation():
    bad = np.zeros((1, 4, 2, 2), dtype=complex)
    bad[..., 0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        NonAbelianGaugeField(bad, np.zeros_like(bad), 1.0)


# ---------------------------------------------------------------------------
# walk dynamics


def test_unitarity_all_n():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        field = random_color_state(rng, 32, n)
        links = random_gauge(rng, 20, 32, n, eps=0.6).links()
        out = evolve_nonabelian(field, links, mass=0.8, steps=20)
        assert abs(out.norm_sq() - 1.0) < 1e-12


def test_n1_reduces_to_electric_walk():
    # scalar links equal the Abelian phases at a0 = B0, a1 = -B1
    rng = np.random.default_rng(4)
    steps, sites, eps = 15, 24, 0.5
    b0 = rng.normal(size=(steps, sites))
    b1 = rng.normal(size=(steps, sites))
    gauge = NonAbelianGaugeField(
        b0[..., None, None].astype(complex), b1[..., None, None].astype(complex), eps
    )
    field = random_color_state(rng, sites, 1)
    mass = 0.7
    got = evolve_nonabelian(field, gauge.links(), mass, steps)
    abelian = GaugeField1D(b0, -b1, eps)
    want = evolve_electric(SpinorField(field.amplitudes.copy()), abelian, mass, steps)
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-13)


def test_gauge_covariance_evolution():
    rng = np.random.default_rng(5)
    steps, sites, eps = 30, 24, 0.5
    for n in (1, 2, 3):
        field = random_color_state(rng, sites, n)
        links = random_gauge(rng, steps, sites, n, eps).links()
        g = haar_unitary(rng, (steps + 1, sites, n, n))
        mass = rng.normal()
        direct = evolve_nonabelian(field, links, mass, steps)
        direct = color_rotate(direct, g[-1])
        tfield, tlinks = gauge_transform_links(field, links, g)
        routed = evolve_nonabelian(tfield, tlinks, mass, steps)
        assert np.max(np.abs(direct.amplitudes - routed.amplitudes)) < 1e-12


def test_gauge_transform_shape_validation():
    rng = np.random.default_rng(6)
    links = random_gauge(rng, 3, 8, 2, 1.0).links()
    field = random_color_state(rng, 8, 2)
    with pytest.raises(ValueError, match="shape"):
        gauge_transform_links(field, links, np.zeros((3, 8, 2, 2), dtype=complex))


def test_step_rejects_field_off_the_links_lattice():
    rng = np.random.default_rng(7)
    links = random_gauge(rng, 2, 8, 2, 1.0).links()
    with pytest.raises(ValueError, match=r"link extents \(8,\) do not match field extents \(9,\)"):
        nonabelian_step(random_color_state(rng, 9, 2), links, 0.3, 0)
    plane = SpinorField(np.ones((8, 8, 4), dtype=complex))
    with pytest.raises(ValueError, match=r"link extents \(8,\) do not match field extents \(8, 8\)"):
        nonabelian_step(plane, links, 0.3, 0)


# ---------------------------------------------------------------------------
# field strength


def test_holonomy_covariance():
    rng = np.random.default_rng(7)
    steps, sites, n, eps = 4, 16, 3, 0.7
    links = random_gauge(rng, steps, sites, n, eps).links()
    g = haar_unitary(rng, (steps + 1, sites, n, n))
    field = random_color_state(rng, sites, n)
    _, tlinks = gauge_transform_links(field, links, g)
    for j in (0, 2):
        hol = field_strength_holonomy(links, j)
        thol = field_strength_holonomy(tlinks, j)
        gd = np.swapaxes(g[j], -1, -2).conj()
        np.testing.assert_allclose(thol, g[j] @ hol @ gd, atol=1e-12)


def test_extract_constant_electric_field_n1():
    # B1 = E t (so A1 = -E t): the diamond log gives F01 = -E exactly
    e_field, eps, steps, sites = 0.8, 0.1, 6, 12
    t = (np.arange(steps) * eps)[:, None, None, None]
    b1 = (e_field * t) * np.ones((1, sites, 1, 1))
    gauge = NonAbelianGaugeField(np.zeros_like(b1), b1, eps)
    f01 = extract_field_strength(gauge.links(), j=2)
    np.testing.assert_allclose(f01, -e_field, atol=1e-10)


def test_extract_commutator_term_converges():
    # constant non-commuting potentials: F01 = -i[A0, A1] = i[B0, B1]
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    b0, b1 = 0.9 * sx, 0.6 * sz
    want = 1j * (b0 @ b1 - b1 @ b0)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        shape = (3, 8, 2, 2)
        gauge = NonAbelianGaugeField(
            np.broadcast_to(b0, shape).copy(), np.broadcast_to(b1, shape).copy(), eps
        )
        f01 = extract_field_strength(gauge.links(), j=0)
        errs.append(np.max(np.abs(f01 - want)))
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def test_first_order_generator_residual_scaling():
    # smooth periodic data on [0, 1): residual after one step is O(eps^2)
    def build(eps):
        sites = int(round(1.0 / eps))
        x = np.arange(sites) / sites
        envelope = np.exp(np.cos(TAU * x) * 1j + np.sin(TAU * x))
        amps = np.stack(
            [envelope, 0.3 * envelope * np.exp(1j * TAU * x), np.cos(TAU * x) * envelope, 0.1 * envelope],
            axis=-1,
        )
        field = SpinorField(amps).normalized()
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        prof = np.cos(TAU * x)[:, None, None]
        b0 = (0.8 * prof * sx)[None]
        b1 = (0.5 * prof * sz + 0.2 * np.eye(2))[None] * np.ones((1, sites, 1, 1))
        return field, NonAbelianGaugeField(b0 * np.ones((1, sites, 1, 1)), b1, eps)

    res = []
    for eps in (1 / 64, 1 / 128):
        field, gauge = build(eps)
        res.append(dirac_generator_residual(field, gauge, mass=0.9))
    assert res[1] < res[0] / 3.0


def test_links_are_unitary():
    rng = np.random.default_rng(8)
    links = random_gauge(rng, 2, 8, 3, 0.9).links()
    for u in (links.u_plus, links.u_minus):
        prod = u @ np.swapaxes(u, -1, -2).conj()
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape), atol=1e-13)

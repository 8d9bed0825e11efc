"""Tests for the U(N)-coupled walk: covariance, reduction, field strength."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qwalk import nonabelian
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
from reference_walks import expi_hermitian_eigh, links_one_temporary

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


def _rotated(rng, spectrum, count=16):
    """count Hermitian matrices of the given eigenvalues, each in a random eigenbasis."""
    v = haar_unitary(rng, (count, len(spectrum), len(spectrum)))
    return np.einsum("kab,b,kcb->kac", v, np.asarray(spectrum, dtype=float), v.conj())


def _expi_cases(rng, n):
    """Stacks that the closed forms must take like eigh: random ones, degenerate and tiny or large spectra, and one
    whose upper triangle and diagonal imaginary parts are off by 1e-13, which eigh (lower triangle) never reads."""
    off = random_hermitian(rng, (9, 5, n, n))
    off += 1e-13 * np.triu(rng.normal(size=off.shape) + 1j * rng.normal(size=off.shape))
    cases = {"random": random_hermitian(rng, (7, 33, n, n)), "zero": np.zeros((4, n, n), dtype=complex),
             "multiple of 1": _rotated(rng, [0.7] * n), "norm 1e-10": 1e-10 * random_hermitian(rng, (64, n, n)),
             "norm 1e3": 1e3 * random_hermitian(rng, (64, n, n)), "upper triangle off": off,
             "1e-9 splitting": _rotated(rng, [0.5, 0.5 + 1e-9, -0.9, 0.2][:n])}
    for a, b in ((0.8, -1.1), (-0.8, 1.1)):  # a doubled eigenvalue; for N = 3, det Q < 0 and then det Q > 0
        cases[f"doubled {a}"] = _rotated(rng, [a, a, b, 0.3][:n])
    return cases


def _norms(h):
    """max(1, |H|) per matrix, for the Hermitian matrix in the lower triangle of h."""
    return np.maximum(1.0, np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expi_matches_the_eigh_reference(n):
    rng = np.random.default_rng(30 + n)
    for name, h in _expi_cases(rng, n).items():
        for stack in (h, h[0]):  # a single matrix comes back as a plain C-contiguous (N, N) array
            got, want = expi_hermitian(stack), expi_hermitian_eigh(stack)
            assert got.shape == stack.shape and (stack.ndim > 2 or got.flags.c_contiguous), name
            if n in (1, 4):  # these N keep the eigh route, bit for bit
                assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name
                continue
            bound = 1e-14 * _norms(stack)
            assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= bound), name
            defect = np.swapaxes(got, -1, -2).conj() @ got - np.eye(n)
            assert np.all(np.max(np.abs(defect), axis=(-2, -1)) <= bound), name


def test_expi_near_a_doubled_eigenvalue_keeps_the_documented_error_at_large_norm():
    # the U(3) closed form knows w^2 to about 1e-16 c1 only: near a doubled eigenvalue it is off by about
    # 1e-16 |Q|^2 (1.7e-10 at |H| = 2e3), where eigh is off by about 1e-16 |H|
    rng = np.random.default_rng(37)
    for a in (1e3, -1e3):
        h = _rotated(rng, [a, a, -2 * a + 0.3], count=64)
        err = np.max(np.abs(expi_hermitian(h) - expi_hermitian_eigh(h)), axis=(-2, -1))
        assert np.all(err <= 1e-15 * _norms(h) ** 2)


def test_links_peak_memory_stays_below_the_eigh_reference():
    # links() forms eps (B0 +- B1) in one temporary per block and no stack of Q or Q^2
    rng = np.random.default_rng(38)
    gauge = random_gauge(rng, 16, 256, 3, 0.5)
    eps = gauge.epsilon

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    reference = peak(lambda: (expi_hermitian_eigh(eps * (gauge.b0 + gauge.b1)),
                              expi_hermitian_eigh(eps * (gauge.b0 - gauge.b1))))
    assert peak(gauge.links) <= reference


def _bytes(links):
    return [np.ascontiguousarray(u).tobytes() for u in (links.u_plus, links.u_minus)]


def test_links_and_the_hermitian_check_need_a_few_mib_beyond_inputs_and_outputs():
    # guards walk-1d-dynamic peak_rss_mb: the check takes one entry plane at a time, links() one block of steps
    rng = np.random.default_rng(39)
    b0, b1 = (random_hermitian(rng, (64, 1024, 3, 3)) for _ in range(2))
    tracemalloc.start()  # after the inputs: the check's peak is what it needs beyond them
    try:
        gauge = NonAbelianGaugeField(b0, b1, 0.5)
        check = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        links = gauge.links()
        outputs, peak = (m - held for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert links.u_plus.nbytes + links.u_minus.nbytes <= outputs
    assert check <= 4 * 2**20 and peak <= outputs + 8 * 2**20


# (steps, batch shape, sites, N, site-steps per block): block rows that do not divide the steps, a step wider than a
# block, the eigh path (N = 1 and 4), batch axes, and a one-temporary stack past numpy's 256 KiB elision threshold
LINK_BLOCKS = {"rows do not divide steps": (7, (), 64, 3, 3 * 64), "a step wider than a block": (5, (), 1024, 2, 1000),
               "n1": (9, (), 128, 1, 4 * 128), "n4": (9, (), 128, 4, 4 * 128), "batch": (6, (2, 3), 32, 3, 5 * 96),
               "past the elision threshold": (20, (), 1024, 3, 1 << 14)}


@pytest.mark.parametrize("steps, batch_shape, sites, n, block", LINK_BLOCKS.values(), ids=LINK_BLOCKS.keys())
def test_links_in_blocks_equal_the_one_temporary_reference(monkeypatch, steps, batch_shape, sites, n, block):
    rng = np.random.default_rng(40)
    shape = (steps, *batch_shape, sites, n, n)
    gauge = NonAbelianGaugeField(random_hermitian(rng, shape), random_hermitian(rng, shape), 0.5,
                                 batch=len(batch_shape))
    want = _bytes(links_one_temporary(gauge))
    for size in (block, 1000, 10**9):
        monkeypatch.setattr(nonabelian, "_LINK_BLOCK", size)
        links = gauge.links()
        assert _bytes(links) == want and (links.batch, links.steps) == (gauge.batch, steps)
        assert all(u[..., a, b].flags.c_contiguous for u in (links.u_plus, links.u_minus)
                   for a in range(n) for b in range(n))  # colour-planar


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_links_equal_each_members_links_bit_for_bit(n):
    # the batched stack's blocks reach numpy's 256 KiB elision threshold, a member alone does not
    rng = np.random.default_rng(41 + n)
    b0, b1 = (random_hermitian(rng, (8, 4, 1024, n, n)) for _ in range(2))
    batched = NonAbelianGaugeField(b0, b1, 0.5, batch=1).links()
    for m in range(4):
        alone = NonAbelianGaugeField(b0[:, m], b1[:, m], 0.5).links()
        assert _bytes(alone) == [np.ascontiguousarray(u[:, m]).tobytes() for u in (batched.u_plus, batched.u_minus)]


class _Commuted:
    """numpy, but an out-less np.multiply(a, b) computes b * a: numpy's temporary elision made a * t into t *= a for
    a temporary t of 256 KiB or more, as in expi_hermitian's four products before they were written np.multiply."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def multiply(a, b, out=None):
        return np.multiply(b, a) if out is None else np.multiply(a, b, out=out)


def test_pinned_products_move_elided_links_by_rounding_only(monkeypatch):
    # links built in one temporary from (steps, sites) planes of 256 KiB or more, like walk-1d-dynamic's
    # 64 x 1024 fields, had these products commuted; the pinned links differ from those by at most 2^-51
    # (N = 3; N = 2's product by i sin r / r commutes exactly), and smaller planes, like nonabelian-check's
    # 720 site-steps, never were commuted
    rng = np.random.default_rng(45)
    for n in (2, 3):
        gauge = random_gauge(rng, 16, 1024, n, 0.5)
        pinned = gauge.links()
        with monkeypatch.context() as patch:
            patch.setattr(nonabelian, "np", _Commuted())
            elided = links_one_temporary(gauge)
        for u, v in ((pinned.u_plus, elided.u_plus), (pinned.u_minus, elided.u_minus)):
            assert np.max(np.abs(u - v)) <= 2**-51


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

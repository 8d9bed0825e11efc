"""Differential tests of the fast paths against frozen reference steppers.

`em_step_2d` caches its phase tables on the gauge and folds the scalar
phase into the Y substep; the (1+2)D step merges its last two coins. The
colour walk `nonabelian_step` works on spin-planar colour planes, and
`sample_averaged_distribution` evolves all samples as one batch. Each
must agree with the straightforward forms in `reference_walks` to
rounding, and the phase cache must never serve tables of stale values.
"""

import math

import numpy as np
import pytest

import reference_walks as ref
from qwalk.abelian import GaugeField2D, em_step_2d, landau_gauge, lattice_current_2d
from qwalk.curved import MetricField2D, curved_step_1p2, evolve_1p2, triad_from_metric
from qwalk.lattice import SpinorField
from qwalk.measured import AharonovConfig, sample_averaged_distribution
from qwalk.nonabelian import NonAbelianGaugeField, nonabelian_step

TOL = 1e-12


def random_state_2d(rng, n1, n2):
    amps = rng.normal(size=(n1, n2, 2)) + 1j * rng.normal(size=(n1, n2, 2))
    return SpinorField(amps).normalized()


def random_gauge(rng, steps, n1, n2, epsilon):
    return GaugeField2D(*(rng.normal(size=(steps, n1, n2)) for _ in range(3)), epsilon)


def max_diff(a: SpinorField, b: SpinorField) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


# ---------------------------------------------------------------------------
# em_step_2d


def test_em_step_matches_reference_on_time_dependent_field():
    rng = np.random.default_rng(41)
    steps, n1, n2 = 5, 24, 18
    gauge = random_gauge(rng, steps, n1, n2, 0.5)
    dtheta = 0.37
    fast = slow = random_state_2d(rng, n1, n2)
    for j in range(steps):
        fast = em_step_2d(fast, gauge, dtheta, j)
        slow = ref.em_step_2d(slow, gauge, dtheta, j)
        assert max_diff(fast, slow) < TOL


def test_em_step_matches_reference_in_static_landau_field():
    rng = np.random.default_rng(42)
    n1, n2 = 32, 24
    gauge = landau_gauge(0.05, 1, n1, n2, 0.5)
    gauge.a0[:] = 0.1 * rng.normal(size=(1, n1, n2))
    gauge.a1[:] = 0.1 * rng.normal(size=(1, n1, n2))
    fast = slow = random_state_2d(rng, n1, n2)
    for _ in range(500):
        fast = em_step_2d(fast, gauge, -0.2, 0)
        slow = ref.em_step_2d(slow, gauge, -0.2, 0)
    assert max_diff(fast, slow) < TOL


def test_lattice_current_mid_step_matches_reference_substep():
    rng = np.random.default_rng(43)
    gauge = random_gauge(rng, 3, 24, 18, 0.5)
    field = random_state_2d(rng, 24, 18)
    current = lattice_current_2d(field, gauge, 0.3, 2)
    mid = ref._em_substep(field.amplitudes, gauge, 0.3, 2, axis=0)
    j2 = np.abs(mid[..., 1]) ** 2 - np.abs(mid[..., 0]) ** 2
    assert np.max(np.abs(current.j2 - j2)) < TOL
    assert current.residual < TOL


# ---------------------------------------------------------------------------
# phase cache safety


@pytest.mark.parametrize("component", ["a0", "a1", "a2"])
def test_in_place_edit_of_stepped_slice_is_seen(component):
    rng = np.random.default_rng(44)
    gauge = random_gauge(rng, 2, 12, 10, 0.7)
    field = random_state_2d(rng, 12, 10)
    em_step_2d(field, gauge, 0.1, 1)
    getattr(gauge, component)[1] += rng.normal(size=(12, 10))
    assert max_diff(em_step_2d(field, gauge, 0.1, 1), ref.em_step_2d(field, gauge, 0.1, 1)) < TOL
    getattr(gauge, component)[1, 3, 4] = 2.5  # a single site changes too
    assert max_diff(em_step_2d(field, gauge, 0.1, 1), ref.em_step_2d(field, gauge, 0.1, 1)) < TOL


def test_epsilon_change_is_seen():
    rng = np.random.default_rng(45)
    gauge = random_gauge(rng, 1, 12, 10, 0.7)
    field = random_state_2d(rng, 12, 10)
    em_step_2d(field, gauge, 0.1, 0)
    gauge.epsilon = 0.4
    assert max_diff(em_step_2d(field, gauge, 0.1, 0), ref.em_step_2d(field, gauge, 0.1, 0)) < TOL


def test_alternating_slices_and_gauges_match_reference():
    rng = np.random.default_rng(46)
    first = random_gauge(rng, 2, 12, 10, 0.7)
    second = random_gauge(rng, 2, 12, 10, 0.3)
    field = random_state_2d(rng, 12, 10)
    for gauge, j in [(first, 0), (first, 1), (first, 0), (second, 0), (first, 0),
                     (second, 1), (first, 1), (second, 1), (first, 1)]:
        assert max_diff(em_step_2d(field, gauge, 0.2, j), ref.em_step_2d(field, gauge, 0.2, j)) < TOL


def test_phase_cache_is_hidden_from_repr():
    gauge = GaugeField2D.zero(1, 4, 4)
    text = repr(gauge)
    em_step_2d(SpinorField.delta((4, 4)), gauge, 0.0, 0)
    assert gauge._phases is not None
    assert repr(gauge) == text
    assert "_phases" not in text


# ---------------------------------------------------------------------------
# (1+2)D curved walk


def varying_triad(rng, times, n1, n2):
    gxx = -(1.4 + 0.3 * rng.random((times, n1, n2)))
    gyy = -(1.5 + 0.3 * rng.random((times, n1, n2)))
    gxy = 0.2 * (2.0 * rng.random((times, n1, n2)) - 1.0)
    return triad_from_metric(MetricField2D(gxx, gyy, gxy))


# a time-dependent triad covers only its stored samples: from start 1, three samples allow two steps
@pytest.mark.parametrize("times, steps", [(1, 0), (1, 1), (1, 200), (3, 0), (3, 1), (3, 2)])
def test_evolve_1p2_matches_reference(times, steps):
    rng = np.random.default_rng(47 + times)
    n1, n2, mass, eps, start = 24, 18, 0.3, 0.5, 1
    triad = varying_triad(rng, times, n1, n2)
    field = random_state_2d(rng, n1, n2)
    fast = evolve_1p2(field, triad, mass=mass, steps=steps, start=start, epsilon=eps)
    slow = field
    for j in range(start, start + steps):
        slow = ref.curved_step_1p2(slow, triad, mass, j, eps)
    assert max_diff(fast, slow) < TOL


@pytest.mark.parametrize("j", [0, 1, 2])
def test_curved_step_1p2_matches_reference(j):
    rng = np.random.default_rng(50)
    triad = varying_triad(rng, 3, 24, 18)
    field = random_state_2d(rng, 24, 18)
    fast = curved_step_1p2(field, triad, mass=0.3, j=j, epsilon=0.5)
    assert max_diff(fast, ref.curved_step_1p2(field, triad, 0.3, j, 0.5)) < TOL


# ---------------------------------------------------------------------------
# U(N) colour walk and the sampled measured walk

TOL_1D = 1e-15


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


@pytest.mark.parametrize("layout", ["interleaved", "planar"])
@pytest.mark.parametrize("sites", [1, 2, 7, 64, 1024])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonabelian_step_matches_reference(n, sites, layout):
    rng = np.random.default_rng(60 + 10 * n + sites)
    slices = 5  # the 200 steps cycle through these link slices
    links = NonAbelianGaugeField(random_hermitian(rng, (slices, sites, n, n)),
                                 random_hermitian(rng, (slices, sites, n, n)), 0.5).links()
    amps = rng.normal(size=(sites, 2 * n)) + 1j * rng.normal(size=(sites, 2 * n))
    amps /= np.linalg.norm(amps)
    if layout == "planar":
        amps = np.ascontiguousarray(amps.T).T
    fast = slow = SpinorField(amps)
    for j in range(200):
        fast = nonabelian_step(fast, links, 0.7, j % slices)
        slow = ref.nonabelian_step(slow, links, 0.7, j % slices)
    assert max_diff(fast, slow) <= TOL_1D


def measured_walk(spin_up_prob, beta_angle):
    return AharonovConfig(
        spin_up=math.sqrt(spin_up_prob),
        spin_down=math.sqrt(1.0 - spin_up_prob) * np.exp(0.4j),
        coin_alpha=math.cos(beta_angle) * np.exp(-0.3j),
        coin_beta=math.sin(beta_angle) * np.exp(0.9j),
        coin_phase=0.7,
    )


# a zero-probability branch must never be normalized: warnings are errors here
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spin_up_prob, beta_angle", [
    (0.6, 0.8), (0.6, 0.0), (0.0, 0.8), (0.0, 0.0), (1.0, 0.8), (1.0, 0.0),
])
@pytest.mark.parametrize("seed", [0, 3, 1234])
def test_sampled_distribution_matches_reference(spin_up_prob, beta_angle, seed):
    walk = measured_walk(spin_up_prob, beta_angle)
    start = np.zeros(24, dtype=np.complex128)
    start[12] = 1.0
    for steps, samples in [(0, 5), (1, 1), (20, 25)]:
        fast = sample_averaged_distribution(start, walk, steps, samples, seed)
        slow = ref.sample_averaged_distribution(start, walk, steps, samples, seed)
        assert np.max(np.abs(fast - slow)) <= TOL_1D

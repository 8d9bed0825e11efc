"""Tests for the continuum reference dynamics and the convergence fit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qwalk.dirac import (
    ConvergenceReport,
    dirac_evolve,
    fit_order,
    mode_propagator,
    smooth_profile,
    walk_dirac_convergence,
)
from qwalk.lattice import SpinorField

TAU = 2.0 * math.pi


def test_mode_propagator_unitary_and_group_property():
    k = np.linspace(-20, 20, 11)
    u1 = mode_propagator(k, mass=0.7, a0=0.2, a1=-0.4, t=0.3)
    u2 = mode_propagator(k, mass=0.7, a0=0.2, a1=-0.4, t=0.5)
    u3 = mode_propagator(k, mass=0.7, a0=0.2, a1=-0.4, t=0.8)
    np.testing.assert_allclose(u2 @ u1, u3, atol=1e-13)
    prod = u1 @ np.swapaxes(u1, -1, -2).conj()
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(2), prod.shape), atol=1e-13)


def test_plane_wave_eigenmode_phase():
    # an H_k eigenvector picks up exactly exp(i lambda t)
    sites, eps, mass = 64, 1.0 / 64.0, 1.3
    m_index = 5
    k = TAU * m_index  # physical momentum of mode 5 on the unit domain
    h = np.array([[k, -mass], [-mass, -k]], dtype=complex)
    w, v = np.linalg.eigh(h)
    spin = v[:, 1]
    field = SpinorField.plane_wave(sites, k * eps, spin)  # lattice phase k*eps per site
    t = 0.37
    out = dirac_evolve(field, eps, mass, t)
    np.testing.assert_allclose(out.amplitudes, np.exp(1j * w[1] * t) * field.amplitudes, atol=1e-12)


def test_uniform_mass_rabi_rotation():
    # k = 0 spinor under the mass term alone: psi(t) = exp(-i t m sigma1) psi(0)
    sites, eps, mass, t = 16, 0.25, 0.9, 1.1
    amps = np.zeros((sites, 2), dtype=complex)
    amps[:, 0] = 1.0
    field = SpinorField(amps).normalized()
    out = dirac_evolve(field, eps, mass, t)
    ratio = out.amplitudes / field.amplitudes[:, :1].sum(axis=1, keepdims=True)
    got_up = out.amplitudes[0, 0] / field.amplitudes[0, 0]
    got_dn = out.amplitudes[0, 1] / field.amplitudes[0, 0]
    assert abs(got_up - math.cos(mass * t)) < 1e-12
    assert abs(got_dn - (-1j * math.sin(mass * t))) < 1e-12
    del ratio


def test_massless_free_evolution_is_translation():
    rng = np.random.default_rng(9)
    sites, eps = 128, 1.0 / 128.0
    amps = rng.normal(size=(sites, 2)) + 1j * rng.normal(size=(sites, 2))
    field = SpinorField(amps).normalized()
    out = dirac_evolve(field, eps, mass=0.0, duration=17 * eps)
    want = np.stack(
        [np.roll(field.amplitudes[:, 0], -17), np.roll(field.amplitudes[:, 1], +17)], axis=-1
    )
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-11)


def test_time_dependent_scalar_potential_accumulates_phase():
    # uniform a0(t) is a pure phase exp(i int a0 dt) on every mode
    sites, eps, t_end = 32, 0.125, 0.8
    a0 = lambda t: 1.3 * math.sin(TAU * t) + 0.4
    field = smooth_profile(sites)
    out = dirac_evolve(field, eps, mass=0.0, duration=t_end, a0=a0, substep=1e-4)
    ref = dirac_evolve(field, eps, mass=0.0, duration=t_end)
    phase, _ = quad(a0, 0.0, t_end)
    np.testing.assert_allclose(out.amplitudes, np.exp(1j * phase) * ref.amplitudes, atol=1e-9)


def test_scalar_potentials_equal_the_same_constant_callables():
    # scalars evolve in one exact application, callables in midpoint substeps; a constant gives one answer
    field = smooth_profile(16)
    scalar = dirac_evolve(field, 1.0 / 16.0, mass=0.6, duration=0.1, a0=0.7, a1=-0.4)
    stepped = dirac_evolve(field, 1.0 / 16.0, mass=0.6, duration=0.1, a0=lambda t: 0.7, a1=lambda t: -0.4)
    assert np.abs(scalar.amplitudes - stepped.amplitudes).max() < 1e-12


def test_norm_conserved_time_dependent():
    field = smooth_profile(64)
    out = dirac_evolve(
        field, 1.0 / 64.0, mass=0.8, duration=0.5,
        a0=lambda t: math.cos(3 * t), a1=lambda t: 0.5 * t,
    )
    assert abs(out.norm_sq() - 1.0) < 1e-12


@pytest.mark.parametrize("sites, substep", [
    (48, 1e-3),  # 300 substeps: a block of 256, then one of 44
    (48, 1.0 / 256.0),  # exactly one block of 256
    (1024, 1e-3),  # 4 MiB of propagators is 64 substeps at 1024 modes: five blocks
])
def test_batched_midpoint_propagators_equal_the_per_substep_loop(sites, substep):
    field = smooth_profile(sites)
    eps, mass, duration = 1.0 / sites, 0.8, 0.3 if substep == 1e-3 else 1.0
    a0 = lambda t: 0.3 * math.sin(5.0 * t)
    a1 = lambda t: -0.7 * t
    amps = np.fft.fft(field.amplitudes, axis=0)
    k = TAU * np.fft.fftfreq(sites, d=eps)
    nsub = int(math.ceil(duration / substep))
    dt = duration / nsub
    for i in range(nsub):
        tm = (i + 0.5) * dt
        amps = np.einsum("kab,kb->ka", mode_propagator(k, mass, a0(tm), a1(tm), dt), amps)
    want = np.fft.ifft(amps, axis=0)
    got = dirac_evolve(field, eps, mass, duration, a0=a0, a1=a1, substep=substep).amplitudes
    assert np.array_equal(got, want)


def test_fit_order_recovers_slope():
    eps = np.array([1 / 16, 1 / 32, 1 / 64])
    errs = 3.0 * eps**1.35
    assert abs(fit_order(eps, errs) - 1.35) < 1e-12


def test_walk_matches_translation_exactly_massless_free():
    report = walk_dirac_convergence([1 / 32, 1 / 64], mass=0.0, duration=0.5)
    assert np.all(report.errors < 1e-11)


def test_walk_convergence_first_order():
    report = walk_dirac_convergence(
        [1 / 32, 1 / 64, 1 / 128],
        mass=1.1,
        duration=0.5,
        a0=lambda t: 0.7 * math.cos(TAU * t),
        a1=lambda t: 0.9 * math.sin(TAU * t) + 0.3,
    )
    assert isinstance(report, ConvergenceReport)
    assert np.all(np.diff(report.errors) < 0)
    assert report.order > 0.9


def test_convergence_rejects_bad_epsilon():
    with pytest.raises(ValueError, match="divide"):
        walk_dirac_convergence([0.3], mass=0.0, duration=1.0)


# zero used to end in ZeroDivisionError, negative steps in numpy's "negative dimensions" text
@pytest.mark.parametrize("epsilons", [[0.0, 0.125], [-0.125, 0.0625]])
def test_convergence_rejects_nonpositive_epsilons(epsilons):
    with pytest.raises(ValueError, match="epsilons must be positive"):
        walk_dirac_convergence(epsilons, mass=0.8, duration=0.5)


def test_convergence_rejects_a_duration_shorter_than_one_step():
    with pytest.raises(ValueError, match="divide"):
        walk_dirac_convergence([0.125, 0.0625], mass=0.8, duration=1e-300)

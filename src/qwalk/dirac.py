"""Continuum Dirac reference dynamics and walk convergence measurement.

Solves d/dt psi = [sigma3 (d/dx - i A1) + i A0 - i m sigma1] psi on a
periodic x grid for spatially uniform, possibly time dependent A_mu.
Each Fourier mode evolves with the closed-form 2x2 propagator
exp(i t H_k), H_k = (k - A1) sigma3 - m sigma1 + A0; time dependence is
handled with midpoint substeps much finer than the walk step, so the
reference solution is effectively exact against an O(eps) walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qwalk.abelian import GaugeField1D, evolve_electric
from qwalk.lattice import TAU, SpinorField, _einsum


def _as_callable(a) -> Callable[[float], float]:
    if a is None:
        return lambda t: 0.0
    if callable(a):
        return a
    value = float(a)
    return lambda t: value


def mode_propagator(k: np.ndarray, mass: float, a0, a1, t: float) -> np.ndarray:
    """exp(i t H_k) for every mode: H_k = (k - a1) sigma3 - m sigma1 + a0; a0, a1 may broadcast against k."""
    kz = np.asarray(k, dtype=float) - a1
    omega = np.sqrt(kz**2 + mass**2)
    # exp(i t (n . sigma)) = cos(t w) + i t sinc(t w) (n . sigma)
    c = np.cos(t * omega)
    s = t * np.sinc(t * omega / np.pi)
    u = np.empty(kz.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = c + 1j * s * kz
    u[..., 1, 1] = c - 1j * s * kz
    u[..., 0, 1] = -1j * s * mass
    u[..., 1, 0] = -1j * s * mass
    return u * np.exp(1j * t * np.asarray(a0))[..., None, None]


def dirac_evolve(field: SpinorField, epsilon: float, mass: float, duration: float,
                 a0=None, a1=None, substep: float | None = None) -> SpinorField:
    """Evolve a sampled spinor field by `duration` in continuum time.

    The grid spacing is epsilon (site p sits at x = p epsilon). a0 and a1
    may be scalars, callables of t, or None. Constant potentials evolve
    in one exact application; time dependent ones use midpoint substeps
    of size `substep` (default min(eps^2, 1e-3)).
    """
    amps = np.fft.fft(field.amplitudes, axis=0)
    k = TAU * np.fft.fftfreq(amps.shape[0], d=epsilon)
    f0, f1 = _as_callable(a0), _as_callable(a1)
    if substep is None:
        substep = min(epsilon**2, 1e-3)
    nsub = max(1, int(math.ceil(duration / substep))) if callable(a0) or callable(a1) else 1
    dt = duration / nsub
    size = min(256, max(1, 65536 // k.size))  # substeps per propagator call: at most 4 MiB of propagators
    bufs = np.empty((2,) + amps.shape, dtype=np.complex128)  # the substeps write them in turn
    for lo in range(0, nsub, size):
        tm = [(i + 0.5) * dt for i in range(lo, min(lo + size, nsub))]
        block = mode_propagator(k, mass, np.array([[f0(t)] for t in tm]), np.array([[f1(t)] for t in tm]), dt)
        for i, u in enumerate(block, lo):
            amps = _einsum("kab,kb->ka", u, amps, out=bufs[i % 2])
    return SpinorField(np.fft.ifft(amps, axis=0))


def smooth_profile(sites: int) -> SpinorField:
    """Smooth periodic initial data: trigonometric envelope, mixed spin."""
    x = np.arange(sites) / sites
    env = np.exp(np.cos(TAU * x))
    up = env * np.exp(1j * TAU * x)
    dn = 0.6 * env * np.exp(-1j * 2 * TAU * x + 0.3j)
    return SpinorField(np.stack([up, dn], axis=-1)).normalized()


@dataclass
class ConvergenceReport:
    """Sup-norm walk-vs-continuum errors and the fitted order in epsilon."""

    epsilons: np.ndarray
    errors: np.ndarray
    order: float


def fit_order(epsilons: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(epsilon)."""
    le = np.log(np.asarray(epsilons, dtype=float))
    lr = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(le, lr, 1)[0])


def _walk_grid(eps: float, duration: float):
    """(sites, steps) when eps > 0 divides the unit domain and the duration into at least one step, else None."""
    sites, steps = round(1.0 / eps, 0), round(duration / eps, 0)  # round(inf, 0) is inf, not OverflowError
    if steps < 1 or abs(sites * eps - 1.0) > 1e-12 or abs(steps * eps - duration) > 1e-12:
        return None
    return int(sites), int(steps)


def walk_dirac_convergence(epsilons: Sequence[float], mass: float, duration: float,
                           a0=None, a1=None,
                           profile: Callable[[int], SpinorField] = smooth_profile) -> ConvergenceReport:
    """Error of the electrically coupled walk against the continuum solution.

    For each eps the domain [0, 1) carries 1/eps sites and the walk takes
    duration/eps steps with dalpha = eps A0(t_j), dxi = -eps A1(t_j),
    dtheta = -eps m; the reference field evolves spectrally. Errors are
    sup norms over all amplitudes at the final time.
    """
    if any(eps <= 0 for eps in epsilons):
        raise ValueError("epsilons must be positive")
    f0, f1 = _as_callable(a0), _as_callable(a1)
    errors = []
    for eps in epsilons:
        if (grid := _walk_grid(eps, duration)) is None:
            raise ValueError("epsilon must divide both the unit domain and the duration")
        sites, steps = grid
        t = np.arange(steps) * eps
        gauge = GaugeField1D(
            np.array([[f0(tj)] for tj in t]) * np.ones((1, sites)),
            np.array([[f1(tj)] for tj in t]) * np.ones((1, sites)),
            eps,
        )
        start = profile(sites)
        walked = evolve_electric(start, gauge, mass, steps)
        exact = dirac_evolve(start, eps, mass, duration, a0=a0, a1=a1)
        errors.append(float(np.max(np.abs(walked.amplitudes - exact.amplitudes))))
    eps_arr = np.asarray(list(epsilons), dtype=float)
    err_arr = np.asarray(errors)
    return ConvergenceReport(eps_arr, err_arr, fit_order(eps_arr, err_arr))

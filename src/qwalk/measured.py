"""Measured-and-reinitialized quantum walk (Aharonov scheme).

Each step acts on a spinless "external ket" over sites: the internal state is
re-prepared in a fixed superposition (c+, c-), one walk step is applied, and
the internal state is measured in the computational basis.  The surviving
branch, renormalized, is the next external ket.  Outcome +1 transports toward
larger site index, outcome -1 toward smaller (opposite to the spin convention
of :mod:`qwalk.lattice`, where the upper component moves toward lower index).

One step conditioned on outcome s reads

    A(+) psi = e^{i w} (alpha c+ R psi + beta  c- L psi) / sqrt(P+)
    A(-) psi = e^{i w} (-conj(beta) c+ R psi + conj(alpha) c- L psi) / sqrt(P-)

with R/L the one-site right/left translations and P(s) the squared norm of
the unnormalized branch.  Averaging the position distribution over all 2^N
outcome sequences removes every interference term and leaves a classical
random walk with per-step right probability |c+|^2, independent of the coin
(alpha, beta, w).  The enumeration here exploits the exact cancellation

    P(sequence) * |psi_sequence|^2 = |unnormalized branch product|^2

so no per-branch normalization (and no division by small probabilities) is
ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12
_IMPOSSIBLE_BRANCH = 1e-15
ENUMERATION_LIMIT = 16  # 2^N branch kets held at once


@dataclass(frozen=True)
class AharonovConfig:
    """Time-independent parameters of the measured walk.

    spin_up/spin_down are the re-preparation amplitudes (c+, c-); coin_alpha,
    coin_beta the SU(2) coin entries [[alpha, beta], [-conj(beta),
    conj(alpha)]]; coin_phase the overall phase w of the walk unitary.
    """

    spin_up: complex
    spin_down: complex
    coin_alpha: complex
    coin_beta: complex = 0.0
    coin_phase: float = 0.0

    def __post_init__(self) -> None:
        spin = abs(self.spin_up) ** 2 + abs(self.spin_down) ** 2
        if abs(spin - 1.0) > _NORM_TOL:
            raise ValueError(
                f"spin preparation not normalized: |c+|^2+|c-|^2 = {spin!r}"
            )
        coin = abs(self.coin_alpha) ** 2 + abs(self.coin_beta) ** 2
        if abs(coin - 1.0) > _NORM_TOL:
            raise ValueError(
                f"coin not normalized: |alpha|^2+|beta|^2 = {coin!r}"
            )

    @property
    def pi_plus(self) -> float:
        """Right-step probability of the outcome-averaged classical walk."""
        return abs(self.spin_up) ** 2

    @property
    def coinless(self) -> bool:
        """True when beta = 0, i.e. each branch is a rigid translation."""
        return self.coin_beta == 0


def _branches(ext_ket: np.ndarray, config: AharonovConfig) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (+, -) branch kets after one scheme step."""
    psi = np.asarray(ext_ket, dtype=np.complex128)
    if psi.ndim < 1:
        raise ValueError("external ket must have at least one site axis")
    right = np.concatenate((psi[..., -1:], psi[..., :-1]), axis=-1)   # content moves toward larger index
    left = np.concatenate((psi[..., 1:], psi[..., :1]), axis=-1)
    phase = np.exp(1j * config.coin_phase)
    up = config.spin_up
    down = config.spin_down
    alpha = config.coin_alpha
    beta = config.coin_beta
    plus = phase * (alpha * up * right + beta * down * left)
    minus = phase * (-np.conj(beta) * up * right + np.conj(alpha) * down * left)
    return plus, minus


def outcome_probabilities(ext_ket: np.ndarray, config: AharonovConfig) -> tuple[float, float]:
    """(P+, P-) for one step from a normalized external ket."""
    plus, minus = _branches(ext_ket, config)
    return float(np.vdot(plus, plus).real), float(np.vdot(minus, minus).real)


def aharonov_step(
    ext_ket: np.ndarray, config: AharonovConfig, outcome: int
) -> tuple[np.ndarray, float]:
    """One measured-walk step conditioned on outcome +1 or -1.

    Returns the renormalized external ket and the probability of the outcome.
    Raises if the requested branch has probability below 1e-15.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    plus, minus = _branches(ext_ket, config)
    branch = plus if outcome == 1 else minus
    probability = float(np.vdot(branch, branch).real)
    if probability < _IMPOSSIBLE_BRANCH:
        raise ValueError(
            f"outcome {outcome:+d} has probability {probability:.3e}: "
            "measurement of an impossible branch"
        )
    return branch / math.sqrt(probability), probability


def evolve_outcomes(
    ext_ket: np.ndarray, config: AharonovConfig, outcomes
) -> tuple[np.ndarray, float]:
    """Apply a fixed outcome sequence; returns (final ket, joint probability)."""
    psi = np.asarray(ext_ket, dtype=np.complex128)
    joint = 1.0
    for outcome in outcomes:
        psi, probability = aharonov_step(psi, config, outcome)
        joint *= probability
    return psi, joint


def enumerate_averaged_distribution(
    ext_ket: np.ndarray, config: AharonovConfig, steps: int
) -> np.ndarray:
    """Outcome-averaged position distribution after `steps` measured steps.

    Exhaustive over all 2^steps sequences via unnormalized branch doubling;
    the sequence probabilities cancel the branch normalizations exactly, so
    the result is sum_sequences |branch product|^2 sitewise.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > ENUMERATION_LIMIT:
        raise ValueError(
            f"steps = {steps} exceeds the enumeration limit {ENUMERATION_LIMIT}; "
            "use sample_averaged_distribution"
        )
    psi = np.asarray(ext_ket, dtype=np.complex128)
    kets = psi[np.newaxis, :]
    for _ in range(steps):
        plus, minus = _branches(kets, config)
        kets = np.concatenate([plus, minus], axis=0)
    return np.sum(np.abs(kets) ** 2, axis=0)


def sample_averaged_distribution(
    ext_ket: np.ndarray,
    config: AharonovConfig,
    steps: int,
    samples: int,
    seed: int | None = None,
) -> np.ndarray:
    """Monte Carlo estimate of the averaged distribution for large step counts.

    Draws outcome sequences with their true probabilities using a seeded
    generator; deterministic for a fixed seed. All samples evolve as one
    (samples, sites) stack; sample s at step t takes the + branch when the
    uniform draw [s, t] of a sample-major (samples, steps) table is below
    P+, and only the chosen branch is normalized.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if samples <= 0:
        raise ValueError("samples must be positive")
    draws = np.random.default_rng(seed).random((samples, steps))
    psi0 = np.asarray(ext_ket, dtype=np.complex128)
    # a real copy: the branch products round differently on a broadcast view
    kets = np.tile(psi0, (samples, 1))
    for t in range(steps):
        plus, minus = _branches(kets, config)
        p_plus, p_minus = _norms_sq(plus), _norms_sq(minus)
        take_plus = draws[:, t] < p_plus
        chosen = np.where(take_plus[:, None], plus, minus)
        kets = chosen / np.sqrt(np.where(take_plus, p_plus, p_minus))[:, None]
    return np.sum(np.abs(kets) ** 2, axis=0) / samples


def _norms_sq(kets: np.ndarray) -> np.ndarray:
    """Squared norm of each ket in a (samples, sites) stack; rounds like np.vdot per ket."""
    return (kets.conj()[:, np.newaxis, :] @ kets[:, :, np.newaxis])[:, 0, 0].real


def classical_rw_distribution(pi_plus, steps: int, initial: np.ndarray) -> np.ndarray:
    """Biased classical random walk on the periodic lattice.

    pi_plus is the right-step probability, a scalar or a length-`steps`
    per-step sequence.  Iterates P'[p] = pi+ P[p-1] + (1-pi+) P[p+1].
    For constant pi+ and a delta start the position mean after N steps is
    N(pi+ - pi-) and the position variance 4N pi+ pi-.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    probabilities = np.broadcast_to(np.asarray(pi_plus, dtype=np.float64), (steps,))
    if np.any((probabilities < 0.0) | (probabilities > 1.0)):
        raise ValueError("pi_plus entries must lie in [0, 1]")
    distribution = np.asarray(initial, dtype=np.float64).copy()
    for pi in probabilities:
        distribution = pi * np.roll(distribution, 1) + (1.0 - pi) * np.roll(distribution, -1)
    return distribution

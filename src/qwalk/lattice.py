"""Homogeneous walk kernel: spinor fields, Euler coins, shifts, dispersion.

Conventions used throughout the package:

* one walk step is shift first, then coin; the upper spin component
  moves one site towards lower index, the lower component towards
  higher index;
* lattices are periodic, amplitudes are complex128, stored site-major
  with the internal (spin, possibly times color) index innermost;
* quasimomentum lives in [-pi, pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# coins


@dataclass(frozen=True)
class CoinAngles:
    """Euler angles (alpha, theta, xi, zeta) of a U(2) coin.

    The canonical parameter set is alpha in [0, pi), theta in [0, pi/2],
    xi and zeta in [0, 2*pi).
    """

    alpha: float
    theta: float
    xi: float
    zeta: float

    def canonical(self) -> "CoinAngles":
        return CoinAngles(*canonicalize_angles(self.alpha, self.theta, self.xi, self.zeta))

    def matrix(self) -> np.ndarray:
        return build_coin_euler(self.alpha, self.theta, self.xi, self.zeta)


def build_coin_euler(alpha, theta, xi, zeta) -> np.ndarray:
    """U(2) coin from Euler angles, shape (..., 2, 2).

    U = e^{i*alpha} [[e^{i*xi} cos(theta),   e^{i*zeta} sin(theta)],
                     [-e^{-i*zeta} sin(theta), e^{-i*xi} cos(theta)]]

    Scalar angles give a single matrix; array angles broadcast to a
    field of matrices.
    """
    alpha, theta, xi, zeta = np.broadcast_arrays(
        np.asarray(alpha, dtype=float),
        np.asarray(theta, dtype=float),
        np.asarray(xi, dtype=float),
        np.asarray(zeta, dtype=float),
    )
    c = np.cos(theta)
    s = np.sin(theta)
    u = np.empty(alpha.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = np.exp(1j * xi) * c
    u[..., 0, 1] = np.exp(1j * zeta) * s
    u[..., 1, 0] = -np.exp(-1j * zeta) * s
    u[..., 1, 1] = np.exp(-1j * xi) * c
    u *= np.exp(1j * alpha)[..., None, None]
    return u


def _wrap(x: float, period: float) -> float:
    r = math.fmod(x, period)
    if r < 0.0:
        r += period
    if r >= period:  # rounding of (negative tiny) + period
        r -= period
    return r


def canonicalize_angles(alpha: float, theta: float, xi: float, zeta: float):
    """Fold Euler angles into the canonical set without changing the matrix.

    Uses the identities
      (alpha, theta+pi, xi, zeta)  == (alpha+pi, theta, xi, zeta)
      (alpha, -theta, xi, zeta)    == (alpha, theta, xi, zeta+pi)
      (alpha+pi, theta, xi, zeta)  == (alpha, theta, xi+pi, zeta+pi)
    and, on the degenerate boundaries, zeta := 0 at theta == 0 and
    xi := 0 at theta == pi/2.
    """
    theta = _wrap(theta, TAU)
    if theta >= math.pi:
        theta -= math.pi
        alpha += math.pi
    if theta > math.pi / 2.0:
        theta = math.pi - theta
        alpha += math.pi
        zeta += math.pi
    alpha = _wrap(alpha, TAU)
    if alpha >= math.pi:
        alpha -= math.pi
        xi += math.pi
        zeta += math.pi
    xi = _wrap(xi, TAU)
    zeta = _wrap(zeta, TAU)
    if theta == 0.0:
        zeta = 0.0
    elif theta == math.pi / 2.0:
        xi = 0.0
    return alpha, theta, xi, zeta


def standard_coin(theta) -> np.ndarray:
    """C(theta) = [[cos, i sin], [i sin, cos]], equals the Euler coin (0, theta, 0, pi/2)."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    u = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = c
    u[..., 0, 1] = 1j * s
    u[..., 1, 0] = 1j * s
    u[..., 1, 1] = c
    return u


def spin_phase(omega) -> np.ndarray:
    """F(omega) = diag(e^{i omega}, e^{-i omega}), shape (..., 2, 2)."""
    omega = np.asarray(omega, dtype=float)
    f = np.zeros(omega.shape + (2, 2), dtype=np.complex128)
    f[..., 0, 0] = np.exp(1j * omega)
    f[..., 1, 1] = np.exp(-1j * omega)
    return f


HADAMARD_ANGLES = CoinAngles(math.pi / 2, math.pi / 4, 3 * math.pi / 2, 3 * math.pi / 2)


def factor_unitary(u: np.ndarray, tol: float = 1e-10):
    """Split U(N) into determinant phase and SU(N) part.

    Returns (omega, special) with det U = e^{i*omega}, omega in [0, 2*pi),
    and special = U * e^{-i*omega/N} in SU(N) (k = 0 branch of the N-th
    root). Raises ValueError with the unitarity defect if U is not
    unitary within tol.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[-1]
    defect = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(n), axis=(-2, -1))
    worst = float(np.max(defect))
    if worst > tol:
        raise ValueError(f"matrix is not unitary: ||U^dag U - 1|| = {worst:.3e} > {tol:.1e}")
    omega = np.angle(np.linalg.det(u)) % TAU
    special = u * np.exp(-1j * omega / n)[..., None, None]
    return omega, special


# ---------------------------------------------------------------------------
# spinor fields


@dataclass
class SpinorField:
    """Amplitudes on a periodic lattice, shape (*extents, internal_dim)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim < 2:
            raise ValueError("amplitudes must have at least one lattice axis plus the internal axis")

    @property
    def dims(self) -> int:
        return self.amplitudes.ndim - 1

    @property
    def extents(self) -> tuple:
        return self.amplitudes.shape[:-1]

    @property
    def internal_dim(self) -> int:
        return self.amplitudes.shape[-1]

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probability(self) -> np.ndarray:
        """Site occupation, summed over the internal index."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=-1)

    def normalized(self) -> "SpinorField":
        return SpinorField(self.amplitudes / math.sqrt(self.norm_sq()))

    @classmethod
    def delta(cls, extents, site=None, spin=(1.0, 0.0)) -> "SpinorField":
        """Point source at `site` (defaults to the lattice center)."""
        extents = tuple(int(n) for n in np.atleast_1d(extents))
        spin = np.asarray(spin, dtype=np.complex128)
        spin = spin / np.linalg.norm(spin)
        if site is None:
            site = tuple(n // 2 for n in extents)
        amps = np.zeros(extents + (spin.size,), dtype=np.complex128)
        amps[tuple(np.atleast_1d(site))] = spin
        return cls(amps)

    @classmethod
    def gaussian(cls, extents, center=None, k0=None, spin=(1.0, 0.0), width: float = 6.0) -> "SpinorField":
        """Normalized Gaussian packet of the given width (sites), optional carrier k0."""
        extents = tuple(int(n) for n in np.atleast_1d(extents))
        spin = np.asarray(spin, dtype=np.complex128)
        spin = spin / np.linalg.norm(spin)
        if center is None:
            center = tuple(n // 2 for n in extents)
        center = np.atleast_1d(center)
        if k0 is None:
            k0 = np.zeros(len(extents))
        k0 = np.atleast_1d(k0)
        envelope = np.ones(extents, dtype=np.complex128)
        for axis, n in enumerate(extents):
            p = np.arange(n)
            d = p - center[axis]
            d -= np.rint(d / n).astype(int) * n  # periodic distance
            g = np.exp(-(d**2) / (2.0 * width**2) + 1j * k0[axis] * p)
            envelope = envelope * g.reshape([-1 if a == axis else 1 for a in range(len(extents))])
        amps = envelope[..., None] * spin
        return cls(amps).normalized()

    @classmethod
    def plane_wave(cls, extents, k, spin) -> "SpinorField":
        """Normalized plane wave; k must be admissible (multiple of 2*pi/extent)."""
        extents = tuple(int(n) for n in np.atleast_1d(extents))
        k = np.atleast_1d(np.asarray(k, dtype=float))
        for axis, n in enumerate(extents):
            m = k[axis] * n / TAU
            if abs(m - round(m)) > 1e-9:
                raise ValueError(f"k[{axis}] = {k[axis]} is not a multiple of 2*pi/{n}")
        spin = np.asarray(spin, dtype=np.complex128)
        spin = spin / np.linalg.norm(spin)
        phase = np.zeros(extents)
        for axis, n in enumerate(extents):
            p = np.arange(n).reshape([-1 if a == axis else 1 for a in range(len(extents))])
            phase = phase + k[axis] * p
        amps = np.exp(1j * phase)[..., None] * spin
        return cls(amps).normalized()


# ---------------------------------------------------------------------------
# periodic stencils of spacetime-sampled arrays


def _avg(q: np.ndarray, axis: int) -> np.ndarray:
    """Neighbour average (q[p+1] + q[p-1]) / 2 along a periodic axis."""
    return 0.5 * (np.roll(q, -1, axis=axis) + np.roll(q, +1, axis=axis))


def _cdiff(q: np.ndarray, axis: int) -> np.ndarray:
    """Centred difference (q[p+1] - q[p-1]) / 2 along a periodic axis."""
    return 0.5 * (np.roll(q, -1, axis=axis) - np.roll(q, +1, axis=axis))


# ---------------------------------------------------------------------------
# evolution


def _spin_shift(field: SpinorField, axis: int, sign: int) -> SpinorField:
    """Move the upper half of the internal components by -sign sites, the lower half by +sign."""
    amps = field.amplitudes
    half = field.internal_dim // 2
    if 2 * half != field.internal_dim:
        raise ValueError("internal dimension must be even (spin doublet times color)")
    out = np.empty_like(amps)
    out[..., :half] = np.roll(amps[..., :half], -sign, axis=axis)
    out[..., half:] = np.roll(amps[..., half:], sign, axis=axis)
    return SpinorField(out)


def shift(field: SpinorField, axis: int = 0) -> SpinorField:
    """Spin-dependent translation along a lattice axis.

    The upper half of the internal components receives the value from
    site p+1 (moves towards lower index), the lower half from p-1.
    """
    return _spin_shift(field, axis, +1)


def inverse_shift(field: SpinorField, axis: int = 0) -> SpinorField:
    """Inverse of `shift`: upper components move towards higher index."""
    return _spin_shift(field, axis, -1)


def apply_coin(field: SpinorField, coin: np.ndarray) -> SpinorField:
    """Apply a site-local internal unitary; coin shape (d, d) or (*extents, d, d).

    A uniform (d, d) coin goes through one matrix product, which beats
    einsum about twofold at 128^2; per-site coins stay on einsum.
    """
    coin = np.asarray(coin)
    if coin.ndim == 2:
        return SpinorField(field.amplitudes @ coin.T)
    return SpinorField(np.einsum("...ab,...b->...a", coin, field.amplitudes))


def step(field: SpinorField, coin: np.ndarray, axis: int = 0) -> SpinorField:
    """One walk step: shift, then coin."""
    return apply_coin(shift(field, axis=axis), coin)


def step_standard(field: SpinorField, coin: np.ndarray, axis: int = 0) -> SpinorField:
    """One step in the opposite-shift convention: coin first, then inverted shift."""
    return inverse_shift(apply_coin(field, coin), axis=axis)


def convert_convention(coins) -> list:
    """Map a time-ordered coin sequence to the opposite-shift convention.

    Given coins U_0 .. U_{J-1} of a walk built from (coin o shift) steps,
    returns coins V_0 .. V_{J-1} such that applying the returned sequence
    with `step_standard` undoes the original evolution:
    V_r = (U_{J-1-r})^dagger.
    """
    seq = [np.asarray(u, dtype=np.complex128) for u in coins]
    return [u.conj().swapaxes(-1, -2) for u in reversed(seq)]


# ---------------------------------------------------------------------------
# Fourier picture


def walk_operator_fourier(k, angles: CoinAngles) -> np.ndarray:
    """2x2 symbol U_euler(angles) @ diag(e^{ik}, e^{-ik}) at quasimomentum k."""
    coin = build_coin_euler(angles.alpha, angles.theta, angles.xi, angles.zeta)
    return coin @ spin_phase(k)


def dispersion(theta, xi, k):
    """Quasi-energy branches (E_plus, E_minus) of the translation-invariant walk.

    E_plus = arccos(cos(theta) cos(k + xi)) in [0, pi]; the branch point
    cos(theta) cos(k + xi) = -1 maps to pi. E_minus = -E_plus. The zeta
    angle never enters; alpha is taken as 0.
    """
    c = np.cos(theta) * np.cos(np.asarray(k, dtype=float) + xi)
    e = np.arccos(np.clip(c, -1.0, 1.0))
    return e, -e

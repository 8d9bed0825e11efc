"""Homogeneous walk kernel: spinor fields, Euler coins, shifts, dispersion.

Conventions used throughout the package:

* one walk step is shift first, then coin; the upper spin component
  moves one site towards lower index, the lower component towards
  higher index;
* lattices are periodic, amplitudes are complex128 and indexed
  (*extents, internal) with the internal (spin, possibly times color)
  index last; the kernels store them spin-planar, one contiguous plane
  per internal component, so `amplitudes` is usually a transposed view;
* quasimomentum lives in [-pi, pi).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# storage


def _planar_empty(extents: tuple, inner: tuple) -> np.ndarray:
    """Empty complex128 array indexed (*extents, *inner), stored inner-major.

    Every entry of the inner index is a contiguous plane over the
    extents, so the kernels run on contiguous operands. Without extents
    the result is a plain (*inner) array.
    """
    buf = np.empty(inner + extents, dtype=np.complex128)
    if not extents:
        return buf
    k = len(inner)
    return buf.transpose(tuple(range(k, buf.ndim)) + tuple(range(k)))


def _expi(x) -> np.ndarray:
    """np.exp(1j * x) for real x, bit for bit, as cos(x) and sin(x) filled into the planes of one complex array.

    Only x = -0.0 differs: sin gives -0.0, where 1j * x adds +0.0 to x first and np.exp gives +0.0. Callers
    that must match np.exp(1j * x) pass x + 0.0, or an x that cannot be -0.0.
    """
    out = np.empty(np.shape(x), dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


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
    u = _planar_empty(alpha.shape, (2, 2))
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
    u = _planar_empty(theta.shape, (2, 2))
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
        """Site occupation, summed over the internal index plane by plane, in index order."""
        planes = (np.abs(self.amplitudes[..., a]) ** 2 for a in range(self.internal_dim))
        return functools.reduce(operator.iadd, planes)

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


def _check_fit(field: SpinorField, name: str, extents: tuple, d: int) -> None:
    """Raise ValueError unless `field` has the d internal components and the extents of the background `name`."""
    if field.internal_dim != d:
        raise ValueError(f"{name} acts on {d} internal components, the field has {field.internal_dim}")
    if field.extents != extents:
        raise ValueError(f"{name} extents {extents} do not match field extents {field.extents}")


def _sample(name: str, samples: int, j: int, static: bool = False) -> int:
    """The time sample of the background `name` that step j reads: 0 for every j if it is static (a coin profile
    or triad of one sample), otherwise j, which must satisfy 0 <= j < samples (it never wraps)."""
    if static and samples == 1:
        return 0
    if not 0 <= j < samples:
        raise IndexError(f"step {j} outside the {samples} stored {name} samples")
    return j


@functools.lru_cache(maxsize=64)
def _shift_slices(dims: int, d: int, axis: int, sign: int) -> tuple:
    """(dst, src) index pairs: the upper half of d components rolls by -sign sites, the lower by +sign."""
    half = d // 2
    if 2 * half != d:
        raise ValueError("internal dimension must be even (spin doublet times color)")
    if not -dims <= axis < dims:
        raise ValueError(f"axis {axis} is not one of the {dims} lattice axes")
    lead = (slice(None),) * (axis % dims)
    return tuple((lead + (dst, ..., comps), lead + (src, ..., comps))
                 for comps, k in ((slice(None, half), -sign), (slice(half, None), sign))
                 for dst, src in ((slice(k, None), slice(None, -k)), (slice(None, k), slice(-k, None))))


_scratch = threading.local()


def _step_scratch(extents: tuple, d: int, coins: int = 0) -> tuple:
    """This thread's (planar field of d components, plane, block of at least `coins` (3, *extents) coin planes)
    for the last (extents, d); never returned to callers."""
    bufs = getattr(_scratch, "bufs", None)
    if bufs is None or bufs[0].amplitudes.shape != extents + (d,) or len(bufs[2]) < coins:
        bufs = _scratch.bufs = (SpinorField(_planar_empty(extents, (d,))), np.empty(extents, complex),
                                np.empty((coins, 3) + extents, complex))
    return bufs


def _spin_shift(field: SpinorField, axis: int, sign: int, out: SpinorField | None) -> SpinorField:
    out = SpinorField(_planar_empty(field.extents, (field.internal_dim,))) if out is None else out
    for dst, src in _shift_slices(field.dims, field.internal_dim, axis, sign):
        out.amplitudes[dst] = field.amplitudes[src]
    return out


def shift(field: SpinorField, axis: int = 0, *, out: SpinorField | None = None) -> SpinorField:
    """Spin-dependent translation along a lattice axis.

    The upper half of the internal components receives the value from
    site p+1 (moves towards lower index), the lower half from p-1. `out`,
    a field of the same shape other than `field`, receives the result.
    """
    return _spin_shift(field, axis, +1, out)


def inverse_shift(field: SpinorField, axis: int = 0, *, out: SpinorField | None = None) -> SpinorField:
    """Inverse of `shift`: upper components move towards higher index."""
    return _spin_shift(field, axis, -1, out)


def apply_coin(field: SpinorField, coin: np.ndarray, *, out: SpinorField | None = None) -> SpinorField:
    """Apply a site-local internal unitary; coin shape (d, d) or (*extents, d, d).

    The product is written out entrywise, out_a = sum_b c_ab psi_b, with
    ufuncs on the internal planes; for d = 2 at 128^2 that runs about
    twice as fast as a matrix product (uniform coins) and four times as
    fast as einsum (per-site coins). `out`, a field of the same shape
    other than `field`, receives the result.
    """
    coin = np.asarray(coin)
    d = field.internal_dim
    if coin.shape[-2:] != (d, d):
        raise ValueError(f"coin of shape {coin.shape} does not act on {d} internal components")
    amps = field.amplitudes
    target = _planar_empty(field.extents, (d,)) if out is None else out.amplitudes
    tmp = _step_scratch(field.extents, d)[1]
    for a in range(d):
        row = target[..., a]
        np.multiply(coin[..., a, 0], amps[..., 0], out=row)
        for b in range(1, d):
            np.multiply(coin[..., a, b], amps[..., b], out=tmp)
            row += tmp
    return SpinorField(target) if out is None else out


def _run_layers(field: SpinorField, layers) -> SpinorField:
    """Apply ("shift", axis), ("phase", up, down) and ("coin", c) layers to field, first to last.

    Shifts and coins write alternately to a new planar field, the result,
    and this thread's scratch, so the last write lands in the result; a coin
    of None is skipped. A phase scales the two spin components of the latest
    write in place, so `field` is never written. Writes go through the module
    attributes `shift` and `apply_coin`, which the benchmark's layer timings wrap.
    """
    layers = [layer for layer in layers if layer[1] is not None]  # only a coin can be None
    if not layers or layers[0][0] == "phase":
        raise ValueError("the first layer must be a shift or a coin")
    extents, d = field.extents, field.internal_dim
    bufs = (SpinorField(_planar_empty(extents, (d,))), _step_scratch(extents, d)[0])
    left = len(layers) - [layer[0] for layer in layers].count("phase")  # writes still to come
    for layer in layers:
        if layer[0] == "phase":
            field.amplitudes[..., 0] *= layer[1]
            field.amplitudes[..., 1] *= layer[2]
            continue
        left -= 1
        kernel = shift if layer[0] == "shift" else apply_coin
        field = kernel(field, layer[1], out=bufs[left % 2])
    return field


def _layers_symbol(layers, k) -> np.ndarray:
    """Fourier symbol ((M_last @ ...) @ M_first) of shift and coin layers at quasimomentum k, one entry per axis.

    On a plane wave the shift along an axis acts as spin_phase(k[axis]); a coin of None is skipped.
    """
    mats = [spin_phase(k[arg]) if kind == "shift" else arg for kind, arg in reversed(layers) if arg is not None]
    return functools.reduce(np.matmul, mats)


def step(field: SpinorField, coin: np.ndarray, axis: int = 0) -> SpinorField:
    """One walk step: shift, then coin."""
    return _run_layers(field, [("shift", axis), ("coin", coin)])


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
    return _layers_symbol([("shift", 0), ("coin", angles.matrix())], (k,))


def dispersion(theta, xi, k):
    """Quasi-energy branches (E_plus, E_minus) of the translation-invariant walk.

    E_plus = arccos(cos(theta) cos(k + xi)) in [0, pi]; the branch point
    cos(theta) cos(k + xi) = -1 maps to pi. E_minus = -E_plus. The zeta
    angle never enters; alpha is taken as 0. arctan2(sin E, cos E) keeps the
    digits that arccos loses near cos E = +-1.
    """
    q = np.asarray(k, dtype=float) + xi
    e = np.arctan2(np.hypot(np.sin(theta), np.cos(theta) * np.sin(q)), np.cos(theta) * np.cos(q))
    return e, -e

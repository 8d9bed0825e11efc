"""Homogeneous walk kernel: spinor fields, Euler coins, shifts, dispersion.

Conventions used throughout the package:

* one walk step is shift first, then coin; the upper spin component
  moves one site towards lower index, the lower component towards
  higher index;
* lattices are periodic, amplitudes are complex128 and indexed
  (*batch, *extents, internal) with the internal (spin, possibly times
  color) index last; the kernels store them spin-planar, one contiguous
  plane per internal component, so `amplitudes` is usually a transposed view;
* a field's `batch` (0 by default) counts leading axes of members that
  step together, each bit for bit as alone;
  `extents` and `dims` leave them out, while `norm_sq` and `normalized`
  act on the whole array. A gauge array is indexed (steps, *batch,
  *extents[, N, N]); one without batch axes serves every member, so its
  slice j broadcasts against the field's planes;
* quasimomentum lives in [-pi, pi);
* step j reads time sample j of a background, and a background of one
  time sample serves every j (see _sample).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field as dataclass_field

import numpy as np

try:  # np.einsum's kernel without its Python dispatch, 1.5 us less a call; a private name, which a tier-1 test pins
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

TAU = 2.0 * math.pi

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# storage


_inner_last = functools.lru_cache(None)(lambda k, ndim: (*range(k, ndim), *range(k)))  # moves k leading axes last


def _planar_empty(extents: tuple, inner: tuple) -> np.ndarray:
    """Empty complex128 array indexed (*extents, *inner), stored inner-major.

    Every entry of the inner index is a contiguous plane over the
    extents, so the kernels run on contiguous operands. Without extents
    the result is a plain (*inner) array.
    """
    buf = np.empty(inner + extents, dtype=np.complex128)
    return buf.transpose(_inner_last(len(inner), buf.ndim)) if extents else buf


def _expi(x) -> np.ndarray:
    """np.exp(1j * x) for real x, bit for bit, as cos(x) and sin(x) filled into the planes of one complex array.

    Only x = -0.0 differs: sin gives -0.0, where 1j * x adds +0.0 to x first and np.exp gives +0.0. Callers
    that must match np.exp(1j * x) pass x + 0.0, or an x that cannot be -0.0.
    """
    out = np.empty_like(x, dtype=np.complex128)
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
    alpha, theta, xi, zeta = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (alpha, theta, xi, zeta)))
    c, s = np.cos(theta), np.sin(theta)
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
    c, s = np.cos(theta), np.sin(theta)
    u = _planar_empty(theta.shape, (2, 2))
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = u[..., 1, 0] = 1j * s
    return u


@functools.lru_cache(maxsize=64)
def _signed_coin(theta: float, sign: float) -> np.ndarray:
    """standard_coin(theta) of a scalar angle, built once per angle and sign and shared read-only by the steps."""
    coin = standard_coin(theta)
    coin.flags.writeable = False
    return coin


_fixed_coin = lambda theta: _signed_coin(theta, math.copysign(1.0, theta))  # -0.0 == 0.0, yet their i sin differ


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


def _check_momenta(k, extents: tuple) -> None:
    """Raise ValueError unless each k[axis] fits the periodic lattice: k[axis] * n / 2pi within 1e-9 of an integer."""
    for axis, n in enumerate(extents):
        m = k[axis] * n / TAU
        if abs(m - round(m)) > 1e-9:
            raise ValueError(f"k[{axis}] = {k[axis]} is inadmissible: not a multiple of 2*pi/{n}")


@dataclass
class SpinorField:
    """Amplitudes on a periodic lattice, shape (*batch, *extents, internal_dim) with `batch` leading axes."""

    amplitudes: np.ndarray
    batch: int = 0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if not 0 <= self.batch <= self.amplitudes.ndim - 2:
            raise ValueError("amplitudes must have at least one lattice axis plus the internal axis after the "
                             "batch >= 0 leading ones")

    @property
    def dims(self) -> int:
        return self.amplitudes.ndim - 1 - self.batch

    @property
    def extents(self) -> tuple:
        return self.amplitudes.shape[self.batch:-1]

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
        return SpinorField(self.amplitudes / math.sqrt(self.norm_sq()), self.batch)

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
        _check_momenta(k, extents)
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


def _check_fit(field: SpinorField, name: str, extents: tuple, d: int, batch: tuple = ()) -> None:
    """Raise ValueError unless `field` has the d internal components, the extents and, if the background `name` has
    batch axes, the batch shape of that background; a background without batch axes serves every member."""
    shape = field.amplitudes.shape
    if shape[-1] != d:
        raise ValueError(f"{name} acts on {d} internal components, the field has {shape[-1]}")
    if shape[field.batch:-1] != extents:
        raise ValueError(f"{name} extents {extents} do not match field extents {field.extents}")
    if batch and (have := shape[:field.batch]) != batch:
        raise ValueError(f"{name} batch shape {batch} does not match field batch shape {have}")


def _sample(name: str, samples: int, j: int) -> int:
    """The time sample of the background `name` that step j reads: 0 for every j if it has one sample (a static
    background), otherwise j, which must satisfy 0 <= j < samples (it never wraps)."""
    if samples == 1:
        return 0
    if not 0 <= j < samples:
        raise IndexError(f"step {j} outside the {samples} stored {name} samples")
    return j


def _steps(start: int, steps: int) -> range:
    """The step indices start, ..., start + steps - 1 of an evolve loop; negative steps raise ValueError."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return range(start, start + steps)


class _Evolving(threading.local):
    held = None  # (background, sample index, what its step reads) while an evolve loop takes that step; see _evolve


_evolving = _Evolving()


def _held(background, name: str, j: int):
    """What an evolve loop holds for step j of the background `name` (see _evolve), or None."""
    held = _evolving.held
    return held[2] if held and held[0] is background and held[1] == _sample(name, background.steps, j) else None


def _evolve(step, field: SpinorField, steps: int, start: int, probe=None, held=None) -> SpinorField:
    """Steps start, ..., start + steps - 1 of step(field, j), each followed by probe(j, field) if given. With
    held = (background, samples, prepared), _evolving holds (background, i, prepared(i)) while step j runs, i being
    the stored sample of its `samples` that j reads; a j outside them raises in `step`. Nothing is held otherwise."""
    background, samples, prepared = held or (None, 0, None)
    try:
        for j in _steps(start, steps):
            i = 0 if samples == 1 else j
            _evolving.held = (background, i, prepared(i)) if 0 <= i < samples else None
            field = step(field, j)
            _evolving.held = None
            if probe is not None:
                probe(j, field)
    finally:
        _evolving.held = None
    return field


@dataclass
class _GaugeContainer:
    """Base of the gauge containers: the arrays a subclass names in `_arrays` are coerced to `_dtype` (a float one
    takes no complex input) and share one shape, whose `_axes` are steps, the lattice extents and any (N, N) matrix
    axes, with the keyword-only `batch` batch axes after steps; the matrices are square and epsilon is positive.
    Subclasses are dataclasses with the arrays and epsilon as fields, and extend the check by calling this one first."""

    batch: int = dataclass_field(default=0, kw_only=True)
    _dtype = float

    def __init_subclass__(cls):
        cls._dims = len(cls._axes) - 1 - cls._axes.count("N")  # the lattice axes, counted once

    def __post_init__(self):
        if self._dtype is float and (given := [n for n in self._arrays if np.iscomplexobj(getattr(self, n))]):
            raise ValueError(f"{', '.join(given)} must be real, got complex values")
        arrays = [np.asarray(getattr(self, name), dtype=self._dtype) for name in self._arrays]
        for name, a in zip(self._arrays, arrays):
            setattr(self, name, a)
        if any(a.shape != arrays[0].shape for a in arrays) or not 0 <= self.batch == arrays[0].ndim - len(self._axes):
            axes = self._axes[:1] + ("batch",) * self.batch + self._axes[1:]
            raise ValueError(f"{', '.join(self._arrays)} must each have shape ({', '.join(axes)})")
        if self._axes[-2:] == ("N", "N") and arrays[0].shape[-1] != arrays[0].shape[-2]:
            raise ValueError(f"{', '.join(self._arrays)} must hold square matrices, got {arrays[0].shape[-2:]}")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def steps(self) -> int:
        return len(getattr(self, self._arrays[0]))

    @property
    def batch_shape(self) -> tuple:
        return getattr(self, self._arrays[0]).shape[1:1 + self.batch]

    @property
    def extents(self) -> tuple:
        return getattr(self, self._arrays[0]).shape[1 + self.batch:1 + self.batch + self._dims]


@functools.lru_cache(maxsize=64)
def _shift_slices(dims: int, d: int, axis: int, sign: int) -> tuple:
    """(dst, src) index pairs: the upper half of d components rolls by -sign sites, the lower by +sign. The lattice
    axis is counted from the end, so the pairs index any batch axes in front whole."""
    half = d // 2
    if 2 * half != d:
        raise ValueError("internal dimension must be even (spin doublet times color)")
    if not -dims <= axis < dims:
        raise ValueError(f"axis {axis} is not one of the {dims} lattice axes")
    trail = (slice(None),) * (dims - 1 - axis % dims)
    return tuple(((..., dst, *trail, comps), (..., src, *trail, comps))
                 for comps, k in ((slice(None, half), -sign), (slice(half, None), sign))
                 for dst, src in ((slice(k, None), slice(None, -k)), (slice(None, k), slice(-k, None))))


class _Scratch(threading.local):
    key = bufs = None  # the (shape, d, batch) that this thread's _step_scratch buffers serve, and the buffers


_scratch = _Scratch()
_ROWS_ABOVE, _ROW_BLOCK = 1 << 14, 1 << 13  # _run_layers runs planes of more sites in blocks of whole rows (_run_rows)


def _planar_like(field: SpinorField) -> SpinorField:
    """A new planar field of the shape and batch of `field`, which passes SpinorField's checks, so they are skipped."""
    out, shape = object.__new__(SpinorField), field.amplitudes.shape
    out.amplitudes, out.batch = _planar_empty(shape[:-1], shape[-1:]), field.batch
    return out


def _step_scratch(shape: tuple, d: int, coins: int = 0, batch: int = 0) -> tuple:
    """This thread's (planar field of d components and `batch` batch axes, plane, block of at least `coins`
    (3, *shape) coin planes, dict of what the block holds) for the last (shape, d, batch), shape being
    (*batch, *extents); never returned to callers. The block keeps its contents between calls, and its user notes
    in the dict, empty for a new block, which coins are filled and from what; a new shape drops both together."""
    if _scratch.key != (shape, d, batch) or len(_scratch.bufs[2]) < coins:
        _scratch.bufs = (SpinorField(_planar_empty(shape, (d,)), batch), np.empty(shape, complex),
                         np.empty((coins, 3) + shape, complex), {})
        _scratch.key = (shape, d, batch)
    return _scratch.bufs


def _spin_shift(field: SpinorField, axis: int, sign: int, out: SpinorField | None) -> SpinorField:
    out, amps = _planar_like(field) if out is None else out, field.amplitudes
    for dst, src in _shift_slices(amps.ndim - 1 - field.batch, amps.shape[-1], axis, sign):
        out.amplitudes[dst] = amps[src]
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
    """Apply a site-local internal unitary; coin shape (d, d), (*extents, d, d) or (*batch, *extents, d, d). The coin
    is not checked: the caller keeps it unitary. `out`, a field of the same shape other than `field`, gets the result.

    The product is written out entrywise, out_a = sum_b c_ab psi_b, with ufuncs on the internal planes, for its
    rounding. np.matmul on the planes is faster for a uniform coin (41 against 82 us at 128^2 and 4.9 against 10.8 us
    at 1024 sites, d = 2, on a 2-vCPU x86 host), but it moves the last bits of most amplitudes of an Euler coin, keeps
    a standard coin's bits only at site counts that are multiples of 4 (BLAS treats the tail columns apart) and can
    flip the sign of an exact zero. Per-site coins take four times as long through einsum.
    """
    coin, shape = coin if type(coin) is np.ndarray else np.asarray(coin), field.amplitudes.shape
    if coin.shape[-2:] != shape[-1:] * 2:
        raise ValueError(f"coin of shape {coin.shape} does not act on {shape[-1]} internal components")
    out = _planar_like(field) if out is None else out
    _coin_into(coin, field.amplitudes, out.amplitudes, _step_scratch(shape[:-1], shape[-1], 0, field.batch)[1])
    return out


def _coin_into(coin: np.ndarray, amps: np.ndarray, target: np.ndarray, tmp: np.ndarray) -> None:
    """apply_coin's arithmetic: target_a = sum_b coin_ab amps_b, with tmp a plane of the sites of amps."""
    planes = [amps[..., b] for b in range(amps.shape[-1])]
    for a in range(len(planes)):
        row = target[..., a]
        np.multiply(coin[..., a, 0], planes[0], out=row)
        for b in range(1, len(planes)):
            np.multiply(coin[..., a, b], planes[b], out=tmp)
            row += tmp


def _run_layers(field: SpinorField, layers) -> SpinorField:
    """Apply ("shift", axis), ("phase", up, down), ("coin", c), ("links", u_plus_j, u_minus_j), ("mass", c, is) layers.

    All but phases write alternately to a new planar field, the result, and this thread's scratch, so the last write
    lands in the result; a coin of None is skipped. A phase scales the two spin components of the latest write in
    place, so `field` is never written. Links (*batch, *extents, N, N), with or without batch axes, act on the upper and
    lower N components of a 1D field by einsum, which rounds as on interleaved amplitudes (ufuncs would not); a mass is
    C (x) 1_N, C = [[c, is], [is, c]], as c * B + is * B[::-1] on the spin blocks B, with c and is broadcasting over
    (*batch, *extents). Shifts and coins call the module attributes `shift` and `apply_coin` (which benchmarks wrap),
    but _run_rows applies the shift, phase and coin layers of planes of over _ROWS_ABOVE sites in blocks of rows."""
    kept, left = [], 0  # the layers but None coins, and the writes among them still to come
    for layer in layers:
        if layer[1] is not None:  # only a coin can be None
            kept.append(layer)
            left += layer[0] != "phase"
    layers = kept
    if not layers or layers[0][0] == "phase":
        raise ValueError("the first layer must be a shift or a coin")
    shape, given, views = field.amplitudes.shape, field, ()
    bufs = (_planar_like(field), (scratch := _step_scratch(shape[:-1], shape[-1], 0, field.batch))[0])
    if (field.batch == 0 and shape[2:] == (2,) and math.prod(shape[:2]) > _ROWS_ABOVE
            and all(x in (-2, -1, 0, 1) if kind == "shift" else kind in ("coin", "phase") and type(x) is np.ndarray
                    and x.shape in ((2, 2), shape[:2], shape[:2] + (2, 2)) for kind, *xs in layers for x in xs)):
        return _run_rows(field, layers, bufs, left, scratch[1])
    for layer in layers:
        kind = layer[0]
        if kind == "phase":  # on views, as an augmented item assignment would also store each product again
            up, down = field.amplitudes[..., 0], field.amplitudes[..., 1]
            up *= layer[1]
            down *= layer[2]
            continue
        out = bufs[(left := left - 1) % 2]
        if kind == "links" or kind == "mass":
            # the spin blocks (2, N, *batch, *extents) of the two buffers, once; a buffer's base is its plane stack
            views = views or [b.amplitudes.base.reshape((2, -1) + shape[:-1]) for b in bufs]
            into = views[left % 2]
            src = np.moveaxis(field.amplitudes, -1, 0).reshape(into.shape) if field is given else views[1 - left % 2]
            if kind == "links":
                for u, block, plane in zip(layer[1:], src, into):
                    _einsum("...pab,b...p->a...p", u, block, out=plane)
            else:
                np.multiply(layer[1], src, out=into)
                into += np.multiply(layer[2], src, out=None if field is given else src)[::-1]
        else:
            (shift if kind == "shift" else apply_coin)(field, layer[1], out=out)
        field = out
    return field


def _run_rows(field: SpinorField, layers, bufs: tuple, left: int, tmp: np.ndarray) -> SpinorField:
    """_run_layers' writes on a 2D field of 2 components, no batch axes and over _ROWS_ABOVE sites. Every run of layers
    but the first starts with an axis-0 shift of an intermediate field, which reads across rows and runs whole through
    `shift`; the rest of a run reads only the rows it writes (the first run's axis-0 shift reads the never-written
    input), so it runs on whole rows of about _ROW_BLOCK sites at a time by the whole-plane kernels' ufunc calls, with
    their bits. A run that ends in the result writes its scratch rows, and coins their `tmp`, to the first rows."""
    n1, given, height = field.amplitudes.shape[0], field, max(1, _ROW_BLOCK // field.amplitudes.shape[1])
    cuts = [i for i, (kind, x, *_) in enumerate(layers) if i and kind == "shift" and x % 2 == 0]
    for run in (layers[a:b] for a, b in zip([0] + cuts, cuts + [None])):
        if field is not given:
            left -= 1
            field, run = shift(field, run[0][1], out=bufs[left % 2]), run[1:]
        hot = (left - sum(kind != "phase" for kind, *_ in run)) % 2 == 0  # earlier blocks have read those rows
        for r0 in range(0, n1, height):
            r1 = min(r0 + height, n1)
            src, w = field.amplitudes[r0:r1], left
            for kind, x, *down in run:
                if kind == "phase":
                    src[..., 0] *= x[r0:r1]
                    src[..., 1] *= down[0][r0:r1]
                    continue
                dst = bufs[(w := w - 1) % 2].amplitudes[slice(0, r1 - r0) if hot and w % 2 else slice(r0, r1)]
                if kind == "coin":
                    _coin_into(x if x.ndim == 2 else x[r0:r1], src, dst, tmp[:r1 - r0])
                elif x % 2:
                    for to, of in _shift_slices(2, 2, 1, 1):
                        dst[to] = src[of]
                else:  # upper rows from the input's rows r + 1, lower from r - 1, mod n1, in two slices
                    for c, k in ((0, 1), (1, n1 - 1)):
                        s, m = (r0 + k) % n1, min(r1 - r0, n1 - (r0 + k) % n1)
                        dst[:m, :, c] = given.amplitudes[s:s + m, :, c]
                        dst[m:, :, c] = given.amplitudes[:r1 - r0 - m, :, c]
                src = dst
        left, field = w, bufs[w % 2]
    return field


def _layers_symbol(layers, k) -> np.ndarray:
    """Fourier symbol ((M_last @ ...) @ M_first) of shift and coin layers at quasimomentum k, one entry per axis.

    On a plane wave the shift along an axis acts as spin_phase(k[axis]); a coin of None is skipped.
    """
    mats = [spin_phase(k[arg]) if kind == "shift" else arg for kind, arg in reversed(layers) if arg is not None]
    return functools.reduce(np.matmul, mats)


def step(field: SpinorField, coin: np.ndarray, axis: int = 0) -> SpinorField:
    """One walk step: shift, then coin; the coin is not checked, so keeping it unitary is the caller's part."""
    return _run_layers(field, [("shift", axis), ("coin", coin)])


def step_standard(field: SpinorField, coin: np.ndarray, axis: int = 0) -> SpinorField:
    """One step in the opposite-shift convention: coin first, then inverted shift; the coin is not checked either."""
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

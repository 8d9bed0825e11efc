"""Walks coupled to a non-Abelian U(N) gauge field on the lightcone lattice.

The internal space is spin (x) color, spin-major: the first N amplitudes
are the spin-up color vector. One step is three `lattice._run_layers`
layers: the color-blind shift, the links exp(i(b0 +- b1)) on the up/down
color blocks with b_mu = eps * B_mu Hermitian, and the mass coin
C(-eps m) (x) 1_N.

Gauge structure lives on the links: exp(ib+) at (j, p) transports color
along the lightcone edge (j, p+1) -> (j+1, p) and exp(ib-) along
(j, p-1) -> (j+1, p), so a transform G acts as a sandwich with G at the
destination and G^dag at the source. The field strength is the holonomy
around the elementary lightcone diamond, which is exactly covariant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field as dataclass_field

import numpy as np

from qwalk.lattice import (TAU, SpinorField, _check_fit, _evolve, _expi, _GaugeContainer, _held, _planar_empty,
                           _run_layers, _sample, _signed_coin, apply_coin, standard_coin)

_LINK_BLOCK = 1 << 14  # site-steps per block of NonAbelianGaugeField.links()


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a stack (..., N, N) of Hermitian matrices, stored colour-planar (see LinkField). Like eigh, it reads
    only the real diagonal and the lower triangle of H. N = 2 and 3 take closed forms, the U(3) one from Morningstar &
    Peardon, Phys. Rev. D 69, 054501 (2004); N = 1 and N >= 4 take eigh. A matrix's result has the same bits in any
    stack: numpy's temporary elision would compute a * t as t *= a for a temporary t of 256 KiB or more, and complex
    products do not commute bit for bit, so such products are written np.multiply(a, t)."""
    return _expi_into(h, _planar_empty(h.shape[:-2], h.shape[-2:]))


def _expi_into(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write exp(iH) into out, an array (..., N, N) of h's shape in any layout, and return it."""
    if h.shape[-1] not in (2, 3):
        w, v = np.linalg.eigh(h)
        return np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj(), out=out)
    (_expi_2 if h.shape[-1] == 2 else _expi_3)(h, out)
    return out


def _expi_2(h: np.ndarray, out: np.ndarray) -> None:
    """exp(iH) = e^{im} (cos r + i (sin r / r) (H - m)) for m, r the mean and half-splitting of H's eigenvalues."""
    d, lower = (h[..., 0, 0].real - h[..., 1, 1].real) / 2, h[..., 1, 0]
    r = np.hypot(d, np.abs(lower))
    phase = _expi((h[..., 0, 0].real + h[..., 1, 1].real) / 2)
    cos, phase = np.cos(r) * phase, np.multiply(phase, 1j * np.sinc(r / math.pi))  # e^{im} cos r, i e^{im} sin r / r
    np.multiply(phase, lower, out=out[..., 1, 0])
    np.multiply(phase, lower.conj(), out=out[..., 0, 1])
    np.add(cos, phase * d, out=out[..., 0, 0])
    np.subtract(cos, phase * d, out=out[..., 1, 1])


def _expi_3(h: np.ndarray, out: np.ndarray) -> None:
    """exp(iH) = e^{i tr H/3} (f0 + f1 Q + f2 Q^2), Q = H - tr H/3 of eigenvalues 2u, -u +- w from c0 = det Q and
    c1 = tr Q^2/2; c0 < 0 takes f_k(-c0) = (-1)^k conj f_k(c0) as u -> -u. Off by 1e-16 |Q|^2 near a double root."""
    trace = (h[..., 0, 0].real + h[..., 1, 1].real + h[..., 2, 2].real) / 3
    q0, q1, q2 = (h[..., a, a].real - trace for a in range(3))
    l10, l20, l21 = h[..., 1, 0], h[..., 2, 0], h[..., 2, 1]
    n10, n20, n21 = (np.square(x.real) + np.square(x.imag) for x in (l10, l20, l21))
    c0 = q0 * q1 * q2 - q0 * n21 - q1 * n20 - q2 * n10 + 2 * (l10 * l21 * l20.conj()).real
    r = np.sqrt(np.maximum((q0 * q0 + q1 * q1 + q2 * q2) / 2 + n10 + n20 + n21, 1e-200) / 3)  # no 0/0 at Q = 0
    theta = np.arccos(np.minimum(np.abs(c0) / (2 * r * r * r), 1.0)) / 3
    u, w = np.copysign(r * np.cos(theta), c0), math.sqrt(3) * r * np.sin(theta)
    uu, ww, e2iu, emiu = u * u, w * w, _expi(2 * u), _expi(-u)
    cos, emiu = emiu * np.cos(w), np.multiply(emiu, 1j * np.sinc(w / math.pi))  # e^{-iu} cos w, i e^{-iu} sin w / w
    del c0, r, theta, w
    scale = _expi(trace) / (9 * uu - ww)
    f0 = ((uu - ww) * e2iu + 8 * uu * cos + 2 * u * (3 * uu + ww) * emiu) * scale
    e2iu -= cos
    f1 = (2 * u * e2iu + (3 * uu - ww) * emiu) * scale
    f2 = (e2iu - 3 * u * emiu) * scale
    del u, uu, ww, e2iu, emiu, cos, scale
    for a, b, x, square in (
            (0, 0, q0, lambda: q0 * q0 + n10 + n20), (1, 1, q1, lambda: q1 * q1 + n10 + n21),
            (2, 2, q2, lambda: q2 * q2 + n20 + n21), (1, 0, l10, lambda: l21.conj() * l20 - q2 * l10),
            (2, 0, l20, lambda: l21 * l10 - q1 * l20), (2, 1, l21, lambda: np.multiply(l20, l10.conj()) - q0 * l21)):
        s = square()  # (Q^2)_ab, formed only as it is written; (Q^2)_ba is its conjugate
        np.add(np.multiply(f1, x, out=out[..., a, b]), f2 * s, out=out[..., a, b])
        if a == b:
            out[..., a, a] += f0
        else:
            np.add(np.multiply(f1, x.conj(), out=out[..., b, a]), np.multiply(f2, s.conj()), out=out[..., b, a])


def _matmul_planar(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for two stacks (..., N, N) of one shape, stored colour-planar: column c of the product is
    `apply_coin` of the per-site coin a on column c of b, written into column c of the result."""
    out = _planar_empty(a.shape[:-2], a.shape[-2:])
    for c in range(a.shape[-1]):
        apply_coin(SpinorField(b[..., c]), a, out=SpinorField(out[..., c]))
    return out


def logm_unitary(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack of unitary matrices (angles in (-pi, pi])."""
    lam, v = np.linalg.eig(u)
    logs = 1j * np.angle(lam)
    return (v * logs[..., None, :]) @ np.linalg.inv(v)


@dataclass
class LinkField(_GaugeContainer):
    """Unitary parallel transporters per step and site: shape (steps, sites, N, N); one time sample serves every step.
    Construction checks max ||U^dag U - 1|| <= 1e-10 over both arrays, about _LINK_BLOCK site-steps at a time; the
    links of `NonAbelianGaugeField.links()` and `gauge_transform_links` skip it and store each entry (a, b) as one
    contiguous (steps, sites) plane. Links in any other layout, C-contiguous ones included, step to the same bits.
    """

    u_plus: np.ndarray
    u_minus: np.ndarray
    epsilon: float
    _arrays, _axes, _dtype = ("u_plus", "u_minus"), ("steps", "sites", "N", "N"), np.complex128
    sites = property(lambda self: self.extents[0])
    ncolors = property(lambda self: self.u_plus.shape[-1])
    _unitary: InitVar[bool] = dataclass_field(default=False, kw_only=True)  # skips the check, for unitary-built links

    @np.errstate(all="ignore")  # an inf or NaN entry makes worst NaN, which fails
    def __post_init__(self, _unitary: bool):
        super().__post_init__()
        rows, eye = max(1, _LINK_BLOCK // max(1, math.prod(self.u_plus.shape[1:-2]))), np.eye(self.ncolors)
        for name in () if _unitary or self.u_plus.size == 0 else self._arrays:  # empty links have nothing to check
            worst = np.max([np.max(np.linalg.norm(_matmul_planar(b.swapaxes(-1, -2).conj(), b) - eye, axis=(-2, -1)))
                            for b in np.split(getattr(self, name), range(rows, self.steps, rows))], initial=0.0)
            if not worst <= 1e-10:
                raise ValueError(f"{name} is not unitary: max ||U^dag U - 1|| = {worst:.2e} > 1e-10")


@dataclass
class NonAbelianGaugeField(_GaugeContainer):
    """Hermitian potentials B0, B1 with shape (steps, sites, N, N), checked to 1e-12 one entry plane at a time; one
    time sample serves every step. `links()` exponentiates them block by block."""

    b0: np.ndarray
    b1: np.ndarray
    epsilon: float
    _arrays, _axes, _dtype = ("b0", "b1"), ("steps", "sites", "N", "N"), np.complex128
    sites = property(lambda self: self.extents[0])
    ncolors = property(lambda self: self.b0.shape[-1])

    def __post_init__(self):
        super().__post_init__()
        if 0 in self.b0.shape:  # no maximum to take below, and no rows to block in links()
            axes = self._axes[:1] + ("batch",) * self.batch + self._axes[1:]
            raise ValueError(f"b0, b1 have an empty {axes[self.b0.shape.index(0)]} axis")
        for name, arr in (("b0", self.b0), ("b1", self.b1)):
            defect = np.max([np.max(np.abs(arr[..., a, b] - arr[..., b, a].conj()))
                             for a in range(arr.shape[-1]) for b in range(a + 1)])
            if defect > 1e-12:
                raise ValueError(f"{name} is not Hermitian (defect {defect:.2e})")

    @classmethod
    def zero(cls, steps: int, sites: int, n: int, epsilon: float = 1.0) -> "NonAbelianGaugeField":
        z = np.zeros((steps, sites, n, n), dtype=np.complex128)
        return cls(z, z.copy(), epsilon)

    def links(self) -> LinkField:
        """exp(i eps (B0 +- B1)) for every step and site. Blocks of whole steps, about _LINK_BLOCK site-steps each,
        form eps (B0 +- B1) in one temporary and exponentiate it into their rows of the two colour-planar outputs: the
        links have the same bits at any block size, and building them needs a few MiB beyond inputs and outputs."""
        shape = self.b0.shape
        links = [_planar_empty(shape[:-2], shape[-2:]) for _ in range(2)]
        rows = max(1, _LINK_BLOCK // math.prod(shape[1:-2]))
        for j in range(0, shape[0], rows):
            b0, b1 = self.b0[j:j + rows], self.b1[j:j + rows]
            h = np.empty_like(b0)
            for op, out in zip((np.add, np.subtract), links):
                _expi_into(np.multiply(op(b0, b1, out=h), self.epsilon, out=h), out[j:j + rows])
        return LinkField(*links, self.epsilon, batch=self.batch, _unitary=True)


# the entries c and i s of the fixed mass coin C(theta) of that sign (see lattice._fixed_coin), as views made once
_mass_planes = functools.lru_cache(64)(lambda theta, sign: ((c := _signed_coin(theta, sign))[..., 0, 0], c[..., 0, 1]))


def _unbatched(*items) -> None:
    """Raise ValueError if a field or gauge container has batch axes, where a batch has no meaning."""
    if any(item.batch for item in items):
        raise ValueError("this colour-walk function takes no batch axes: batch must be 0")


def _mass_layer(field: SpinorField, links: LinkField, mass) -> tuple:
    """The mass layer C(-eps m) (x) 1_N of nonabelian_step, after checking that the field and the mass fit the links."""
    _check_fit(field, "link", links.extents, 2 * links.ncolors, links.batch_shape)
    if isinstance(mass, (int, float)):
        planes = _mass_planes(theta := -links.epsilon * mass, math.copysign(1.0, theta))
    elif np.shape(mass) in ((), have := field.amplitudes.shape[:field.batch]):
        coin = standard_coin(-links.epsilon * np.asarray(mass, dtype=float)[..., None])  # None: a sites axis
        planes = coin[..., 0, 0], coin[..., 0, 1]
    else:
        raise ValueError(f"mass shape {np.shape(mass)} does not match field batch shape {have}")
    return ("mass", *planes)


def nonabelian_step(field: SpinorField, links: LinkField, mass, j: int) -> SpinorField:
    """One step as `_run_layers` layers: shift, links, mass coin C(-eps m) (x) 1_N; one mass, or one per member."""
    mass_layer, j = _held(links, "link", j) or _mass_layer(field, links, mass), _sample("link", links.steps, j)
    return _run_layers(field, [("shift", 0), ("links", links.u_plus[j], links.u_minus[j]), mass_layer])


def evolve_nonabelian(field: SpinorField, links: LinkField, mass: float, steps: int,
                      start: int = 0) -> SpinorField:
    """Steps start, ..., start + steps - 1 through nonabelian_step; held steps reuse the mass layer checked before."""
    mass_layer = steps > 0 and _mass_layer(field, links, mass)
    return _evolve(lambda f, j: nonabelian_step(f, links, mass, j), field, steps, start, None,
                   (links, links.steps, lambda i: mass_layer))


def color_rotate(field: SpinorField, g: np.ndarray) -> SpinorField:
    """Apply a sitewise color rotation g (*batch, sites, N, N), batch axes optional, to both spin blocks."""
    amps = field.amplitudes
    blocks = amps.reshape(amps.shape[:-1] + (2, -1))  # (*batch, sites, spin, color), a view in either layout
    return SpinorField(np.einsum("...pab,...psb->...psa", g, blocks).reshape(amps.shape), field.batch)


def gauge_transform_links(field: SpinorField, links: LinkField, g: np.ndarray):
    """Gauge transform by unitaries g with shape (steps+1, *batch, sites, N, N), the batch axes being those of links.

    Links pick up destination/source sandwiches,
      u+'(j, p) = g(j+1, p) u+(j, p) g(j, p+1)^dag
      u-'(j, p) = g(j+1, p) u-(j, p) g(j, p-1)^dag
    and the state (taken at time index 0) rotates by g[0]. Each sandwich is
    (g u) g^dag, two planar products, and the new links are colour-planar.
    """
    g = np.asarray(g, dtype=np.complex128)
    expected = (links.steps + 1,) + links.u_plus.shape[1:]
    if g.shape != expected:
        raise ValueError(f"g must have shape {expected}")
    gd = np.swapaxes(g[:-1], -1, -2).conj()
    up, um = (_matmul_planar(_matmul_planar(g[1:], u), np.roll(gd, source, axis=-3))
              for u, source in ((links.u_plus, -1), (links.u_minus, +1)))
    return color_rotate(field, g[0]), LinkField(up, um, links.epsilon, batch=links.batch, _unitary=True)


def field_strength_holonomy(links: LinkField, j: int) -> np.ndarray:
    """Holonomy around the lightcone diamond based at (j, p), for every p.

    The loop (j,p) -> (j+1,p+1) -> (j+2,p) -> (j+1,p-1) -> (j,p) composes
      F = u+(j,p-1)^dag u-(j+1,p)^dag u+(j+1,p) u-(j,p+1)
    and transforms as F' = g(j,p) F g(j,p)^dag. Needs j+1 < steps.
    """
    _unbatched(links)
    if not 0 <= j + 1 < links.steps:
        raise ValueError("holonomy needs links at j and j+1")
    dag = lambda a: np.swapaxes(a, -1, -2).conj()
    up_l = np.roll(links.u_plus[j], +1, axis=0)  # u+(j, p-1)
    um_r = np.roll(links.u_minus[j], -1, axis=0)  # u-(j, p+1)
    return dag(up_l) @ dag(links.u_minus[j + 1]) @ links.u_plus[j + 1] @ um_r


def extract_field_strength(links: LinkField, j: int) -> np.ndarray:
    """Covariant F01 from the diamond holonomy: log F / (-2i eps^2).

    In the covariant potentials (A0, A1) = (B0, -B1) this reproduces
    F01 = d0 A1 - d1 A0 - i [A0, A1] up to O(eps) corrections; for N = 1
    (or commuting fields) linear potentials extract exactly.
    """
    hol = field_strength_holonomy(links, j)
    return 1j * logm_unitary(hol) / (2.0 * links.epsilon**2)


def dirac_generator_residual(field: SpinorField, gauge: NonAbelianGaugeField, mass: float,
                             j: int = 0) -> float:
    """Max deviation of one step from 1 + eps * (first-order Dirac generator).

    The generator is sigma3 (x) (d/dx + i B1) + i 1 (x) B0 - i m sigma1 (x) 1
    with the spatial derivative taken spectrally; the residual is O(eps^2)
    for smooth fields.
    """
    _unbatched(field, gauge)
    n, eps, amps, j = gauge.ncolors, gauge.epsilon, field.amplitudes, _sample("link", gauge.steps, j)
    k = TAU * np.fft.fftfreq(amps.shape[0]) / eps  # d/dx eigenvalues on the eps grid
    dx = np.fft.ifft(1j * k[:, None] * np.fft.fft(amps, axis=0), axis=0)
    up, dn = amps[..., :n], amps[..., n:]
    gen = np.concatenate((dx[..., :n] + 1j * np.einsum("pab,pb->pa", gauge.b0[j] + gauge.b1[j], up) - 1j * mass * dn,
                          -dx[..., n:] + 1j * np.einsum("pab,pb->pa", gauge.b0[j] - gauge.b1[j], dn) - 1j * mass * up),
                         axis=-1)
    stepped = nonabelian_step(field, NonAbelianGaugeField(gauge.b0[j, None], gauge.b1[j, None], eps).links(), mass, 0)
    return float(np.max(np.abs(stepped.amplitudes - amps - eps * gen)))

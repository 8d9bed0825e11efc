"""Walks coupled to a non-Abelian U(N) gauge field on the lightcone lattice.

The internal space is spin (x) color, spin-major: the first N amplitudes
are the spin-up color vector. One step applies the color-blind shift,
then the link matrices exp(i(b0 +- b1)) on the up/down color blocks with
b_mu = eps * B_mu Hermitian, then the mass coin C(-eps m) (x) 1_N.

Gauge structure lives on the links: exp(ib+) at (j, p) transports color
along the lightcone edge (j, p+1) -> (j+1, p) and exp(ib-) along
(j, p-1) -> (j+1, p), so a transform G acts as a sandwich with G at the
destination and G^dag at the source. The field strength is the holonomy
around the elementary lightcone diamond, which is exactly covariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qwalk.lattice import TAU, SpinorField, _check_fit, _planar_empty, _sample, apply_coin, shift


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a stack (..., N, N) of Hermitian matrices, via eigh, stored colour-planar (see LinkField)."""
    w, v = np.linalg.eigh(h)
    out = _planar_empty(h.shape[:-2], h.shape[-2:])
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj(), out=out)


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


class _StepsSitesColours:
    """steps, sites and ncolors of a field of (steps, sites, N, N) arrays, read from its first array `_first`."""

    steps = property(lambda self: self._first.shape[0])
    sites = property(lambda self: self._first.shape[1])
    ncolors = property(lambda self: self._first.shape[-1])


@dataclass
class LinkField(_StepsSitesColours):
    """Unitary parallel transporters per step and site: shape (steps, sites, N, N).

    `NonAbelianGaugeField.links()` and `gauge_transform_links` store each entry (a, b) as one contiguous
    (steps, sites) plane; links in any other layout, C-contiguous ones included, are kept and step to the same bits.
    """

    u_plus: np.ndarray
    u_minus: np.ndarray
    epsilon: float
    _first = property(lambda self: self.u_plus)

    def __post_init__(self):
        self.u_plus = np.asarray(self.u_plus, dtype=np.complex128)
        self.u_minus = np.asarray(self.u_minus, dtype=np.complex128)
        if self.u_plus.shape != self.u_minus.shape or self.u_plus.ndim != 4:
            raise ValueError("links must both have shape (steps, sites, N, N)")
        if self.u_plus.shape[-1] != self.u_plus.shape[-2]:
            raise ValueError("link matrices must be square")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


@dataclass
class NonAbelianGaugeField(_StepsSitesColours):
    """Hermitian potentials B0, B1 with shape (steps, sites, N, N)."""

    b0: np.ndarray
    b1: np.ndarray
    epsilon: float
    _first = property(lambda self: self.b0)

    def __post_init__(self):
        self.b0 = np.asarray(self.b0, dtype=np.complex128)
        self.b1 = np.asarray(self.b1, dtype=np.complex128)
        if self.b0.shape != self.b1.shape or self.b0.ndim != 4:
            raise ValueError("b0 and b1 must both have shape (steps, sites, N, N)")
        for name, arr in (("b0", self.b0), ("b1", self.b1)):
            defect = np.max(np.abs(arr - np.swapaxes(arr, -1, -2).conj()))
            if defect > 1e-12:
                raise ValueError(f"{name} is not Hermitian (defect {defect:.2e})")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    @classmethod
    def zero(cls, steps: int, sites: int, n: int, epsilon: float = 1.0) -> "NonAbelianGaugeField":
        z = np.zeros((steps, sites, n, n), dtype=np.complex128)
        return cls(z, z.copy(), epsilon)

    def links(self) -> LinkField:
        """exp(i eps (B0 +- B1)) for every step and site."""
        eps = self.epsilon
        return LinkField(expi_hermitian(eps * (self.b0 + self.b1)), expi_hermitian(eps * (self.b0 - self.b1)), eps)


def nonabelian_step(field: SpinorField, links: LinkField, mass: float, j: int) -> SpinorField:
    """One step: color-blind shift, link matrices per spin block, mass coin.

    The color-blind shift is `lattice.shift` on all 2N components, whose
    output is stored as contiguous (2N, sites) color planes. The links act
    on each spin block's planes by einsum, which rounds like the product
    on interleaved amplitudes (a ufunc product would not) and reads
    contiguous rows of colour-planar links (see LinkField). The coin mixes
    the two blocks into the shifted planes, which the result takes over.
    """
    n = links.ncolors
    _check_fit(field, "link", (links.sites,), 2 * n)
    j = _sample("link", links.steps, j)
    planes = (shifted := shift(field)).amplitudes.T
    blocks = np.empty((2, n, links.sites), dtype=np.complex128)
    np.einsum("pab,bp->ap", links.u_plus[j], planes[:n], out=blocks[0])
    np.einsum("pab,bp->ap", links.u_minus[j], planes[n:], out=blocks[1])
    dtheta = -links.epsilon * mass
    c, s = math.cos(dtheta), math.sin(dtheta)
    out = np.multiply(c, blocks, out=planes.reshape(blocks.shape))  # c * blocks + 1j * s * blocks[::-1]
    out += np.multiply(1j * s, blocks, out=blocks)[::-1]
    return shifted


def evolve_nonabelian(field: SpinorField, links: LinkField, mass: float, steps: int,
                      start: int = 0) -> SpinorField:
    for j in range(start, start + steps):
        field = nonabelian_step(field, links, mass, j)
    return field


def color_rotate(field: SpinorField, g: np.ndarray) -> SpinorField:
    """Apply a sitewise color rotation g (sites, N, N) to both spin blocks."""
    amps = field.amplitudes
    blocks = amps.reshape(amps.shape[0], 2, -1)  # (sites, spin, color), a view in either layout
    return SpinorField(np.einsum("pab,psb->psa", g, blocks).reshape(amps.shape))


def gauge_transform_links(field: SpinorField, links: LinkField, g: np.ndarray):
    """Gauge transform by unitaries g with shape (steps+1, sites, N, N).

    Links pick up destination/source sandwiches,
      u+'(j, p) = g(j+1, p) u+(j, p) g(j, p+1)^dag
      u-'(j, p) = g(j+1, p) u-(j, p) g(j, p-1)^dag
    and the state (taken at time index 0) rotates by g[0]. Each sandwich is
    (g u) g^dag, two planar products, and the new links are colour-planar.
    """
    g = np.asarray(g, dtype=np.complex128)
    expected = (links.steps + 1, links.sites) + links.u_plus.shape[2:]
    if g.shape != expected:
        raise ValueError(f"g must have shape {expected}")
    gd = np.swapaxes(g[:-1], -1, -2).conj()
    up, um = (_matmul_planar(_matmul_planar(g[1:], u), np.roll(gd, source, axis=1))
              for u, source in ((links.u_plus, -1), (links.u_minus, +1)))
    return color_rotate(field, g[0]), LinkField(up, um, links.epsilon)


def field_strength_holonomy(links: LinkField, j: int) -> np.ndarray:
    """Holonomy around the lightcone diamond based at (j, p), for every p.

    The loop (j,p) -> (j+1,p+1) -> (j+2,p) -> (j+1,p-1) -> (j,p) composes
      F = u+(j,p-1)^dag u-(j+1,p)^dag u+(j+1,p) u-(j,p+1)
    and transforms as F' = g(j,p) F g(j,p)^dag. Needs j+1 < steps.
    """
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
    n = gauge.ncolors
    eps = gauge.epsilon
    amps = field.amplitudes
    sites = amps.shape[0]
    k = TAU * np.fft.fftfreq(sites) / eps  # d/dx eigenvalues on the eps grid
    dx = np.fft.ifft(1j * k[:, None] * np.fft.fft(amps, axis=0), axis=0)
    gen = np.empty_like(amps)
    up, dn = amps[..., :n], amps[..., n:]
    gen[..., :n] = dx[..., :n] + 1j * np.einsum("pab,pb->pa", gauge.b1[j], up)
    gen[..., n:] = -dx[..., n:] - 1j * np.einsum("pab,pb->pa", gauge.b1[j], dn)
    gen[..., :n] += 1j * np.einsum("pab,pb->pa", gauge.b0[j], up)
    gen[..., n:] += 1j * np.einsum("pab,pb->pa", gauge.b0[j], dn)
    gen[..., :n] += -1j * mass * dn
    gen[..., n:] += -1j * mass * up
    stepped = nonabelian_step(field, gauge.links(), mass, j)
    return float(np.max(np.abs(stepped.amplitudes - amps - eps * gen)))

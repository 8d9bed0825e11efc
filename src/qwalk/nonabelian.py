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

from qwalk.lattice import TAU, SpinorField, shift


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a stack (..., N, N) of Hermitian matrices, via eigh."""
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * w)
    return np.einsum("...ab,...b,...cb->...ac", v, phase, v.conj())


def logm_unitary(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack of unitary matrices (angles in (-pi, pi])."""
    lam, v = np.linalg.eig(u)
    logs = 1j * np.angle(lam)
    return (v * logs[..., None, :]) @ np.linalg.inv(v)


@dataclass
class LinkField:
    """Unitary parallel transporters per step and site: shape (steps, sites, N, N)."""

    u_plus: np.ndarray
    u_minus: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.u_plus = np.asarray(self.u_plus, dtype=np.complex128)
        self.u_minus = np.asarray(self.u_minus, dtype=np.complex128)
        if self.u_plus.shape != self.u_minus.shape or self.u_plus.ndim != 4:
            raise ValueError("links must both have shape (steps, sites, N, N)")
        if self.u_plus.shape[-1] != self.u_plus.shape[-2]:
            raise ValueError("link matrices must be square")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def steps(self) -> int:
        return self.u_plus.shape[0]

    @property
    def sites(self) -> int:
        return self.u_plus.shape[1]

    @property
    def ncolors(self) -> int:
        return self.u_plus.shape[-1]


@dataclass
class NonAbelianGaugeField:
    """Hermitian potentials B0, B1 with shape (steps, sites, N, N)."""

    b0: np.ndarray
    b1: np.ndarray
    epsilon: float

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

    @property
    def steps(self) -> int:
        return self.b0.shape[0]

    @property
    def sites(self) -> int:
        return self.b0.shape[1]

    @property
    def ncolors(self) -> int:
        return self.b0.shape[-1]

    @classmethod
    def zero(cls, steps: int, sites: int, n: int, epsilon: float = 1.0) -> "NonAbelianGaugeField":
        z = np.zeros((steps, sites, n, n), dtype=np.complex128)
        return cls(z, z.copy(), epsilon)

    def links(self) -> LinkField:
        """exp(i eps (B0 +- B1)) for every step and site."""
        eps = self.epsilon
        return LinkField(
            expi_hermitian(eps * (self.b0 + self.b1)),
            expi_hermitian(eps * (self.b0 - self.b1)),
            eps,
        )


def nonabelian_step(field: SpinorField, links: LinkField, mass: float, j: int) -> SpinorField:
    """One step: color-blind shift, link matrices per spin block, mass coin.

    The color-blind shift is `lattice.shift` on all 2N components, whose
    output is stored as contiguous (2N, sites) color planes. The links act
    on each spin block's planes by einsum, which rounds like the product
    on interleaved amplitudes (a ufunc product would not), and the coin
    mixes the two blocks as one (2, N, sites) product.
    """
    n = links.ncolors
    if field.internal_dim != 2 * n:
        raise ValueError(f"field carries {field.internal_dim} internal amplitudes, need {2 * n}")
    if field.extents != (links.sites,):
        raise ValueError(f"field of extents {field.extents} does not match the links' "
                         f"1D lattice of {links.sites} sites")
    planes = shift(field).amplitudes.T
    blocks = np.empty((2, n, links.sites), dtype=np.complex128)
    np.einsum("pab,bp->ap", links.u_plus[j], planes[:n], out=blocks[0])
    np.einsum("pab,bp->ap", links.u_minus[j], planes[n:], out=blocks[1])
    dtheta = -links.epsilon * mass
    c, s = math.cos(dtheta), math.sin(dtheta)
    out = c * blocks + 1j * s * blocks[::-1]
    return SpinorField(out.reshape(2 * n, links.sites).T)


def evolve_nonabelian(field: SpinorField, links: LinkField, mass: float, steps: int,
                      start: int = 0) -> SpinorField:
    for j in range(start, start + steps):
        field = nonabelian_step(field, links, mass, j)
    return field


def color_rotate(field: SpinorField, g: np.ndarray) -> SpinorField:
    """Apply a sitewise color rotation g (sites, N, N) to both spin blocks."""
    n = g.shape[-1]
    amps = field.amplitudes
    out = np.empty_like(amps)
    out[..., :n] = np.einsum("pab,pb->pa", g, amps[..., :n])
    out[..., n:] = np.einsum("pab,pb->pa", g, amps[..., n:])
    return SpinorField(out)


def gauge_transform_links(field: SpinorField, links: LinkField, g: np.ndarray):
    """Gauge transform by unitaries g with shape (steps+1, sites, N, N).

    Links pick up destination/source sandwiches,
      u+'(j, p) = g(j+1, p) u+(j, p) g(j, p+1)^dag
      u-'(j, p) = g(j+1, p) u-(j, p) g(j, p-1)^dag
    and the state (taken at time index 0) rotates by g[0].
    """
    g = np.asarray(g, dtype=np.complex128)
    expected = (links.steps + 1, links.sites) + links.u_plus.shape[2:]
    if g.shape != expected:
        raise ValueError(f"g must have shape {expected}")
    gd = np.swapaxes(g, -1, -2).conj()
    up = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_plus, np.roll(gd[:-1], -1, axis=1))
    um = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_minus, np.roll(gd[:-1], +1, axis=1))
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

"""Walks with position-dependent coins realizing curved-spacetime transport.

Two walk families live here:

* a (1+1)D walk driven by the reflection coin B(theta(t, x)); its
  natural cycle is two steps (B^2 = 1 at constant theta) and a
  Schwarzschild-like speed profile pins part of the walker to the
  horizon site;
* a (1+2)D walk whose five coin angles are solved per node from a
  triad (inverse frame field) so the two-step dynamics transports the
  spinor with axis speeds E1, E2 and axis-mixing B.

The module also provides the triad/dreibein algebra for sampled 2D
spatial metrics, a lattice spin-connection evaluator, and plane
metric-perturbation ("gravitational wave") configurations together
with the two-mode interference observable that detects them.

Conventions: metric signature (+, -, -) with G_00 = 1 and vanishing
time-space components; lattice spacing 1 along every axis; metric and
triad data are sampled per (time, x, y) node, with a single time
sample meaning a static field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qwalk.lattice import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SpinorField,
    _cdiff,
    _check_fit,
    _check_momenta,
    _evolve,
    _layers_symbol,
    _planar_empty,
    _run_layers,
    _sample,
    _step_scratch,
    _steps,
    standard_coin,
)


# ---------------------------------------------------------------------------
# (1+1)D walk: reflection coin and speed profiles


def reflection_coin(theta) -> np.ndarray:
    """B(theta) = [[-cos, i sin], [-i sin, cos]]; B(theta)^2 = 1, det = -1.

    Scalar or array angles; array angles give a coin field of shape
    theta.shape + (2, 2).
    """
    theta = np.asarray(theta, dtype=float)
    c, s, b = np.cos(theta, out=np.empty(theta.shape)), np.sin(theta), _planar_empty(theta.shape, (2, 2))
    b[..., 1, 1] = c
    b[..., 0, 0] = np.negative(c, out=c)  # a real -c, so the imaginary part is +0.0 as in a cast of -c
    np.multiply(1j, s, out=b[..., 0, 1])
    np.multiply(-1j, s, out=b[..., 1, 0])
    return b


def _as_samples(a, name: str, axes: tuple) -> np.ndarray:
    """Float samples of the background `name` with shape (times, *axes); an array one axis short is one sample."""
    a = np.asarray(a, dtype=float)
    if a.ndim == len(axes):
        a = a[None]
    if a.ndim != len(axes) + 1:
        shape = ", ".join(axes)
        raise ValueError(f"{name} samples must have shape ({shape}) or (times, {shape})")
    return a


def _reject_first(bad, values, message: str, at: tuple = ()) -> None:
    """Raise ValueError(message) at the first node where `bad` holds; message names the fields {value}, the entry
    of `values` there, and {node}, its index led by `at`."""
    if np.any(bad):
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(message.format(value=np.asarray(values)[node], node=at + node))


@dataclass
class CurvedCoinProfile:
    """Coin angles theta per (time, site) for the (1+1)D reflection walk.

    theta may be passed as shape (sites,) for a static profile or
    (steps, sites) for a time-dependent one. Angles must lie in
    [0, pi/2) so the derived speed profile v = cos^2(theta) stays in
    (0, 1].
    """

    theta: np.ndarray

    def __post_init__(self):
        self.theta = _as_samples(self.theta, "profile", ("sites",))
        _reject_first((self.theta < 0.0) | (self.theta >= math.pi / 2.0), self.theta,
                      "theta = {value:.6f} outside [0, pi/2) at (time, site) = {node}")

    @property
    def sites(self) -> int:
        return self.theta.shape[1]

    @property
    def speed(self) -> np.ndarray:
        """Speed profile v = cos^2(theta), in (0, 1]."""
        return np.cos(self.theta) ** 2

    def at(self, j: int) -> np.ndarray:
        """Angle row for step j (a static profile repeats its single row)."""
        return self.theta[_sample("profile", len(self.theta), j)]


def curved_step_1p1(field: SpinorField, profile: CurvedCoinProfile, j: int = 0) -> SpinorField:
    """One step of the (1+1)D reflection-coin walk: shift, then B(theta_j).

    The single-step coin is never the identity (B(theta) != 1), so the
    physically meaningful cycle is two steps: B^2 = 1 and the two-step
    map at theta = 0 is pure counter-propagating transport.
    """
    _check_fit(field, "profile", (profile.sites,), 2)
    return _run_layers(field, [("shift", 0), ("coin", reflection_coin(profile.at(j)))])


def evolve_1p1(field: SpinorField, profile: CurvedCoinProfile, steps: int, start: int = 0, *,
               probe=None) -> SpinorField:
    """Steps start, ..., start + steps - 1, each through curved_step_1p1 and followed by probe(j, field) if given."""
    return _evolve(lambda f, j: curved_step_1p1(f, profile, j), field, steps, start, probe)


def two_step_dispersion_1p1(theta, k):
    """Quasi-energy of the two-step cycle at constant theta.

    cos E2 = sin^2(theta) + cos^2(theta) cos(2k); near k = 0 the group
    speed is cos(theta) per step.
    """
    c = np.sin(theta) ** 2 + np.cos(theta) ** 2 * np.cos(2.0 * np.asarray(k, dtype=float))
    return np.arccos(np.clip(c, -1.0, 1.0))


def walk_symbol_1p1(k, theta) -> np.ndarray:
    """2x2 Fourier symbol B(theta) @ diag(e^{ik}, e^{-ik}) of the reflection walk."""
    return _layers_symbol([("shift", 0), ("coin", reflection_coin(theta))], (k,))


def schwarzschild_profile(sites: int, horizon: float, floor: float = 1e-3) -> CurvedCoinProfile:
    """Static profile cos(theta(x)) = clip(|1 - horizon/x|, floor, 1).

    The local speed vanishes (up to the floor) at x = horizon and
    recovers away from it on both sides, the lattice analogue of the
    conformally rescaled radial Schwarzschild metric
    diag(1 - rs/r, -1/(1 - rs/r)). A walker released on the horizon
    splits; the reflected part keeps bouncing within a few sites of the
    horizon while the rest escapes inward/outward.
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError("floor must lie in (0, 1]")
    x = np.arange(sites, dtype=float)
    with np.errstate(divide="ignore"):
        c = np.abs(1.0 - horizon / np.where(x > 0.0, x, np.inf))
    c[0] = 1.0
    return CurvedCoinProfile(np.arccos(np.clip(c, floor, 1.0)))


# ---------------------------------------------------------------------------
# metric fields, triads, dreibeins


@dataclass
class MetricField2D:
    """Sampled spatial metric block of a (1+2)D metric, signature (+, -, -).

    g_xx, g_yy, g_xy hold G_XX, G_YY, G_XY per (time, x, y) node; the
    time block is fixed to G_00 = 1, G_0i = 0. Arrays of shape (nx, ny)
    are promoted to a single time sample (1, nx, ny). The spatial block
    must be negative definite: G_XX < 0 and G = G_XX G_YY - G_XY^2 > 0
    at every node.
    """

    g_xx: np.ndarray
    g_yy: np.ndarray
    g_xy: np.ndarray

    def __post_init__(self):
        self.g_xx, self.g_yy, self.g_xy = np.broadcast_arrays(
            *(_as_samples(a, "metric", ("nx", "ny")) for a in (self.g_xx, self.g_yy, self.g_xy))
        )
        _reject_first(self.g_xx >= 0.0, self.g_xx, "G_XX = {value:.6f} >= 0 at (time, x, y) = {node}")
        det = self.determinant()
        _reject_first(det <= 0.0, det, "G_XX G_YY - G_XY^2 = {value:.6f} <= 0 at (time, x, y) = {node}")

    @property
    def times(self) -> int:
        return self.g_xx.shape[0]

    @property
    def extents(self) -> tuple:
        return self.g_xx.shape[1:]

    def determinant(self) -> np.ndarray:
        """G = G_XX G_YY - G_XY^2 per node (also det of the full 3-metric)."""
        return self.g_xx * self.g_yy - self.g_xy**2

    @classmethod
    def constant(cls, g_xx: float, g_yy: float, g_xy: float, extents) -> "MetricField2D":
        extents = tuple(int(n) for n in np.atleast_1d(extents))
        shape = (1,) + extents
        return cls(np.full(shape, float(g_xx)), np.full(shape, float(g_yy)), np.full(shape, float(g_xy)))

    @classmethod
    def flat(cls, extents) -> "MetricField2D":
        return cls.constant(-1.0, -1.0, 0.0, extents)


@dataclass
class Triad:
    """Inverse-frame entries E1 = E_1^X, E2 = E_2^Y, B = E_1^Y = E_2^X per node."""

    e1: np.ndarray
    e2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.e1, self.e2, self.b = np.broadcast_arrays(
            *(np.asarray(a, dtype=float) for a in (self.e1, self.e2, self.b))
        )

    @property
    def times(self) -> int:
        return self.e1.shape[0]

    @property
    def extents(self) -> tuple:
        return self.e1.shape[1:]

    def matrix(self) -> np.ndarray:
        """Spatial inverse-frame matrix [[E1, B], [B, E2]] per node."""
        m = np.empty(self.e1.shape + (2, 2))
        m[..., 0, 0] = self.e1
        m[..., 0, 1] = self.b
        m[..., 1, 0] = self.b
        m[..., 1, 1] = self.e2
        return m


def _frame_roots(g_xx, g_yy, g_xy):
    """sqrt(G) and sqrt(2 sqrt(G) - Sigma) per node; ValueError where a radicand is not positive."""
    det = g_xx * g_yy - g_xy**2
    _reject_first(det <= 0.0, det, "degenerate metric: G = {value:.6f} <= 0 at (time, x, y) = {node}")
    root = np.sqrt(det)
    gap = 2.0 * root - (g_xx + g_yy)
    _reject_first(gap <= 0.0, gap, "degenerate metric: 2 sqrt(G) - Sigma = {value:.6f} <= 0 at (time, x, y) = {node}")
    return root, np.sqrt(gap)


def _triad_entries(g_xx, g_yy, g_xy):
    """Symmetric-frame solution entries from raw metric samples."""
    root, s = _frame_roots(g_xx, g_yy, g_xy)
    den = root * s
    return (-g_yy + root) / den, (-g_xx + root) / den, g_xy / den


def triad_from_metric(metric: MetricField2D) -> Triad:
    """Symmetric inverse frame of the spatial block, nodewise.

    With G = G_XX G_YY - G_XY^2 and Sigma = G_XX + G_YY,
      E1 = (-G_YY + sqrt(G)) / (sqrt(G) sqrt(2 sqrt(G) - Sigma)),
      E2 = (-G_XX + sqrt(G)) / (sqrt(G) sqrt(2 sqrt(G) - Sigma)),
      B  =  G_XY / (sqrt(G) sqrt(2 sqrt(G) - Sigma)).
    The matching dreibein (`dreibein_from_metric`) satisfies
    e @ E = identity and -e @ e = spatial metric, exactly in algebra
    and to 1e-10 in floats.
    """
    return Triad(*_triad_entries(metric.g_xx, metric.g_yy, metric.g_xy))


def dreibein_from_metric(metric: MetricField2D) -> np.ndarray:
    """Symmetric frame matrix e = [[a, c], [c, b]] per node, inverse of Triad.matrix().

    a = (-G_XX + sqrt(G))/s, b = (-G_YY + sqrt(G))/s, c = -G_XY/s with
    s = sqrt(2 sqrt(G) - Sigma); e is the symmetric square root of the
    negated spatial block.
    """
    root, s = _frame_roots(metric.g_xx, metric.g_yy, metric.g_xy)
    e = np.empty(root.shape + (2, 2))
    e[..., 0, 0] = (-metric.g_xx + root) / s
    e[..., 0, 1] = -metric.g_xy / s
    e[..., 1, 0] = -metric.g_xy / s
    e[..., 1, 1] = (-metric.g_yy + root) / s
    return e


def spinor_weight(metric: MetricField2D) -> np.ndarray:
    """(det g)^{1/4} per node, converting lattice amplitudes to continuum spinors."""
    return metric.determinant() ** 0.25


# ---------------------------------------------------------------------------
# spin connection

GAMMA = (SIGMA1, 1j * SIGMA2, 1j * SIGMA3)


def _spin_generators() -> np.ndarray:
    """S^{ab} = [gamma^a, gamma^b]/4 as a (3, 3, 2, 2) table; S^{aa} = 0."""
    s = np.zeros((3, 3, 2, 2), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            s[a, b] = (GAMMA[a] @ GAMMA[b] - GAMMA[b] @ GAMMA[a]) / 4.0
    return s


def spin_connection(metric: MetricField2D, triad: Triad, mu: int) -> np.ndarray:
    """Per-node spinor connection Gamma_mu, shape (times, nx, ny, 2, 2).

    Gamma_mu = 1/2 E_a^alpha d_mu(g_{alpha beta} E_b^beta) S^{ab} with
    S^{ab} = [gamma^a, gamma^b]/4 and centered differences (periodic
    wrap) for d_mu; mu = 0 is the time axis, 1 and 2 the lattice axes.
    Constant metrics give exactly zero, and only the a != b part of the
    contraction contributes since S^{aa} = 0; for diagonal metrics with
    the symmetric frame the contraction pairs each frame leg with
    itself, so Gamma_mu vanishes identically as well.
    """
    if mu not in (0, 1, 2):
        raise ValueError("mu must be 0 (time), 1, or 2")
    shape = metric.g_xx.shape
    frame = np.zeros(shape + (3, 3))
    frame[..., 0, 0] = 1.0
    frame[..., 1, 1] = triad.e1
    frame[..., 1, 2] = triad.b
    frame[..., 2, 1] = triad.b
    frame[..., 2, 2] = triad.e2
    g = np.zeros(shape + (3, 3))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = metric.g_xx
    g[..., 1, 2] = metric.g_xy
    g[..., 2, 1] = metric.g_xy
    g[..., 2, 2] = metric.g_yy
    lowered = np.einsum("...ab,...cb->...ca", g, frame)  # e_{c alpha}
    dlow = _cdiff(lowered, axis=mu)
    contraction = np.einsum("...ac,...bc->...ab", frame, dlow)
    return 0.5 * np.einsum("...ab,abij->...ij", contraction, _spin_generators())


# ---------------------------------------------------------------------------
# (1+2)D curved walk


@dataclass(frozen=True)
class TriadAngles:
    """Per-node coin angles of the (1+2)D walk; q1/q2 drive even steps, q3/q4 odd ones."""

    v: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    q4: np.ndarray


def _angle_entries(e1, e2, b, at=()):
    """(v, q1, q2, q3, q4) nodewise; `at` leads the index of a node reported outside the light cone."""
    rho1 = np.hypot(e1, b)
    rho2 = np.hypot(e2, b)
    for name, rho in (("(E1, B)", rho1), ("(E2, B)", rho2)):
        _reject_first(rho > 1.0 + 1e-12, rho, f"triad row {name} has length {{value:.6f}} > 1 at node {{node}}: "
                      "frame speeds exceed the lattice light cone", at)
    delta1 = np.arctan2(-b, e1)
    delta2 = np.arctan2(-e2, b)
    phi1 = np.arccos(np.minimum(rho1, 1.0))
    phi2 = np.arccos(np.minimum(rho2, 1.0))
    v = (phi1 - delta1) / 2.0
    q1 = (phi2 - delta2 - phi1 + delta1) / 2.0
    q4 = (phi1 + phi2 + delta2 - delta1) / 2.0
    q3 = (phi1 - phi2 - delta2 + delta1) / 2.0
    q2 = -(q1 + q3 + q4)
    return v, q1, q2, q3, q4


def coin_angles_from_triad(triad: Triad) -> TriadAngles:
    """Solve the five coin angles from the triad entries, nodewise.

    With rho1 = |(E1, B)|, rho2 = |(E2, B)| (both must stay inside the
    lattice light cone, rho <= 1), delta1 = atan2(-B, E1),
    delta2 = atan2(-E2, B), phi_i = arccos(rho_i):

      v  = (phi1 - delta1)/2,
      q1 = (phi2 - delta2 - phi1 + delta1)/2,
      q4 = (phi1 + phi2 + delta2 - delta1)/2,
      q3 = (phi1 - phi2 - delta2 + delta1)/2,
      q2 = -(q1 + q3 + q4).

    The flat triad (1, 1, 0) gives v = 0 and (q1, q2, q3, q4) =
    (pi/4, -pi/4, pi/4, -pi/4), the free 2D walk. Time samples are solved
    one at a time, so the solve holds little more than its five result planes.
    """
    if triad.e1.ndim == 0 or triad.times == 1:
        return TriadAngles(*_angle_entries(triad.e1, triad.e2, triad.b))
    block = np.empty((5,) + triad.e1.shape)
    for it in range(triad.times):
        for plane, angle in zip(block[:, it], _angle_entries(triad.e1[it], triad.e2[it], triad.b[it], (it,))):
            plane[...] = angle
    return TriadAngles(*block)


def _coin_angles_1p2(angles: TriadAngles, it, parity: int, dm: float) -> tuple:
    """The angles v, qa - dm and (qb - dm) - v of C(v), C(qa - dm) and C((qb - dm) - v) = C(-v) C(qb - dm) (standard
    coins add angles) of time sample it at step parity 0 or 1."""
    qa, qb = (angles.q1[it], angles.q2[it]) if parity == 0 else (angles.q3[it], angles.q4[it])
    v = angles.v[it]
    return v, qa - dm, (qb - dm) - v


def _layers_1p2(cv, ca, cb) -> list:
    """Layers C((qb - dm) - v) S_Y C(qa - dm) S_X C(v), from the standard coins of the _coin_angles_1p2 angles."""
    return [("coin", cv), ("shift", 0), ("coin", ca), ("shift", 1), ("coin", cb)]


def curved_step_1p2(field: SpinorField, triad: Triad, mass: float = 0.0, j: int = 0,
                    epsilon: float = 1.0) -> SpinorField:
    """One step of the (1+2)D curved walk at step index j.

    The step conjugates by C(v) an X substep then a Y substep,

      W_j = C(-v) C(qb) S_Y C(qa) S_X C(v),

    with (qa, qb) = (q1, q2) at even j and (q3, q4) at odd j, and a
    mass term shifting both qa and qb by -epsilon*mass/2. Over two
    steps the generator is 2[k1(E1 s3 - B s2) + k2(B s3 - E2 s2)
    - epsilon*mass*s1] + O(k^2), the curved Dirac Hamiltonian of the
    triad frame; the flat triad reduces the step to the free 2D walk.
    Its coins are held background state, kept between calls as evolve_1p2 describes.
    """
    return _walk_1p2(field, triad, mass, j, 1, epsilon)


def evolve_1p2(field: SpinorField, triad: Triad, mass: float = 0.0, steps: int = 1,
               start: int = 0, epsilon: float = 1.0) -> SpinorField:
    """Iterate curved_step_1p2, solving the angles at most once. The coins are held background state: they stay with
    this thread until a call on another lattice shape, keyed by bitwise copies of the last time sample's (e1, e2, b)
    and epsilon*mass/2. Each takes three planes, its off-diagonal entries sharing one: 3.75 MiB for five at 128^2."""
    return _walk_1p2(field, triad, mass, start, steps, epsilon)


def _held_coin(theta) -> np.ndarray:
    """standard_coin(theta) as a read-only view of its planes cos, i sin and cos, entry (a, b) reading plane a + b."""
    u = standard_coin(theta)
    planes = np.stack([u[..., 0, 0], u[..., 0, 1], u[..., 1, 1]])
    strides = planes.strides[1:] + planes.strides[:1] * 2
    return np.lib.stride_tricks.as_strided(planes, u.shape, strides, writeable=False)


def _walk_1p2(field: SpinorField, triad: Triad, mass: float, start: int, steps: int, epsilon: float):
    """Steps start, ..., start + steps - 1 of the (1+2)D walk. Each time sample's standard coins, C(v) and two per
    parity, are held in this thread's scratch dict, and one `_run_layers` call applies the layers of all its steps.
    The dict holds the coins built so far under a key, bitwise copies of the sample's (e1, e2, b) and of dm: a sample
    that matches it solves only for a parity not yet built, any other clears the dict and builds what it steps."""
    _check_fit(field, "triad", triad.extents, 2)
    dm, angles = np.float64(0.5 * epsilon * mass), None
    held = _step_scratch(field.amplitudes.shape[:-1], 2, field.batch)[2]
    for it, js in itertools.groupby(_steps(start, steps), lambda j: _sample("triad", triad.times, j)):
        js = list(js)
        key = (triad.e1[it], triad.e2[it], triad.b[it], dm)
        if "key" not in held or not all(np.array_equal(a.view(np.int64), b.view(np.int64))
                                        for a, b in zip(held["key"], key)):
            held.clear()
            held["key"] = tuple(np.copy(a) for a in key)
        for p in {j % 2 for j in js[:2]} - held.keys():
            angles = coin_angles_from_triad(triad) if angles is None else angles
            v, *rest = _coin_angles_1p2(angles, it, p, dm)  # C(v) is the same for both parities
            if "cv" not in held:
                held["cv"] = _held_coin(v)
            held[p] = tuple(map(_held_coin, rest))
        field = _run_layers(field, [layer for j in js for layer in _layers_1p2(held["cv"], *held[j % 2])])
    return field


def walk_symbol_1p2(k1, k2, e1: float, e2: float, b: float, mass: float = 0.0,
                    parity: int = 0, epsilon: float = 1.0) -> np.ndarray:
    """2x2 Fourier symbol of the (1+2)D step at quasimomentum (k1, k2).

    parity selects the even (q1, q2) or odd (q3, q4) substep angles of
    the uniform triad (e1, e2, b).
    """
    angles = TriadAngles(*_angle_entries(np.asarray(e1, float), np.asarray(e2, float), np.asarray(b, float)))
    coins = map(standard_coin, _coin_angles_1p2(angles, (), parity % 2, 0.5 * epsilon * mass))
    return _layers_symbol(_layers_1p2(*coins), (k1, k2))


# ---------------------------------------------------------------------------
# gravitational-wave configurations


def gw_metric(extents, xi: float, polarization: str = "plus", base_speed: float = 0.8,
              profile=(1.0,)) -> MetricField2D:
    """Plane metric perturbation of strength xi around an isotropic base.

    The base metric is -(1/base_speed^2) diag(1, 1); base_speed < 1
    keeps the perturbed frame speeds strictly inside the lattice light
    cone. Polarization "plus" perturbs the diagonal,
    G_XX/G_YY = -(1 +/- xi g(T))/base_speed^2, polarization "cross"
    ("pure shear") the off-diagonal, G_XY = xi g(T)/base_speed^2.
    profile holds the per-step samples g(T_j); the default is a single
    unit sample (one static step).
    """
    extents = tuple(int(n) for n in np.atleast_1d(extents))
    if not 0.0 < base_speed <= 1.0:
        raise ValueError("base_speed must lie in (0, 1]")
    g = np.asarray(profile, dtype=float).reshape(-1, 1, 1)
    a2 = 1.0 / base_speed**2
    shape = (g.shape[0],) + extents
    ones = np.ones(shape)
    if polarization == "plus":
        return MetricField2D(-a2 * (1.0 + xi * g) * ones, -a2 * (1.0 - xi * g) * ones,
                             np.zeros(shape))
    if polarization == "cross":
        return MetricField2D(-a2 * ones, -a2 * ones, a2 * xi * g * ones)
    raise ValueError(f"unknown polarization {polarization!r} (use 'plus' or 'cross')")


def _positive_mode(symbol: np.ndarray, energy: float) -> np.ndarray:
    """Eigenvector of the symbol on the e^{-i*energy} branch, phase-fixed."""
    lam, vec = np.linalg.eig(symbol)
    idx = int(np.argmin(np.abs(lam - np.exp(-1j * energy))))
    v = vec[:, idx]
    pivot = int(np.argmax(np.abs(v)))
    return v * np.exp(-1j * np.angle(v[pivot])) / np.linalg.norm(v)


def gw_two_mode_state(k: float, extents, base_speed: float = 0.8) -> SpinorField:
    """Equal superposition of matched walk eigenmodes at (k, 0) and (0, k).

    Both modes sit on the e^{-iE} branch of the unperturbed (xi = 0)
    even-parity step with E = arccos(base_speed * cos k), so one
    unperturbed step multiplies the whole state by a global phase and
    its density pattern, two-plane-wave interference along the X - Y
    diagonals, is exactly stationary. k must be an integer multiple of
    2*pi/extent along both axes.
    """
    extents = tuple(int(n) for n in np.atleast_1d(extents))
    if len(extents) != 2:
        raise ValueError("two-mode states need a 2D lattice")
    _check_momenta((k, k), extents)
    c0 = float(base_speed)
    energy = math.acos(c0 * math.cos(k))
    sx = _positive_mode(walk_symbol_1p2(k, 0.0, c0, c0, 0.0), energy)
    sy = _positive_mode(walk_symbol_1p2(0.0, k, c0, c0, 0.0), energy)
    x = np.arange(extents[0])[:, None, None]
    y = np.arange(extents[1])[None, :, None]
    amps = np.exp(1j * k * x) * sx + np.exp(1j * k * y) * sy
    return SpinorField(np.broadcast_to(amps, extents + (2,)).copy()).normalized()


def gw_relative_density_change(state: SpinorField, xi: float, polarization: str = "plus",
                               base_speed: float = 0.8, mass: float = 0.0):
    """Density response of a two-mode state to one perturbed walk step.

    Applies a single even-parity step of the walk built from the
    perturbed metric gw_metric(xi, ...) and returns
    (delta_field, max_change) with
    delta_field = (rho_after - rho_before)/max(rho_before). The
    unperturbed step leaves the density invariant, so the returned
    change isolates the metric perturbation; it stays linear in xi in
    the first-order regime (xi <= 0.05 enforced).
    """
    if not 0.0 <= xi <= 0.05:
        raise ValueError("perturbation strength xi must lie in [0, 0.05]")
    metric = gw_metric(state.extents, xi, polarization, base_speed)
    triad = triad_from_metric(metric)
    rho0 = state.probability()
    rho1 = curved_step_1p2(state, triad, mass, j=0).probability()
    delta = (rho1 - rho0) / rho0.max()
    return delta, float(np.abs(delta).max())


def gw_wavelength_scan(wavelengths=(2, 3, 4, 6, 8, 12, 16, 24), extents=(96, 96),
                       xi: float = 0.01, polarization: str = "plus",
                       base_speed: float = 0.8):
    """Density response versus interference-pattern wavelength.

    For each wavelength lam (the spacing in sites between neighboring
    density extrema of the two-mode pattern, so the member modes carry
    quasimomentum k = pi/lam) this builds the two-mode state and
    measures its one-step response to the perturbed metric. Returns a
    list of (lam, max_change) pairs. Short wavelengths of a few sites
    respond strongest; the response decays toward the continuum limit.
    A wavelength whose k does not fit the lattice raises gw_two_mode_state's ValueError.
    """
    results = []
    for lam in wavelengths:
        state = gw_two_mode_state(math.pi / float(lam), extents, base_speed)
        _, change = gw_relative_density_change(state, xi, polarization, base_speed)
        results.append((int(lam), change))
    return results

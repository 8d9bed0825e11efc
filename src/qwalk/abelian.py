"""Walks minimally coupled to an Abelian gauge field on the spacetime lattice.

Couplings: the 1D step is W_j = e^{i da_j} C(dtheta) F(dxi_j) S with
da = eps*A0 and dxi = -eps*A1 (charge -1 minimal coupling); the 2D step
applies the two lightcone substeps X then Y with coin angles
f_pm = +-pi/4 + dtheta/2 and phases dxi_a = -eps*A_a, da = eps*A0.

The discrete derivative family (d0, d1[, d2]) is chosen so that the
lattice gauge transform A' = A - d(phi) commutes exactly with the walk
and F = dA - (dA)^T is exactly invariant; the 2D continuity check uses
its own conserved stencil set (see lattice_current_2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from qwalk.lattice import (TAU, SpinorField, _avg, _cdiff, _check_fit, _expi, _layers_symbol, _run_layers, _sample,
                           standard_coin)

WEAK_FIELD_BOUND = TAU / 20.0


# ---------------------------------------------------------------------------
# gauge field containers


@dataclass
class GaugeField1D:
    """A_mu sampled on the spacetime lattice: a0, a1 with shape (steps, sites)."""

    a0: np.ndarray
    a1: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.a0 = np.asarray(self.a0, dtype=float)
        self.a1 = np.asarray(self.a1, dtype=float)
        if self.a0.shape != self.a1.shape or self.a0.ndim != 2:
            raise ValueError("a0 and a1 must both have shape (steps, sites)")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def steps(self) -> int:
        return self.a0.shape[0]

    @property
    def sites(self) -> int:
        return self.a0.shape[1]

    @classmethod
    def zero(cls, steps: int, sites: int, epsilon: float = 1.0) -> "GaugeField1D":
        return cls(np.zeros((steps, sites)), np.zeros((steps, sites)), epsilon)


@dataclass
class GaugeField2D:
    """A_mu on the (1+2)D lattice: a0, a1, a2 with shape (steps, n1, n2)."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    epsilon: float
    # layers of the slice em_step_2d last stepped on, see _em_gauge_layers
    _phases: tuple | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a0 = np.asarray(self.a0, dtype=float)
        self.a1 = np.asarray(self.a1, dtype=float)
        self.a2 = np.asarray(self.a2, dtype=float)
        if not (self.a0.shape == self.a1.shape == self.a2.shape) or self.a0.ndim != 3:
            raise ValueError("a0, a1, a2 must all have shape (steps, n1, n2)")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")

    @property
    def steps(self) -> int:
        return self.a0.shape[0]

    @property
    def extents(self) -> tuple:
        return self.a0.shape[1:]

    @classmethod
    def zero(cls, steps: int, n1: int, n2: int, epsilon: float = 1.0) -> "GaugeField2D":
        z = np.zeros((steps, n1, n2))
        return cls(z, z.copy(), z.copy(), epsilon)


def weak_field_ok(gauge) -> bool:
    """True when eps*|A| stays below 2*pi/20 everywhere."""
    comps = [gauge.a0, gauge.a1] + ([gauge.a2] if hasattr(gauge, "a2") else [])
    return all(float(np.max(np.abs(a))) * gauge.epsilon < WEAK_FIELD_BOUND for a in comps)


# ---------------------------------------------------------------------------
# discrete derivatives and field strength


def lattice_derivative(q: np.ndarray, mu: int, epsilon: float) -> np.ndarray:
    """Discrete derivative d_mu of a spacetime-sampled scalar.

    q has shape (steps, sites) in 1D or (steps, n1, n2) in 2D; axis 0 is
    time. The time derivative averages the forward neighbours over every
    spatial axis and loses the last time slice:
      1D: d0 q = (q[j+1, p] - (q[j, p+1] + q[j, p-1])/2) / eps
      2D: d0 q = (q[j+1] - avg_1 avg_2 q[j]) / eps
    Spatial derivatives are centered; in 2D the second axis carries the
    extra avg over axis 1 that makes the gauge-transform closure exact:
      d1 q = cdiff_1 q / eps,  d2 q = cdiff_2 avg_1 q / eps.
    """
    q = np.asarray(q, dtype=float)
    sdims = q.ndim - 1
    if sdims not in (1, 2):
        raise ValueError("expected shape (steps, sites) or (steps, n1, n2)")
    if mu == 0:
        avg = _avg(q[:-1], axis=1)
        if sdims == 2:
            avg = _avg(avg, axis=2)
        return (q[1:] - avg) / epsilon
    if mu == 1:
        return _cdiff(q, axis=1) / epsilon
    if mu == 2 and sdims == 2:
        return _cdiff(_avg(q, axis=1), axis=2) / epsilon
    raise ValueError(f"no axis mu={mu} for a {sdims}D lattice")


def lattice_field_strength(gauge):
    """Antisymmetric F_mu_nu = d_mu A_nu - d_nu A_mu.

    Returns {'f01': ...} in 1D, {'f01', 'f02', 'f12'} in 2D. Time-mixed
    components have steps-1 time slices; f12 keeps all steps.
    """
    eps = gauge.epsilon
    out = {"f01": lattice_derivative(gauge.a1, 0, eps) - lattice_derivative(gauge.a0, 1, eps)[:-1]}
    if not isinstance(gauge, GaugeField1D):
        out["f02"] = lattice_derivative(gauge.a2, 0, eps) - lattice_derivative(gauge.a0, 2, eps)[:-1]
        out["f12"] = lattice_derivative(gauge.a2, 1, eps) - lattice_derivative(gauge.a1, 2, eps)
    return out


def _gauge_transform(field: SpinorField, gauge, phi: np.ndarray):
    """Shared body of the 1D and 2D transforms: e^{-i phi[0]} field and A'_mu = A_mu - d_mu phi."""
    eps = gauge.epsilon
    # phi has one axis per component A_mu; spatial derivatives use the slices A_mu occupies
    primed = [getattr(gauge, f"a{mu}") - lattice_derivative(phi if mu == 0 else phi[:-1], mu, eps)
              for mu in range(phi.ndim)]
    out = SpinorField(field.amplitudes * np.exp(-1j * phi[0])[..., None])
    return out, type(gauge)(*primed, eps)


# ---------------------------------------------------------------------------
# 1D electric walk


def electric_step_1d(field: SpinorField, gauge: GaugeField1D, mass: float, j: int) -> SpinorField:
    """One electrically coupled step: shift, spin phases, mass coin, scalar phase."""
    _check_fit(field, "gauge", gauge.a0.shape[1:], 2)
    j = _sample("gauge", len(gauge.a0), j)
    eps = gauge.epsilon
    dalpha = eps * gauge.a0[j] + 0.0  # never -0.0, so neither phase argument is (see _expi)
    dxi = -eps * gauge.a1[j]
    theta = -eps * mass
    return _run_layers(field, [("shift", 0), ("phase", _expi(dalpha + dxi), _expi(dalpha - dxi)),
                               ("coin", None if theta == 0.0 else standard_coin(theta))])


def evolve_electric(field: SpinorField, gauge: GaugeField1D, mass: float, steps: int,
                    start: int = 0) -> SpinorField:
    for j in range(start, start + steps):
        field = electric_step_1d(field, gauge, mass, j)
    return field


def gauge_transform_1d(field: SpinorField, gauge: GaugeField1D, phi: np.ndarray):
    """Lattice gauge transform by phi with shape (steps+1, sites).

    Returns (field', gauge') with field' = e^{-i phi[0]} field (the state
    is assumed to sit at time index 0) and A'_mu = A_mu - d_mu phi.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (gauge.steps + 1, gauge.sites):
        raise ValueError("phi must have shape (steps+1, sites)")
    return _gauge_transform(field, gauge, phi)


# ---------------------------------------------------------------------------
# lattice current


@dataclass
class LatticeCurrent:
    """Conserved current of one step; residual is max |d0 J0 + d1 J1 (+ d2 J2)|."""

    j0: np.ndarray
    j0_next: np.ndarray
    j1: np.ndarray
    residual: float
    j2: np.ndarray | None = None


def lattice_current(field_j: SpinorField, field_j1: SpinorField, epsilon: float) -> LatticeCurrent:
    """Current of a 1D step: J0 = |up|^2 + |down|^2, J1 = |down|^2 - |up|^2."""
    up = np.abs(field_j.amplitudes[..., 0]) ** 2
    dn = np.abs(field_j.amplitudes[..., 1]) ** 2
    j0 = up + dn
    j1 = dn - up
    j0_next = field_j1.probability()
    residual = float(np.max(np.abs(j0_next - _avg(j0, axis=0) + _cdiff(j1, axis=0)))) / epsilon
    return LatticeCurrent(j0=j0, j0_next=j0_next, j1=j1, residual=residual)


def lattice_current_2d(field: SpinorField, gauge: GaugeField2D, delta_theta: float, j: int) -> LatticeCurrent:
    """Currents of one 2D step, built so the continuity residual is exactly zero.

    J1 comes from the step-input field smeared along the second axis,
    J2 from the mid-step field (after the X substep); the residual uses
    d0 = (shift - avg_1 avg_2)/eps, d1 = cdiff_1 avg_2 / eps, d2 = cdiff_2 / eps.
    """
    _check_fit(field, "gauge", gauge.a0.shape[1:], 2)
    eps = gauge.epsilon
    layers = _em_gauge_layers(gauge, _sample("gauge", len(gauge.a0), j), delta_theta)
    j0 = field.probability()
    split = [layer[0] for layer in layers].index("shift", 1)  # the Y substep starts at the second shift
    mid = _run_layers(field, layers[:split])
    up_in = np.abs(field.amplitudes[..., 0]) ** 2
    dn_in = np.abs(field.amplitudes[..., 1]) ** 2
    j1 = _avg(dn_in - up_in, axis=1)
    up_mid = np.abs(mid.amplitudes[..., 0]) ** 2
    dn_mid = np.abs(mid.amplitudes[..., 1]) ** 2
    j2 = dn_mid - up_mid
    nxt = _run_layers(mid, layers[split:])
    j0_next = nxt.probability()
    div = j0_next - _avg(_avg(j0, axis=0), axis=1) + _cdiff(j1, axis=0) + _cdiff(j2, axis=1)
    return LatticeCurrent(j0=j0, j0_next=j0_next, j1=j1, j2=j2, residual=float(np.max(np.abs(div))) / eps)


# ---------------------------------------------------------------------------
# 2D electromagnetic walk


def _em_layers(delta_theta: float, x_phase=(), y_phase=()) -> list:
    """Layers S_X, *x_phase, C(pi/4 + dtheta/2), S_Y, *y_phase, C(-pi/4 + dtheta/2); a coin of angle 0 is None."""
    x_coin, y_coin = (None if t == 0.0 else standard_coin(t)
                      for t in (math.pi / 4 + delta_theta / 2.0, -math.pi / 4 + delta_theta / 2.0))
    return [("shift", 0), *x_phase, ("coin", x_coin), ("shift", 1), *y_phase, ("coin", y_coin)]


def _em_gauge_layers(gauge: GaugeField2D, j: int, delta_theta: float) -> list:
    """The layers of em_step_2d on slice j, cached on the gauge.

    X phases: e^{-i eps A1} and its conjugate. Y phases: e^{i eps (A0 -+ A2)};
    the scalar phase e^{i eps A0} commutes with the coin, so it rides on the Y
    phases. A phase layer whose tables would be exactly 1 (no non-zero A1, or
    no non-zero A0 and A2, as in every Landau-type gauge) is left out. The
    layers are reused only while slice j still holds the values they came
    from (kept as copies), so in-place edits are always seen.
    """
    a0, a1, a2 = gauge.a0[j], gauge.a1[j], gauge.a2[j]
    eps = gauge.epsilon
    cached = gauge._phases
    if (cached is not None and cached[:3] == (j, eps, delta_theta)
            and all(np.array_equal(c, a) for c, a in zip(cached[3:6], (a0, a1, a2)))):
        return cached[6]
    x_phase = [("phase", (x_up := _expi(-eps * a1 + 0.0)), x_up.conj())] if a1.any() else []
    y_phase = ([("phase", _expi(eps * (a0 - a2) + 0.0), _expi(eps * (a0 + a2) + 0.0))]
               if a0.any() or a2.any() else [])
    layers = _em_layers(delta_theta, x_phase, y_phase)
    gauge._phases = (j, eps, delta_theta, a0.copy(), a1.copy(), a2.copy(), layers)
    return layers


def em_step_2d(field: SpinorField, gauge: GaugeField2D, delta_theta: float, j: int) -> SpinorField:
    """One 2D EM step: X substep, then Y substep carrying the scalar phase e^{i eps A0}."""
    _check_fit(field, "gauge", gauge.a0.shape[1:], 2)
    return _run_layers(field, _em_gauge_layers(gauge, _sample("gauge", len(gauge.a0), j), delta_theta))


def evolve_em(field: SpinorField, gauge: GaugeField2D, delta_theta: float, steps: int,
              start: int = 0) -> SpinorField:
    for j in range(start, start + steps):
        field = em_step_2d(field, gauge, delta_theta, j)
    return field


def gauge_transform_2d(field: SpinorField, gauge: GaugeField2D, phi: np.ndarray):
    """2D lattice gauge transform by phi with shape (steps+1, n1, n2).

    A0' = A0 - (phi[j+1] - avg_1 avg_2 phi[j])/eps, A1' = A1 - cdiff_1 phi[j]/eps,
    A2' = A2 - cdiff_2 avg_1 phi[j]/eps; these close exactly against em_step_2d.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (gauge.steps + 1,) + gauge.extents:
        raise ValueError("phi must have shape (steps+1, n1, n2)")
    return _gauge_transform(field, gauge, phi)


# ---------------------------------------------------------------------------
# magnetic spectra and drift drivers


def landau_gauge(b: float, steps: int, n1: int, n2: int, epsilon: float) -> GaugeField2D:
    """Landau-gauge field A = (0, 0, -B x): dxi2 = B * x * eps, flux B eps^2 per cell.

    x is measured from the middle of the first axis so the seam phase
    jump at the periodic wrap stays far from centered wavepackets.
    """
    x = ((np.arange(n1) - n1 // 2) * epsilon)[None, :, None]
    a2 = np.broadcast_to(-b * x, (steps, n1, n2)).copy()
    z = np.zeros((steps, n1, n2))
    return GaugeField2D(z, z.copy(), a2, epsilon)


def _landau_fiber_operator(b: float, epsilon: float, sites: int, k2: float = 0.0):
    """Sparse one-step operator of the k2 Fourier fiber of the Landau-gauge walk."""
    from scipy import sparse

    n = sites
    dxi2 = b * (np.arange(n) - n // 2) * epsilon**2
    # basis index = 2*p + s, s in {0 (up), 1 (down)}
    rows, cols, vals = [], [], []
    for p in range(n):
        rows += [2 * p, 2 * p + 1]
        cols += [2 * ((p + 1) % n), 2 * ((p - 1) % n) + 1]
        vals += [1.0, 1.0]
    s1 = sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n), dtype=complex)
    c_plus = sparse.kron(sparse.eye(n), standard_coin(math.pi / 4), format="csr")
    c_minus = sparse.kron(sparse.eye(n), standard_coin(-math.pi / 4), format="csr")
    ph = np.empty(2 * n, dtype=complex)
    ph[0::2] = np.exp(1j * (dxi2 + k2))
    ph[1::2] = np.exp(-1j * (dxi2 + k2))
    f2 = sparse.diags(ph).tocsr()
    return (c_minus @ f2 @ c_plus @ s1).tocsr()


def landau_box_size(b: float, epsilon: float, n_levels: int) -> int:
    """Power-of-two chain length that resolves the lowest n_levels bulk levels.

    The phase ramp must cover the turning point of the highest requested
    level in effective momentum, ~ 4 sqrt(2n) magnetic lengths. Sweeps in
    epsilon should size once at the smallest epsilon and reuse the result,
    so box errors stay common to every point of the fit.
    """
    if b <= 0.0:
        return 256
    ell = 1.0 / (math.sqrt(b) * epsilon)  # magnetic length in sites
    span = max(8.0, 4.0 * math.sqrt(2.0 * (n_levels + 1))) * ell
    if not math.isfinite(span):
        raise ValueError(f"the magnetic length 1/(sqrt(b)*epsilon) overflows at b={b!r}, epsilon={epsilon!r}")
    return int(2 ** math.ceil(math.log2(max(span, 256.0))))


def landau_quasienergies(b: float, epsilon: float, n_levels: int, sites: int | None = None,
                         k2: float = 0.0) -> np.ndarray:
    """Lowest positive quasi-energies of the magnetic walk, in continuum units (E/eps).

    Diagonalizes the k2 fiber of the Landau-gauge walk near quasi-energy
    zero with a sparse shift-invert on (W + W^dag)/2. Energies come from
    the cosine eigenvalues (the +-E partners share one cosine cluster),
    so sign splitting is never needed; eigenvectors are only used to keep
    bulk states (>= 45% weight in the central half of the chain, away
    from the gauge seam and any box-confined artifacts).
    """
    from scipy.sparse.linalg import eigsh

    if sites is None:
        sites = landau_box_size(b, epsilon, n_levels)
    w = _landau_fiber_operator(b, epsilon, sites, k2)
    cos_op = ((w + w.conj().T) * 0.5).tocsr()

    k = min(2 * n_levels + 10, 2 * sites - 2)
    vals, vecs = eigsh(cos_op, k=k, sigma=1.0 + 1e-4, which="LM")
    order = np.argsort(-vals)
    vals, vecs = vals[order], vecs[:, order]

    cluster_tol = max(1e-10, 0.2 * b * epsilon**2)
    zero_tol = max(1e-12, 0.05 * b * epsilon**2)
    lo, hi = sites // 4, 3 * sites // 4

    out = []
    i = 0
    while i < len(vals):
        jx = i + 1
        while jx < len(vals) and vals[i] - vals[jx] < cluster_tol:
            jx += 1
        c = float(np.mean(vals[i:jx]))
        if 1.0 - c > zero_tol:
            block, _ = np.linalg.qr(vecs[:, i:jx])
            dens = np.mean(np.abs(block) ** 2, axis=1).reshape(sites, 2).sum(axis=1)
            if float(np.sum(dens[lo:hi])) >= 0.45:
                out.append(math.acos(min(1.0, max(-1.0, c))) / epsilon)
        i = jx
    out = np.sort(np.array(out))
    if len(out) < n_levels:
        raise ValueError(
            f"only {len(out)} positive bulk levels resolvable with k={k} eigenpairs; "
            f"requested {n_levels}"
        )
    return out[:n_levels]


def bloch_positions(eta: float, sites: int, steps: int, theta_bar: float = math.pi / 4,
                    width: float = 6.0) -> np.ndarray:
    """Mean position trace of a packet driven by a uniform electric phase ramp.

    eta is the quasimomentum drift per step (eps_A * E); the spectrum is
    gapped by the constant coin angle theta_bar so the group velocity
    oscillates with period 2*pi/eta steps.
    """
    # positive-band spinor at k = 0 for coin C(theta_bar): stationary packet start
    field = SpinorField.gaussian(sites, k0=0.0, spin=(1.0, -1.0), width=width)
    gauge = GaugeField1D.zero(steps, sites)
    gauge.a1[:] = -(eta * np.arange(steps))[:, None]  # A1 = -E t, so dxi_j = +eta j
    positions = np.empty(steps)
    p = np.arange(sites)
    for j in range(steps):
        field = electric_step_1d(field, gauge, -theta_bar, j)  # dtheta = +theta_bar
        prob = field.probability()
        positions[j] = float(np.sum(p * prob))
    return positions


def measured_period(trace: np.ndarray) -> float:
    """Dominant period (steps) of a trace via the FFT of its detrended samples."""
    t = np.arange(len(trace))
    x = trace - np.polyval(np.polyfit(t, trace, 1), t)
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    m = int(np.argmax(spec))
    if m == 0:
        raise ValueError("trace has no oscillating component")
    return len(x) / m


def em_symbol_2d(k1, k2, delta_theta: float = 0.0) -> np.ndarray:
    """Quasimomentum symbol of the free 2D step, broadcasting to (..., 2, 2)."""
    return _layers_symbol(_em_layers(delta_theta), (k1, k2))


def positive_band_packet_2d(extents, k0, width: float = 8.0,
                            delta_theta: float = 0.0) -> SpinorField:
    """Gaussian packet projected onto the positive quasi-energy band.

    Projection happens in Fourier space with the eigenvectors of the free
    symbol, so the packet carries a single cyclotron frequency when a
    weak magnetic field is switched on.
    """
    n1, n2 = extents
    seed = SpinorField.gaussian(extents, k0=k0, spin=(1.0, 0.0), width=width)
    amps = np.fft.fft2(seed.amplitudes, axes=(0, 1))
    k1 = TAU * np.fft.fftfreq(n1)[:, None] * np.ones((1, n2))
    k2 = TAU * np.fft.fftfreq(n2)[None, :] * np.ones((n1, 1))
    lam, vec = np.linalg.eig(em_symbol_2d(k1, k2, delta_theta))
    energy = -np.angle(lam)
    pick = np.argmax(energy, axis=-1)
    vsel = np.take_along_axis(vec, pick[..., None, None], axis=-1)[..., 0]
    vsel = vsel / np.linalg.norm(vsel, axis=-1, keepdims=True)
    proj = np.einsum("...a,...a->...", vsel.conj(), amps)
    return SpinorField(np.fft.ifft2(proj[..., None] * vsel, axes=(0, 1))).normalized()


def circular_mean_positions(prob: np.ndarray) -> tuple:
    """Wrap-safe center of a 2D density via the phase of its first Fourier mode, taken on each marginal."""
    marginals = (prob.sum(axis=1), prob.sum(axis=0))
    return tuple(float(np.angle(np.dot(m, np.exp(1j * TAU * np.arange(n) / n)))) * n / TAU
                 for m, n in zip(marginals, prob.shape))


def exb_positions(e_ratio: float, b_flux: float, extents: tuple, steps: int,
                  k0: float = 0.25, width: float = 8.0) -> np.ndarray:
    """Packet center trace (steps, 2) in crossed E and B fields, unwrapped.

    b_flux is the magnetic phase per plaquette (eps^2 * B); the electric
    phase gradient is e_ratio * b_flux, so the continuum drift speed
    prediction is E/B = e_ratio sites/step along the second axis. The
    packet starts in the positive band with carrier (0, k0) and the trace
    holds wrap-safe circular-mean centers, unwrapped along time.
    """
    n1, n2 = extents
    field = positive_band_packet_2d(extents, (0.0, k0), width)
    x = np.arange(n1, dtype=float) - n1 // 2
    a0 = np.broadcast_to((-(e_ratio * b_flux) * x)[None, :, None], (1, n1, n2)).copy()
    a2 = np.broadcast_to((-b_flux * x)[None, :, None], (1, n1, n2)).copy()
    gauge = GaugeField2D(a0, np.zeros((1, n1, n2)), a2, 1.0)
    ph = np.empty((steps, 2))
    for j in range(steps):
        field = em_step_2d(field, gauge, 0.0, 0)
        prob = field.probability()
        ph[j] = circular_mean_positions(prob)
    trace = np.unwrap(ph * (TAU / np.array([n1, n2])), axis=0) * np.array([n1, n2]) / TAU
    return trace


def participation_ratio(field: SpinorField) -> float:
    """Inverse of the summed squared site densities (normalized input)."""
    rho = field.probability()
    return float(1.0 / np.sum(rho**2))


def rational_field_pr(flux_fraction: float, sites: int, steps: int, center_offset: int = 0) -> float:
    """Participation ratio after evolving a point source in a uniform magnetic field."""
    n = sites
    field = SpinorField.delta((n, n), site=(n // 2 + center_offset, n // 2), spin=(1.0, 1.0j))
    x = np.arange(n, dtype=float)
    a2 = np.broadcast_to((-(TAU * flux_fraction) * x)[None, :, None], (1, n, n)).copy()
    z = np.zeros((1, n, n))
    gauge = GaugeField2D(z, z.copy(), a2, 1.0)
    for _ in range(steps):
        field = em_step_2d(field, gauge, 0.0, 0)
    return participation_ratio(field)

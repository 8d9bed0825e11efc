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

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from qwalk.lattice import (TAU, SpinorField, _avg, _cdiff, _check_fit, _evolve, _expi, _fixed_coin, _GaugeContainer,
                           _layers_symbol, _run_layers, _sample)

WEAK_FIELD_BOUND = TAU / 20.0
_PHASE_BLOCK = 1 << 14  # site-steps per block of phase tables that evolve_electric fills


# ---------------------------------------------------------------------------
# gauge field containers


@dataclass
class GaugeField1D(_GaugeContainer):
    """A_mu sampled on the spacetime lattice: a0, a1 with shape (steps, sites); one time sample serves every step."""

    a0: np.ndarray
    a1: np.ndarray
    epsilon: float
    _arrays, _axes = ("a0", "a1"), ("steps", "sites")
    sites = property(lambda self: self.extents[0])

    @classmethod
    def zero(cls, steps: int, sites: int, epsilon: float = 1.0) -> "GaugeField1D":
        return cls(np.zeros((steps, sites)), np.zeros((steps, sites)), epsilon)


@dataclass
class GaugeField2D(_GaugeContainer):
    """A_mu on the (1+2)D lattice: a0, a1, a2 with shape (steps, n1, n2); one time sample serves every step."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    epsilon: float
    # layers of the slice em_step_2d last stepped on, see _em_gauge_layers
    _phases: tuple | None = dataclass_field(default=None, init=False, repr=False, compare=False)
    _arrays, _axes = ("a0", "a1", "a2"), ("steps", "n1", "n2")

    @classmethod
    def zero(cls, steps: int, n1: int, n2: int, epsilon: float = 1.0) -> "GaugeField2D":
        z = np.zeros((steps, n1, n2))
        return cls(z, z.copy(), z.copy(), epsilon)


def weak_field_ok(gauge) -> bool:
    """True when eps*|A| stays below 2*pi/20 everywhere."""
    return all(float(np.max(np.abs(getattr(gauge, a)))) * gauge.epsilon < WEAK_FIELD_BOUND for a in gauge._arrays)


# ---------------------------------------------------------------------------
# discrete derivatives and field strength


def lattice_derivative(q: np.ndarray, mu: int, epsilon: float, batch: int = 0) -> np.ndarray:
    """Discrete derivative d_mu of a spacetime-sampled scalar.

    q has shape (steps, sites) in 1D or (steps, n1, n2) in 2D, with `batch`
    batch axes after axis 0, which is time. The time derivative averages
    the forward neighbours over every spatial axis and loses the last time
    slice:
      1D: d0 q = (q[j+1, p] - (q[j, p+1] + q[j, p-1])/2) / eps
      2D: d0 q = (q[j+1] - avg_1 avg_2 q[j]) / eps
    Spatial derivatives are centered; in 2D the second axis carries the
    extra avg over axis 1 that makes the gauge-transform closure exact:
      d1 q = cdiff_1 q / eps,  d2 q = cdiff_2 avg_1 q / eps.
    """
    q = np.asarray(q, dtype=float)
    sdims = q.ndim - 1 - batch
    if sdims not in (1, 2):
        raise ValueError("expected shape (steps, sites) or (steps, n1, n2) after the batch axes")
    if mu == 0:  # the lattice axes are counted from the end, past any batch axes
        avg = _avg(q[:-1], axis=-sdims)
        if sdims == 2:
            avg = _avg(avg, axis=-1)
        return (q[1:] - avg) / epsilon
    if mu == 1:
        return _cdiff(q, axis=-sdims) / epsilon
    if mu == 2 and sdims == 2:
        return _cdiff(_avg(q, axis=-2), axis=-1) / epsilon
    raise ValueError(f"no axis mu={mu} for a {sdims}D lattice")


def lattice_field_strength(gauge):
    """Antisymmetric F_mu_nu = d_mu A_nu - d_nu A_mu.

    Returns {'f01': ...} in 1D, {'f01', 'f02', 'f12'} in 2D. Time-mixed
    components have steps-1 time slices; f12 keeps all steps.
    """
    d = lambda q, mu: lattice_derivative(q, mu, gauge.epsilon, gauge.batch)
    out = {"f01": d(gauge.a1, 0) - d(gauge.a0, 1)[:-1]}
    if not isinstance(gauge, GaugeField1D):
        out["f02"] = d(gauge.a2, 0) - d(gauge.a0, 2)[:-1]
        out["f12"] = d(gauge.a2, 1) - d(gauge.a1, 2)
    return out


def _gauge_transform(field: SpinorField, gauge, phi: np.ndarray):
    """Shared body of the 1D and 2D transforms: e^{-i phi[0]} field and A'_mu = A_mu - d_mu phi; phi has the batch
    axes of the gauge."""
    _check_fit(field, "gauge", gauge.extents, 2, gauge.batch_shape)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (gauge.steps + 1,) + gauge.batch_shape + gauge.extents:
        raise ValueError(f"phi must have shape (steps+1, {', '.join(('batch',) * gauge.batch + gauge._axes[1:])})")
    eps, batch = gauge.epsilon, gauge.batch
    # spatial derivatives use the time slices A_mu occupies
    primed = [getattr(gauge, a) - lattice_derivative(phi if mu == 0 else phi[:-1], mu, eps, batch)
              for mu, a in enumerate(gauge._arrays)]
    out = SpinorField(field.amplitudes * np.exp(-1j * phi[0])[..., None], field.batch)
    return out, type(gauge)(*primed, eps, batch=batch)


# ---------------------------------------------------------------------------
# 1D electric walk


def _electric_phases(gauge: GaugeField1D, j) -> tuple:
    """e^{i(dalpha + dxi)}, e^{i(dalpha - dxi)} of time sample j or a slice of samples, dalpha = eps A0 never -0.0."""
    dalpha, dxi = np.multiply(gauge.epsilon, gauge.a0[j]), np.multiply(-gauge.epsilon, gauge.a1[j])
    dalpha += 0.0  # so no phase argument is (see _expi)
    return _expi(dalpha + dxi), _expi(np.subtract(dalpha, dxi, out=dxi))


def electric_step_1d(field: SpinorField, gauge: GaugeField1D, mass: float, j: int, *, _prepared=None) -> SpinorField:
    """One electrically coupled step: shift, spin phases, mass coin, scalar phase. evolve_electric passes the phase
    tables of step j as _prepared, the field's fit checked before its first step; a direct call makes both."""
    if _prepared is None:
        _check_fit(field, "gauge", gauge.extents, 2, gauge.batch_shape)
        _prepared = _electric_phases(gauge, _sample("gauge", gauge.steps, j))
    return _run_layers(field, [("shift", 0), ("phase", *_prepared),
                               ("coin", None if (theta := -gauge.epsilon * mass) == 0.0 else _fixed_coin(theta))])


def evolve_electric(field: SpinorField, gauge: GaugeField1D, mass: float, steps: int, start: int = 0, *,
                    probe=None) -> SpinorField:
    """Steps start, ..., start + steps - 1, each through electric_step_1d and followed by probe(j, field) if given; a
    probe must not edit the gauge. The phase tables are filled about _PHASE_BLOCK site-steps at a time, by the step's
    own expressions, and each step is passed its own. The field's fit is checked once, before the first step."""
    if steps > 0:
        _check_fit(field, "gauge", gauge.extents, 2, gauge.batch_shape)
    rows = max(1, _PHASE_BLOCK // max(1, math.prod(gauge.a0.shape[1:])))
    block = functools.lru_cache(1)(lambda b: list(zip(*_electric_phases(gauge, slice(b * rows, (b + 1) * rows)))))
    phases = lambda j: block((i := _sample("gauge", gauge.steps, j)) // rows)[i % rows]
    return _evolve(lambda f, j: electric_step_1d(f, gauge, mass, j, _prepared=phases(j)), field, steps, start, probe)


def gauge_transform_1d(field: SpinorField, gauge: GaugeField1D, phi: np.ndarray):
    """Lattice gauge transform by phi with shape (steps+1, sites).

    Returns (field', gauge') with field' = e^{-i phi[0]} field (the state
    is assumed to sit at time index 0) and A'_mu = A_mu - d_mu phi.
    """
    return _gauge_transform(field, gauge, phi)


# ---------------------------------------------------------------------------
# lattice current


@dataclass
class LatticeCurrent:
    """Conserved current of one step; residual is max |d0 J0 + d1 J1 (+ d2 J2)|; `stepped` is the stepped field."""

    j0: np.ndarray
    j0_next: np.ndarray
    j1: np.ndarray
    residual: float
    j2: np.ndarray | None = None
    stepped: SpinorField | None = None


def lattice_current(field_j: SpinorField, field_j1: SpinorField, epsilon: float) -> LatticeCurrent:
    """Current of a 1D step: J0 = |up|^2 + |down|^2, J1 = |down|^2 - |up|^2."""
    up = np.abs(field_j.amplitudes[..., 0]) ** 2
    dn = np.abs(field_j.amplitudes[..., 1]) ** 2
    j0 = up + dn
    j1 = dn - up
    j0_next = field_j1.probability()
    residual = float(np.max(np.abs(j0_next - _avg(j0, axis=-1) + _cdiff(j1, axis=-1)))) / epsilon
    return LatticeCurrent(j0=j0, j0_next=j0_next, j1=j1, residual=residual)


def lattice_current_2d(field: SpinorField, gauge: GaugeField2D, delta_theta: float, j: int) -> LatticeCurrent:
    """Currents of one 2D step, built so the continuity residual is exactly zero.

    J1 comes from the step-input field smeared along the second axis,
    J2 from the mid-step field (after the X substep); the residual uses
    d0 = (shift - avg_1 avg_2)/eps, d1 = cdiff_1 avg_2 / eps, d2 = cdiff_2 / eps.
    """
    _check_fit(field, "gauge", gauge.extents, 2, gauge.batch_shape)
    eps = gauge.epsilon
    layers = _em_gauge_layers(gauge, _sample("gauge", gauge.steps, j), delta_theta)
    j0 = field.probability()
    split = [layer[0] for layer in layers].index("shift", 1)  # the Y substep starts at the second shift
    mid = _run_layers(field, layers[:split])
    up_in = np.abs(field.amplitudes[..., 0]) ** 2
    dn_in = np.abs(field.amplitudes[..., 1]) ** 2
    j1 = _avg(dn_in - up_in, axis=-1)
    up_mid = np.abs(mid.amplitudes[..., 0]) ** 2
    dn_mid = np.abs(mid.amplitudes[..., 1]) ** 2
    j2 = dn_mid - up_mid
    nxt = _run_layers(mid, layers[split:])
    j0_next = nxt.probability()
    div = j0_next - _avg(_avg(j0, axis=-2), axis=-1) + _cdiff(j1, axis=-2) + _cdiff(j2, axis=-1)
    return LatticeCurrent(j0=j0, j0_next=j0_next, j1=j1, j2=j2, residual=float(np.max(np.abs(div))) / eps, stepped=nxt)


# ---------------------------------------------------------------------------
# 2D electromagnetic walk


def _em_layers(delta_theta: float, x_phase=(), y_phase=()) -> list:
    """Layers S_X, *x_phase, C(pi/4 + dtheta/2), S_Y, *y_phase, C(-pi/4 + dtheta/2); a coin of angle 0 is None."""
    x_coin, y_coin = (None if t == 0.0 else _fixed_coin(t)
                      for t in (math.pi / 4 + delta_theta / 2.0, -math.pi / 4 + delta_theta / 2.0))
    return [("shift", 0), *x_phase, ("coin", x_coin), ("shift", 1), *y_phase, ("coin", y_coin)]


def _em_gauge_layers(gauge: GaugeField2D, j: int, delta_theta: float) -> list:
    """The layers of em_step_2d on slice j, cached on the gauge.

    X phases: e^{-i eps A1} and its conjugate. Y phases: e^{i eps (A0 -+ A2)};
    the scalar phase e^{i eps A0} commutes with the coin, so it rides on the Y
    phases. A phase layer whose tables would be exactly 1 (no non-zero A1, or
    no non-zero A0 and A2, as in every Landau-type gauge) is left out. A
    slice constant along the last axis enters as its first column, so the
    tables of a Landau-type gauge are (..., n1, 1) columns. The
    layers are reused only while slice j still holds the values they came
    from, so in-place edits are always seen: a non-zero slice is kept as a
    copy and compared, an all-zero one is noted as zero and read once.
    """
    slices, eps, cached = (gauge.a0[j], gauge.a1[j], gauge.a2[j]), gauge.epsilon, gauge._phases
    if (cached is not None and cached[:3] == (j, eps, delta_theta)
            and all(not a.any() if c is None else np.array_equal(c, a) for c, a in zip(cached[3], slices))):
        return cached[4]
    nonzero = [a.any() for a in slices]  # a column needs == rows only: + 0.0 below evens signed zeros
    a0, a1, a2 = (a[..., :1] if not n or (a == a[..., :1]).all() else a for a, n in zip(slices, nonzero))
    x_phase = [("phase", (x_up := _expi(-eps * a1 + 0.0)), x_up.conj())] if nonzero[1] else []
    y_phase = ([("phase", _expi(eps * (a0 - a2) + 0.0), _expi(eps * (a0 + a2) + 0.0))]
               if nonzero[0] or nonzero[2] else [])
    layers = _em_layers(delta_theta, x_phase, y_phase)
    gauge._phases = (j, eps, delta_theta, [a.copy() if n else None for a, n in zip(slices, nonzero)], layers)
    return layers


def em_step_2d(field: SpinorField, gauge: GaugeField2D, delta_theta: float, j: int, *, _prepared=None) -> SpinorField:
    """One 2D EM step: X substep, then Y substep carrying the scalar phase e^{i eps A0}. evolve_em passes the layers
    of step j as _prepared; a direct call takes them from _em_gauge_layers."""
    _check_fit(field, "gauge", gauge.extents, 2, gauge.batch_shape)
    return _run_layers(field, _prepared or _em_gauge_layers(gauge, _sample("gauge", gauge.steps, j), delta_theta))


def evolve_em(field: SpinorField, gauge: GaugeField2D, delta_theta: float, steps: int, start: int = 0, *,
              probe=None) -> SpinorField:
    """Steps start, ..., start + steps - 1, each through em_step_2d and followed by probe(j, field) if given; a probe
    must not edit the gauge. Each time sample's layers are checked against the gauge (see _em_gauge_layers) once per
    call, not once per step, so an edit between calls is seen."""
    layers = functools.lru_cache(1)(lambda i: _em_gauge_layers(gauge, i, delta_theta))
    step = lambda f, j: em_step_2d(f, gauge, delta_theta, j, _prepared=layers(_sample("gauge", gauge.steps, j)))
    return _evolve(step, field, steps, start, probe)


def gauge_transform_2d(field: SpinorField, gauge: GaugeField2D, phi: np.ndarray):
    """2D lattice gauge transform by phi with shape (steps+1, n1, n2).

    A0' = A0 - (phi[j+1] - avg_1 avg_2 phi[j])/eps, A1' = A1 - cdiff_1 phi[j]/eps,
    A2' = A2 - cdiff_2 avg_1 phi[j]/eps; these close exactly against em_step_2d.
    """
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


def _landau_half_fiber(b: float, epsilon: float, sites: int, k2: float = 0.0):
    """B in (W + W^T)/2 = [[0, B], [B^T, 0]], the k2 Landau fiber in (even site, odd site) order, real sparse.

    W, the fiber step, is the spin shift, then the rotation C(-pi/4) F(phi_p) C(pi/4) by phi_p = dxi2_p + k2,
    so it maps even sites to odd ones and back. Row 2q + s is site 2q, spin s; column 2q + t is 2q + 1, spin t.
    """
    from scipy import sparse

    phi = b * (np.arange(sites) - sites // 2) * epsilon**2 + k2
    c, s = np.cos(phi), np.sin(phi)
    c_back, s_back = np.roll(c, 1)[0::2], np.roll(s, 1)[0::2]  # at the odd site 2q - 1 before each even site 2q
    up = 2 * np.arange(sites // 2)
    up_back = np.roll(up, 1)
    rows = np.concatenate([up, up, up, up + 1, up + 1, up + 1])
    cols = np.concatenate([up, up_back + 1, up_back, up, up_back + 1, up + 1])
    vals = np.concatenate([c[0::2], s_back - s[0::2], c_back, s[0::2] - s[1::2], c[0::2], c[1::2]]) * 0.5
    return sparse.csr_matrix((vals, (rows, cols)), shape=(sites, sites))


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

    The k2 fiber's (W + W^T)/2 = [[0, B], [B^T, 0]] (see _landau_half_fiber) has its cosine eigenvalues
    c = cos(E eps) in +-c pairs, whose c^2 are the eigenvalues of B B^T. A shift-invert of B B^T at t^2
    (t = 1 + 2^-13, so t^2 is exact) gives c^2 - t^2 to full precision, and c = t + (c^2 - t^2)/(t + sqrt(c^2))
    is not rounded twice as sqrt(c^2) would be. The +-E partners share one cluster of c, to which the cluster
    and zero tolerances apply; one ulp of c moves E by about 1e-16/(E eps)^2 relative. Eigenvectors (u, B^T u / c)
    only keep bulk states (>= 45% weight in the central half, off the gauge seam). An odd box raises ValueError.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    if sites is None:
        sites = landau_box_size(b, epsilon, n_levels)
    if sites % 2:
        raise ValueError(f"the Landau fiber needs an even number of sites, got {sites}")
    half = _landau_half_fiber(b, epsilon, sites, k2)

    k = min(2 * n_levels + 10, sites - 1)
    t = 1.0 + 2.0**-13
    inverse = splu((half @ half.T - t * t * sparse.identity(sites)).tocsc())
    v0 = np.cos(0.7548776662466927 * np.arange(sites) + 0.3)  # fixed: ARPACK's own start depends on earlier calls
    theta, vecs = eigsh(LinearOperator((sites, sites), inverse.solve, dtype=float), k=k, which="LM", v0=v0)
    order = np.argsort(theta)  # theta = 1/(c^2 - t^2) < 0: the largest c first
    gap, vecs = 1.0 / theta[order], vecs[:, order]
    vals = t + gap / (t + np.sqrt(t * t + gap))
    # the eigenvectors (u, B^T u / c) of (W + W^T)/2, their even and odd halves interleaved back into site order
    vecs = np.stack((vecs.reshape(-1, 2, k), (half.T @ vecs / vals).reshape(-1, 2, k)), axis=1).reshape(-1, k)

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
    oscillates with period 2*pi/eta steps; evolve_electric's probe reads it.
    """
    # positive-band spinor at k = 0 for coin C(theta_bar): stationary packet start
    field = SpinorField.gaussian(sites, k0=0.0, spin=(1.0, -1.0), width=width)
    gauge = GaugeField1D.zero(steps, sites)
    gauge.a1[:] = -(eta * np.arange(steps))[:, None]  # A1 = -E t, so dxi_j = +eta j
    positions, p = [], np.arange(sites)
    probe = lambda j, field: positions.append(float(np.sum(p * field.probability())))
    evolve_electric(field, gauge, -theta_bar, steps, probe=probe)  # dtheta = +theta_bar
    return np.array(positions, dtype=float)


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


def _positive_band(symbol) -> tuple:
    """Unit eigenvector planes (v0, v1) of the largest quasi-energy -arg(lambda) of each 2x2 unitary symbol.

    lambda = tr/2 +- sqrt((tr/2)^2 - det), the root written ((a - d)/2)^2 + bc; the vector is the longer of
    (b, lambda - a) and (lambda - d, c). Tie rule: where both vanish (norm <= 1e-14: the symbol is +-1, as the
    free one is at the band-touching modes k in {0, pi}^2) it is (0, 1) at +1 and (1, 0) at -1, eig's choice at
    k = 0, (0, pi) and (pi, 0); at (pi, pi) eig resolves a 1e-17 rounding residue instead.
    """
    a, b, c, d = symbol[..., 0, 0], symbol[..., 0, 1], symbol[..., 1, 0], symbol[..., 1, 1]
    mean, half = 0.5 * (a + d), 0.5 * (a - d)
    root = np.sqrt(half * half + b * c)
    root = np.where(np.angle(mean + root) <= np.angle(mean - root), root, -root)  # lambda = mean + root
    na, nb = np.abs(b) ** 2 + np.abs(root - half) ** 2, np.abs(root + half) ** 2 + np.abs(c) ** 2
    v0, v1 = np.where(na >= nb, b, root + half), np.where(na >= nb, root - half, c)
    tie = np.maximum(na, nb) <= 1e-28  # norm <= 1e-14
    norm = np.where(tie, np.inf, np.sqrt(np.maximum(na, nb)))
    return v0 / norm + (tie & (mean.real < 0)), v1 / norm + (tie & (mean.real >= 0))


def positive_band_packet_2d(extents, k0, width: float = 8.0,
                            delta_theta: float = 0.0) -> SpinorField:
    """Gaussian packet projected onto the positive quasi-energy band.

    Projection happens in Fourier space with the eigenvectors of the free
    symbol (see _positive_band for the modes where the band touches the
    other), so the packet carries a single cyclotron frequency when a
    weak magnetic field is switched on.
    """
    n1, n2 = extents
    seed = SpinorField.gaussian(extents, k0=k0, spin=(1.0, 0.0), width=width)
    amps = np.fft.fft2(seed.amplitudes, axes=(0, 1))
    v0, v1 = _positive_band(em_symbol_2d(*np.ix_(TAU * np.fft.fftfreq(n1), TAU * np.fft.fftfreq(n2)), delta_theta))
    proj = v0.conj() * amps[..., 0] + v1.conj() * amps[..., 1]
    return SpinorField(np.fft.ifft2(np.stack((proj * v0, proj * v1), axis=-1), axes=(0, 1))).normalized()


def circular_mean_positions(prob: np.ndarray) -> tuple:
    """Wrap-safe center of a 2D density via the phase of its first Fourier mode, taken on each marginal."""
    marginals = (prob.sum(axis=1), prob.sum(axis=0))
    return tuple(float(np.angle(np.dot(m, np.exp(1j * TAU * np.arange(n) / n)))) * n / TAU
                 for m, n in zip(marginals, prob.shape))


def _circular_means(extents):
    """circular_mean_positions of a 2D field's density, up to rounding, from the marginals of its planes' float
    view (|psi|^2 over each row, or each column's re and im entries); the exp(2 pi i x / n) tables are built once."""
    waves = [np.exp(1j * TAU * np.arange(n) / n) for n in extents]

    def means(field: SpinorField) -> tuple:
        f = np.ascontiguousarray(np.moveaxis(field.amplitudes, -1, 0)).view(np.float64)
        marginals = np.einsum("sij,sij->i", f, f), np.einsum("sij,sij->j", f, f).reshape(-1, 2).sum(axis=1)
        return tuple(float(np.angle(np.dot(m, w))) * len(w) / TAU for m, w in zip(marginals, waves))
    return means


def exb_positions(e_ratio: float, b_flux: float, extents: tuple, steps: int,
                  k0: float = 0.25, width: float = 8.0) -> np.ndarray:
    """Packet center trace (steps, 2) in crossed E and B fields, unwrapped.

    b_flux is the magnetic phase per plaquette (eps^2 * B); the electric
    phase gradient is e_ratio * b_flux, so the continuum drift speed
    prediction is E/B = e_ratio sites/step along the second axis. The
    packet starts in the positive band with carrier (0, k0) and the trace
    holds wrap-safe circular-mean centers, unwrapped along time, that
    evolve_em's probe reads; the static gauge is checked once.
    """
    n1, n2 = extents
    field = positive_band_packet_2d(extents, (0.0, k0), width)
    gauge = landau_gauge(b_flux, 1, n1, n2, 1.0)
    gauge.a0[...] = (-(e_ratio * b_flux) * (np.arange(n1) - n1 // 2))[:, None]
    means, ph = _circular_means(extents), []
    evolve_em(field, gauge, 0.0, steps, probe=lambda j, field: ph.append(means(field)))
    return np.unwrap(np.reshape(ph, (steps, 2)) * (TAU / np.array([n1, n2])), axis=0) * np.array([n1, n2]) / TAU


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
    return participation_ratio(evolve_em(field, GaugeField2D(z, z.copy(), a2, 1.0), 0.0, steps))

"""Frozen reference copies of walk kernels, for differential tests.

These are the straightforward forms of `abelian.em_step_2d` and
`curved.curved_step_1p2`: every phase exponential is recomputed on each
call, the scalar phase e^{i eps A0} is a separate final pass, every coin
goes through einsum, and the (1+2)D step applies four coins,
C(-v) C(qb) S_Y C(qa) S_X C(v). The colour walk `nonabelian_step` rolls
its two spin blocks and applies the links by einsum on the interleaved
layout, and `sample_averaged_distribution` walks one sample and one
outcome draw at a time. `nonabelian_step_planar` is the colour step's
earlier spin-planar form through the public `shift`, whose coin built its
result from temporaries; `nonabelian_step_inline` is the form that followed,
which wrote its coin into the shifted planes with `out=` and stepped one
field at a time, before the step ran as `lattice._run_layers` layers.
`gauge_transform_links_einsum` forms each transformed link as one
3-operand einsum. `expi_hermitian_eigh` is the
link exponential through `np.linalg.eigh` and one einsum for every N,
which `nonabelian.expi_hermitian` keeps only for N = 1 and N >= 4, and
`links_one_temporary` is `NonAbelianGaugeField.links()` before it worked in
blocks of steps: one full-size temporary through `expi_hermitian`.
`landau_fiber_operator_kron` builds the Landau fiber step as the complex
sparse product C(-pi/4) F C(pi/4) S from `kron` and `diags`, and
`landau_quasienergies_kron` diagonalizes its Hermitian (W + W^dag)/2 as
`abelian.landau_quasienergies` did before it used the real rotation form;
`landau_fiber_operator` and `landau_quasienergies_real` are that real form,
the full fiber's (W + W^T)/2 solved before the solve moved to half the fiber.
`positive_band_packet_2d` projects onto the positive band with the
eigenvectors of a batched `np.linalg.eig` (`positive_band_eig`), and `exb_positions` traces the
drift from the full density `probability()` of every step, as the package
did before it took the band in closed form and the trace from marginals.
They share no code with the package steppers beyond the spinor container, the
triad angle solver, the steppers' time-sample rule `lattice._sample`, the
coin matrix builder, the link exponential (in `links_one_temporary`), the
input checks `lattice._check_fit` and `nonabelian._unbatched` (in
`nonabelian_step_inline`) and the measured walk's one-step branch kernel (and,
in `exb_positions`, the em stepper, Landau gauge and circular mean it
traced with) and, in the two fills, `lattice._expi` and `lattice._planar_empty`,
so a fast path can be checked against them.

The layer chains at the end (`*_layers`) are another kind of reference:
they do the steppers' arithmetic in the steppers' order, but through the
public allocating `shift` and `apply_coin`, one fresh array per layer and
nothing cached. The steppers must equal them bit for bit, which checks
their caches and reused buffers.

The Fourier symbols near the end are the written-out matrix products
the package used before it derived its symbols from the steppers' layer
lists; the derived symbols must equal them bit for bit. The (1+1)D one
builds its coin with `reflection_coin_temporaries`, so it shares no code
with `curved.reflection_coin`. `spectral_evolve` is the long-time oracle
for a translation-invariant walk: the power of its symbol on each Fourier
mode of a field.

`electric_phases_temporaries` and `reflection_coin_temporaries` are the
electric walk's phase tables and the reflection coin as they were filled
before they wrote their results with `out=`: one fresh array for every
operation. The new fills must have their bits, signed zeros included.

`branches_roll` is `measured._branches` as it built the neighbour kets
with `np.roll`.

`dirac_evolve_einsum` is the continuum reference as it was before its
substeps wrote two alternating buffers through numpy's private einsum
kernel: one `np.einsum` call, and one fresh array, per substep. It shares
the propagator `dirac.mode_propagator` with the package.
"""

import math

import numpy as np

from qwalk import abelian, dirac
from qwalk.abelian import circular_mean_positions, landau_box_size, landau_gauge
from qwalk.curved import Triad, coin_angles_from_triad
from qwalk.lattice import (TAU, SpinorField, _check_fit, _expi, _planar_empty, _sample, apply_coin, build_coin_euler,
                           shift, spin_phase, standard_coin)
from qwalk.measured import _branches
from qwalk.nonabelian import LinkField, _unbatched, expi_hermitian


def _shift(amps, axis):
    out = np.empty_like(amps)
    out[..., 0] = np.roll(amps[..., 0], -1, axis=axis)
    out[..., 1] = np.roll(amps[..., 1], +1, axis=axis)
    return out


def _coin(amps, coin):
    return np.einsum("...ab,...b->...a", coin, amps)


def _shift_phase_coin(amps, axis, phase_up, phase_dn, theta):
    out = _shift(amps, axis)
    out[..., 0] *= np.exp(1j * phase_up)
    out[..., 1] *= np.exp(1j * phase_dn)
    if theta != 0.0:
        out = _coin(out, standard_coin(theta))
    return out


def _em_substep(amps, gauge, delta_theta, j, axis):
    eps = gauge.epsilon
    if axis == 0:
        dxi = -eps * gauge.a1[j]
        f_angle = math.pi / 4 + delta_theta / 2.0
    else:
        dxi = -eps * gauge.a2[j]
        f_angle = -math.pi / 4 + delta_theta / 2.0
    return _shift_phase_coin(amps, axis, dxi, -dxi, f_angle)


def em_step_2d(field, gauge, delta_theta, j):
    """X substep, Y substep, then the scalar phase e^{i eps A0} as its own pass."""
    out = _em_substep(field.amplitudes, gauge, delta_theta, j, axis=0)
    out = _em_substep(out, gauge, delta_theta, j, axis=1)
    dalpha = gauge.epsilon * gauge.a0[j]
    return SpinorField(out * np.exp(1j * dalpha)[..., None])


def _coins_1p2(angles, it, parity, dm):
    qa, qb = (angles.q1[it], angles.q2[it]) if parity == 0 else (angles.q3[it], angles.q4[it])
    v = angles.v[it]
    return standard_coin(v), standard_coin(qa - dm), standard_coin(qb - dm), standard_coin(-v)


def _apply_1p2(amps, coins):
    cv, ca, cb, cvi = coins
    out = _coin(amps, cv)
    out = _shift(out, 0)
    out = _coin(out, ca)
    out = _shift(out, 1)
    out = _coin(out, cb)
    return _coin(out, cvi)


def curved_step_1p2(field, triad, mass=0.0, j=0, epsilon=1.0):
    """W_j = C(-v) C(qb) S_Y C(qa) S_X C(v), four coin layers."""
    angles = coin_angles_from_triad(triad)
    coins = _coins_1p2(angles, _sample("triad", triad.times, j), j % 2, 0.5 * epsilon * mass)
    return SpinorField(_apply_1p2(field.amplitudes, coins))


def nonabelian_step(field, links, mass, j):
    """Roll the spin blocks, einsum the links on each block, then the mass coin."""
    n = links.ncolors
    amps = field.amplitudes
    up = np.roll(amps[..., :n], -1, axis=0)
    dn = np.roll(amps[..., n:], +1, axis=0)
    up = np.einsum("pab,pb->pa", links.u_plus[j], up)
    dn = np.einsum("pab,pb->pa", links.u_minus[j], dn)
    dtheta = -links.epsilon * mass
    c, s = math.cos(dtheta), math.sin(dtheta)
    out = np.empty_like(amps)
    out[..., :n] = c * up + 1j * s * dn
    out[..., n:] = 1j * s * up + c * dn
    return SpinorField(out)


def nonabelian_step_planar(field, links, mass, j):
    """Shift, einsum the links on each block's colour planes, then c * blocks + 1j * s * blocks[::-1]."""
    n, sites = links.ncolors, links.sites
    planes = shift(field).amplitudes.T
    blocks = np.empty((2, n, sites), dtype=np.complex128)
    np.einsum("pab,bp->ap", links.u_plus[j], planes[:n], out=blocks[0])
    np.einsum("pab,bp->ap", links.u_minus[j], planes[n:], out=blocks[1])
    dtheta = -links.epsilon * mass
    c, s = math.cos(dtheta), math.sin(dtheta)
    out = c * blocks + 1j * s * blocks[::-1]
    return SpinorField(out.reshape(2 * n, sites).T)


def nonabelian_step_inline(field, links, mass, j):
    """The colour step before it ran as `_run_layers` layers: its own shift, two einsums and the coin written out."""
    n = links.ncolors
    _unbatched(field, links)
    _check_fit(field, "link", links.extents, 2 * n)
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


def gauge_transform_links_einsum(links, g):
    """The transformed links (u+', u-') = (g u+ g^dag, g u- g^dag), each one 3-operand einsum."""
    gd = np.swapaxes(g, -1, -2).conj()
    up = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_plus, np.roll(gd[:-1], -1, axis=1))
    um = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_minus, np.roll(gd[:-1], +1, axis=1))
    return up, um


def expi_hermitian_eigh(h):
    """exp(iH) = V e^{iW} V^dag from eigh, which reads the real diagonal and the lower triangle of H."""
    w, v = np.linalg.eigh(h)
    return np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj())


def links_one_temporary(gauge):
    """exp(i eps (B0 +- B1)) for every step and site; both exponents are formed in one temporary h."""
    h = np.empty_like(gauge.b0)
    return LinkField(*(expi_hermitian(np.multiply(op(gauge.b0, gauge.b1, out=h), gauge.epsilon, out=h))
                       for op in (np.add, np.subtract)), gauge.epsilon, batch=gauge.batch)


def landau_fiber_operator_kron(b, epsilon, sites, k2=0.0):
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


def landau_quasienergies_kron(b, epsilon, n_levels, sites, k2=0.0):
    """Lowest positive bulk quasi-energies (E/eps) from complex shift-invert on the Hermitian (W + W^dag)/2."""
    from scipy.sparse.linalg import eigsh

    w = landau_fiber_operator_kron(b, epsilon, sites, k2)
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
        raise ValueError(f"only {len(out)} positive bulk levels resolvable; requested {n_levels}")
    return out[:n_levels]


def landau_fiber_operator(b: float, epsilon: float, sites: int, k2: float = 0.0):
    """Sparse one-step operator of the k2 Fourier fiber of the Landau-gauge walk, as a real orthogonal matrix.

    After the spin shift, C(-pi/4) F(phi_p) C(pi/4) at site p is the rotation by phi_p = dxi2_p + k2.
    """
    from scipy import sparse

    n = sites
    phi = b * (np.arange(n) - n // 2) * epsilon**2 + k2
    c, s = np.cos(phi), np.sin(phi)
    # basis index = 2*p + s, s in {0 (up), 1 (down)}
    p = np.arange(n)
    up, down = 2 * ((p + 1) % n), 2 * ((p - 1) % n) + 1
    rows = np.concatenate([2 * p, 2 * p, 2 * p + 1, 2 * p + 1])
    cols = np.concatenate([up, down, up, down])
    vals = np.concatenate([c, -s, s, c])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))


def landau_quasienergies_real(b: float, epsilon: float, n_levels: int, sites: int | None = None,
                              k2: float = 0.0) -> np.ndarray:
    """Lowest positive quasi-energies of the magnetic walk, in continuum units (E/eps).

    Diagonalizes the k2 fiber of the Landau-gauge walk near quasi-energy
    zero with a sparse shift-invert on the real symmetric (W + W^T)/2.
    Energies come from the cosine eigenvalues c = cos(E eps) (the +-E
    partners share one cosine cluster), so sign splitting is never needed;
    E is conditioned as 1/(E eps)^2, one ulp of c moving it by about
    1e-16/(E eps)^2 relative. Eigenvectors are only used to keep bulk
    states (>= 45% weight in the central half of the chain, away from the
    gauge seam and any box-confined artifacts).
    """
    from scipy.sparse.linalg import eigsh

    if sites is None:
        sites = landau_box_size(b, epsilon, n_levels)
    w = landau_fiber_operator(b, epsilon, sites, k2)
    cos_op = ((w + w.T) * 0.5).tocsr()

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


def positive_band_eig(symbol):
    """Unit eigenvector (..., 2) of the largest quasi-energy -arg(lambda) of each symbol, as np.linalg.eig gives it."""
    lam, vec = np.linalg.eig(symbol)
    energy = -np.angle(lam)
    pick = np.argmax(energy, axis=-1)
    vsel = np.take_along_axis(vec, pick[..., None, None], axis=-1)[..., 0]
    return vsel / np.linalg.norm(vsel, axis=-1, keepdims=True)


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
    vsel = positive_band_eig(em_symbol_2d(k1, k2, delta_theta))
    proj = np.einsum("...a,...a->...", vsel.conj(), amps)
    return SpinorField(np.fft.ifft2(proj[..., None] * vsel, axes=(0, 1))).normalized()


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
    gauge = landau_gauge(b_flux, 1, n1, n2, 1.0)
    gauge.a0[...] = (-(e_ratio * b_flux) * (np.arange(n1) - n1 // 2))[:, None]
    ph = np.empty((steps, 2))
    for j in range(steps):
        field = abelian.em_step_2d(field, gauge, 0.0, j)  # the package stepper, which serves one slice to every j
        prob = field.probability()
        ph[j] = circular_mean_positions(prob)
    trace = np.unwrap(ph * (TAU / np.array([n1, n2])), axis=0) * np.array([n1, n2]) / TAU
    return trace


def sample_averaged_distribution(ext_ket, config, steps, samples, seed=None):
    """One sample after another, one scalar uniform draw per step."""
    rng = np.random.default_rng(seed)
    psi0 = np.asarray(ext_ket, dtype=np.complex128)
    accumulated = np.zeros(psi0.shape[-1], dtype=np.float64)
    for _ in range(samples):
        psi = psi0
        for _ in range(steps):
            plus, minus = _branches(psi, config)
            p_plus = float(np.vdot(plus, plus).real)
            if rng.random() < p_plus:
                psi = plus / math.sqrt(p_plus)
            else:
                p_minus = float(np.vdot(minus, minus).real)
                psi = minus / math.sqrt(p_minus)
        accumulated += np.abs(psi) ** 2
    return accumulated / samples


def branches_roll(ext_ket, config):
    """Unnormalized (+, -) branch kets after one scheme step."""
    psi = np.asarray(ext_ket, dtype=np.complex128)
    if psi.ndim < 1:
        raise ValueError("external ket must have at least one site axis")
    right = np.roll(psi, 1, axis=-1)   # content moves toward larger index
    left = np.roll(psi, -1, axis=-1)
    phase = np.exp(1j * config.coin_phase)
    up = config.spin_up
    down = config.spin_down
    alpha = config.coin_alpha
    beta = config.coin_beta
    plus = phase * (alpha * up * right + beta * down * left)
    minus = phase * (-np.conj(beta) * up * right + np.conj(alpha) * down * left)
    return plus, minus


# ---------------------------------------------------------------------------
# layer chains


def _substep_layers(field, axis, up, dn, theta):
    """Shift, the two spin phase passes, then the coin C(theta), skipped at theta = 0."""
    field = shift(field, axis)
    field.amplitudes[..., 0] *= up
    field.amplitudes[..., 1] *= dn
    return field if theta == 0.0 else apply_coin(field, standard_coin(theta))


def electric_step_1d_layers(field, gauge, mass, j):
    eps = gauge.epsilon
    dalpha, dxi = eps * gauge.a0[j], -eps * gauge.a1[j]
    return _substep_layers(field, 0, np.exp(1j * (dalpha + dxi)), np.exp(1j * (dalpha - dxi)), -eps * mass)


def em_step_2d_layers(field, gauge, delta_theta, j):
    """X then Y substep; the Y phases carry the scalar phase e^{i eps A0}."""
    eps = gauge.epsilon
    a0, a1, a2 = gauge.a0[j], gauge.a1[j], gauge.a2[j]
    x_up = np.exp(-1j * eps * a1)
    field = _substep_layers(field, 0, x_up, x_up.conj(), math.pi / 4 + delta_theta / 2.0)
    return _substep_layers(field, 1, np.exp(1j * eps * (a0 - a2)), np.exp(1j * eps * (a0 + a2)),
                           -math.pi / 4 + delta_theta / 2.0)


def curved_step_1p2_layers(field, triad, mass=0.0, j=0, epsilon=1.0):
    """C((qb - dm) - v) S_Y C(qa - dm) S_X C(v) with dm = epsilon mass / 2, angles solved afresh."""
    angles = coin_angles_from_triad(triad)
    it, dm = _sample("triad", triad.times, j), 0.5 * epsilon * mass
    qa, qb = (angles.q1[it], angles.q2[it]) if j % 2 == 0 else (angles.q3[it], angles.q4[it])
    v = angles.v[it]
    field = apply_coin(field, standard_coin(v))
    field = apply_coin(shift(field, 0), standard_coin(qa - dm))
    return apply_coin(shift(field, 1), standard_coin((qb - dm) - v))


# ---------------------------------------------------------------------------
# Fourier symbols


def walk_operator_fourier(k, angles):
    coin = build_coin_euler(angles.alpha, angles.theta, angles.xi, angles.zeta)
    return coin @ spin_phase(k)


def em_symbol_2d(k1, k2, delta_theta=0.0):
    """Both coins are applied, also C(0) = 1 where the stepper skips one."""
    c_plus = standard_coin(math.pi / 4 + delta_theta / 2.0)
    c_minus = standard_coin(-math.pi / 4 + delta_theta / 2.0)
    return c_minus @ spin_phase(k2) @ c_plus @ spin_phase(k1)


def walk_symbol_1p1(k, theta):
    return reflection_coin_temporaries(theta) @ spin_phase(k)


def walk_symbol_1p2(k1, k2, e1, e2, b, mass=0.0, parity=0, epsilon=1.0):
    angles = coin_angles_from_triad(Triad(e1, e2, b))
    qa, qb = (angles.q1, angles.q2) if parity % 2 == 0 else (angles.q3, angles.q4)
    v, dm = angles.v, 0.5 * epsilon * mass
    cv, ca, cbv = standard_coin(v), standard_coin(qa - dm), standard_coin((qb - dm) - v)
    return cbv @ spin_phase(k2) @ ca @ spin_phase(k1) @ cv


def spectral_evolve(amplitudes, symbol, steps):
    """`steps` steps of a translation-invariant walk on amplitudes (*extents, d): an FFT over the lattice axes, the
    `steps`-th power of symbol(*k) on each mode, and the inverse FFT. symbol(*k) takes one array of quasimomenta per
    lattice axis, on the FFT grid of the extents, and returns their (*extents, d, d) symbols."""
    axes = tuple(range(amplitudes.ndim - 1))
    k = np.meshgrid(*(TAU * np.fft.fftfreq(n) for n in amplitudes.shape[:-1]), indexing="ij")
    power = np.linalg.matrix_power(symbol(*k), steps)
    return np.fft.ifftn(np.einsum("...ab,...b->...a", power, np.fft.fftn(amplitudes, axes=axes)), axes=axes)


def electric_phases_temporaries(gauge, j) -> tuple:
    """e^{i(dalpha + dxi)}, e^{i(dalpha - dxi)} of time sample j or a slice of samples, dalpha = eps A0 never -0.0."""
    dalpha, dxi = gauge.epsilon * gauge.a0[j] + 0.0, -gauge.epsilon * gauge.a1[j]  # so no phase argument is (see _expi)
    return _expi(dalpha + dxi), _expi(dalpha - dxi)


def reflection_coin_temporaries(theta) -> np.ndarray:
    """B(theta) = [[-cos, i sin], [-i sin, cos]]; B(theta)^2 = 1, det = -1."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    b = _planar_empty(theta.shape, (2, 2))
    b[..., 0, 0] = -c
    b[..., 0, 1] = 1j * s
    b[..., 1, 0] = -1j * s
    b[..., 1, 1] = c
    return b


def dirac_evolve_einsum(field, epsilon, mass, duration, a0=None, a1=None, substep=None):
    amps = np.fft.fft(field.amplitudes, axis=0)
    k = TAU * np.fft.fftfreq(amps.shape[0], d=epsilon)
    f0, f1 = dirac._as_callable(a0), dirac._as_callable(a1)
    nsub = 1
    if callable(a0) or callable(a1):
        if substep is None:
            substep = min(epsilon**2, 1e-3)
        nsub = max(1, int(math.ceil(duration / substep)))
    dt = duration / nsub
    size = min(256, max(1, 65536 // k.size))  # substeps per propagator call: at most 4 MiB of propagators
    for lo in range(0, nsub, size):
        tm = [(i + 0.5) * dt for i in range(lo, min(lo + size, nsub))]
        block = dirac.mode_propagator(k, mass, np.array([[f0(t)] for t in tm]), np.array([[f1(t)] for t in tm]), dt)
        for u in block:
            amps = np.einsum("kab,kb->ka", u, amps)
    return SpinorField(np.fft.ifft(amps, axis=0))

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
result from temporaries, and `gauge_transform_links_einsum` forms each
transformed link as one 3-operand einsum. They share no code with the
package steppers beyond the spinor container, the triad angle solver,
the steppers' time-sample rule `lattice._sample`, the coin matrix builder and the measured
walk's one-step branch kernel, so a fast path can be checked against
them.

The layer chains at the end (`*_layers`) are another kind of reference:
they do the steppers' arithmetic in the steppers' order, but through the
public allocating `shift` and `apply_coin`, one fresh array per layer and
nothing cached. The steppers must equal them bit for bit, which checks
their caches and reused buffers.

The Fourier symbols at the very end are the written-out matrix products
the package used before it derived its symbols from the steppers' layer
lists; the derived symbols must equal them bit for bit.
"""

import math

import numpy as np

from qwalk.curved import Triad, coin_angles_from_triad, reflection_coin
from qwalk.lattice import SpinorField, _sample, apply_coin, build_coin_euler, shift, spin_phase, standard_coin
from qwalk.measured import _branches


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
    coins = _coins_1p2(angles, _sample("triad", triad.times, j, static=True), j % 2, 0.5 * epsilon * mass)
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


def gauge_transform_links_einsum(links, g):
    """The transformed links (u+', u-') = (g u+ g^dag, g u- g^dag), each one 3-operand einsum."""
    gd = np.swapaxes(g, -1, -2).conj()
    up = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_plus, np.roll(gd[:-1], -1, axis=1))
    um = np.einsum("jpab,jpbc,jpcd->jpad", g[1:], links.u_minus, np.roll(gd[:-1], +1, axis=1))
    return up, um


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
    it, dm = _sample("triad", triad.times, j, static=True), 0.5 * epsilon * mass
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
    return reflection_coin(theta) @ spin_phase(k)


def walk_symbol_1p2(k1, k2, e1, e2, b, mass=0.0, parity=0, epsilon=1.0):
    angles = coin_angles_from_triad(Triad(e1, e2, b))
    qa, qb = (angles.q1, angles.q2) if parity % 2 == 0 else (angles.q3, angles.q4)
    v, dm = angles.v, 0.5 * epsilon * mass
    cv, ca, cbv = standard_coin(v), standard_coin(qa - dm), standard_coin((qb - dm) - v)
    return cbv @ spin_phase(k2) @ ca @ spin_phase(k1) @ cv

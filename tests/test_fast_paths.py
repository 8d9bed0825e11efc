"""Differential tests of the fast paths against frozen reference steppers.

`em_step_2d` caches its phase tables on the gauge and folds the scalar
phase into the Y substep; the (1+2)D step merges its last two coins. The
colour walk `nonabelian_step` works on spin-planar colour planes, and
`sample_averaged_distribution` evolves all samples as one batch. Each
must agree with the straightforward forms in `reference_walks` to
rounding, and the phase cache must never serve tables of stale values.

The 2D steppers also run from tables cached on the gauge or built once
per call, on reused buffers, with their layers in the public `shift` and
`apply_coin`; against the layer chains of `reference_walks`, which do the
same arithmetic one fresh array at a time, they must be bit-for-bit
equal, whatever was cached or stepped before. Their phase tables and the
electric walk's come from `lattice._expi`, which must equal
`np.exp(1j * x)` bit for bit, signed zeros included. The colour step
must give the bits of its earlier form on C-contiguous and on
colour-planar links alike.
"""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_walks as ref
from qwalk import lattice
from qwalk import curved
from qwalk.abelian import (GaugeField1D, GaugeField2D, _em_gauge_layers, electric_step_1d, em_step_2d, evolve_em,
                           landau_gauge, lattice_current_2d)
from qwalk.curved import (CurvedCoinProfile, MetricField2D, curved_step_1p1, curved_step_1p2, evolve_1p2,
                          triad_from_metric)
from qwalk.lattice import SpinorField, apply_coin, inverse_shift, shift, standard_coin
from qwalk.measured import AharonovConfig, sample_averaged_distribution
from qwalk.nonabelian import LinkField, NonAbelianGaugeField, evolve_nonabelian, gauge_transform_links, nonabelian_step

TOL = 1e-12


def random_state_2d(rng, n1, n2):
    amps = rng.normal(size=(n1, n2, 2)) + 1j * rng.normal(size=(n1, n2, 2))
    return SpinorField(amps).normalized()


def random_gauge(rng, steps, n1, n2, epsilon):
    return GaugeField2D(*(rng.normal(size=(steps, n1, n2)) for _ in range(3)), epsilon)


def max_diff(a: SpinorField, b: SpinorField) -> float:
    return float(np.max(np.abs(a.amplitudes - b.amplitudes)))


# ---------------------------------------------------------------------------
# em_step_2d


def test_em_step_matches_reference_on_time_dependent_field():
    rng = np.random.default_rng(41)
    steps, n1, n2 = 5, 24, 18
    gauge = random_gauge(rng, steps, n1, n2, 0.5)
    dtheta = 0.37
    fast = slow = random_state_2d(rng, n1, n2)
    for j in range(steps):
        fast = em_step_2d(fast, gauge, dtheta, j)
        slow = ref.em_step_2d(slow, gauge, dtheta, j)
        assert max_diff(fast, slow) < TOL


def test_em_step_matches_reference_in_static_landau_field():
    rng = np.random.default_rng(42)
    n1, n2 = 32, 24
    gauge = landau_gauge(0.05, 1, n1, n2, 0.5)
    gauge.a0[:] = 0.1 * rng.normal(size=(1, n1, n2))
    gauge.a1[:] = 0.1 * rng.normal(size=(1, n1, n2))
    fast = slow = random_state_2d(rng, n1, n2)
    for _ in range(500):
        fast = em_step_2d(fast, gauge, -0.2, 0)
        slow = ref.em_step_2d(slow, gauge, -0.2, 0)
    assert max_diff(fast, slow) < TOL


def test_lattice_current_mid_step_matches_reference_substep():
    rng = np.random.default_rng(43)
    gauge = random_gauge(rng, 3, 24, 18, 0.5)
    field = random_state_2d(rng, 24, 18)
    current = lattice_current_2d(field, gauge, 0.3, 2)
    mid = ref._em_substep(field.amplitudes, gauge, 0.3, 2, axis=0)
    j2 = np.abs(mid[..., 1]) ** 2 - np.abs(mid[..., 0]) ** 2
    assert np.max(np.abs(current.j2 - j2)) < TOL
    assert current.residual < TOL


# ---------------------------------------------------------------------------
# phase cache safety


@pytest.mark.parametrize("component", ["a0", "a1", "a2"])
def test_in_place_edit_of_stepped_slice_is_seen(component):
    rng = np.random.default_rng(44)
    gauge = random_gauge(rng, 2, 12, 10, 0.7)
    field = random_state_2d(rng, 12, 10)
    em_step_2d(field, gauge, 0.1, 1)
    getattr(gauge, component)[1] += rng.normal(size=(12, 10))
    assert max_diff(em_step_2d(field, gauge, 0.1, 1), ref.em_step_2d(field, gauge, 0.1, 1)) < TOL
    getattr(gauge, component)[1, 3, 4] = 2.5  # a single site changes too
    assert max_diff(em_step_2d(field, gauge, 0.1, 1), ref.em_step_2d(field, gauge, 0.1, 1)) < TOL


def test_epsilon_change_is_seen():
    rng = np.random.default_rng(45)
    gauge = random_gauge(rng, 1, 12, 10, 0.7)
    field = random_state_2d(rng, 12, 10)
    em_step_2d(field, gauge, 0.1, 0)
    gauge.epsilon = 0.4
    assert max_diff(em_step_2d(field, gauge, 0.1, 0), ref.em_step_2d(field, gauge, 0.1, 0)) < TOL


def test_alternating_slices_and_gauges_match_reference():
    rng = np.random.default_rng(46)
    first = random_gauge(rng, 2, 12, 10, 0.7)
    second = random_gauge(rng, 2, 12, 10, 0.3)
    field = random_state_2d(rng, 12, 10)
    for gauge, j in [(first, 0), (first, 1), (first, 0), (second, 0), (first, 0),
                     (second, 1), (first, 1), (second, 1), (first, 1)]:
        assert max_diff(em_step_2d(field, gauge, 0.2, j), ref.em_step_2d(field, gauge, 0.2, j)) < TOL


def unit_phase_gauges(rng, steps, n1, n2):
    """(gauge, phase layers per step): a Landau gauge with a scalar potential (no A1, so no X phase),
    a pure Landau gauge (no A0 or A1: A2 alone keeps the Y phase) and the zero gauge (no phase at all)."""
    with_a0 = landau_gauge(0.05, steps, n1, n2, 0.5)
    with_a0.a0[:] = 0.1 * rng.normal(size=(steps, n1, n2))
    return [(with_a0, 1), (landau_gauge(0.05, steps, n1, n2, 0.5), 1), (GaugeField2D.zero(steps, n1, n2, 0.5), 0)]


@pytest.mark.parametrize("delta_theta", [0.37, math.pi / 2, -math.pi / 2])
def test_unit_phase_layers_are_left_out_and_the_results_are_unchanged(delta_theta):
    rng = np.random.default_rng(48)
    for gauge, phases in unit_phase_gauges(rng, 3, 24, 18):
        field = random_state_2d(rng, 24, 18)
        assert [layer[0] for layer in _em_gauge_layers(gauge, 0, delta_theta)].count("phase") == phases
        slow = field
        for j in range(3):
            slow = ref.em_step_2d_layers(slow, gauge, delta_theta, j)
            assert_same_bits(em_step_2d(field, gauge, delta_theta, j),
                             ref.em_step_2d_layers(field, gauge, delta_theta, j))
        assert_same_bits(evolve_em(field, gauge, delta_theta, 3), slow)
        current = lattice_current_2d(field, gauge, delta_theta, 1)
        mid = ref._em_substep(field.amplitudes, gauge, delta_theta, 1, axis=0)
        assert np.max(np.abs(current.j2 - (np.abs(mid[..., 1]) ** 2 - np.abs(mid[..., 0]) ** 2))) < TOL
        assert np.array_equal(current.j0_next, ref.em_step_2d_layers(field, gauge, delta_theta, 1).probability())
        assert current.residual < TOL


def test_phase_cache_is_hidden_from_repr():
    gauge = GaugeField2D.zero(1, 4, 4)
    text = repr(gauge)
    em_step_2d(SpinorField.delta((4, 4)), gauge, 0.0, 0)
    assert gauge._phases is not None
    assert repr(gauge) == text
    assert "_phases" not in text


# ---------------------------------------------------------------------------
# (1+2)D curved walk


def varying_triad(rng, times, n1, n2):
    gxx = -(1.4 + 0.3 * rng.random((times, n1, n2)))
    gyy = -(1.5 + 0.3 * rng.random((times, n1, n2)))
    gxy = 0.2 * (2.0 * rng.random((times, n1, n2)) - 1.0)
    return triad_from_metric(MetricField2D(gxx, gyy, gxy))


# a time-dependent triad covers only its stored samples: from start 1, three samples allow two steps
@pytest.mark.parametrize("times, steps", [(1, 0), (1, 1), (1, 200), (3, 0), (3, 1), (3, 2)])
def test_evolve_1p2_matches_reference(times, steps):
    rng = np.random.default_rng(47 + times)
    n1, n2, mass, eps, start = 24, 18, 0.3, 0.5, 1
    triad = varying_triad(rng, times, n1, n2)
    field = random_state_2d(rng, n1, n2)
    fast = evolve_1p2(field, triad, mass=mass, steps=steps, start=start, epsilon=eps)
    slow = field
    for j in range(start, start + steps):
        slow = ref.curved_step_1p2(slow, triad, mass, j, eps)
    assert max_diff(fast, slow) < TOL


@pytest.mark.parametrize("j", [0, 1, 2])
def test_curved_step_1p2_matches_reference(j):
    rng = np.random.default_rng(50)
    triad = varying_triad(rng, 3, 24, 18)
    field = random_state_2d(rng, 24, 18)
    fast = curved_step_1p2(field, triad, mass=0.3, j=j, epsilon=0.5)
    assert max_diff(fast, ref.curved_step_1p2(field, triad, 0.3, j, 0.5)) < TOL


# ---------------------------------------------------------------------------
# cached tables and reused buffers: bit-for-bit against the layer chains


def assert_same_bits(a: SpinorField, b: SpinorField):
    assert np.array_equal(a.amplitudes, b.amplitudes)


# at delta_theta = pi/2 the Y coin is skipped (in place), at -pi/2 the X coin (into a new field)
@pytest.mark.parametrize("delta_theta", [0.37, math.pi / 2, -math.pi / 2])
@pytest.mark.parametrize("steps", [1, 4])
def test_em_step_equals_layer_chain(steps, delta_theta):
    rng = np.random.default_rng(70 + steps)
    gauge = random_gauge(rng, steps, 24, 18, 0.5)  # one step is a static field
    fast = slow = random_state_2d(rng, 24, 18)
    for j in range(3 * steps):
        fast = em_step_2d(fast, gauge, delta_theta, j % steps)
        slow = ref.em_step_2d_layers(slow, gauge, delta_theta, j % steps)
        assert_same_bits(fast, slow)


@pytest.mark.parametrize("times, steps", [(1, 0), (1, 1), (1, 200), (3, 0), (3, 1), (3, 3)])
def test_curved_1p2_equals_layer_chain(times, steps):
    rng = np.random.default_rng(72 + times)
    triad = varying_triad(rng, times, 24, 18)
    field = random_state_2d(rng, 24, 18)
    slow = stepped = field
    for j in range(steps):
        slow = ref.curved_step_1p2_layers(slow, triad, 0.3, j, 0.5)
        stepped = curved_step_1p2(stepped, triad, 0.3, j, 0.5)
        assert_same_bits(stepped, slow)
    for _ in range(2):  # the second call must not see the buffers of the first
        assert_same_bits(evolve_1p2(field, triad, mass=0.3, steps=steps, epsilon=0.5), slow)


@pytest.mark.parametrize("component", ["e1", "e2", "b"])
def test_in_place_triad_edit_is_seen(component):
    rng = np.random.default_rng(74)
    triad = varying_triad(rng, 1, 12, 10)
    field = random_state_2d(rng, 12, 10)
    evolve_1p2(field, triad, mass=0.3, steps=2)
    getattr(triad, component)[0, 3, 4] *= 0.9  # one site, still inside the light cone
    assert_same_bits(evolve_1p2(field, triad, mass=0.3, steps=1), ref.curved_step_1p2_layers(field, triad, 0.3))
    getattr(triad, component)[...] *= 0.95
    assert_same_bits(curved_step_1p2(field, triad, 0.3, 1), ref.curved_step_1p2_layers(field, triad, 0.3, 1))


def test_changed_mass_or_epsilon_is_seen():
    rng = np.random.default_rng(75)
    triad = varying_triad(rng, 1, 12, 10)
    field = random_state_2d(rng, 12, 10)
    for mass, eps in [(0.3, 1.0), (0.5, 1.0), (0.5, 0.25), (0.3, 1.0)]:
        assert_same_bits(curved_step_1p2(field, triad, mass, 0, eps),
                         ref.curved_step_1p2_layers(field, triad, mass, 0, eps))
        assert_same_bits(evolve_1p2(field, triad, mass, 1, 1, eps),
                         ref.curved_step_1p2_layers(field, triad, mass, 1, eps))


def test_alternating_lattice_shapes_replace_the_scratch():
    rng = np.random.default_rng(76)
    # equal site counts in both orientations, so only the shape tells the lattices apart
    cases = []
    for n1, n2 in [(12, 10), (10, 12), (12, 10)]:
        cases.append((random_state_2d(rng, n1, n2), random_gauge(rng, 1, n1, n2, 0.5), varying_triad(rng, 1, n1, n2)))
    gauge_1d = GaugeField1D(rng.normal(size=(1, 120)), rng.normal(size=(1, 120)), 0.5)
    field_1d = SpinorField(rng.normal(size=(120, 2)) + 1j * rng.normal(size=(120, 2)))
    for field, gauge, triad in cases + cases[::-1]:
        assert_same_bits(em_step_2d(field, gauge, 0.2, 0), ref.em_step_2d_layers(field, gauge, 0.2, 0))
        assert_same_bits(curved_step_1p2(field, triad, 0.3), ref.curved_step_1p2_layers(field, triad, 0.3))
        for mass in (0.7, 0.0):  # no coin at mass 0: the shift goes straight to the result
            assert_same_bits(electric_step_1d(field_1d, gauge_1d, mass, 0),
                             ref.electric_step_1d_layers(field_1d, gauge_1d, mass, 0))


def test_returned_arrays_are_never_changed_by_later_calls():
    rng = np.random.default_rng(77)
    gauge, triad = random_gauge(rng, 1, 12, 10, 0.5), varying_triad(rng, 1, 12, 10)
    gauge_1d = GaugeField1D(rng.normal(size=(1, 16)), rng.normal(size=(1, 16)), 0.5)
    field = random_state_2d(rng, 12, 10)
    field_1d = SpinorField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
    results = []
    for _ in range(2):
        results += [em_step_2d(field, gauge, 0.2, 0), curved_step_1p2(field, triad, 0.3),
                    evolve_1p2(field, triad, 0.3, steps=3), lattice_current_2d(field, gauge, 0.2, 0).j2,
                    electric_step_1d(field_1d, gauge_1d, 0.0, 0), electric_step_1d(field_1d, gauge_1d, 0.7, 0)]
        copies = [np.copy(getattr(r, "amplitudes", r)) for r in results]
        field = random_state_2d(rng, 12, 10)
        field_1d = SpinorField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
    for r, c in zip(results, copies):
        assert np.array_equal(getattr(r, "amplitudes", r), c)


def test_two_threads_on_one_gauge_give_the_serial_results():
    rng = np.random.default_rng(78)
    gauge = random_gauge(rng, 1, 48, 40, 0.5)
    starts = [random_state_2d(rng, 48, 40) for _ in range(2)]

    def walk(field, steps=60):
        for _ in range(steps):
            field = em_step_2d(field, gauge, 0.3, 0)
        return field

    serial = [walk(f) for f in starts]
    results = [None, None]

    def work(i):
        results[i] = walk(starts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert_same_bits(got, want)


def test_triad_coins_fill_the_standard_coin_bits_into_reused_planes():
    rng = np.random.default_rng(86)
    # exact zeros and both signs of sin and cos, where 1j * sin leaves a signed zero in the real part
    theta = np.concatenate([[0.0, -0.0, math.pi, -math.pi / 2], rng.uniform(-7.0, 7.0, size=116)]).reshape(12, 10)
    other = rng.uniform(-2.0, 2.0, size=(12, 10))
    before = theta.tobytes() + other.tobytes()
    planes = np.full((3, 12, 10), np.nan, dtype=complex)
    for terms, angle in [((theta,), theta), ((theta, 0.3), theta - 0.3), ((theta, 0.3, other), (theta - 0.3) - other),
                         ((other, -0.0), other - -0.0)]:
        coin = curved._fill_standard_coin(planes, terms)
        assert coin.shape == (12, 10, 2, 2) and not coin.flags.writeable
        assert np.ascontiguousarray(coin).tobytes() == standard_coin(angle).tobytes()
    assert theta.tobytes() + other.tobytes() == before


def test_triad_walks_interleaved_across_shapes_and_threads_equal_the_layer_chain():
    rng = np.random.default_rng(87)
    cases = [(random_state_2d(rng, n1, n2), varying_triad(rng, times, n1, n2))
             for (n1, n2), times in [((12, 10), 1), ((10, 12), 3), ((12, 10), 3), ((10, 12), 1)]]
    serial = []
    for field, triad in cases:
        chain = [field]
        for j in range(3):
            chain.append(ref.curved_step_1p2_layers(chain[-1], triad, 0.3, j, 0.5))
        serial.append(chain)

    def walk(order):
        for i in order:
            field, triad = cases[i]
            for j in range(3):
                assert_same_bits(curved_step_1p2(serial[i][j], triad, 0.3, j, 0.5), serial[i][j + 1])
            assert_same_bits(evolve_1p2(field, triad, 0.3, steps=3, epsilon=0.5), serial[i][3])
            assert_same_bits(evolve_1p2(serial[i][1], triad, 0.3, steps=2, start=1, epsilon=0.5), serial[i][3])

    walk([0, 1, 2, 3, 0, 3, 1])
    errors = []

    def work(order):
        try:
            for _ in range(3):
                walk(order)
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(order,)) for order in ([0, 1, 2, 3], [3, 2, 1, 0])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_time_dependent_triad_keeps_only_its_angle_planes_per_sample():
    """Coins of a time-dependent triad reuse three slots, so only the five angle planes grow with the samples."""
    rng = np.random.default_rng(88)
    field = random_state_2d(rng, 64, 64)
    peaks = {}
    for times in (10, 40):
        triad = varying_triad(rng, times, 64, 64)
        evolve_1p2(field, triad, 0.3, steps=times)  # the per-thread planes exist before the measurement
        tracemalloc.start()
        try:
            evolve_1p2(field, triad, 0.3, steps=times)
            peaks[times] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    angle_planes = 30 * 5 * 64 * 64 * 8
    assert peaks[40] - peaks[10] <= angle_planes + 256 * 1024


def test_static_triad_walk_holds_one_result_field_at_any_length():
    """All steps of one time sample run as one layer list, so a static triad's walk writes only its result and the
    thread's scratch: 8 steps peak like 1 (a second planar field of its own, 128 KiB at 64^2, used to add to that)."""
    rng = np.random.default_rng(89)
    field, triad = random_state_2d(rng, 64, 64), varying_triad(rng, 1, 64, 64)
    peaks = {}
    for steps in (1, 8):
        evolve_1p2(field, triad, 0.3, steps=steps)  # the per-thread planes exist before the measurement
        tracemalloc.start()
        try:
            evolve_1p2(field, triad, 0.3, steps=steps)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= peaks[1] + 16 * 1024


@pytest.mark.parametrize("d, coin_shape", [(2, (2, 2)), (2, (12, 10, 2, 2)), (4, (4, 4)), (4, (12, 10, 4, 4))])
def test_out_keyword_writes_the_allocating_result(d, coin_shape):
    rng = np.random.default_rng(79)
    field = SpinorField(rng.normal(size=(12, 10, d)) + 1j * rng.normal(size=(12, 10, d)))
    coin = rng.normal(size=coin_shape) + 1j * rng.normal(size=coin_shape)
    for kernel, args in [(shift, (1,)), (inverse_shift, (0,)), (apply_coin, (coin,))]:
        out = SpinorField(np.zeros((12, 10, d), dtype=np.complex128))
        assert kernel(field, *args, out=out) is out
        assert_same_bits(out, kernel(field, *args))


def test_2d_steppers_run_their_layers_through_the_public_kernels(monkeypatch):
    """Layer timings wrap the module attributes shift and apply_coin, so the steppers must call those."""
    calls = []
    for name in ("shift", "apply_coin"):
        kernel = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *a, _k=kernel, _n=name, **kw: calls.append(_n) or _k(*a, **kw))
    rng = np.random.default_rng(80)
    field, gauge, triad = random_state_2d(rng, 12, 10), random_gauge(rng, 1, 12, 10, 0.5), varying_triad(rng, 1, 12, 10)
    em_step_2d(field, gauge, 0.2, 0)
    assert calls == ["shift", "apply_coin"] * 2
    calls.clear()
    curved_step_1p2(field, triad, 0.3)
    evolve_1p2(field, triad, 0.3, steps=2)
    assert calls == ["apply_coin", "shift", "apply_coin", "shift", "apply_coin"] * 3
    calls.clear()
    field_1d = SpinorField(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)))
    gauge_1d = GaugeField1D(rng.normal(size=(1, 16)), rng.normal(size=(1, 16)), 0.5)
    lattice.step(field_1d, standard_coin(0.4))
    electric_step_1d(field_1d, gauge_1d, 0.7, 0)
    curved_step_1p1(field_1d, CurvedCoinProfile(np.full(16, 0.3)))
    assert calls == ["shift", "apply_coin"] * 3
    calls.clear()
    electric_step_1d(field_1d, gauge_1d, 0.0, 0)  # no coin at mass 0
    assert calls == ["shift"]


# ---------------------------------------------------------------------------
# the steppers' input rule: the sample of step j and the field's fit to the background


def rule_steppers():
    """Stepper -> (step(field, j), lattice extents, internal dimension) on backgrounds of three time samples."""
    rng = np.random.default_rng(90)
    gauge_1d = GaugeField1D(rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), 0.5)
    gauge_2d = random_gauge(rng, 3, 8, 6, 0.5)
    links = NonAbelianGaugeField.zero(3, 8, 2).links()
    profile = CurvedCoinProfile(np.full((3, 8), 0.3))
    triad = varying_triad(rng, 3, 8, 6)
    return {
        "electric": (lambda f, j: electric_step_1d(f, gauge_1d, 0.0, j), (8,), 2),  # mass 0: no coin checks d
        "em": (lambda f, j: em_step_2d(f, gauge_2d, 0.3, j), (8, 6), 2),
        "current-2d": (lambda f, j: lattice_current_2d(f, gauge_2d, 0.3, j), (8, 6), 2),
        "nonabelian": (lambda f, j: nonabelian_step(f, links, 0.4, j), (8,), 4),
        "curved-1p1": (lambda f, j: curved_step_1p1(f, profile, j), (8,), 2),
        "curved-1p2": (lambda f, j: curved_step_1p2(f, triad, 0.1, j), (8, 6), 2),
        "evolve-1p2": (lambda f, j: evolve_1p2(f, triad, 0.1, steps=1, start=j), (8, 6), 2),
    }


# j = -1 used to wrap to the last sample in four steppers, and electric_step_1d at mass 0 stepped 4 components
@pytest.mark.parametrize("case", ["j=-1", "j=samples", "off the lattice", "internal dimension"])
@pytest.mark.parametrize("stepper", list(rule_steppers()))
def test_steppers_share_one_input_rule(stepper, case):
    step, extents, d = rule_steppers()[stepper]
    fit = SpinorField(np.ones(extents + (d,), complex))
    for j in range(3):
        step(fit, j)
    off = extents[:-1] + (extents[-1] + 1,)
    error, message, field, j = {
        "j=-1": (IndexError, "step -1 outside the 3 stored", fit, -1),
        "j=samples": (IndexError, "step 3 outside the 3 stored", fit, 3),
        "off the lattice": (ValueError, re.escape(f"extents {extents} do not match field extents {off}"),
                            SpinorField(np.ones(off + (d,), complex)), 0),
        "internal dimension": (ValueError, f"acts on {d} internal components, the field has {d + 2}",
                               SpinorField(np.ones(extents + (d + 2,), complex)), 0),
    }[case]
    with pytest.raises(error, match=message):
        step(field, j)


def test_a_static_profile_and_triad_serve_every_step():
    rng = np.random.default_rng(91)
    profile, triad = CurvedCoinProfile(np.full(8, 0.3)), varying_triad(rng, 1, 8, 6)
    line, plane = SpinorField(rng.normal(size=(8, 2)) + 0j), random_state_2d(rng, 8, 6)
    for j in (0, 5, 500):
        assert np.array_equal(profile.at(j), profile.theta[0])
        assert_same_bits(curved_step_1p1(line, profile, j), curved_step_1p1(line, profile, 0))
        assert_same_bits(curved_step_1p2(plane, triad, 0.1, j), curved_step_1p2(plane, triad, 0.1, j % 2))
        assert_same_bits(evolve_1p2(plane, triad, 0.1, steps=2, start=j),
                         evolve_1p2(plane, triad, 0.1, steps=2, start=j % 2))


# ---------------------------------------------------------------------------
# the layer interpreter behind the steppers


def random_field(rng, extents, d):
    amps = rng.normal(size=extents + (d,)) + 1j * rng.normal(size=extents + (d,))
    return SpinorField(amps).normalized()


def layer_chain(field, layers):
    """The layers through the allocating kernels, one fresh array each."""
    for kind, arg, *rest in layers:
        if kind == "shift":
            field = shift(field, arg)
        elif kind == "phase":
            field = SpinorField(field.amplitudes.copy())
            field.amplitudes[..., 0] *= arg
            field.amplitudes[..., 1] *= rest[0]
        elif arg is not None:
            field = apply_coin(field, arg)
    return field


def layer_lists(rng, extents):
    """Lists of one to five writes (shifts and coins), with phases and a skipped coin among them."""
    coin = standard_coin(rng.random(extents))
    up, dn = np.exp(1j * rng.random(extents)), np.exp(1j * rng.random(extents))
    return [
        [("shift", 1)],
        [("shift", 0), ("phase", up, dn), ("coin", coin)],
        [("shift", 0), ("phase", up, dn), ("coin", None), ("shift", 1), ("coin", coin)],
        [("coin", coin), ("shift", 0), ("coin", coin), ("phase", dn, up), ("shift", 1)],
        [("coin", coin), ("shift", 0), ("coin", coin), ("shift", 1), ("coin", coin)],
    ]


def test_run_layers_never_writes_its_input():
    rng = np.random.default_rng(81)
    field = random_field(rng, (12, 10), 2)
    before = field.amplitudes.copy()
    for layers in layer_lists(rng, (12, 10)):
        lattice._run_layers(field, layers)
        assert np.array_equal(field.amplitudes, before)


def test_run_layers_returns_the_layer_chain_for_odd_and_even_write_counts():
    rng = np.random.default_rng(82)
    field = random_field(rng, (12, 10), 2)
    scratch = lattice._step_scratch((12, 10), 2)[0]
    for layers in layer_lists(rng, (12, 10)):
        got = lattice._run_layers(field, layers)
        assert got is not scratch and not np.shares_memory(got.amplitudes, scratch.amplitudes)
        assert_same_bits(got, layer_chain(field, layers))


def test_run_layers_skips_none_coins():
    rng = np.random.default_rng(83)
    field = random_field(rng, (12, 10), 2)
    got = lattice._run_layers(field, [("coin", None), ("shift", 0), ("coin", None), ("shift", 1), ("coin", None)])
    assert_same_bits(got, shift(shift(field, 0), 1))
    with pytest.raises(ValueError, match="first layer"):
        lattice._run_layers(field, [("coin", None), ("phase", field.amplitudes[..., 0], field.amplitudes[..., 1])])


@pytest.mark.parametrize("coin_shape", [(4, 4), (12, 10, 4, 4)])
def test_run_layers_applies_d4_coins_like_einsum(coin_shape):
    rng = np.random.default_rng(84)
    field = random_field(rng, (12, 10), 4)
    coin = rng.normal(size=coin_shape) + 1j * rng.normal(size=coin_shape)
    got = lattice._run_layers(field, [("shift", 1), ("coin", coin)])
    want = np.einsum("...ab,...b->...a", coin, shift(field, 1).amplitudes)
    assert np.max(np.abs(got.amplitudes - want)) <= 1e-15


def test_run_layers_alternating_internal_dims_give_the_serial_results():
    rng = np.random.default_rng(85)
    fields = {d: random_field(rng, (12, 10), d) for d in (2, 4)}
    coins = {d: rng.normal(size=(12, 10, d, d)) + 1j * rng.normal(size=(12, 10, d, d)) for d in (2, 4)}
    lists = {d: [("shift", 0), ("coin", coins[d]), ("shift", 1), ("coin", coins[d])] for d in (2, 4)}
    serial = {d: layer_chain(fields[d], lists[d]) for d in (2, 4)}
    for d in (2, 4, 4, 2, 4, 2, 2):
        assert_same_bits(lattice._run_layers(fields[d], lists[d]), serial[d])


# ---------------------------------------------------------------------------
# U(N) colour walk and the sampled measured walk

TOL_1D = 1e-15


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def with_link_layout(links, link_layout):
    """The same links, C-contiguous or colour-planar (each entry one contiguous (steps, sites) plane)."""
    if link_layout == "c-contiguous":
        return LinkField(np.ascontiguousarray(links.u_plus), np.ascontiguousarray(links.u_minus), links.epsilon)
    planar = [np.moveaxis(np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1))), (0, 1), (-2, -1))
              for u in (links.u_plus, links.u_minus)]
    return LinkField(*planar, links.epsilon)


def random_unitary(rng, shape):
    q, r = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def bit_pattern(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same_bytes(a: SpinorField, b: SpinorField) -> bool:
    """Equal bit for bit, signed zeros included (np.array_equal takes -0.0 == 0.0)."""
    return np.ascontiguousarray(a.amplitudes).tobytes() == np.ascontiguousarray(b.amplitudes).tobytes()


@pytest.mark.parametrize("link_layout", ["c-contiguous", "planar"])
@pytest.mark.parametrize("layout", ["interleaved", "planar"])
@pytest.mark.parametrize("sites", [1, 2, 7, 64, 1024])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonabelian_step_matches_reference(n, sites, layout, link_layout):
    rng = np.random.default_rng(60 + 10 * n + sites)
    slices = 5  # the 200 steps cycle through these link slices
    links = with_link_layout(NonAbelianGaugeField(random_hermitian(rng, (slices, sites, n, n)),
                                                  random_hermitian(rng, (slices, sites, n, n)), 0.5).links(),
                             link_layout)
    amps = rng.normal(size=(sites, 2 * n)) + 1j * rng.normal(size=(sites, 2 * n))
    amps /= np.linalg.norm(amps)
    if layout == "planar":
        amps = np.ascontiguousarray(amps.T).T
    fast = slow = SpinorField(amps)
    for j in range(200):
        fast = nonabelian_step(fast, links, 0.7, j % slices)
        slow = ref.nonabelian_step(slow, links, 0.7, j % slices)
    assert max_diff(fast, slow) <= TOL_1D


# the coin writes into the shifted planes with out=, and the links may come in either layout: the bits must stay
# those of the form that built the coin from temporaries and read C-contiguous links
@pytest.mark.parametrize("sites", [1, 2, 7, 64, 1024])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nonabelian_step_bits_equal_the_temporaries_form_on_both_link_layouts(n, sites):
    rng = np.random.default_rng(80 + 10 * n + sites)
    links = NonAbelianGaugeField(random_hermitian(rng, (6, sites, n, n)),
                                 random_hermitian(rng, (6, sites, n, n)), 0.5).links()
    reference_links = with_link_layout(links, "c-contiguous")
    amps = rng.normal(size=(sites, 2 * n)) + 1j * rng.normal(size=(sites, 2 * n))
    for start in (SpinorField(amps), SpinorField(np.ascontiguousarray(amps.T).T)):
        for mass in (0.7, 0.0, -1.3):
            want = start
            for j in range(6):
                want = ref.nonabelian_step_planar(want, reference_links, mass, j)
            for link_layout in ("c-contiguous", "planar"):
                laid_out = with_link_layout(links, link_layout)
                got = start
                for j in range(6):
                    got = nonabelian_step(got, laid_out, mass, j)
                assert same_bytes(got, want)
                assert same_bytes(evolve_nonabelian(start, laid_out, mass, 6), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gauge_transform_links_matches_the_three_operand_einsum(n):
    rng = np.random.default_rng(90 + n)
    links = NonAbelianGaugeField(random_hermitian(rng, (6, 32, n, n)),
                                 random_hermitian(rng, (6, 32, n, n)), 0.5).links()
    g = random_unitary(rng, (7, 32, n, n))
    field = SpinorField(rng.normal(size=(32, 2 * n)) + 1j * rng.normal(size=(32, 2 * n)))
    want = ref.gauge_transform_links_einsum(links, g)
    for link_layout in ("c-contiguous", "planar"):
        _, got = gauge_transform_links(field, with_link_layout(links, link_layout), g)
        for u, w in zip((got.u_plus, got.u_minus), want):
            np.testing.assert_allclose(u, w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("draw", [lambda rng: rng.normal(size=10**6), lambda rng: rng.uniform(-1e3, 1e3, 10**6),
                                  lambda rng: rng.uniform(-1e-8, 1e-8, 10**6)], ids=["normal", "1e3", "1e-8"])
def test_expi_is_the_complex_exponential_bit_for_bit(draw):
    x = draw(np.random.default_rng(95))
    assert np.array_equal(bit_pattern(lattice._expi(x)), bit_pattern(np.exp(1j * x)))


# 1j * x adds +0.0 to x, so np.exp(1j * -0.0) has imaginary part +0.0, where sin(-0.0) = -0.0; x + 0.0 restores
# the match, and the steppers' phase arguments are never -0.0
def test_expi_keeps_the_sign_of_a_negative_zero():
    x = np.array([0.0, -0.0, 5e-324, -5e-324])
    got, want = lattice._expi(x), np.exp(1j * x)
    assert np.array_equal(got, want)
    assert list(np.signbit(got.imag)) == [False, True, False, True]
    assert list(np.signbit(want.imag)) == [False, False, False, True]
    assert np.array_equal(bit_pattern(lattice._expi(x + 0.0)), bit_pattern(want))


def signed_zeros(rng, shape):
    """Amplitudes that are all zeros of random signs: a phase of imaginary part -0.0 or +0.0 changes their signs."""
    amps = np.zeros(shape, dtype=np.complex128)
    amps.real = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    amps.imag = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return SpinorField(amps)


# potentials of +-0.0 give phase arguments of -0.0, which must reach the tables as np.exp(1j * x) has them
def test_steppers_phase_tables_match_np_exp_at_signed_zero_potentials():
    rng = np.random.default_rng(96)
    a0, a1 = rng.normal(size=(4, 40)), rng.normal(size=(4, 40))
    a0[:, ::3], a1[:, ::2], a1[:, 1::4] = -0.0, 0.0, -0.0
    gauge = GaugeField1D(a0, a1, 0.5)
    for field in (SpinorField.delta(40, spin=(1.0, 1.0j)), signed_zeros(rng, (40, 2))):
        for j in range(4):
            for mass in (0.3, 0.0):
                assert same_bytes(electric_step_1d(field, gauge, mass, j),
                                  ref.electric_step_1d_layers(field, gauge, mass, j))
    b = [rng.normal(size=(2, 12, 10)) for _ in range(3)]
    b[0][:, ::3], b[1][:, ::2], b[2][:, 1::4], b[2][:, ::5] = -0.0, 0.0, 0.0, -0.0
    gauge2 = GaugeField2D(*b, 0.5)
    for field in (SpinorField.delta((12, 10), spin=(1.0, 1.0j)), signed_zeros(rng, (12, 10, 2))):
        for j in range(2):
            for delta_theta in (0.2, -math.pi / 2):  # at -pi/2 the X coin is skipped, so the X phase meets the zeros
                assert same_bytes(em_step_2d(field, gauge2, delta_theta, j),
                                  ref.em_step_2d_layers(field, gauge2, delta_theta, j))


def measured_walk(spin_up_prob, beta_angle):
    return AharonovConfig(
        spin_up=math.sqrt(spin_up_prob),
        spin_down=math.sqrt(1.0 - spin_up_prob) * np.exp(0.4j),
        coin_alpha=math.cos(beta_angle) * np.exp(-0.3j),
        coin_beta=math.sin(beta_angle) * np.exp(0.9j),
        coin_phase=0.7,
    )


# a zero-probability branch must never be normalized: warnings are errors here
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spin_up_prob, beta_angle", [
    (0.6, 0.8), (0.6, 0.0), (0.0, 0.8), (0.0, 0.0), (1.0, 0.8), (1.0, 0.0),
])
@pytest.mark.parametrize("seed", [0, 3, 1234])
def test_sampled_distribution_matches_reference(spin_up_prob, beta_angle, seed):
    walk = measured_walk(spin_up_prob, beta_angle)
    start = np.zeros(24, dtype=np.complex128)
    start[12] = 1.0
    for steps, samples in [(0, 5), (1, 1), (20, 25)]:
        fast = sample_averaged_distribution(start, walk, steps, samples, seed)
        slow = ref.sample_averaged_distribution(start, walk, steps, samples, seed)
        assert np.max(np.abs(fast - slow)) <= TOL_1D

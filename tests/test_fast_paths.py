"""Differential tests of the fast paths against frozen reference steppers.

`em_step_2d` caches its phase tables on the gauge and folds the scalar
phase into the Y substep; the (1+2)D step merges its last two coins. The
colour walk `nonabelian_step` works on spin-planar colour planes, and
`sample_averaged_distribution` evolves all samples as one batch, the
Landau fiber is solved on half its sites, and the 2D packet's positive
band is taken in closed form with the drift traced from marginals. Each must agree with the straightforward forms in
`reference_walks` to rounding, and the phase cache must never serve tables
of stale values.

The 2D steppers also run from tables cached on the gauge, or from coins
held per thread between calls, on reused buffers, with their layers in the public `shift` and
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
import weakref

import numpy as np
import pytest

import reference_walks as ref
from qwalk import abelian
from qwalk import lattice
from qwalk import curved
from qwalk import nonabelian
from qwalk.abelian import (GaugeField1D, GaugeField2D, _em_gauge_layers, _landau_half_fiber, _positive_band,
                           circular_mean_positions, electric_step_1d, em_step_2d, em_symbol_2d, evolve_electric,
                           evolve_em, exb_positions, landau_box_size, landau_gauge, landau_quasienergies,
                           lattice_current_2d)
from qwalk.config import load_config
from qwalk.dirac import dirac_evolve
from qwalk.experiments import run
from qwalk.curved import (CurvedCoinProfile, MetricField2D, curved_step_1p1, curved_step_1p2, evolve_1p1, evolve_1p2,
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
# one-column phase tables: a slice constant along the last axis enters as its first column, and the steps must keep
# the bits of the full tables of reference_walks.em_gauge_layers_full


def exb_like_gauge(n1, n2):
    """exb's gauge: an A0 ramp along the first axis on a Landau gauge."""
    gauge = landau_gauge(0.02, 1, n1, n2, 1.0)
    gauge.a0[...] = (-(0.3 * 0.02) * (np.arange(n1) - n1 // 2))[:, None]
    return gauge


def mixed_gauge(rng, n1, n2):
    """Two samples: column A0 and A1 with signed zeros in their first columns, and A2 varying along both axes, so
    column and full tables meet in one product; the second sample's A0 is -0.0 and 0.0 alike, which compare equal."""
    a0 = np.repeat(rng.normal(size=(2, n1, 1)), n2, axis=2)
    a0[0, :4, 0], a0[1] = -0.0, np.where(rng.random((n1, n2)) < 0.5, -0.0, 0.0)
    a1 = np.repeat(0.3 * rng.normal(size=(2, n1, 1)), n2, axis=2)
    a1[:, ::3, 0] = -0.0
    a1[:, ::3, 1:] = 0.0
    return GaugeField2D(a0, a1, rng.normal(size=(2, n1, n2)), 0.5)


# gauge -> (its batch shape and lattice extents, the shapes of its phase tables at slice 0: X phase, then Y phase)
COLUMN_GAUGES = {
    "landau-128": (lambda rng: landau_gauge(0.01, 1, 128, 128, 1.0), (128, 128), [(128, 1)] * 2),
    # 96 x 192 > 2^14 sites: the row path
    "exb-rows": (lambda rng: exb_like_gauge(96, 192), (96, 192), [(96, 1)] * 2),
    # constant along the first axis only
    "last-axis": (lambda rng: GaugeField2D(*np.zeros((2, 1, 24, 18)), np.broadcast_to(
        np.sin(np.arange(18.0)), (1, 24, 18)), 0.5), (24, 18), [(24, 18)] * 2),
    "batched": (lambda rng: GaugeField2D(*np.zeros((2, 1, 2, 24, 18)), np.stack([
        landau_gauge(b, 1, 24, 18, 0.5).a2 for b in (0.02, -0.05)], axis=1), 0.5, batch=1), (2, 24, 18),
                [(2, 24, 1)] * 2),
    "mixed": (lambda rng: mixed_gauge(rng, 24, 18), (24, 18), [(24, 1)] * 2 + [(24, 18)] * 2),
}


def with_full_tables(fn, *args):
    """fn(*args) with em_step_2d's layers built by reference_walks.em_gauge_layers_full, every table full."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abelian, "_em_gauge_layers", ref.em_gauge_layers_full)
        return fn(*args)


def assert_same_current(got, want):
    for name in ("j0", "j0_next", "j1", "j2", "residual"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
    assert_same_bits(got.stepped, want.stepped)


@pytest.mark.parametrize("delta_theta", [0.0, 0.37])
@pytest.mark.parametrize("case", COLUMN_GAUGES.keys())
def test_column_tables_keep_the_bits_of_full_tables(case, delta_theta):
    rng = np.random.default_rng(130)
    build, shape, table_shapes = COLUMN_GAUGES[case]
    gauge = build(rng)
    field = SpinorField(rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,)), gauge.batch).normalized()
    tables = [t for layer in _em_gauge_layers(gauge, 0, delta_theta) if layer[0] == "phase" for t in layer[1:]]
    assert [t.shape for t in tables] == table_shapes
    steps = 3 if gauge.steps == 1 else gauge.steps  # one sample serves every step
    assert_same_bits(stepper_loop(em_step_2d, field, gauge, delta_theta, steps)[-1],
                     with_full_tables(stepper_loop, em_step_2d, field, gauge, delta_theta, steps)[-1])
    assert_same_bits(evolve_em(field, gauge, delta_theta, steps),
                     with_full_tables(evolve_em, field, gauge, delta_theta, steps))
    for j in range(gauge.steps):
        assert_same_current(lattice_current_2d(field, gauge, delta_theta, j),
                            with_full_tables(lattice_current_2d, field, gauge, delta_theta, j))


def test_an_in_place_a2_edit_between_direct_calls_is_seen_by_the_column_tables():
    rng = np.random.default_rng(131)
    gauge, field = landau_gauge(0.01, 1, 128, 128, 1.0), random_state_2d(rng, 128, 128)
    shapes = lambda: [t.shape for layer in _em_gauge_layers(gauge, 0, 0.3) if layer[0] == "phase" for t in layer[1:]]
    em_step_2d(field, gauge, 0.3, 0)  # the gauge now holds column tables
    for edit, table_shape in [(np.s_[0, 40, :], (128, 1)), (np.s_[0, 40, 7], (128, 128))]:  # a row, then one site
        gauge.a2[edit] += 0.5
        assert_same_bits(em_step_2d(field, gauge, 0.3, 0), with_full_tables(em_step_2d, field, gauge, 0.3, 0))
        assert shapes() == [table_shape] * 2


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


def on_new_thread(fn, *args):
    """fn(*args) on a thread of its own, whose scratch starts empty: a cold call."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    return out[0]


@pytest.fixture
def triad_work(monkeypatch):
    """Counts of the angle solves and standard coin builds made by the (1+2)D walk."""
    counts = {"solves": 0, "builds": 0}

    def counted(kernel, key):
        def call(*args):
            counts[key] += 1
            return kernel(*args)
        return call

    for name, key in (("coin_angles_from_triad", "solves"), ("standard_coin", "builds")):
        monkeypatch.setattr(curved, name, counted(getattr(curved, name), key))
    return counts


def assert_same_bits(a: SpinorField, b: SpinorField):
    """Equal amplitudes bit for bit, signed zeros included."""
    assert a.amplitudes.shape == b.amplitudes.shape
    assert np.ascontiguousarray(a.amplitudes).tobytes() == np.ascontiguousarray(b.amplitudes).tobytes()


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
def test_in_place_triad_edit_is_seen(component, triad_work):
    rng = np.random.default_rng(74)
    triad = varying_triad(rng, 1, 12, 10)
    field = random_state_2d(rng, 12, 10)
    evolve_1p2(field, triad, mass=0.3, steps=2)
    getattr(triad, component)[0, 3, 4] *= 0.9  # one site, still inside the light cone
    assert_same_bits(evolve_1p2(field, triad, mass=0.3, steps=1), ref.curved_step_1p2_layers(field, triad, 0.3))
    getattr(triad, component)[...] *= 0.95
    assert_same_bits(curved_step_1p2(field, triad, 0.3, 1), ref.curved_step_1p2_layers(field, triad, 0.3, 1))
    assert triad_work["solves"] == 3  # each edit is solved afresh


def test_changed_mass_or_epsilon_is_seen(triad_work):
    rng = np.random.default_rng(75)
    triad = varying_triad(rng, 1, 12, 10)
    field = random_state_2d(rng, 12, 10)
    for mass, eps in [(0.3, 1.0), (0.5, 1.0), (0.5, 0.25), (0.0, 1.0), (-0.0, 1.0), (0.3, 1.0)]:
        triad_work["builds"] = 0
        assert_same_bits(curved_step_1p2(field, triad, mass, 0, eps),
                         ref.curved_step_1p2_layers(field, triad, mass, 0, eps))
        assert_same_bits(evolve_1p2(field, triad, mass, 1, 1, eps),
                         ref.curved_step_1p2_layers(field, triad, mass, 1, eps))
        assert triad_work["builds"] == 3 + 2  # a new dm, -0.0 after +0.0 too, rebuilds; parity 1 adds its two coins


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


def memory_owner(a):
    """The array that owns the memory of the view a (as_strided views reach it through a non-array base)."""
    while not (isinstance(a, np.ndarray) and a.flags.owndata):
        a = a.base
    return a


# each held coin is a read-only view of three planes, cos, i sin and cos, with the bits of standard_coin
def test_held_triad_coins_are_read_only_three_plane_views_of_the_standard_coin_bits(monkeypatch):
    rng = np.random.default_rng(86)
    # exact zeros and both signs of sin and cos, where 1j * sin leaves a signed zero in the real part
    theta = np.concatenate([[0.0, -0.0, math.pi, -math.pi / 2], rng.uniform(-7.0, 7.0, size=116)]).reshape(1, 12, 10)
    other = rng.uniform(-2.0, 2.0, size=(1, 12, 10))
    before = theta.tobytes() + other.tobytes()
    angles = curved.TriadAngles(theta, theta, other, other, theta)
    monkeypatch.setattr(curved, "coin_angles_from_triad", lambda triad: angles)
    v, q1, q2, q3, q4 = (a[0] for a in (angles.v, angles.q1, angles.q2, angles.q3, angles.q4))
    for mass, dm in [(0.6, 0.3), (-0.0, -0.0)]:
        evolve_1p2(random_state_2d(rng, 12, 10), varying_triad(rng, 1, 12, 10), mass, steps=2)
        held = lattice._step_scratch((12, 10), 2)[2]
        for coin, angle in [(held["cv"], v), (held[0][0], q1 - dm), (held[0][1], (q2 - dm) - v),
                            (held[1][0], q3 - dm), (held[1][1], (q4 - dm) - v)]:
            assert coin.shape == (12, 10, 2, 2)
            assert np.ascontiguousarray(coin).tobytes() == standard_coin(angle).tobytes()
            assert memory_owner(coin).nbytes == 3 * 120 * 16
            with pytest.raises(ValueError, match="read-only"):
                coin[3, 4, 1, 0] = 0.0
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


def test_fixed_angle_coins_are_built_once_and_shared_read_only(monkeypatch):
    """The electric walk's mass coin and the em walk's two coins come from one cache keyed by angle."""
    coins = []
    kernel = lattice.apply_coin
    monkeypatch.setattr(lattice, "apply_coin", lambda f, c, **kw: coins.append(c) or kernel(f, c, **kw))
    rng = np.random.default_rng(100)
    gauge_1d = GaugeField1D(rng.normal(size=(3, 64)), rng.normal(size=(3, 64)), 0.5)
    field_1d = SpinorField(rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2)))
    for mass in (0.7, -0.3, 0.0, -0.0, 0.7):
        for j in range(3):
            assert_same_bits(electric_step_1d(field_1d, gauge_1d, mass, j),
                             ref.electric_step_1d_layers(field_1d, gauge_1d, mass, j))
    assert len(coins) == 9 and coins[0] is coins[8] and not coins[0].flags.writeable
    assert coins[0].tobytes() == standard_coin(-0.5 * 0.7).tobytes()
    coins.clear()
    gauge, field = random_gauge(rng, 2, 12, 10, 0.5), random_state_2d(rng, 12, 10)
    for j in range(2):
        assert_same_bits(em_step_2d(field, gauge, 0.4, j), ref.em_step_2d_layers(field, gauge, 0.4, j))
    assert coins[0] is coins[2] and coins[1] is coins[3] and not any(c.flags.writeable for c in coins)


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
# (1+2)D coins held between calls: the reuse must not show in any result


def warm_equals_cold(field, triad, mass=0.3, start=0, steps=2, epsilon=0.5):
    """The walk called twice on this thread and once on a fresh one gives one result, the layer chain's."""
    cold = on_new_thread(evolve_1p2, field, triad, mass, steps, start, epsilon)
    for _ in range(2):
        assert_same_bits(evolve_1p2(field, triad, mass, steps, start, epsilon), cold)
    chain = field
    for j in range(start, start + steps):
        chain = ref.curved_step_1p2_layers(chain, triad, mass, j, epsilon)
    assert_same_bits(cold, chain)
    return cold


@pytest.mark.parametrize("times, start, steps", [(1, 0, 1), (1, 1, 1), (1, 0, 5), (3, 1, 2), (3, 1, 1), (3, 0, 3)])
def test_held_triad_coins_give_the_cold_bits(times, start, steps):
    rng = np.random.default_rng(90 + times)
    triad = varying_triad(rng, times, 12, 10)
    for field in (random_state_2d(rng, 12, 10), SpinorField.delta((12, 10), (3, 4))):  # a delta keeps signed zeros
        for mass in (0.3, 0.0, -0.0):
            warm_equals_cold(field, triad, mass, start, steps)


def test_a_signed_zero_b_where_e1_is_negative_is_seen(triad_work):
    """atan2 sends b = +0.0 and -0.0 to angles pi apart where E1 < 0, so the two walks differ."""
    rng = np.random.default_rng(92)
    e1, e2, b = (rng.uniform(low, high, (1, 12, 10)) for low, high in ((0.5, 0.7), (0.5, 0.7), (-0.2, 0.2)))
    e1[0, 3, 4], b[0, 3, 4] = -0.6, 0.0
    triad, field = curved.Triad(e1, e2, b), random_state_2d(rng, 12, 10)
    plus = warm_equals_cold(field, triad)
    triad.b[0, 3, 4] = -0.0
    triad_work["builds"] = 0
    minus = evolve_1p2(field, triad, 0.3, 2, 0, 0.5)
    assert triad_work["builds"] == 5 and not np.array_equal(plus.amplitudes, minus.amplitudes)
    assert_same_bits(minus, warm_equals_cold(field, triad))


def test_a_content_equal_fresh_triad_reuses_the_coins(triad_work):
    rng = np.random.default_rng(94)
    triad, field = varying_triad(rng, 1, 12, 10), random_state_2d(rng, 12, 10)
    cold = warm_equals_cold(field, triad)
    triad_work.update(solves=0, builds=0)
    fresh = curved.Triad(*(np.copy(a) for a in (triad.e1, triad.e2, triad.b)))
    assert_same_bits(evolve_1p2(field, fresh, 0.3, 2, 0, 0.5), cold)
    assert triad_work == {"solves": 0, "builds": 0}


def test_alternating_triads_of_one_shape_each_give_their_own_walk():
    rng = np.random.default_rng(95)
    field, triads = random_state_2d(rng, 12, 10), [varying_triad(rng, times, 12, 10) for times in (1, 1, 3)]
    colds = [on_new_thread(evolve_1p2, field, triad, 0.3, 3, 0, 0.5) for triad in triads]
    for i in [0, 1, 0, 2, 1, 2, 2, 0]:
        assert_same_bits(evolve_1p2(field, triads[i], 0.3, 3, 0, 0.5), colds[i])


def test_a_batched_field_steps_each_member_as_alone_on_held_coins():
    rng = np.random.default_rng(96)
    triad = varying_triad(rng, 3, 12, 10)
    members = [random_state_2d(rng, 12, 10) for _ in range(3)]
    batch = SpinorField(np.stack([m.amplitudes for m in members]), batch=1)
    for start in (1, 0, 1):
        got = warm_equals_cold(batch, triad, start=start)
        for member, want in zip(members, got.amplitudes):
            assert_same_bits(evolve_1p2(member, triad, 0.3, 2, start, 0.5), SpinorField(want))


def test_two_threads_stepping_different_triads_hold_their_own_coins():
    rng = np.random.default_rng(97)
    field, triads = random_state_2d(rng, 24, 18), [varying_triad(rng, 1, 24, 18) for _ in range(2)]
    serial = [evolve_1p2(field, triad, 0.3, 2, 0, 0.5) for triad in triads]
    errors = []

    def work(i):
        try:
            for _ in range(40):
                assert_same_bits(evolve_1p2(field, triads[i], 0.3, 2, 0, 0.5), serial[i])
        except AssertionError as exc:
            errors.append(exc)

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
    assert not errors


def test_a_second_walk_on_a_static_triad_solves_and_fills_nothing(triad_work):
    rng = np.random.default_rng(98)
    triad, field = varying_triad(rng, 1, 16, 16), random_state_2d(rng, 16, 16)
    evolve_1p2(field, triad, 0.3, 32)
    triad_work.update(solves=0, builds=0)
    evolve_1p2(field, triad, 0.3, 32)
    curved_step_1p2(field, triad, 0.3, 5)
    assert triad_work == {"solves": 0, "builds": 0}


def test_default_gw_scan_solves_each_of_its_three_triads_once(triad_work):
    """The eight wavelengths of the scan share one triad; the stationarity and 2 xi walks bring one each."""
    on_new_thread(run, load_config("gw-scan"))
    assert triad_work["solves"] == 3


def test_a_new_shape_drops_the_held_coins():
    rng = np.random.default_rng(99)
    evolve_1p2(random_state_2d(rng, 16, 16), varying_triad(rng, 1, 16, 16), 0.3, 2)
    coin = lattice._step_scratch((16, 16), 2)[2]["cv"]
    held = [weakref.ref(coin), weakref.ref(memory_owner(coin))]  # the view and its three planes
    del coin
    electric_step_1d(SpinorField.delta(40), GaugeField1D.zero(1, 40), 0.5, 0)  # any walk on another shape
    assert [w() for w in held] == [None, None]


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


# a one-sample gauge or link field used to raise IndexError at j >= 1, where a one-sample profile or triad served
def test_a_static_profile_and_triad_serve_every_step():
    rng = np.random.default_rng(91)
    profile, triad = CurvedCoinProfile(np.full(8, 0.3)), varying_triad(rng, 1, 8, 6)
    gauge_1d, gauge_2d = GaugeField1D(*rng.normal(size=(2, 1, 8)), 0.5), random_gauge(rng, 1, 8, 6, 0.5)
    links = NonAbelianGaugeField(*(random_hermitian(rng, (1, 8, 2, 2)) for _ in range(2)), 0.5).links()
    line, plane = SpinorField(rng.normal(size=(8, 2)) + 0j), random_state_2d(rng, 8, 6)
    colour = SpinorField(rng.normal(size=(8, 4)) + 0j)
    for j in (0, 5, 500):
        assert np.array_equal(profile.at(j), profile.theta[0])
        assert_same_bits(curved_step_1p1(line, profile, j), curved_step_1p1(line, profile, 0))
        assert_same_bits(curved_step_1p2(plane, triad, 0.1, j), curved_step_1p2(plane, triad, 0.1, j % 2))
        assert_same_bits(evolve_1p2(plane, triad, 0.1, steps=2, start=j),
                         evolve_1p2(plane, triad, 0.1, steps=2, start=j % 2))
        assert_same_bits(electric_step_1d(line, gauge_1d, 0.7, j), electric_step_1d(line, gauge_1d, 0.7, 0))
        assert_same_bits(em_step_2d(plane, gauge_2d, 0.3, j), em_step_2d(plane, gauge_2d, 0.3, 0))
        current, first = lattice_current_2d(plane, gauge_2d, 0.3, j), lattice_current_2d(plane, gauge_2d, 0.3, 0)
        assert all(np.array_equal(getattr(current, name), getattr(first, name))
                   for name in ("j0", "j0_next", "j1", "j2", "residual"))
        assert_same_bits(nonabelian_step(colour, links, 0.4, j), nonabelian_step(colour, links, 0.4, 0))


def test_evolve_em_over_a_static_gauge_is_the_slice_zero_loop():
    rng = np.random.default_rng(92)
    gauge, field = random_gauge(rng, 1, 8, 6, 0.5), random_state_2d(rng, 8, 6)
    stepped = field
    for _ in range(7):
        stepped = em_step_2d(stepped, gauge, 0.3, 0)
    assert_same_bits(evolve_em(field, gauge, 0.3, 7), stepped)


# container -> (number of arrays, lattice extents, matrix axes) of the arrays drawn for it, each with 3 steps, and
# the shape its error message names, with any batch axes at {}
CONTRACTS = {GaugeField1D: (2, (5,), (), "a0, a1 must each have shape (steps, {}sites)"),
             GaugeField2D: (3, (2, 5), (), "a0, a1, a2 must each have shape (steps, {}n1, n2)"),
             LinkField: (2, (5,), (2, 2), "u_plus, u_minus must each have shape (steps, {}sites, N, N)"),
             NonAbelianGaugeField: (2, (5,), (2, 2), "b0, b1 must each have shape (steps, {}sites, N, N)")}


# the four containers used to state this contract in four hand-written checks; with batch = 1 a batch axis of 4
# follows the steps
@pytest.mark.parametrize("container", list(CONTRACTS))
def test_gauge_containers_share_one_contract(container):
    rng = np.random.default_rng(93)
    count, extents, matrix, message = CONTRACTS[container]
    for batch in (0, 1):
        lead, named = (3,) + (4,) * batch, message.format("batch, " * batch)
        arrays = [random_hermitian(rng, lead + extents + matrix) if matrix else rng.normal(size=lead + extents)
                  for _ in range(count)]
        if container is LinkField:  # links must be unitary
            arrays = [nonabelian.expi_hermitian(a) for a in arrays]
        gauge = container(*(a.tolist() for a in arrays), 0.5, batch=batch)  # lists, coerced to the container's dtype
        assert (gauge.steps, gauge.batch_shape, gauge.extents) == (3, (4,) * batch, extents)
        assert all(a.dtype == (complex if matrix else float) for a in vars(gauge).values()
                   if isinstance(a, np.ndarray))
        for bad in ([a[:2] if i == 1 else a for i, a in enumerate(arrays)],  # mismatched shapes
                    [a[None] for a in arrays], [a[0] for a in arrays]):  # one rank too many, one too few
            with pytest.raises(ValueError, match=re.escape(named)):
                container(*bad, 0.5, batch=batch)
        for epsilon in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                container(*arrays, epsilon, batch=batch)


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


# each stepper is one `_run_layers` call, so a counter there sees every step of every family once
def test_each_stepper_makes_one_run_layers_call(monkeypatch):
    rng = np.random.default_rng(86)
    calls = []
    counted = lambda *args, _run=lattice._run_layers: calls.append(1) or _run(*args)
    for module in (lattice, abelian, curved, nonabelian):
        monkeypatch.setattr(module, "_run_layers", counted, raising=False)
    line, plane, colour = random_field(rng, (8,), 2), random_field(rng, (8, 6), 2), random_field(rng, (8,), 4)
    links = NonAbelianGaugeField(*(random_hermitian(rng, (3, 8, 2, 2)) for _ in range(2)), 0.5).links()
    for stepper in (lambda: lattice.step(line, standard_coin(0.3)),
                    lambda: electric_step_1d(line, GaugeField1D(*rng.normal(size=(2, 3, 8)), 0.5), 0.7, 1),
                    lambda: em_step_2d(plane, random_gauge(rng, 3, 8, 6, 0.5), 0.3, 1),
                    lambda: curved_step_1p1(line, CurvedCoinProfile(np.full((3, 8), 0.3)), 1),
                    lambda: curved_step_1p2(plane, varying_triad(rng, 3, 8, 6), 0.1, 1),
                    lambda: nonabelian_step(colour, links, 0.4, 1)):
        calls.clear()
        stepper()
        assert len(calls) == 1


# links and the C (x) 1_N mass coin read the input only, as shifts and coins do, also as a list's first layer
@pytest.mark.parametrize("n", [1, 2, 3])
def test_colour_layers_first_never_write_their_input(n):
    rng = np.random.default_rng(87 + n)
    field = random_field(rng, (9,), 2 * n)
    before = field.amplitudes.copy()
    up, um = (np.linalg.qr(rng.normal(size=(9, n, n)) + 1j * rng.normal(size=(9, n, n)))[0] for _ in range(2))
    coin = standard_coin(0.3)
    blocks = field.amplitudes.reshape(9, 2, n)  # (site, spin, colour)
    links = np.stack((np.einsum("pab,pb->pa", up, blocks[:, 0]), np.einsum("pab,pb->pa", um, blocks[:, 1])), 1)
    mixed = np.einsum("st,pta->psa", coin, blocks)
    got_links = lattice._run_layers(field, [("links", up, um)])
    got_coin = lattice._run_layers(field, [("mass", coin[0, 0], coin[0, 1])])
    assert np.array_equal(field.amplitudes, before)
    assert np.max(np.abs(got_links.amplitudes - links.reshape(9, 2 * n))) <= 1e-15
    assert np.max(np.abs(got_coin.amplitudes - mixed.reshape(9, 2 * n))) <= 1e-15


# a coin layer keeps apply_coin's (d, d) contract: a 2x2 coin on a colour field raises, it is not read as C (x) 1_N
def test_a_coin_layer_refuses_a_2x2_coin_on_a_colour_field():
    field = random_field(np.random.default_rng(88), (9,), 4)
    for coin in (standard_coin(0.3), lattice.HADAMARD_ANGLES.matrix()):
        with pytest.raises(ValueError, match=r"coin of shape \(2, 2\) does not act on 4 internal components"):
            lattice._run_layers(field, [("shift", 0), ("coin", coin)])


# lru_cache keys -0.0 and 0.0 alike; the fixed coin must still give each signed zero its own bits, in either order
def test_fixed_coin_keeps_the_sign_of_a_zero_angle():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        lattice._signed_coin.cache_clear()
        got = [lattice._fixed_coin(first), lattice._fixed_coin(second)]
        assert all(g.tobytes() == standard_coin(t).tobytes() for g, t in zip(got, (first, second)))
        assert got[0].tobytes() != got[1].tobytes() and not got[0].flags.writeable


# the links layer calls numpy's private einsum kernel (`c_einsum`, when numpy has it) to skip np.einsum's Python
# dispatch; it must write np.einsum's bits through out=, with batch axes and from strided operands, or a numpy
# release that changed the private name's behaviour would change every colour step
@pytest.mark.parametrize("lead", [(), (3,)])
def test_the_links_kernel_writes_the_bits_of_np_einsum(lead):
    rng = np.random.default_rng(89)
    u = rng.normal(size=lead + (17, 3, 3)) + 1j * rng.normal(size=lead + (17, 3, 3))
    block = (rng.normal(size=(6,) + lead + (17,)) + 1j * rng.normal(size=(6,) + lead + (17,)))[::2]
    for operand in (u, np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1))).transpose(
            tuple(range(2, u.ndim)) + (0, 1))):
        got, want = np.empty((3,) + lead + (17,), complex), np.empty((3,) + lead + (17,), complex)
        assert lattice._einsum("...pab,b...p->a...p", operand, block, out=got) is got
        np.einsum("...pab,b...p->a...p", operand, block, out=want)
        assert got.tobytes() == want.tobytes()


# dirac_evolve's substeps take the same kernel, each writing one of two buffers; a time-dependent drive makes many,
# here 300 in blocks of an odd 65 propagators at 1000 sites, so the buffers alternate across blocks too
def test_the_dirac_substep_kernel_writes_the_bits_of_np_einsum(monkeypatch):
    rng = np.random.default_rng(91)
    u = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
    amps = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
    got = np.empty_like(amps)
    assert lattice._einsum("kab,kb->ka", u, amps, out=got) is got
    assert got.tobytes() == np.einsum("kab,kb->ka", u, amps).tobytes()
    start = SpinorField(amps)
    want = ref.dirac_evolve_einsum(start, 0.25, 0.7, 0.3, a0=np.sin, a1=np.cos, substep=0.001)
    monkeypatch.setattr(np, "einsum", None)
    assert dirac_evolve(start, 0.25, 0.7, 0.3, a0=np.sin, a1=np.cos, substep=0.001).amplitudes.tobytes() == \
        want.amplitudes.tobytes()


# ---------------------------------------------------------------------------
# U(N) colour walk and the sampled measured walk

TOL_1D = 1e-15


def random_hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def with_link_layout(links, link_layout):
    """The same links, C-contiguous or colour-planar (each entry one contiguous (steps, sites) plane)."""
    if link_layout == "c-contiguous":
        return LinkField(np.ascontiguousarray(links.u_plus), np.ascontiguousarray(links.u_minus), links.epsilon,
                         batch=links.batch)
    planar = [np.moveaxis(np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1))), (0, 1), (-2, -1))
              for u in (links.u_plus, links.u_minus)]
    return LinkField(*planar, links.epsilon, batch=links.batch)


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


def signed_zero_amplitudes(rng, shape):
    """Random amplitudes with rows of +0.0 and of -0.0 (real, imaginary or both) among them."""
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[..., ::4, :] = 0.0
    amps.real[..., 1::4, :] = -0.0
    amps[..., 2::4, :] = complex(-0.0, -0.0)
    return amps


def member_links(links, b):
    return LinkField(links.u_plus[:, b], links.u_minus[:, b], links.epsilon)


# the step now runs as `_run_layers` layers; it must keep the bits of the inline step it replaced, signed zeros
# included: alone, from either field layout, and for each member of a batch on batched links or on links that serve
# every member, with one mass or a mass per member
@pytest.mark.parametrize("link_layout", ["c-contiguous", "planar"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonabelian_step_keeps_the_bits_of_the_inline_step(n, link_layout, monkeypatch):
    run_layers, mass_layers = nonabelian._run_layers, []
    monkeypatch.setattr(nonabelian, "_run_layers", lambda f, ls: mass_layers.append(ls[-1]) or run_layers(f, ls))
    rng = np.random.default_rng(100 + n)
    members, sites, slices, masses = 3, 10, 5, np.array([0.7, 0.0, -1.3])
    draw = lambda lead: [random_hermitian(rng, (slices,) + lead + (sites, n, n)) for _ in range(2)]
    shared = with_link_layout(NonAbelianGaugeField(*draw(()), 0.5).links(), link_layout)
    batched = with_link_layout(NonAbelianGaugeField(*draw((members,)), 0.5, batch=1).links(), link_layout)
    amps = signed_zero_amplitudes(rng, (members, sites, 2 * n))
    point = SpinorField.delta(sites, site=3, spin=np.arange(1.0, 2 * n + 1))
    for mass in (0.7, 0.0, -0.0, -1.3):
        for start in (SpinorField(amps[0]), SpinorField(np.ascontiguousarray(amps[0].T).T), point):
            got = want = start
            for j in range(5):
                got, want = nonabelian_step(got, shared, mass, j), ref.nonabelian_step_inline(want, shared, mass, j)
                assert same_bytes(got, want)
        # the output's zeros are +0 whatever the sign of the coin's zero i sin at mass +-0, so the layer is checked too
        assert mass_layers[-1][2].tobytes() == standard_coin(-shared.epsilon * mass)[0, 1].tobytes()
    for links, alone in ((shared, lambda b: shared), (batched, lambda b: member_links(batched, b))):
        for mass in (masses, -0.0, 0.4):
            got, want = SpinorField(amps, batch=1), [SpinorField(a) for a in amps]
            for j in range(5):
                got = nonabelian_step(got, links, mass, j)
                want = [ref.nonabelian_step_inline(w, alone(b), masses[b] if np.ndim(mass) else mass, j)
                        for b, w in enumerate(want)]
                assert all(same_bytes(SpinorField(got.amplitudes[b]), w) for b, w in enumerate(want))


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


# ---------------------------------------------------------------------------
# Landau fiber


@pytest.mark.parametrize("sites", [2, 3, 64])
@pytest.mark.parametrize("k2", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("b", [0.0, 0.02, 0.3])
def test_landau_fiber_operator_is_the_real_part_of_the_kron_product(b, k2, sites):
    w = ref.landau_fiber_operator(b, 1 / 8, sites, k2)
    kron = ref.landau_fiber_operator_kron(b, 1 / 8, sites, k2).toarray()
    assert w.dtype == np.float64
    dense = w.toarray()
    assert np.max(np.abs(dense - kron.real)) <= 2e-16
    assert np.max(np.abs(kron.imag)) <= 2**-53  # the product's imaginary part is rounding of the unit entries
    assert np.max(np.abs(dense.T @ dense - np.eye(2 * sites))) <= 1e-15


# (W + W^T)/2 of the full real fiber, reordered to (even site, odd site), is [[0, B], [B^T, 0]], bit for bit
@pytest.mark.parametrize("sites", [2, 4, 64])
@pytest.mark.parametrize("k2", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("b", [0.0, 0.02, 0.3])
def test_landau_half_fiber_is_the_off_diagonal_block_of_the_real_fiber(b, k2, sites):
    w = ref.landau_fiber_operator(b, 1 / 8, sites, k2)
    full = ((w + w.T) * 0.5).toarray()
    index = np.arange(2 * sites).reshape(-1, 2, 2)  # (site pair, parity, spin)
    order = np.concatenate([index[:, 0].ravel(), index[:, 1].ravel()])
    full = full[np.ix_(order, order)]
    half = _landau_half_fiber(b, 1 / 8, sites, k2)
    assert half.dtype == np.float64 and half.shape == (sites, sites)
    assert np.array_equal(full[:sites, sites:], half.toarray())
    assert np.array_equal(full[sites:, :sites], half.toarray().T)
    assert not full[:sites, :sites].any() and not full[sites:, sites:].any()


# E is conditioned as 1/(E eps)^2: a move of u ulps of c = cos(E eps) moves E by u * 2^-53 / ((E eps) sin(E eps))
# relative, about u * 1.1e-16 / (E eps)^2. From call to call (ARPACK's start vector changes) the full solve itself
# moves by up to 1 ulp of c at b > 0 and by up to 7 at b = 0, where every level is 4-fold degenerate; the half-fiber
# solve moves as much, so the two stay within 2 ulps at b > 0 and 16 at b = 0
@pytest.mark.parametrize("b, epsilon, levels, sites, k2", [
    (0.0, 1 / 16, 1, 256, 0.0), (0.0, 1 / 24, 1, 256, 0.3), (0.0, 1 / 8, 3, 512, 0.3),
    (0.005, 1 / 16, 1, None, 0.0), (0.02, 1 / 8, 2, None, 0.0), (0.02, 1 / 12, 3, None, -0.013),
    (0.02, 1 / 32, 1, None, 2.3e-5), (0.05, 1 / 32, 3, None, 5.9e-5), (0.1, 1 / 16, 2, None, 0.02),
    (0.3, 1 / 24, 3, None, 0.0), (0.3, 1 / 32, 1, None, -0.015), (0.3, 1 / 8, 3, 258, 0.0056),
])
def test_landau_quasienergies_match_the_full_real_solve(b, epsilon, levels, sites, k2):
    sites = sites or landau_box_size(b, epsilon, levels)
    assert sites <= 2048
    want = ref.landau_quasienergies_real(b, epsilon, levels, sites, k2)
    got = landau_quasienergies(b, epsilon, levels, sites, k2)
    x = got * epsilon
    ulps = np.abs(got - want) / want * (x * np.sin(x)) / 2**-53
    assert np.all(ulps <= (2 if b > 0 else 16))


# energies come from acos of a cosine eigenvalue, so one ulp of it moves E by about 1e-16 / (E eps)^2 relative;
# k2 moves the orbit centres by k2 / (b eps^2) sites, so at b > 0 it stays small enough to keep them in the bulk
@pytest.mark.parametrize("b, epsilon, levels, sites, k2", [
    (0.0, 1 / 16, 1, 256, 0.0), (0.0, 1 / 32, 1, 512, 0.4),
    (0.02, 1 / 8, 2, None, 0.0), (0.02, 1 / 12, 3, None, -0.013),
    (0.1, 1 / 16, 2, None, 0.02), (0.3, 1 / 24, 3, None, 0.0), (0.3, 1 / 32, 1, None, -0.015),
])
def test_landau_quasienergies_match_the_complex_solve(b, epsilon, levels, sites, k2):
    sites = sites or landau_box_size(b, epsilon, levels)
    assert sites <= 2048
    want = ref.landau_quasienergies_kron(b, epsilon, levels, sites, k2)
    np.testing.assert_allclose(landau_quasienergies(b, epsilon, levels, sites, k2), want, rtol=5e-12, atol=0)


# ARPACK's own start vector depends on the eigsh calls made before in the process: at b = 0 (4-fold degenerate
# levels) repeated calls moved E by up to 7 ulps of c = cos(E eps)
@pytest.mark.parametrize("b, epsilon, levels, sites, k2", [(0.0, 1 / 32, 1, 512, 0.4), (0.02, 1 / 16, 2, None, 0.0)])
def test_landau_quasienergies_repeat_bit_for_bit(b, epsilon, levels, sites, k2):
    first = landau_quasienergies(b, epsilon, levels, sites, k2)
    assert all(np.array_equal(landau_quasienergies(b, epsilon, levels, sites, k2), first) for _ in range(20))


def _golden_landau_solves():
    """Field and (epsilon, levels, sites) of each solve of the landau golden run (the overrides of test_golden's
    REDUCED): the level solve, then the sweep at one box."""
    cfg = load_config("landau", overrides=("epsilon=1/24", "levels=2"))
    box = landau_box_size(cfg.magnetic, min(cfg.epsilons), 1)
    level = (cfg.epsilon, cfg.levels, landau_box_size(cfg.magnetic, cfg.epsilon, cfg.levels))
    return cfg.magnetic, [level] + [(e, 1, box) for e in cfg.epsilons]


@pytest.mark.parametrize("solve", range(4))
def test_landau_quasienergies_equal_the_complex_solve_at_the_golden_settings(solve):
    b, solves = _golden_landau_solves()
    epsilon, levels, sites = solves[solve]
    assert sites == 4096 or solve == 0
    want = ref.landau_quasienergies_kron(b, epsilon, levels, sites)
    assert np.array_equal(landau_quasienergies(b, epsilon, levels, sites), want)


# ---------------------------------------------------------------------------
# positive band in closed form


def _projectors(v):
    return v[..., :, None] * v[..., None, :].conj()


def test_positive_band_matches_eig_on_haar_random_unitaries():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (d / np.abs(d))[..., None, :]
    got = np.stack(_positive_band(haar), axis=-1)
    assert np.max(np.abs(np.linalg.norm(got, axis=-1) - 1)) <= 1e-15
    assert np.max(np.abs(_projectors(got) - _projectors(ref.positive_band_eig(haar)))) <= 1e-14


_TOUCHING = {(0, 0): (0, 1), (0, 48): (1, 0), (16, 0): (1, 0), (16, 48): (0, 1)}  # mode: tie-rule vector


@pytest.mark.parametrize("delta_theta", [0.0, 0.3, -1.1])
def test_positive_band_of_the_free_symbol_matches_eig(delta_theta):
    n1, n2 = 32, 96
    k1 = 2 * math.pi * np.fft.fftfreq(n1)[:, None] * np.ones((1, n2))
    k2 = 2 * math.pi * np.fft.fftfreq(n2)[None, :] * np.ones((n1, 1))
    symbol = em_symbol_2d(k1, k2, delta_theta)
    got, want = np.stack(_positive_band(symbol), axis=-1), ref.positive_band_eig(symbol)
    gap = np.max(np.abs(_projectors(got) - _projectors(want)), axis=(-2, -1))
    if delta_theta == 0.0:
        for mode, vector in _TOUCHING.items():
            assert np.array_equal(got[mode], np.array(vector, dtype=complex))  # the tie rule
            if mode != (16, 48):  # eig resolves a 1e-17 rounding residue at (pi, pi)
                assert gap[mode] <= 1e-15
            gap[mode] = 0.0
    assert np.max(gap) <= 5e-14


# the tables that read the packet and the trace move by rounding only: <= 1e-14 relative per cell
def _assert_within_rounding(got, want):
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("overrides", [(), ("magnetic=0.0490873852", "extents=64,192", "steps=120")])
def test_exb_trace_matches_the_eig_and_density_reference(overrides):
    cfg = load_config("exb", overrides=overrides)
    args = (cfg.electric, cfg.magnetic, cfg.extents[:2], cfg.steps)
    _assert_within_rounding(exb_positions(*args), ref.exb_positions(*args))


@pytest.mark.parametrize("overrides", [(), ("mass=0.5",), ("mass=3",), ("magnetic=0.05",)])
def test_evolve2d_table_matches_the_eig_and_density_reference(overrides):
    cfg = load_config("evolve2d", overrides=overrides)
    n1, n2 = cfg.extents
    delta_theta = -cfg.epsilon * cfg.mass
    field = ref.positive_band_packet_2d((n1, n2), (0.0, cfg.momentum), delta_theta=delta_theta)
    gauge = landau_gauge(cfg.magnetic, 1, n1, n2, cfg.epsilon)
    rows = []
    for j in range(cfg.steps):
        field = em_step_2d(field, gauge, delta_theta, j)
        rows.append((j + 1, field.norm_sq(), *circular_mean_positions(field.probability())))
    _assert_within_rounding(np.array(run(cfg).rows), np.array(rows))


# ---------------------------------------------------------------------------
# prepared evolutions: evolve_electric and evolve_em prepare their background once per call and still step
# through the public steppers, whose direct calls are the reference


def stepper_loop(step, field, gauge, arg, steps, start=0):
    """The fields after each of steps start, ..., start + steps - 1 of direct stepper calls."""
    fields = []
    for j in range(start, start + steps):
        fields.append(field := step(field, gauge, arg, j))
    return fields


def record_prepared(monkeypatch, module, name) -> list:
    """Wrap the stepper module.name so that each call appends the `_prepared` it was passed; return that list."""
    got, step = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: got.append(kwargs.get("_prepared")) or step(*args, **kwargs))
    return got


def electric_case(rng, samples, sites, batch=0):
    shape = (samples,) + (3,) * batch + (sites,)
    gauge = GaugeField1D(rng.normal(size=shape), rng.normal(size=shape), 0.5, batch=batch)
    amps = rng.normal(size=shape[1:] + (2,)) + 1j * rng.normal(size=shape[1:] + (2,))
    return SpinorField(amps, batch), gauge


def em_case(rng, samples, batch=0):
    shape = (samples,) + (3,) * batch + (12, 10)
    gauge = GaugeField2D(*(rng.normal(size=shape) for _ in range(3)), 0.5, batch=batch)
    amps = rng.normal(size=shape[1:] + (2,)) + 1j * rng.normal(size=shape[1:] + (2,))
    return SpinorField(amps, batch), gauge


# (time samples, batch axes, steps, start); in blocks of 3 samples the odd starts 1 and 5 lie inside a block, 7 steps
# take three blocks, and 8 stored samples cut the last block to two
PREPARED = {"batch": (9, 1, 7, 1), "one-sample": (1, 0, 7, 3), "odd-start": (8, 0, 7, 1), "no-steps": (9, 0, 0, 2),
            "one-step": (9, 0, 1, 5), "one-block": (9, 0, 3, 3)}


@pytest.mark.parametrize("samples, batch, steps, start", PREPARED.values(), ids=PREPARED.keys())
@pytest.mark.parametrize("mass", [0.7, 0.0])
def test_evolve_electric_equals_the_stepper_loop_bit_for_bit(samples, batch, steps, start, mass, monkeypatch):
    monkeypatch.setattr(abelian, "_PHASE_BLOCK", 3 * 3**batch * 8)  # three steps a block
    field, gauge = electric_case(np.random.default_rng(100 + samples), samples, 8, batch)
    want = stepper_loop(electric_step_1d, field, gauge, mass, steps, start)
    seen = []
    got = evolve_electric(field, gauge, mass, steps, start, probe=lambda j, f: seen.append((j, f)))
    assert_same_bits(got, want[-1] if want else field)
    assert [j for j, _ in seen] == list(range(start, start + steps))
    for (_, f), w in zip(seen, want, strict=True):
        assert_same_bits(f, w)


def test_evolve_electric_at_the_default_block_fills_more_than_one_block():
    field, gauge = electric_case(np.random.default_rng(101), 40, 1000)  # 16 steps a block
    want = stepper_loop(electric_step_1d, field, gauge, 0.3, 37, 2)[-1]
    assert_same_bits(evolve_electric(field, gauge, 0.3, 37, 2), want)


@pytest.mark.parametrize("samples, batch, steps, start", PREPARED.values(), ids=PREPARED.keys())
def test_evolve_em_equals_the_stepper_loop_bit_for_bit(samples, batch, steps, start):
    field, gauge = em_case(np.random.default_rng(110 + samples), samples, batch)
    want = stepper_loop(em_step_2d, field, gauge, 0.3, steps, start)
    seen = []
    got = evolve_em(field, gauge, 0.3, steps, start, probe=lambda j, f: seen.append((j, f)))
    assert_same_bits(got, want[-1] if want else field)
    assert [j for j, _ in seen] == list(range(start, start + steps))
    for (_, f), w in zip(seen, want, strict=True):
        assert_same_bits(f, w)


@pytest.mark.parametrize("component", ["a0", "a1", "a2"])
def test_an_edit_between_two_evolve_em_calls_is_seen(component):
    field, gauge = em_case(np.random.default_rng(120), 1)
    evolve_em(field, gauge, 0.3, 4)
    getattr(gauge, component)[0, 5, 4] += 0.25
    fresh = GaugeField2D(gauge.a0.copy(), gauge.a1.copy(), gauge.a2.copy(), gauge.epsilon)
    assert_same_bits(evolve_em(field, gauge, 0.3, 4), stepper_loop(em_step_2d, field, fresh, 0.3, 4)[-1])


def test_a_one_sample_gauge_compares_one_slice_per_evolve_em_call(monkeypatch):
    field, gauge = em_case(np.random.default_rng(121), 1)
    evolve_em(field, gauge, 0.3, 2)  # the gauge now holds the layers of its slice
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda a, b, _equal=np.array_equal: compared.append(1) or _equal(a, b))
    for steps in (1, 10, 50):
        compared.clear()
        evolve_em(field, gauge, 0.3, steps)
        assert len(compared) == 3  # a0, a1 and a2 of the one slice
    compared.clear()
    stepper_loop(em_step_2d, field, gauge, 0.3, 10)
    assert len(compared) == 3 * 10  # a direct call still compares on every step


# the loop passes its steps one layer list of the one sample; the probe's own em_step_2d call gets none and its
# other angle does not reach the loop's steps
def test_a_probe_may_step_the_gauge_with_other_arguments_and_its_call_gets_nothing_prepared(monkeypatch):
    field, gauge = em_case(np.random.default_rng(122), 1)
    side, prepared = [], record_prepared(monkeypatch, abelian, "em_step_2d")
    got = evolve_em(field, gauge, 0.3, 3, probe=lambda j, f: side.append(abelian.em_step_2d(f, gauge, -0.9, j)))
    assert prepared[1::2] == [None] * 3 and all(p is prepared[0] for p in prepared[0::2])
    want = stepper_loop(em_step_2d, field, gauge, 0.3, 3)
    assert_same_bits(got, want[-1])
    for f, w in zip(side, want, strict=True):
        assert_same_bits(f, em_step_2d(w, gauge, -0.9, 0))


def test_a_failed_step_raises_its_own_error():
    rng = np.random.default_rng(124)
    field, gauge = electric_case(rng, 4, 8)
    with pytest.raises(IndexError, match="step 4 outside the 4 stored gauge"):
        evolve_electric(field, gauge, 0.7, 6)
    with pytest.raises(ValueError, match="extents"):
        evolve_em(SpinorField(np.ones((4, 4, 2), complex)), em_case(np.random.default_rng(125), 1)[1], 0.3, 2)
    with pytest.raises(IndexError, match="step 4 outside the 4 stored profile"):
        evolve_1p1(field, CurvedCoinProfile(np.full((4, 8), 0.3)), 6)
    links = NonAbelianGaugeField(*(random_hermitian(rng, (4, 8, 2, 2)) for _ in range(2)), 0.5).links()
    with pytest.raises(IndexError, match="step 4 outside the 4 stored link"):
        evolve_nonabelian(random_field(rng, (8,), 4), links, 0.4, 6)


def evolve_cases(rng) -> dict:
    """Per evolve loop: (evolve(field, steps, start, probe), step(field, j), field), on 9 time samples."""
    (line, gauge), (plane, gauge_2d) = electric_case(rng, 9, 8), em_case(rng, 9)
    profile = CurvedCoinProfile(rng.uniform(0.0, 1.5, size=(9, 8)))
    links = NonAbelianGaugeField(*(random_hermitian(rng, (9, 8, 2, 2)) for _ in range(2)), 0.5).links()
    return {"electric": (lambda f, n, s, p: evolve_electric(f, gauge, 0.7, n, s, probe=p),
                         lambda f, j: electric_step_1d(f, gauge, 0.7, j), line),
            "em": (lambda f, n, s, p: evolve_em(f, gauge_2d, 0.3, n, s, probe=p),
                   lambda f, j: em_step_2d(f, gauge_2d, 0.3, j), plane),
            "1p1": (lambda f, n, s, p: evolve_1p1(f, profile, n, s, probe=p),
                    lambda f, j: curved_step_1p1(f, profile, j), line),
            "nonabelian": (lambda f, n, s, p: evolve_nonabelian(f, links, 0.4, n, s),
                           lambda f, j: nonabelian_step(f, links, 0.4, j), random_field(rng, (8,), 4))}


# every loop that takes a probe calls it after each step, in order, with the stepper's field
@pytest.mark.parametrize("family", ["electric", "em", "1p1"])
def test_a_probe_sees_every_step_in_order_with_the_stepper_bits(family):
    evolve, step, field = evolve_cases(np.random.default_rng(127))[family]
    seen = []
    got = evolve(field, 7, 1, lambda j, f: seen.append((j, f)))
    want = []
    for j in range(1, 8):
        want.append(field := step(field, j))
    assert [j for j, _ in seen] == list(range(1, 8))
    for (_, f), w in zip(seen, want, strict=True):
        assert_same_bits(f, w)
    assert_same_bits(got, want[-1])


# perfbench's tracer counts site-steps at the public steppers' module names, so every loop must step through them
STEPPERS = {"electric": (abelian, "electric_step_1d"), "em": (abelian, "em_step_2d"),
            "1p1": (curved, "curved_step_1p1"), "nonabelian": (nonabelian, "nonabelian_step")}


@pytest.mark.parametrize("family", STEPPERS)
def test_each_evolve_loop_calls_its_public_stepper_once_a_step(family, monkeypatch):
    evolve, _, field = evolve_cases(np.random.default_rng(128))[family]
    (module, name), calls = STEPPERS[family], []
    step = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or step(*args, **kwargs))
    for steps in (0, 1, 7):
        calls.clear()
        evolve(field, steps, 1, None)
        assert len(calls) == steps


def test_a_default_curved_schwarzschild_run_makes_200_curved_step_1p1_calls(monkeypatch):
    calls, step = [], curved.curved_step_1p1
    monkeypatch.setattr(curved, "curved_step_1p1", lambda *args: calls.append(1) or step(*args))
    run(load_config("curved-schwarzschild"))
    assert len(calls) == 200


# the last two share a gauge at two angles, so a step served another thread's layers would show
def test_threads_that_evolve_different_gauges_get_their_own_results():
    rng = np.random.default_rng(126)
    cases = [(evolve_electric, electric_step_1d, *electric_case(rng, 1, 64), 0.7),
             (evolve_electric, electric_step_1d, *electric_case(rng, 200, 64), 0.2),
             (evolve_em, em_step_2d, *em_case(rng, 200), -0.4), (evolve_em, em_step_2d, *em_case(rng, 1), 0.3)]
    cases.append(cases[-1][:-1] + (-0.8,))
    serial = [stepper_loop(step, field, gauge, arg, 200)[-1] for _, step, field, gauge, arg in cases]
    results = [None] * len(cases)
    barrier = threading.Barrier(len(cases))

    def work(i):
        evolve, _, field, gauge, arg = cases[i]
        barrier.wait()
        results[i] = evolve(field, gauge, arg, 200)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert_same_bits(got, want)


def test_a_long_evolve_electric_holds_one_block_of_tables():
    steps, sites = 10_000, 1024
    ramp = np.broadcast_to(-0.01 * np.arange(steps)[:, None], (steps, sites))  # no memory of its own
    gauge = GaugeField1D(np.broadcast_to(0.1, (steps, sites)), ramp, 0.5)
    field = SpinorField.gaussian(sites)
    block = 2 * 16 * abelian._PHASE_BLOCK  # the up and down tables of one block
    tracemalloc.start()
    try:
        evolve_electric(field, gauge, 0.3, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block + 4 * 2**20


# ---------------------------------------------------------------------------
# the 1D steps' fills with out= keep the bits of the forms that made a temporary of every operation


def test_reflection_coin_fill_has_the_bits_of_its_temporaries_form():
    rng = np.random.default_rng(130)
    angles = np.array([0.0, -0.0, 0.3, -0.3, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 5e-324, -5e-324, 1e300])
    for theta in (*angles, angles, angles[:, None] + rng.normal(size=(11, 3)), rng.uniform(-4.0, 4.0, 64),
                  np.zeros((2, 0))):
        got, want = curved.reflection_coin(theta), ref.reflection_coin_temporaries(theta)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [0, 1])
def test_electric_phase_fill_has_the_bits_of_its_temporaries_form(batch):
    rng = np.random.default_rng(131)
    shape = (5,) + (3,) * batch + (40,)
    a0, a1 = rng.normal(size=shape), rng.normal(size=shape)
    a0[..., ::3], a1[..., ::2], a1[..., 1::4], a0[..., 1::5] = -0.0, 0.0, -0.0, 0.0
    for eps in (0.5, 1e-300, 3.0):
        gauge = GaugeField1D(a0, a1, eps, batch=batch)
        for j in (0, 4, slice(0, 3), slice(2, None)):
            for got, want in zip(abelian._electric_phases(gauge, j), ref.electric_phases_temporaries(gauge, j)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the em layer cache notes an all-zero slice as zero, and still sees an edit into it


@pytest.mark.parametrize("component", ["a0", "a1", "a2"])
def test_a_write_into_a_formerly_zero_slice_between_two_em_steps_is_seen(component):
    rng = np.random.default_rng(132)
    field = random_state_2d(rng, 12, 10)
    gauge = landau_gauge(0.05, 2, 12, 10, 0.5)  # a0 and a1 are zero; zero a2 in slice 1 too
    gauge.a2[1] = 0.0
    for j in (0, 1):
        em_step_2d(field, gauge, 0.2, j)
        getattr(gauge, component)[j, 3, 4] = 0.25
        fresh = GaugeField2D(gauge.a0.copy(), gauge.a1.copy(), gauge.a2.copy(), gauge.epsilon)
        assert same_bytes(em_step_2d(field, gauge, 0.2, j), em_step_2d(field, fresh, 0.2, j))
        getattr(gauge, component)[j] = 0.0  # and back to zero
        fresh = GaugeField2D(gauge.a0.copy(), gauge.a1.copy(), gauge.a2.copy(), gauge.epsilon)
        assert same_bytes(em_step_2d(field, gauge, 0.2, j), em_step_2d(field, fresh, 0.2, j))


def test_the_em_cache_compares_only_its_non_zero_slices(monkeypatch):
    rng = np.random.default_rng(133)
    field, gauge = random_state_2d(rng, 12, 10), landau_gauge(0.05, 1, 12, 10, 0.5)
    em_step_2d(field, gauge, 0.2, 0)
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda a, b, _equal=np.array_equal: compared.append(1) or _equal(a, b))
    em_step_2d(field, gauge, 0.2, 0)
    assert len(compared) == 1  # a2; the zero a0 and a1 are read with .any()


# ---------------------------------------------------------------------------
# current-check steps its 2D walk once per step


def test_the_2d_current_holds_the_em_step_bits():
    rng = np.random.default_rng(134)
    field, gauge = random_state_2d(rng, 12, 10), random_gauge(rng, 2, 12, 10, 0.5)
    for j in (0, 1):
        assert same_bytes(lattice_current_2d(field, gauge, 0.3, j).stepped, em_step_2d(field, gauge, 0.3, j))


def test_a_default_current_check_makes_24_run_layers_calls(monkeypatch):
    calls = []
    counted = lambda *args, _run=lattice._run_layers: calls.append(1) or _run(*args)
    for module in (lattice, abelian):
        monkeypatch.setattr(module, "_run_layers", counted)
    run(load_config("current-check"))
    assert len(calls) == 24  # 8 electric steps, and 8 em steps as the two halves of each 2D current

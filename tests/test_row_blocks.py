"""A 2-component 2D field without batch axes whose plane holds more than lattice._ROWS_ABOVE sites runs its layers in
blocks of whole rows (lattice._run_rows). Every blocked result must have the bits of the whole-plane path. The tests
force small blocks on small planes by patching the two size constants, and count the public kernels to tell the two
paths apart: the blocked one calls `shift` only for an axis-0 shift of an intermediate field, and never `apply_coin`.
"""

import math

import numpy as np
import pytest

from qwalk import lattice
from qwalk.abelian import GaugeField2D, em_step_2d, evolve_em, landau_gauge
from qwalk.curved import MetricField2D, evolve_1p2, triad_from_metric
from qwalk.lattice import SpinorField, standard_coin

WHOLE = 1 << 62  # a _ROWS_ABOVE that no plane exceeds
HEIGHTS = (1, 4, 7, 60, 61, 100)  # rows per block; on 61 rows, 4, 7 and 60 leave a short last block


def random_field(rng, n1, n2, planar=False):
    amps = rng.normal(size=(n1, n2, 2)) + 1j * rng.normal(size=(n1, n2, 2))
    return SpinorField(np.ascontiguousarray(amps.transpose(2, 0, 1)).transpose(1, 2, 0) if planar else amps)


def varying_triad(rng, times, n1, n2):
    gxx = -(1.4 + 0.3 * rng.random((times, n1, n2)))
    gyy = -(1.5 + 0.3 * rng.random((times, n1, n2)))
    gxy = 0.2 * (2.0 * rng.random((times, n1, n2)) - 1.0)
    return triad_from_metric(MetricField2D(gxx, gyy, gxy))


def same_bits(a: SpinorField, b: SpinorField) -> bool:
    return a.amplitudes.shape == b.amplitudes.shape and (np.ascontiguousarray(a.amplitudes).tobytes()
                                                         == np.ascontiguousarray(b.amplitudes).tobytes())


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the public kernels called, in order."""
    calls = []
    for name in ("shift", "apply_coin"):
        kernel = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda *a, _k=kernel, _n=name, **kw: calls.append(_n) or _k(*a, **kw))
    return calls


def assert_blocks_keep_the_bits(monkeypatch, kernel_calls, run, n2):
    """run() gives the whole-plane result's bits with blocks of every height, and then calls fewer public kernels and
    no apply_coin."""
    monkeypatch.setattr(lattice, "_ROWS_ABOVE", WHOLE)
    kernel_calls.clear()
    want, whole = run(), len(kernel_calls)
    monkeypatch.setattr(lattice, "_ROWS_ABOVE", 0)
    for height in HEIGHTS:
        monkeypatch.setattr(lattice, "_ROW_BLOCK", height * n2)
        kernel_calls.clear()
        assert same_bits(run(), want), height
        assert "apply_coin" not in kernel_calls and len(kernel_calls) < whole


# a static and a time-dependent field, each with both phase layers; at -pi/2 the X coin is None, at pi/2 the Y coin
@pytest.mark.parametrize("delta_theta", [0.37, -math.pi / 2, math.pi / 2])
@pytest.mark.parametrize("samples", [1, 3])
def test_blocked_em_steps_keep_the_bits(monkeypatch, kernel_calls, samples, delta_theta):
    rng = np.random.default_rng(120 + samples)
    gauge = GaugeField2D(*(rng.normal(size=(samples, 61, 37)) for _ in range(3)), 0.5)
    fields = random_field(rng, 61, 37), random_field(rng, 61, 37, planar=True)

    def run():
        stepped = [em_step_2d(f, gauge, delta_theta, j) for f in fields for j in range(samples)]
        return SpinorField(np.stack([f.amplitudes for f in stepped] + [evolve_em(fields[0], gauge, delta_theta,
                                                                                 samples).amplitudes]))
    assert_blocks_keep_the_bits(monkeypatch, kernel_calls, run, 37)


# one time sample per call at an odd start, and a static triad's steps in one layer list (its C(v) pairs meet there)
@pytest.mark.parametrize("times, steps", [(4, 3), (1, 3)])
def test_blocked_evolve_1p2_keeps_the_bits(monkeypatch, kernel_calls, times, steps):
    rng = np.random.default_rng(130 + times)
    triad, field = varying_triad(rng, times, 61, 37), random_field(rng, 61, 37)
    run = lambda: evolve_1p2(field, triad, 0.3, steps=steps, start=1, epsilon=0.5)
    assert_blocks_keep_the_bits(monkeypatch, kernel_calls, run, 37)
    assert kernel_calls == ["shift"] * steps  # each axis-0 shift after the first coin reads an intermediate field


def test_blocked_layer_lists_keep_the_bits_and_never_write_the_input(monkeypatch, kernel_calls):
    rng = np.random.default_rng(140)
    field = random_field(rng, 61, 37)
    before = field.amplitudes.copy()
    coin = standard_coin(rng.random((61, 37)))
    up, dn = np.exp(1j * rng.random((61, 37))), np.exp(1j * rng.random((61, 37)))
    uniform = standard_coin(0.4)
    lists = [
        [("shift", 0)],
        [("shift", -2), ("phase", up, dn), ("coin", None), ("shift", -1), ("phase", dn, up), ("coin", uniform)],
        [("coin", coin), ("shift", 0), ("phase", up, dn), ("shift", 1), ("coin", uniform), ("shift", 0)],
        [("shift", 1), ("coin", coin), ("shift", 0), ("shift", 0), ("coin", None), ("phase", dn, up)],
        [("coin", coin), ("shift", 1), ("coin", uniform), ("shift", 0)],  # the first run ends in the scratch
    ]
    for layers in lists:
        assert_blocks_keep_the_bits(monkeypatch, kernel_calls, lambda: lattice._run_layers(field, layers), 37)
        assert np.array_equal(field.amplitudes, before)


def test_planes_above_the_threshold_run_in_blocks_and_128_squared_through_the_public_kernels(kernel_calls):
    """The 2D per-layer benchmark metrics are measured at 128^2 = _ROWS_ABOVE sites, through shift and apply_coin."""
    rng = np.random.default_rng(150)
    assert lattice._ROWS_ABOVE == 128 * 128
    em_step_2d(random_field(rng, 128, 128), landau_gauge(0.05, 1, 128, 128, 1.0), 0.0, 0)
    evolve_1p2(random_field(rng, 128, 128), varying_triad(rng, 1, 128, 128), 0.3, steps=2)
    step_1p2 = ["apply_coin", "shift", "apply_coin", "shift", "apply_coin"]
    assert kernel_calls == ["shift", "apply_coin"] * 2 + step_1p2 * 2
    kernel_calls.clear()
    em_step_2d(random_field(rng, 129, 128), landau_gauge(0.05, 1, 129, 128, 1.0), 0.0, 0)
    assert kernel_calls == []


def test_fields_and_layers_outside_the_rule_keep_the_whole_plane_path(monkeypatch, kernel_calls):
    """A list coin, a coin that broadcasts over rows and a batched field take the public kernels; bad layers raise."""
    monkeypatch.setattr(lattice, "_ROWS_ABOVE", 0)
    rng = np.random.default_rng(160)
    field = random_field(rng, 61, 37)
    batched = SpinorField(np.stack([field.amplitudes] * 2), batch=1)
    for start, coin in ((field, standard_coin(0.4).tolist()), (field, standard_coin(rng.random(37))),
                        (batched, standard_coin(0.4))):
        kernel_calls.clear()
        lattice.step(start, coin)
        assert kernel_calls == ["shift", "apply_coin"]
    with pytest.raises(ValueError, match="does not act"):
        lattice.step(field, np.eye(3))
    with pytest.raises(ValueError, match="not one of"):
        lattice.step(field, standard_coin(0.4), axis=2)

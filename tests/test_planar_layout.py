"""Spin-planar storage behind shift, inverse_shift and apply_coin.

The kernels keep amplitudes indexed (*extents, d) but store one contiguous
plane per internal component. These tests pin them to the np.roll and
einsum definitions on interleaved and planar inputs alike. Coin fields and
U(N) links are stored the same way, one contiguous plane per matrix entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk.curved import reflection_coin
from qwalk.lattice import SpinorField, apply_coin, build_coin_euler, inverse_shift, shift, standard_coin
from qwalk.nonabelian import LinkField, NonAbelianGaugeField, expi_hermitian, gauge_transform_links
from reference_walks import expi_hermitian_eigh

# (extents, internal dimension)
CASES = [((64,), 2), ((128, 128), 2), ((96, 384), 2), ((40,), 4), ((12, 10), 4)]


def _planar(amps):
    """The same values as amps, stored one contiguous plane per internal component."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(amps, -1, 0)), 0, -1)


def _amplitudes(rng, extents, d, layout):
    # entries inside the unit disk keep every product below one
    amps = rng.uniform(-0.7, 0.7, size=extents + (d,)) + 1j * rng.uniform(-0.7, 0.7, size=extents + (d,))
    amps = amps if layout == "interleaved" else _planar(amps)
    amps.flags.writeable = False
    return amps


def _unitary(rng, shape, d):
    a = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _hermitian(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _roll_reference(amps, axis, sign):
    half = amps.shape[-1] // 2
    return np.concatenate([np.roll(amps[..., :half], -sign, axis=axis),
                           np.roll(amps[..., half:], sign, axis=axis)], axis=-1)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _is_planar(amps):
    return np.moveaxis(amps, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("layout", ["interleaved", "planar"])
@pytest.mark.parametrize("extents,d", CASES)
def test_shifts_equal_roll_bitwise(extents, d, layout):
    amps = _amplitudes(np.random.default_rng(1), extents, d, layout)
    before = amps.copy()
    for axis in range(len(extents)):
        for move, sign in ((shift, +1), (inverse_shift, -1)):
            out = move(SpinorField(amps), axis=axis).amplitudes
            assert _bits(out) == _bits(_roll_reference(before, axis, sign))
            assert out.shape == extents + (d,) and out.dtype == np.complex128
            assert _is_planar(out)
    assert _bits(amps) == _bits(before)


@settings(max_examples=60, deadline=None)
@given(extents=st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
       d=st.sampled_from([2, 4]), axis_pick=st.integers(0, 2),
       layout=st.sampled_from(["interleaved", "planar"]), seed=st.integers(0, 2**16))
def test_shift_inverse_shift_round_trip_is_identity(extents, d, axis_pick, layout, seed):
    amps = _amplitudes(np.random.default_rng(seed), extents, d, layout)
    axis = axis_pick % len(extents)
    field = SpinorField(amps)
    there_and_back = inverse_shift(shift(field, axis=axis), axis=axis).amplitudes
    back_and_there = shift(inverse_shift(field, axis=axis), axis=axis).amplitudes
    assert _bits(there_and_back) == _bits(amps)
    assert _bits(back_and_there) == _bits(amps)


def test_negative_axis_counts_lattice_axes_and_out_of_range_is_rejected():
    amps = _amplitudes(np.random.default_rng(2), (6, 5), 2, "interleaved")
    field = SpinorField(amps)
    assert _bits(shift(field, axis=-1).amplitudes) == _bits(shift(field, axis=1).amplitudes)
    for axis in (2, -3):
        with pytest.raises(ValueError, match="lattice axes"):
            shift(field, axis=axis)


@pytest.mark.parametrize("layout", ["interleaved", "planar"])
@pytest.mark.parametrize("extents,d", CASES)
@pytest.mark.parametrize("kind", ["uniform", "per-site"])
def test_apply_coin_matches_einsum(extents, d, layout, kind):
    rng = np.random.default_rng(3)
    amps = _amplitudes(rng, extents, d, layout)
    coin = _unitary(rng, () if kind == "uniform" else extents, d)
    coin.flags.writeable = False
    before, coin_before = amps.copy(), coin.copy()
    out = apply_coin(SpinorField(amps), coin).amplitudes
    want = np.einsum("...ab,...b->...a", coin, before)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
    assert out.shape == extents + (d,) and out.dtype == np.complex128
    assert _bits(amps) == _bits(before) and _bits(coin) == _bits(coin_before)
    if d == 2:
        assert _is_planar(out)


@pytest.mark.parametrize("builder", [
    standard_coin,
    reflection_coin,
    lambda theta: build_coin_euler(0.3 * theta, theta, 1.1 - theta, 0.2 + theta),
])
def test_coin_builders_store_per_site_coins_as_planes(builder):
    rng = np.random.default_rng(4)
    theta = rng.uniform(0.0, 1.5, size=(32, 24))
    coins = builder(theta)
    assert coins.shape == (32, 24, 2, 2) and coins.dtype == np.complex128
    assert np.moveaxis(coins, (-2, -1), (0, 1)).flags.c_contiguous
    for site in [(0, 0), (5, 17), (31, 23)]:
        assert _bits(coins[site]) == _bits(builder(theta[site]))
    scalar = builder(0.4)
    assert scalar.shape == (2, 2) and scalar.flags.c_contiguous
    amps = _amplitudes(rng, (32, 24), 2, "planar")
    np.testing.assert_allclose(apply_coin(SpinorField(amps), coins).amplitudes,
                               np.einsum("...ab,...b->...a", coins, amps), rtol=0, atol=1e-15)


def _is_colour_planar(links):
    return np.moveaxis(links, (-2, -1), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_links_and_their_transform_store_each_entry_as_a_plane(n):
    rng = np.random.default_rng(7 + n)
    b0, b1 = (_hermitian(rng, (5, 24, n, n)) for _ in range(2))
    gauge = NonAbelianGaugeField(b0, b1, 0.5)
    links = gauge.links()
    for u, h in ((links.u_plus, b0 + b1), (links.u_minus, b0 - b1)):
        assert u.shape == (5, 24, n, n) and u.dtype == np.complex128 and _is_colour_planar(u)
        want = expi_hermitian_eigh(0.5 * h)
        if n in (2, 3):  # closed forms: within rounding of the eigh values (see test_nonabelian.py)
            assert np.max(np.abs(u - want)) <= 1e-14 * max(1.0, np.max(np.abs(np.linalg.eigvalsh(0.5 * h))))
        else:  # still the bits of the C-contiguous eigh einsum
            assert _bits(u) == _bits(want)
    assert _is_colour_planar(expi_hermitian(0.5 * b0))
    assert expi_hermitian(0.5 * b0[0, 0]).flags.c_contiguous  # a single matrix stays a plain (N, N) array
    field = SpinorField(_amplitudes(rng, (24,), 2 * n, "planar"))
    for layout in (links, LinkField(*(np.ascontiguousarray(u) for u in (links.u_plus, links.u_minus)), 0.5)):
        _, moved = gauge_transform_links(field, layout, _unitary(rng, (6, 24), n))
        assert _is_colour_planar(moved.u_plus) and _is_colour_planar(moved.u_minus)


def test_apply_coin_rejects_a_coin_of_another_dimension():
    field = SpinorField(_amplitudes(np.random.default_rng(5), (8,), 2, "planar"))
    with pytest.raises(ValueError, match="internal components"):
        apply_coin(field, np.eye(4))


# the summation order over the internal axis of an interleaved field follows numpy's reduction up to d = 7
@pytest.mark.parametrize("layout, dims", [("planar", range(1, 9)), ("interleaved", range(1, 7))])
@pytest.mark.parametrize("extents", [(37,), (12, 10), (64, 64), (5, 4, 3)])
def test_probability_plane_by_plane_equals_the_axis_sum_bits(layout, dims, extents):
    rng = np.random.default_rng(6)
    for d in dims:
        field = SpinorField(_amplitudes(rng, extents, d, layout))
        assert _bits(field.probability()) == _bits(np.sum(np.abs(field.amplitudes) ** 2, axis=-1))

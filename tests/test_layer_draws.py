"""Drawn layer lists through `lattice._run_layers`, compared bit for bit with a reference interpreter written here.

Each draw picks a field (1D or 2D, 0-2 batch axes, d = 2 or 2N, interleaved or spin-planar, signed zeros among its
amplitudes), a list of 1-8 layers (shifts on any lattice axis, negative axes too; phases of the plane's shape on
spin doublets; coins that are None, uniform or per site or per member; links and the mass coin C (x) 1_N on 1D
fields), and small `_ROWS_ABOVE` and `_ROW_BLOCK`, so 2D doublets often take the row-blocked path with ragged last
blocks. The reference rolls with `np.roll`, applies coins by the interpreter's ufunc order (out_a = c_a0 psi_0, then
+= c_ab psi_b), links by `np.einsum` and the mass coin as c * B + is * B', one fresh array per layer. The draws also
check that the input is never written, that a list led by a phase raises, and that a field gets its own bits
after this thread's scratch served a field of the same sites with another internal dimension or batch split.
Translation-invariant draws (shifts and uniform coins on a plane wave) must also step the wave by the symbol that
`lattice._layers_symbol` derives from the same list.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import lattice
from qwalk.lattice import SpinorField


def reference(amps: np.ndarray, batch: int, layers) -> np.ndarray:
    """The layers on a copy of amps (*batch, *extents, d), one fresh array each."""
    dims, d = amps.ndim - 1 - batch, amps.shape[-1]
    for kind, x, *rest in layers:
        if kind == "shift":
            axis = batch + x % dims
            up, down = np.roll(amps[..., :d // 2], -1, axis=axis), np.roll(amps[..., d // 2:], 1, axis=axis)
            amps = np.concatenate((up, down), axis=-1)
        elif kind == "phase":
            amps = amps.copy()
            amps[..., 0] *= x
            amps[..., 1] *= rest[0]
        elif kind == "coin":
            out = np.empty_like(amps)
            for a in range(d):
                out[..., a] = x[..., a, 0] * amps[..., 0]
                for b in range(1, d):
                    out[..., a] += x[..., a, b] * amps[..., b]
            amps = out
        elif kind == "links":
            blocks = [np.moveaxis(amps[..., :d // 2], -1, 0), np.moveaxis(amps[..., d // 2:], -1, 0)]
            amps = np.moveaxis(np.concatenate([np.einsum("...pab,b...p->a...p", u, block)
                                               for u, block in zip((x, rest[0]), blocks)]), 0, -1)
        else:  # mass: c and is broadcast over (*batch, *extents), each spin block is (*batch, *extents, N); a scalar
            c, s = (v[..., None] if np.ndim(v) else v for v in (x, rest[0]))  # stays one, as it may round otherwise
            up, down = amps[..., :d // 2], amps[..., d // 2:]
            amps = np.concatenate((c * up + s * down, c * down + s * up), axis=-1)
    return amps


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def cases(draw):
    """(field, layers, _ROWS_ABOVE, _ROW_BLOCK)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.booleans())  # a 2D doublet without batch axes, which the row path may take
    dims = 2 if rows else draw(st.sampled_from([1, 2]))
    batch = () if rows else tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    extents = tuple(draw(st.lists(st.integers(1, 40 if dims == 1 else 24), min_size=dims, max_size=dims)))
    n = 1 if rows else draw(st.sampled_from([1, 2, 3]))
    d = 2 * n
    amps = complex_normal(rng, batch + extents + (d,))
    if draw(st.booleans()):  # rows of +0.0 and -0.0
        amps.reshape(-1, d)[::3] = complex(-0.0, -0.0)
        amps.reshape(-1, d)[1::5] = 0.0
    if draw(st.booleans()):
        amps = np.ascontiguousarray(np.moveaxis(amps, -1, 0)).transpose(*range(1, amps.ndim), 0)
    kinds = ["shift", "coin", "none"] + (["phase"] if d == 2 else []) + (["links", "mass"] if dims == 1 else [])
    layers = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "shift":
            layers.append(("shift", draw(st.integers(-dims, dims - 1))))
        elif kind == "phase":
            layers.append(("phase", complex_normal(rng, extents), complex_normal(rng, extents)))
        elif kind in ("coin", "none"):
            lead = draw(st.sampled_from([(), extents, batch + extents]))
            layers.append(("coin", None if kind == "none" else complex_normal(rng, lead + (d, d))))
        elif kind == "links":
            lead = draw(st.sampled_from([(), batch]))
            layers.append(("links", *(complex_normal(rng, lead + extents + (n, n)) for _ in range(2))))
        else:
            lead = draw(st.sampled_from([(), batch + (1,)]))
            layers.append(("mass", *(complex_normal(rng, lead) for _ in range(2))))
    rows_above = draw(st.sampled_from([0, 64] + ([] if rows else [lattice._ROWS_ABOVE])))
    return SpinorField(amps, len(batch)), layers, rows_above, draw(st.integers(1, 100))


def decoys(field: SpinorField) -> list:
    """Fields of the sites (*batch, *extents) of `field` with another internal dimension, or another batch split."""
    shape, batch = field.amplitudes.shape, field.batch
    rng = np.random.default_rng(shape)
    out = [SpinorField(complex_normal(rng, shape[:-1] + (8 - shape[-1],)), batch)]
    if batch or len(shape) - batch > 2:
        out.append(SpinorField(complex_normal(rng, shape), batch - 1 if batch else batch + 1))
    return out


def assert_reference_bits(field: SpinorField, layers) -> None:
    got = lattice._run_layers(field, layers).amplitudes
    want = reference(field.amplitudes, field.batch, [layer for layer in layers if layer[1] is not None])
    assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=cases())
def test_run_layers_equals_the_reference_interpreter(case):
    field, layers, rows_above, row_block = case
    before = field.amplitudes.tobytes()
    kept = [layer for layer in layers if layer[1] is not None]
    with mock.patch.object(lattice, "_ROWS_ABOVE", rows_above), mock.patch.object(lattice, "_ROW_BLOCK", row_block):
        if not kept or kept[0][0] == "phase":
            with pytest.raises(ValueError, match="first layer"):
                lattice._run_layers(field, layers)
        else:
            for decoy in decoys(field):  # alternately with the field, on this thread's scratch for the same sites
                assert_reference_bits(field, layers)
                assert_reference_bits(decoy, [("shift", -1), ("shift", 0)])  # the second reads the scratch
            if field.amplitudes.shape[-1] == 2:
                _, up, down = next((layer for layer in layers if layer[0] == "phase"),
                                   ("phase", field.amplitudes[..., 0], field.amplitudes[..., 1]))
                with pytest.raises(ValueError, match="first layer"):
                    lattice._run_layers(field, [("phase", up, down)] + layers)
    assert field.amplitudes.tobytes() == before


def unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(complex_normal(rng, (2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def plane_waves(draw):
    """(field, layers, k, e^{i k.x}, spinors, _ROWS_ABOVE, _ROW_BLOCK): a spin-doublet plane wave e^{i k.x}
    spinors[member] at an admissible k, and a translation-invariant list (shifts, uniform unitary coins, None)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from([1, 2]))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2 if dims == 1 else 1)))
    extents = tuple(draw(st.lists(st.integers(1, 40 if dims == 1 else 24), min_size=dims, max_size=dims)))
    k = tuple(lattice.TAU * draw(st.integers(0, n - 1)) / n for n in extents)
    spinors = complex_normal(rng, batch + (1,) * dims + (2,))
    phase = np.exp(1j * sum(kx * x for kx, x in zip(k, np.meshgrid(*map(np.arange, extents), indexing="ij"))))
    layers = []
    for kind in draw(st.lists(st.sampled_from(["shift", "coin", "none"]), min_size=1, max_size=8)):
        if kind == "shift":
            layers.append(("shift", draw(st.integers(-dims, dims - 1))))
        else:  # a list never starts with None, which steps nothing
            layers.append(("coin", unitary(rng) if kind == "coin" or not layers else None))
    rows_above = draw(st.sampled_from([0, 64, lattice._ROWS_ABOVE]))
    field = SpinorField(phase[..., None] * spinors, len(batch))
    return field, layers, k, phase, spinors, rows_above, draw(st.integers(1, 50))


# one step of a plane wave is its symbol on the spinor: _layers_symbol against _run_layers, over every list shape
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=plane_waves())
def test_a_plane_wave_steps_by_the_symbol_of_its_layers(case):
    field, layers, k, phase, spinors, rows_above, row_block = case
    with mock.patch.object(lattice, "_ROWS_ABOVE", rows_above), mock.patch.object(lattice, "_ROW_BLOCK", row_block):
        got = lattice._run_layers(field, layers).amplitudes
    symbol = lattice._layers_symbol(layers, k)
    want = phase[..., None] * np.einsum("ab,...b->...a", symbol, spinors)
    assert np.max(np.abs(got - want)) <= 1e-13


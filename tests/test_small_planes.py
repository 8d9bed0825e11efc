"""Small 1D steps in fewer numpy calls, each against the form it replaced, bit for bit.

`measured._branches` builds its neighbours with one concatenation each; `reference_walks.branches_roll` is its np.roll
form. `evolve_nonabelian` passes each step the mass layer it checked, as `evolve_electric` passes each step its phase
tables, through the stepper's keyword `_prepared`; both check the field once, before the first step, and a direct
stepper call, passed nothing, checks it itself.
"""

import math

import numpy as np
import pytest

import reference_walks as ref
from qwalk import abelian, nonabelian
from qwalk.abelian import electric_step_1d, evolve_electric
from qwalk.lattice import SpinorField
from qwalk.measured import AharonovConfig, _branches
from qwalk.nonabelian import NonAbelianGaugeField, evolve_nonabelian, nonabelian_step
from test_fast_paths import electric_case, random_hermitian, record_prepared

def same_bytes(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# ---------------------------------------------------------------------------
# the measured walk's branches


CONFIGS = (AharonovConfig(spin_up=math.sqrt(0.6), spin_down=math.sqrt(0.4) * np.exp(0.4j),
                          coin_alpha=math.cos(0.8) * np.exp(-0.3j), coin_beta=math.sin(0.8) * np.exp(0.9j),
                          coin_phase=0.7),
           AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0))


@pytest.mark.parametrize("shape", [(1,), (2,), (64,), (1, 1), (3, 2), (32, 64)])
def test_branches_equal_their_roll_form(shape):
    rng = np.random.default_rng(7410 + math.prod(shape))
    ket = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for config in CONFIGS:
        for got, want in zip(_branches(ket, config), ref.branches_roll(ket, config), strict=True):
            assert same_bytes(got, want)


# ---------------------------------------------------------------------------
# what each evolve step is passed, and one fit check per evolve call


def colour_case(rng, samples, members=0):
    links = NonAbelianGaugeField(*(random_hermitian(rng, (samples, 8, 2, 2)) for _ in range(2)), 0.5).links()
    shape = (members,) * bool(members) + (8, 4)
    return SpinorField(rng.normal(size=shape) + 1j * rng.normal(size=shape), int(bool(members))), links


@pytest.mark.parametrize("samples, members, mass", [(1, 0, 0.4), (9, 0, 0.4), (9, 3, np.array([0.2, -0.0, 1.1])),
                                                    (1, 3, np.array([0.3, 0.5, -0.7]))])
def test_evolve_nonabelian_passes_each_step_one_mass_layer_and_equals_a_hand_loop(samples, members, mass, monkeypatch):
    field, links = colour_case(np.random.default_rng(7420 + samples + members), samples, members)
    want = field
    for j in range(3, 8):
        want = nonabelian_step(want, links, mass, j)
    prepared = record_prepared(monkeypatch, nonabelian, "nonabelian_step")
    got = evolve_nonabelian(field, links, mass, 5, 3)
    assert len(prepared) == 5 and all(p is prepared[0] for p in prepared)
    name, *planes = prepared[0]
    assert name == "mass" and all(map(same_bytes, planes, nonabelian._mass_layer(field, links, mass)[1:]))
    assert same_bytes(got.amplitudes, want.amplitudes)
    nonabelian.nonabelian_step(field, links, mass, 3)
    assert prepared[-1] is None


# each step gets the tables of the sample it reads, which a direct call computes for itself
@pytest.mark.parametrize("samples", [1, 9])
def test_evolve_electric_passes_each_step_the_bits_of_its_sample_tables(samples, monkeypatch):
    monkeypatch.setattr(abelian, "_PHASE_BLOCK", 3 * 8)  # three steps a block
    field, gauge = electric_case(np.random.default_rng(7425 + samples), samples, 8)
    prepared = record_prepared(monkeypatch, abelian, "electric_step_1d")
    evolve_electric(field, gauge, 0.7, 7, 1)
    abelian.electric_step_1d(field, gauge, 0.7, 1)
    assert len(prepared) == 8 and prepared[-1] is None
    for j, tables in enumerate(prepared[:-1], start=1):
        want = abelian._electric_phases(gauge, 0 if samples == 1 else j)
        assert all(map(same_bytes, tables, want)) and len(tables) == len(want) == 2


# the loop checks the field once, before its first step; a step passed what was prepared skips the check
@pytest.mark.parametrize("module, evolve", [(abelian, lambda f, b: evolve_electric(f, b, 0.7, 7, 1)),
                                            (nonabelian, lambda f, b: evolve_nonabelian(f, b, 0.7, 7, 1))])
def test_an_evolve_call_checks_the_fit_once(module, evolve, monkeypatch):
    rng = np.random.default_rng(7430)
    field, background = electric_case(rng, 9, 8) if module is abelian else colour_case(rng, 9)
    checks, check = [], module._check_fit
    monkeypatch.setattr(module, "_check_fit", lambda *args: checks.append(1) or check(*args))
    evolve(field, background)
    assert len(checks) == 1


# a field that does not fit, or a mass of the wrong shape, raises the stepper's ValueError before any step
@pytest.mark.parametrize("case", ["electric-extents", "nonabelian-extents", "nonabelian-colours", "nonabelian-mass"])
def test_a_field_that_does_not_fit_raises_before_any_step(case, monkeypatch):
    rng = np.random.default_rng(7440)
    if case == "electric-extents":
        (_, gauge), field = electric_case(rng, 9, 8), SpinorField(np.ones((6, 2), complex))
        module, name, mass = abelian, "electric_step_1d", 0.7
        evolve = lambda: evolve_electric(field, gauge, mass, 4, 2)
        step = lambda: electric_step_1d(field, gauge, mass, 2)
    else:
        _, links = colour_case(rng, 9)
        field = SpinorField(np.ones({"nonabelian-extents": (6, 4), "nonabelian-colours": (8, 6)}.get(case, (8, 4)),
                                    complex))
        module, name, mass = nonabelian, "nonabelian_step", np.ones(2) if case == "nonabelian-mass" else 0.7
        evolve = lambda: evolve_nonabelian(field, links, mass, 4, 2)
        step = lambda: nonabelian_step(field, links, mass, 2)
    with pytest.raises(ValueError) as stepped:
        step()
    calls, stepper = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or stepper(*args, **kwargs))
    with pytest.raises(ValueError) as evolved:
        evolve()
    assert str(evolved.value) == str(stepped.value) and calls == []

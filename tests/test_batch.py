"""The leading batch axis of the spin-1/2 steppers.

A field with `batch` leading axes holds independent members that step
together; a gauge array carries the same axes after its steps axis, or none,
in which case one background serves every member. Each member of a batch must
step bit for bit as it steps alone, and gauge-check, which steps its trials as
one batch, must keep its exact residuals.
"""

import numpy as np
import pytest

from qwalk import abelian
from qwalk.abelian import (GaugeField1D, GaugeField2D, electric_step_1d, em_step_2d, gauge_transform_1d,
                           gauge_transform_2d, lattice_current, lattice_current_2d)
from qwalk.config import load_config
from qwalk.experiments import run
from qwalk.lattice import SpinorField, standard_coin, step
from qwalk.nonabelian import (LinkField, NonAbelianGaugeField, color_rotate, field_strength_holonomy,
                              gauge_transform_links, nonabelian_step)

MEMBERS = 3


def random_amplitudes(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def member(field: SpinorField, b: int) -> SpinorField:
    return SpinorField(field.amplitudes[b])


def gauge_member(gauge, b: int):
    return type(gauge)(*(getattr(gauge, a)[:, b] for a in gauge._arrays), gauge.epsilon)


def batched(rng, extents, gauge_type, shared):
    """A batch of MEMBERS fields and a gauge of 4 steps, per member or shared."""
    field = SpinorField(random_amplitudes(rng, (MEMBERS,) + extents + (2,)), batch=1)
    lead = (4,) if shared else (4, MEMBERS)
    gauge = gauge_type(*(rng.normal(size=lead + extents) for _ in gauge_type._arrays), 0.5, batch=0 if shared else 1)
    return field, gauge


def alone(gauge, b, shared):
    return gauge if shared else gauge_member(gauge, b)


def test_extents_and_dims_leave_the_batch_axes_out():
    field = SpinorField(np.zeros((3, 5, 8, 6, 2)), batch=2)
    assert (field.extents, field.dims, field.internal_dim) == ((8, 6), 2, 2)
    gauge = GaugeField2D(*np.zeros((3, 4, 3, 5, 8, 6)), 0.5, batch=2)
    assert (gauge.steps, gauge.batch_shape, gauge.extents) == (4, (3, 5), (8, 6))
    with pytest.raises(ValueError, match="at least one lattice axis"):
        SpinorField(np.zeros((3, 2)), batch=1)
    with pytest.raises(ValueError, match="at least one lattice axis"):
        SpinorField(np.zeros((3, 4, 2)), batch=-1)


@pytest.mark.parametrize("coin_shape", ["shared", "per site", "per member"])
@pytest.mark.parametrize("extents, axis", [((16,), 0), ((8, 6), 0), ((8, 6), 1), ((8, 6), -1)])
def test_step_steps_each_member_as_alone(extents, axis, coin_shape):
    rng = np.random.default_rng(101)
    field = SpinorField(random_amplitudes(rng, (MEMBERS,) + extents + (2,)), batch=1)
    angles = {"shared": (), "per site": extents, "per member": (MEMBERS,) + extents}[coin_shape]
    coin = standard_coin(rng.random(angles))
    got = step(field, coin, axis)
    assert got.batch == 1
    for b in range(MEMBERS):
        own = coin[b] if coin_shape == "per member" else coin
        assert np.array_equal(got.amplitudes[b], step(member(field, b), own, axis).amplitudes)


@pytest.mark.parametrize("shared", [False, True])
def test_electric_steps_each_member_as_alone(shared):
    rng = np.random.default_rng(102)
    field, gauge = batched(rng, (16,), GaugeField1D, shared)
    stepped = [member(field, b) for b in range(MEMBERS)]
    for j in range(4):
        field = electric_step_1d(field, gauge, 0.8, j)
        stepped = [electric_step_1d(f, alone(gauge, b, shared), 0.8, j) for b, f in enumerate(stepped)]
        assert all(np.array_equal(field.amplitudes[b], f.amplitudes) for b, f in enumerate(stepped))


@pytest.mark.parametrize("shared", [False, True])
def test_em_steps_each_member_as_alone(shared):
    rng = np.random.default_rng(103)
    field, gauge = batched(rng, (8, 6), GaugeField2D, shared)
    stepped = [member(field, b) for b in range(MEMBERS)]
    for j in range(4):
        field = em_step_2d(field, gauge, -0.4, j)
        stepped = [em_step_2d(f, alone(gauge, b, shared), -0.4, j) for b, f in enumerate(stepped)]
        assert all(np.array_equal(field.amplitudes[b], f.amplitudes) for b, f in enumerate(stepped))


@pytest.mark.parametrize("shared", [False, True])
def test_currents_are_each_members_current(shared):
    rng = np.random.default_rng(106)
    line, gauge_1d = batched(rng, (16,), GaugeField1D, shared)
    plane, gauge_2d = batched(rng, (8, 6), GaugeField2D, shared)
    current_1d = lambda f, g: lattice_current(f, electric_step_1d(f, g, 0.8, 1), 0.5)
    current_2d = lambda f, g: lattice_current_2d(f, g, -0.4, 1)
    for current, field, gauge, names in ((current_1d, line, gauge_1d, ("j0", "j0_next", "j1")),
                                         (current_2d, plane, gauge_2d, ("j0", "j0_next", "j1", "j2"))):
        got = current(field, gauge)
        members = [current(member(field, b), alone(gauge, b, shared)) for b in range(MEMBERS)]
        assert got.residual == max(m.residual for m in members)
        assert all(np.array_equal(getattr(got, n)[b], getattr(m, n)) for b, m in enumerate(members) for n in names)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("extents, gauge_type, transform", [((16,), GaugeField1D, gauge_transform_1d),
                                                             ((8, 6), GaugeField2D, gauge_transform_2d)])
def test_gauge_transforms_transform_each_member_as_alone(extents, gauge_type, transform, shared):
    rng = np.random.default_rng(104)
    field, gauge = batched(rng, extents, gauge_type, shared)
    phi = rng.normal(size=(5,) + ((MEMBERS,) if not shared else ()) + extents)
    tfield, tgauge = transform(field, gauge, phi)
    assert (tfield.batch, tgauge.batch) == (1, gauge.batch)
    for b in range(MEMBERS):
        want_field, want_gauge = transform(member(field, b), alone(gauge, b, shared), phi if shared else phi[:, b])
        assert np.array_equal(tfield.amplitudes[b], want_field.amplitudes)
        assert all(np.array_equal(getattr(alone(tgauge, b, shared), a), getattr(want_gauge, a)) for a in gauge._arrays)


@pytest.mark.parametrize("stepper, extents, gauge_type", [
    (lambda f, g: electric_step_1d(f, g, 0.8, 0), (16,), GaugeField1D),
    (lambda f, g: em_step_2d(f, g, 0.3, 0), (8, 6), GaugeField2D),
    (lambda f, g: gauge_transform_1d(f, g, np.zeros((5, 2, 16))), (16,), GaugeField1D),
    (lambda f, g: gauge_transform_2d(f, g, np.zeros((5, 2, 8, 6))), (8, 6), GaugeField2D),
])
@pytest.mark.parametrize("field_lead", [(MEMBERS,), ()])
def test_a_mismatched_batch_shape_is_one_error(stepper, extents, gauge_type, field_lead):
    rng = np.random.default_rng(105)
    gauge = gauge_type(*(rng.normal(size=(4, 2) + extents) for _ in gauge_type._arrays), 0.5, batch=1)
    field = SpinorField(np.ones(field_lead + extents + (2,), complex), batch=len(field_lead))
    with pytest.raises(ValueError, match=rf"gauge batch shape \(2,\) does not match field batch shape "
                                         rf"\({MEMBERS if field_lead else ''},?\)"):
        stepper(field, gauge)


def test_the_colour_walk_refuses_a_batch():
    links = NonAbelianGaugeField.zero(2, 8, 2).links()
    members = LinkField(*np.broadcast_to(links.u_plus[:, None], (2, 2, MEMBERS, 8, 2, 2)), 0.5, batch=1)
    line, batch = SpinorField(np.ones((8, 4), complex)), SpinorField(np.ones((MEMBERS, 8, 4), complex), batch=1)
    g = np.broadcast_to(np.eye(2), (3, 8, 2, 2))
    for call in (lambda: nonabelian_step(batch, links, 0.4, 0), lambda: nonabelian_step(line, members, 0.4, 0),
                 lambda: color_rotate(batch, g[0]), lambda: gauge_transform_links(line, members, g),
                 lambda: field_strength_holonomy(members, 0)):
        with pytest.raises(ValueError, match="the colour walk takes no batch axes"):
            call()


# ---------------------------------------------------------------------------
# gauge-check steps its trials as one batch


# the golden test's atol of 1e-12 cannot see a changed draw order in residuals of about 1e-16; these are the exact
# cells at seed 7 (tests/golden/gauge-check.csv keeps a 2D cell that moved by rounding since it was written)
def test_gauge_check_keeps_its_exact_residuals_at_seed_7():
    table = run(load_config("gauge-check", overrides=("seed=7",)))
    assert table.rows == [(20.0, 50.0, 4.142612643091979e-16, 2.4532694666933986e-16)]


def test_gauge_check_steps_its_trials_as_one_batch(monkeypatch):
    calls = {"electric_step_1d": 0, "em_step_2d": 0}
    for name in calls:
        def counted(*args, _step=getattr(abelian, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(abelian, name, counted)
    cfg = load_config("gauge-check", overrides=("trials=4", "steps=6"))
    run(cfg)
    assert calls == {"electric_step_1d": 2 * cfg.steps, "em_step_2d": 2 * cfg.steps}

"""The leading batch axis of the steppers, the colour walk's included.

A field with `batch` leading axes holds independent members that step
together; a gauge array carries the same axes after its steps axis, or none,
in which case one background serves every member. Each member of a batch must
step bit for bit as it steps alone, and gauge-check and nonabelian-check,
which step their trials as one batch, must keep their exact residuals.
"""

from pathlib import Path

import numpy as np
import pytest

from qwalk import abelian, nonabelian
from qwalk.abelian import (GaugeField1D, GaugeField2D, electric_step_1d, em_step_2d, gauge_transform_1d,
                           gauge_transform_2d, lattice_current, lattice_current_2d)
from qwalk.config import load_config
from qwalk.experiments import run
from qwalk.lattice import SpinorField, standard_coin, step
from qwalk.nonabelian import (LinkField, NonAbelianGaugeField, color_rotate, dirac_generator_residual,
                              evolve_nonabelian, extract_field_strength, field_strength_holonomy,
                              gauge_transform_links, nonabelian_step)
from qwalk.table import read_table

GOLDEN = Path(__file__).parent / "golden"
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


# ---------------------------------------------------------------------------
# the colour walk


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def colour_batch(rng, n, shared):
    """A batch of MEMBERS colour fields, links of 4 steps (per member or shared) and g for a gauge transform."""
    lead = (4,) if shared else (4, MEMBERS)
    hermitian = [(lambda a: a + np.swapaxes(a, -1, -2).conj())(random_amplitudes(rng, lead + (8, n, n)))
                 for _ in range(2)]
    links = NonAbelianGaugeField(*hermitian, 0.5, batch=1 - shared).links()
    g = np.linalg.qr(random_amplitudes(rng, (5,) + lead[1:] + (8, n, n)))[0]
    return SpinorField(random_amplitudes(rng, (MEMBERS, 8, 2 * n)), batch=1), links, g


# the colour walk used to raise ValueError on any batch axis
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_colour_walk_steps_each_member_as_alone(n, shared):
    rng = np.random.default_rng(110 + n)
    field, links, g = colour_batch(rng, n, shared)
    masses = np.array([0.4, 0.0, -1.1])
    alone = lambda b: links if shared else gauge_member(links, b)
    g_alone = lambda b: g if shared else g[:, b]
    stepped = nonabelian_step(field, links, 0.4, 2)
    evolved = evolve_nonabelian(field, links, masses, 4)
    rotated = color_rotate(field, g[0])
    tfield, tlinks = gauge_transform_links(field, links, g)
    assert (stepped.batch, evolved.batch, rotated.batch, tfield.batch, tlinks.batch) == (1, 1, 1, 1, 1 - shared)
    for b in range(MEMBERS):
        assert same_bytes(stepped.amplitudes[b], nonabelian_step(member(field, b), alone(b), 0.4, 2).amplitudes)
        assert same_bytes(evolved.amplitudes[b],
                          evolve_nonabelian(member(field, b), alone(b), masses[b], 4).amplitudes)
        assert same_bytes(rotated.amplitudes[b], color_rotate(member(field, b), g_alone(b)[0]).amplitudes)
        want_field, want_links = gauge_transform_links(member(field, b), alone(b), g_alone(b))
        got_links = tlinks if shared else gauge_member(tlinks, b)
        assert same_bytes(tfield.amplitudes[b], want_field.amplitudes)
        assert all(same_bytes(getattr(got_links, a), getattr(want_links, a)) for a in LinkField._arrays)


# the holonomy used to refuse a batch; each member's diamonds now have the bits they have alone, on any batch axes
@pytest.mark.parametrize("lead", [(MEMBERS,), (2, MEMBERS)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_holonomy_takes_each_member_as_alone(n, lead):
    rng = np.random.default_rng(130 + n + len(lead))
    hermitian = [(lambda a: a + np.swapaxes(a, -1, -2).conj())(random_amplitudes(rng, (4,) + lead + (8, n, n)))
                 for _ in range(2)]
    links = NonAbelianGaugeField(*hermitian, 0.5, batch=len(lead)).links()
    for j in (0, 2):
        hol, strength = field_strength_holonomy(links, j), extract_field_strength(links, j)
        assert hol.shape == strength.shape == lead + (8, n, n)
        for b in np.ndindex(lead):
            alone = LinkField(links.u_plus[(slice(None),) + b], links.u_minus[(slice(None),) + b], 0.5)
            assert same_bytes(hol[b], field_strength_holonomy(alone, j))
            assert same_bytes(strength[b], extract_field_strength(alone, j))


def test_the_dirac_residual_refuses_a_batch():
    batch = SpinorField(np.ones((MEMBERS, 8, 4), complex), batch=1)
    with pytest.raises(ValueError, match="takes no batch axes"):
        dirac_generator_residual(batch, NonAbelianGaugeField.zero(2, 8, 2), 0.4)


# ---------------------------------------------------------------------------
# gauge-check steps its trials as one batch


# a changed draw order moves residuals of about 1e-16 by more than rounding; the golden file holds the exact cells
def test_gauge_check_keeps_its_exact_residuals_at_seed_7():
    table = run(load_config("gauge-check", overrides=("seed=7",)))
    assert table.rows == read_table(str(GOLDEN / "gauge-check.csv")).rows


def test_gauge_check_steps_its_trials_as_one_batch(monkeypatch):
    calls = {"electric_step_1d": 0, "em_step_2d": 0}
    for name in calls:
        def counted(*args, _step=getattr(abelian, name), _name=name, **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)
        monkeypatch.setattr(abelian, name, counted)
    cfg = load_config("gauge-check", overrides=("trials=4", "steps=6"))
    run(cfg)
    assert calls == {"electric_step_1d": 2 * cfg.steps, "em_step_2d": 2 * cfg.steps}


# ---------------------------------------------------------------------------
# nonabelian-check steps each N's trials as one batch


# a changed draw order moves residuals of about 1e-15 by more than rounding; the golden file holds the exact cells,
# as the trial-by-trial loop wrote them
def test_nonabelian_check_keeps_its_exact_residuals_at_seed_7():
    table = run(load_config("nonabelian-check", overrides=("seed=7",)))
    assert table.rows == read_table(str(GOLDEN / "nonabelian-check.csv")).rows


def test_nonabelian_check_steps_its_trials_as_one_batch(monkeypatch):
    calls = []
    monkeypatch.setattr(nonabelian, "nonabelian_step",
                        lambda field, *args, _step=nonabelian.nonabelian_step, **kwargs: calls.append(field.batch) or
                        _step(field, *args, **kwargs))
    cfg = load_config("nonabelian-check", overrides=("trials=4", "steps=6"))
    run(cfg)
    # N = 1, 2, 3 each evolve a batch of 4 twice, then the N = 1 reduction evolves one field
    assert calls == [1] * (3 * 2 * cfg.steps) + [0] * cfg.steps

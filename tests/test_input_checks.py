"""Input rules of the library: each check raises its own error with a message that names the problem.

The shared rules (first bad node, time samples, lattice momenta) are checked at every site that uses them.
"""

import math

import numpy as np
import pytest

from qwalk.abelian import (
    GaugeField1D,
    GaugeField2D,
    evolve_electric,
    evolve_em,
    gauge_transform_1d,
    gauge_transform_2d,
    landau_quasienergies,
    lattice_derivative,
    measured_period,
)
from qwalk.config import ConfigError, load_config
from qwalk.curved import (
    CurvedCoinProfile,
    MetricField2D,
    Triad,
    _triad_entries,
    coin_angles_from_triad,
    evolve_1p1,
    evolve_1p2,
    gw_metric,
    gw_two_mode_state,
    gw_wavelength_scan,
    schwarzschild_profile,
    spin_connection,
    triad_from_metric,
    walk_symbol_1p2,
)
from qwalk.experiments import _haar_unitary
from qwalk.lattice import HADAMARD_ANGLES, SpinorField, step
from qwalk.measured import (
    AharonovConfig,
    classical_rw_distribution,
    enumerate_averaged_distribution,
    outcome_probabilities,
    sample_averaged_distribution,
)
from qwalk.nonabelian import (LinkField, NonAbelianGaugeField, evolve_nonabelian, field_strength_holonomy,
                              nonabelian_step)
from qwalk.table import ResultTable

WALK = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0)
KET = np.eye(8)[4].astype(complex)


def _flat_metric_and_triad():
    metric = MetricField2D.flat((4, 4))
    return metric, triad_from_metric(metric)


def _identity_links(steps):
    u = np.broadcast_to(np.eye(2, dtype=complex), (steps, 4, 2, 2)).copy()
    return LinkField(u, u.copy(), 1.0)


def _frozen_write():
    config = load_config("evolve1d", None, [])
    config.steps = 3


# (check, error type, message fragment) for input checks that no other test reaches; the checks that share a rule
# (first bad node, time samples, lattice momenta) are tested with that rule below
INPUT_CHECKS = {
    "spinor-field-rank": (lambda: SpinorField(np.zeros(4)), ValueError, "at least one lattice axis"),
    "lattice-derivative-rank": (lambda: lattice_derivative(np.zeros(4), 0, 1.0), ValueError,
                                "expected shape (steps, sites) or (steps, n1, n2)"),
    "gauge-transform-1d-phi": (lambda: gauge_transform_1d(SpinorField.delta(8), GaugeField1D.zero(3, 8),
                                                          np.zeros((3, 8))),
                               ValueError, "phi must have shape (steps+1, sites)"),
    "gauge-transform-2d-phi": (lambda: gauge_transform_2d(SpinorField.delta((4, 4)),
                                                          GaugeField2D(*np.zeros((3, 2, 4, 4)), 1.0),
                                                          np.zeros((3, 4, 5))),
                               ValueError, "phi must have shape (steps+1, n1, n2)"),
    "landau-bulk-levels": (lambda: landau_quasienergies(0.02, 1 / 8, 2, sites=2), ValueError,
                           "only 0 positive bulk levels resolvable"),
    "landau-odd-box": (lambda: landau_quasienergies(0.02, 1 / 8, 2, sites=5), ValueError,
                       "the Landau fiber needs an even number of sites, got 5"),
    "measured-period-flat": (lambda: measured_period(np.zeros(16)), ValueError, "no oscillating component"),
    "schwarzschild-floor": (lambda: schwarzschild_profile(16, 5.0, floor=0.0), ValueError,
                            "floor must lie in (0, 1]"),
    "spin-connection-mu": (lambda: spin_connection(*_flat_metric_and_triad(), 3), ValueError,
                           "mu must be 0 (time), 1, or 2"),
    "gw-metric-base-speed": (lambda: gw_metric((4, 4), 0.01, base_speed=0.0), ValueError,
                             "base_speed must lie in (0, 1]"),
    "gw-two-mode-1d": (lambda: gw_two_mode_state(math.pi / 2, (16,)), ValueError,
                       "two-mode states need a 2D lattice"),
    "branches-0d-ket": (lambda: outcome_probabilities(np.array(1.0), WALK), ValueError,
                        "external ket must have at least one site axis"),
    "enumerate-steps": (lambda: enumerate_averaged_distribution(KET, WALK, -1), ValueError,
                        "steps must be nonnegative"),
    "sample-count": (lambda: sample_averaged_distribution(KET, WALK, 2, 0), ValueError,
                     "samples must be positive"),
    "classical-steps": (lambda: classical_rw_distribution(0.5, -1, np.abs(KET)), ValueError,
                        "steps must be nonnegative"),
    "link-field-square": (lambda: LinkField(*np.ones((2, 3, 5, 2, 3)), 0.5), ValueError,
                          "u_plus, u_minus must hold square matrices, got (2, 3)"),
    "nonabelian-field-square": (lambda: NonAbelianGaugeField(*np.zeros((2, 2, 4, 2, 3)), 0.5), ValueError,
                                "b0, b1 must hold square matrices, got (2, 3)"),
    # the five evolve loops used to return their input for a negative step count
    "evolve-electric-steps": (lambda: evolve_electric(SpinorField.delta(4), GaugeField1D.zero(3, 4), 0.5, -1),
                              ValueError, "steps must be nonnegative"),
    "evolve-em-steps": (lambda: evolve_em(SpinorField.delta((4, 4)), GaugeField2D.zero(3, 4, 4), 0.5, -1),
                        ValueError, "steps must be nonnegative"),
    "evolve-1p1-steps": (lambda: evolve_1p1(SpinorField.delta(4), CurvedCoinProfile(np.full(4, 0.3)), -1),
                         ValueError, "steps must be nonnegative"),
    "evolve-nonabelian-steps": (lambda: evolve_nonabelian(SpinorField.delta(4, spin=(1, 0, 0, 0)),
                                                          _identity_links(3), 0.5, -1),
                                ValueError, "steps must be nonnegative"),
    "evolve-1p2-steps": (lambda: evolve_1p2(SpinorField.delta((4, 4)), _flat_metric_and_triad()[1], steps=-1),
                         ValueError, "steps must be nonnegative"),
    # an empty axis used to fail in the Hermitian check with numpy's "zero-size array to reduction operation"
    "nonabelian-field-no-steps": (lambda: NonAbelianGaugeField(*np.zeros((2, 0, 4, 2, 2)), 0.5), ValueError,
                                  "b0, b1 have an empty steps axis"),
    "nonabelian-field-no-sites": (lambda: NonAbelianGaugeField(*np.zeros((2, 2, 0, 2, 2)), 0.5), ValueError,
                                  "b0, b1 have an empty sites axis"),
    "nonabelian-field-no-colours": (lambda: NonAbelianGaugeField(*np.zeros((2, 2, 4, 0, 0)), 0.5), ValueError,
                                    "b0, b1 have an empty N axis"),
    # the colour walk refused every batch axis; links with batch axes must now match the field's
    "nonabelian-link-batch": (lambda: nonabelian_step(SpinorField(np.ones((3, 4, 4), complex), batch=1),
                                                      LinkField(*np.broadcast_to(np.eye(2), (2, 2, 2, 4, 2, 2)), 0.5,
                                                                batch=1), 0.5, 0),
                              ValueError, "link batch shape (2,) does not match field batch shape (3,)"),
    # a mass of length N on an unbatched field used to give each colour its own mass
    "nonabelian-mass-shape": (lambda: nonabelian_step(SpinorField(np.ones((4, 4), complex)), _identity_links(3),
                                                      np.ones(2), 0),
                              ValueError, "mass shape (2,) does not match field batch shape ()"),
    # a 2x2 coin on a field of four components must not act as C (x) 1_2
    "step-coin-width": (lambda: step(SpinorField(np.ones((4, 4), complex)), HADAMARD_ANGLES.matrix()), ValueError,
                        "coin of shape (2, 2) does not act on 4 internal components"),
    # links that are not unitary used to step a norm-1 field to norm 3.24
    "link-field-unitary": (lambda: LinkField(np.full((2, 4, 2, 2), 0.9), np.full((2, 4, 2, 2), 0.9), 0.5), ValueError,
                           "u_plus is not unitary: max ||U^dag U - 1|| = 2.45e+00 > 1e-10"),
    "link-field-unitary-nan": (lambda: LinkField(np.broadcast_to(np.eye(2), (2, 4, 2, 2)),
                                                 np.full((2, 4, 2, 2), np.nan), 0.5), ValueError,
                               "u_minus is not unitary: max ||U^dag U - 1|| = nan > 1e-10"),
    "holonomy-last-step": (lambda: field_strength_holonomy(_identity_links(3), 2), ValueError,
                           "holonomy needs links at j and j+1"),
    "csv-without-header": (lambda: ResultTable.from_csv("# experiment = evolve1d\n"), ValueError,
                           "CSV table needs a header row"),
    "frozen-config": (_frozen_write, AttributeError, "cannot change 'steps': an ExperimentConfig is frozen"),
    # a complex potential used to keep only its real part, with numpy's ComplexWarning
    "gauge-1d-complex": (lambda: GaugeField1D(np.full((1, 8), 0.3 + 0.5j), np.zeros((1, 8)), 1.0), ValueError,
                         "a0 must be real, got complex values"),
    "gauge-1d-complex-list": (lambda: GaugeField1D([[0.0] * 8], [[1j] * 8], 1.0), ValueError,
                              "a1 must be real, got complex values"),
    "gauge-2d-complex": (lambda: GaugeField2D(*np.zeros((2, 1, 4, 4), complex), np.zeros((1, 4, 4)), 1.0),
                         ValueError, "a0, a1 must be real, got complex values"),
}



@pytest.mark.parametrize("check, error, fragment", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_check_raises_its_message(check, error, fragment):
    with pytest.raises(error) as raised:
        check()
    assert fragment in str(raised.value)


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("evolve1d", str(tmp_path / "missing.ini"), [])


def test_malformed_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("steps = 3\n")  # a key before any [section]
    with pytest.raises(ConfigError, match="malformed config file"):
        load_config("evolve1d", str(path), [])


# ---------------------------------------------------------------------------
# one rule for the first bad node: two bad nodes each, the message names the value at the first


def _two_bad(shape, base, first, last, v1, v2):
    a = np.full(shape, base)
    a[first], a[last] = v1, v2
    return a


FIRST_BAD_NODE = {
    "profile-theta": (lambda: CurvedCoinProfile(_two_bad((2, 4), 0.3, (0, 3), (1, 1), 1.6, -0.2)),
                      "theta = 1.600000 outside [0, pi/2) at (time, site) = (0, 3)"),
    "metric-gxx": (lambda: MetricField2D(_two_bad((2, 3, 3), -1.0, (0, 1, 2), (1, 0, 0), 0.5, 0.25),
                                         -np.ones((2, 3, 3)), np.zeros((2, 3, 3))),
                   "G_XX = 0.500000 >= 0 at (time, x, y) = (0, 1, 2)"),
    "metric-determinant": (lambda: MetricField2D(-np.ones((2, 3, 3)), -np.ones((2, 3, 3)),
                                                 _two_bad((2, 3, 3), 0.0, (0, 2, 0), (1, 0, 1), 1.5, 2.0)),
                           "G_XX G_YY - G_XY^2 = -1.250000 <= 0 at (time, x, y) = (0, 2, 0)"),
    "frame-roots-g": (lambda: _triad_entries(-np.ones((2, 3, 3)), -np.ones((2, 3, 3)),
                                             _two_bad((2, 3, 3), 0.0, (0, 2, 0), (1, 0, 1), 1.5, 2.0)),
                      "degenerate metric: G = -1.250000 <= 0 at (time, x, y) = (0, 2, 0)"),
    "frame-roots-gap": (lambda: _triad_entries(_two_bad((2, 3, 3), -1.0, (0, 1, 1), (1, 2, 0), 2.0, 3.0),
                                               _two_bad((2, 3, 3), -1.0, (0, 1, 1), (1, 2, 0), 3.0, 4.0),
                                               np.zeros((2, 3, 3))),
                        "degenerate metric: 2 sqrt(G) - Sigma = -0.101021 <= 0 at (time, x, y) = (0, 1, 1)"),
    "triad-light-cone": (lambda: coin_angles_from_triad(Triad(_two_bad((2, 3, 3), 0.5, (1, 2, 0), (1, 2, 2), 1.2, 1.5),
                                                              np.full((2, 3, 3), 0.5), np.zeros((2, 3, 3)))),
                         "triad row (E1, B) has length 1.200000 > 1 at node (1, 2, 0): "
                         "frame speeds exceed the lattice light cone"),
}


@pytest.mark.parametrize("build, message", FIRST_BAD_NODE.values(), ids=FIRST_BAD_NODE.keys())
def test_rejection_names_the_value_at_the_first_bad_node(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_uniform_triad_outside_the_light_cone_names_no_node():
    with pytest.raises(ValueError, match=r"triad row \(E1, B\) has length 1\.200000 > 1 at node \(\):"):
        walk_symbol_1p2(0.0, 0.0, 1.2, 0.5, 0.0)


# ---------------------------------------------------------------------------
# one rule for a missing time axis


@pytest.mark.parametrize("build, message", [
    (lambda: CurvedCoinProfile(np.float64(0.3)), "profile samples must have shape (sites) or (times, sites)"),
    (lambda: CurvedCoinProfile(np.full((2, 3, 4), 0.3)), "profile samples must have shape (sites) or (times, sites)"),
    (lambda: MetricField2D(-np.ones(3), -np.ones(3), np.zeros(3)),
     "metric samples must have shape (nx, ny) or (times, nx, ny)"),
], ids=["profile-rank-0", "profile-rank-3", "metric-rank-1"])
def test_background_of_another_rank_is_rejected(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# one rule for lattice momenta

ADMISSIBILITY = r"^k\[\d\] = \S+ is inadmissible: not a multiple of 2\*pi/\d+$"


@pytest.mark.parametrize("build", [
    lambda: SpinorField.plane_wave((8, 6), (math.pi / 4, 0.5), (1.0, 0.0)),
    lambda: gw_two_mode_state(0.1, (64, 64)),
    lambda: gw_wavelength_scan(wavelengths=(5,), extents=(96, 96)),
], ids=["plane-wave", "two-mode-state", "wavelength-scan"])
def test_inadmissible_momentum_raises_the_one_message(build):
    with pytest.raises(ValueError, match=ADMISSIBILITY):
        build()


def test_admissibility_names_the_axis_that_does_not_fit():
    with pytest.raises(ValueError, match=r"^k\[1\] = 0\.5 is inadmissible: not a multiple of 2\*pi/6$"):
        SpinorField.plane_wave((8, 6), (math.pi / 4, 0.5), (1.0, 0.0))
    with pytest.raises(ValueError, match=r"^k\[1\] = \S+ is inadmissible: not a multiple of 2\*pi/10$"):
        gw_two_mode_state(math.pi / 4, (8, 10))


# ---------------------------------------------------------------------------
# unitary links, checked once when a LinkField is built


# the check reads the links in blocks of about 2^14 site-steps and never writes them, so checked and unchecked links
# step the same bits; 40 x 1000 site-steps span three blocks
@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_links_pass_the_check_and_step_the_same_bits(n):
    rng = np.random.default_rng(300 + n)
    u_plus, u_minus = _haar_unitary(rng, (40, 1000, n, n)), _haar_unitary(rng, (40, 1000, n, n))
    checked, unchecked = LinkField(u_plus, u_minus, 0.5), LinkField(u_plus, u_minus, 0.5, _unitary=True)
    field = SpinorField(rng.normal(size=(1000, 2 * n)) + 1j * rng.normal(size=(1000, 2 * n))).normalized()
    for j in (0, 17, 39):
        a, b = nonabelian_step(field, checked, 0.4, j), nonabelian_step(field, unchecked, 0.4, j)
        assert np.ascontiguousarray(a.amplitudes).tobytes() == np.ascontiguousarray(b.amplitudes).tobytes()
        assert abs(a.norm_sq() - 1.0) < 1e-12


# links with an empty steps or sites axis hold no matrix to check, and are built as before the check
@pytest.mark.parametrize("shape", [(0, 4, 2, 2), (3, 0, 2, 2)])
def test_empty_links_are_built_unchecked(shape):
    links = LinkField(np.zeros(shape), np.zeros(shape), 0.5)
    assert (links.steps, links.extents) == (shape[0], shape[1:2])

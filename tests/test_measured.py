"""Measured-walk scheme: branch probabilities, enumeration, classical limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.measured import (
    AharonovConfig,
    aharonov_step,
    classical_rw_distribution,
    enumerate_averaged_distribution,
    evolve_outcomes,
    outcome_probabilities,
    sample_averaged_distribution,
)

ANGLE = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def make_config(spin_angle, spin_phase, coin_angle, coin_phase_a, coin_phase_b, omega):
    return AharonovConfig(
        spin_up=math.cos(spin_angle),
        spin_down=complex(math.cos(spin_phase), math.sin(spin_phase)) * math.sin(spin_angle),
        coin_alpha=complex(math.cos(coin_phase_a), math.sin(coin_phase_a)) * math.cos(coin_angle),
        coin_beta=complex(math.cos(coin_phase_b), math.sin(coin_phase_b)) * math.sin(coin_angle),
        coin_phase=omega,
    )


def random_ket(rng, sites):
    ket = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    return ket / np.linalg.norm(ket)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unnormalized_spin():
    with pytest.raises(ValueError, match="spin preparation"):
        AharonovConfig(spin_up=1.0, spin_down=0.5, coin_alpha=1.0)


def test_config_rejects_unnormalized_coin():
    with pytest.raises(ValueError, match="coin not normalized"):
        AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=0.9, coin_beta=0.1)


def test_config_classical_probability_and_coinless_flag():
    config = AharonovConfig(
        spin_up=0.6, spin_down=0.8j, coin_alpha=np.exp(0.3j), coin_beta=0.0
    )
    assert config.pi_plus == pytest.approx(0.36, abs=1e-15)
    assert config.coinless
    coined = make_config(0.3, 0.1, 0.7, 0.2, 0.4, 0.5)
    assert not coined.coinless


# ---------------------------------------------------------------------------
# one-step scheme


def test_coinless_plus_outcome_is_rigid_right_shift():
    rng = np.random.default_rng(11)
    ket = random_ket(rng, 24)
    config = AharonovConfig(
        spin_up=1 / math.sqrt(2), spin_down=1j / math.sqrt(2),
        coin_alpha=np.exp(0.7j), coin_beta=0.0,
    )
    out, probability = aharonov_step(ket, config, +1)
    assert probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(np.abs(out), np.abs(np.roll(ket, 1)), atol=1e-14)
    out, probability = aharonov_step(ket, config, -1)
    assert probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(np.abs(out), np.abs(np.roll(ket, -1)), atol=1e-14)


def test_deterministic_transport_when_spin_is_pure_up():
    ket = np.zeros(16, dtype=np.complex128)
    ket[8] = 1.0
    config = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0, coin_beta=0.0)
    out, probability = aharonov_step(ket, config, +1)
    assert probability == pytest.approx(1.0, abs=1e-15)
    assert abs(out[9]) == pytest.approx(1.0, abs=1e-15)


def test_impossible_branch_raises():
    ket = np.zeros(16, dtype=np.complex128)
    ket[8] = 1.0
    config = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0, coin_beta=0.0)
    with pytest.raises(ValueError, match="impossible branch"):
        aharonov_step(ket, config, -1)


def test_invalid_outcome_rejected():
    config = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0)
    with pytest.raises(ValueError, match="outcome"):
        aharonov_step(np.ones(4) / 2.0, config, 0)


def test_probabilities_match_interference_closed_form():
    # P+ = |a c+|^2 + |b c-|^2 + 2 Re{a b* c+ conj(c-) <psi|R^2|psi>}
    rng = np.random.default_rng(5)
    ket = random_ket(rng, 20)
    config = make_config(0.4, 1.1, 0.8, -0.3, 0.9, 0.25)
    p_plus, p_minus = outcome_probabilities(ket, config)
    overlap = np.vdot(ket, np.roll(ket, 2))
    cross = 2.0 * (
        config.coin_alpha * np.conj(config.coin_beta)
        * config.spin_up * np.conj(config.spin_down) * overlap
    ).real
    expected_plus = (
        abs(config.coin_alpha * config.spin_up) ** 2
        + abs(config.coin_beta * config.spin_down) ** 2
        + cross
    )
    assert p_plus == pytest.approx(expected_plus, abs=1e-13)
    assert p_minus == pytest.approx(1.0 - expected_plus, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(ANGLE, ANGLE, ANGLE, ANGLE, ANGLE, ANGLE, st.integers(0, 2**31 - 1))
def test_branch_completeness(spin_angle, spin_phase, coin_angle, pa, pb, omega, seed):
    config = make_config(spin_angle, spin_phase, coin_angle, pa, pb, omega)
    ket = random_ket(np.random.default_rng(seed), 14)
    p_plus, p_minus = outcome_probabilities(ket, config)
    assert p_plus >= -1e-15 and p_minus >= -1e-15
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_coinless_sequence_preserves_profile_shape():
    rng = np.random.default_rng(3)
    ket = random_ket(rng, 30)
    config = AharonovConfig(
        spin_up=0.6, spin_down=0.8, coin_alpha=np.exp(-0.2j), coin_beta=0.0
    )
    outcomes = [1, 1, -1, 1, -1, -1, 1, 1]
    final, joint = evolve_outcomes(ket, config, outcomes)
    net = sum(outcomes)
    np.testing.assert_allclose(np.abs(final), np.abs(np.roll(ket, net)), atol=1e-14)
    plus_count = outcomes.count(1)
    expected = 0.36**plus_count * 0.64 ** (len(outcomes) - plus_count)
    assert joint == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# exhaustive outcome average


def test_zero_steps_returns_initial_distribution():
    rng = np.random.default_rng(2)
    ket = random_ket(rng, 12)
    config = make_config(0.5, 0.0, 0.3, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(
        enumerate_averaged_distribution(ket, config, 0), np.abs(ket) ** 2, atol=1e-15
    )


def test_enumeration_limit_enforced():
    config = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0)
    with pytest.raises(ValueError, match="enumeration limit"):
        enumerate_averaged_distribution(np.ones(4) / 2.0, config, 17)


def test_coinless_balanced_walk_is_binomial():
    sites = 32
    steps = 8
    ket = np.zeros(sites, dtype=np.complex128)
    ket[16] = 1.0
    config = AharonovConfig(
        spin_up=1 / math.sqrt(2), spin_down=1 / math.sqrt(2),
        coin_alpha=1.0, coin_beta=0.0,
    )
    distribution = enumerate_averaged_distribution(ket, config, steps)
    expected = np.zeros(sites)
    for k in range(steps + 1):
        expected[16 + 2 * k - steps] = math.comb(steps, k) / 2.0**steps
    np.testing.assert_allclose(distribution, expected, atol=1e-12)


def test_coined_average_equals_classical_recursion():
    rng = np.random.default_rng(9)
    ket = random_ket(rng, 28)
    config = make_config(0.35, 0.6, 1.1, -0.8, 0.4, 1.7)
    steps = 8
    averaged = enumerate_averaged_distribution(ket, config, steps)
    classical = classical_rw_distribution(config.pi_plus, steps, np.abs(ket) ** 2)
    assert np.max(np.abs(averaged - classical)) < 1e-10
    assert averaged.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(ANGLE, ANGLE, ANGLE, ANGLE, ANGLE, st.integers(0, 2**31 - 1))
def test_average_is_classical_for_any_coin(spin_angle, spin_phase, coin_angle, pa, pb, seed):
    # the coin (alpha, beta, omega) must drop out of the averaged walk
    config = make_config(spin_angle, spin_phase, coin_angle, pa, pb, 0.9)
    ket = random_ket(np.random.default_rng(seed), 16)
    steps = 6
    averaged = enumerate_averaged_distribution(ket, config, steps)
    classical = classical_rw_distribution(config.pi_plus, steps, np.abs(ket) ** 2)
    assert np.max(np.abs(averaged - classical)) < 1e-10


# ---------------------------------------------------------------------------
# classical recursion oracle


def test_classical_sure_right_step_advects_delta():
    initial = np.zeros(16)
    initial[4] = 1.0
    distribution = classical_rw_distribution(1.0, 5, initial)
    expected = np.zeros(16)
    expected[9] = 1.0
    np.testing.assert_allclose(distribution, expected, atol=1e-15)


def test_classical_balanced_walk_is_binomial():
    steps = 8
    initial = np.zeros(32)
    initial[16] = 1.0
    distribution = classical_rw_distribution(0.5, steps, initial)
    expected = np.zeros(32)
    for k in range(steps + 1):
        expected[16 + 2 * k - steps] = math.comb(steps, k) / 2.0**steps
    np.testing.assert_allclose(distribution, expected, atol=1e-15)


def test_classical_moments_match_closed_forms():
    # position mean N(pi+ - pi-), position variance 4 N pi+ pi-
    steps = 10
    pi = 0.7
    sites = 64
    initial = np.zeros(sites)
    initial[32] = 1.0
    distribution = classical_rw_distribution(pi, steps, initial)
    positions = np.arange(sites) - 32
    mean = float(np.sum(positions * distribution))
    variance = float(np.sum((positions - mean) ** 2 * distribution))
    assert mean == pytest.approx(steps * (2 * pi - 1), abs=1e-12)
    assert variance == pytest.approx(4 * steps * pi * (1 - pi), abs=1e-12)


def test_classical_per_step_probabilities():
    initial = np.zeros(16)
    initial[8] = 1.0
    distribution = classical_rw_distribution([1.0, 0.0, 1.0], 3, initial)
    expected = np.zeros(16)
    expected[9] = 1.0  # right, left, right
    np.testing.assert_allclose(distribution, expected, atol=1e-15)
    with pytest.raises(ValueError, match="pi_plus"):
        classical_rw_distribution(1.5, 2, initial)


# ---------------------------------------------------------------------------
# sampling mode


def test_sampling_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(21)
    ket = random_ket(rng, 20)
    config = make_config(0.4, 0.2, 0.9, 0.1, -0.5, 0.3)
    first = sample_averaged_distribution(ket, config, steps=18, samples=40, seed=77)
    second = sample_averaged_distribution(ket, config, steps=18, samples=40, seed=77)
    np.testing.assert_array_equal(first, second)
    assert first.sum() == pytest.approx(1.0, abs=1e-10)


def test_sampling_rejects_negative_steps():
    config = AharonovConfig(spin_up=1.0, spin_down=0.0, coin_alpha=1.0)
    with pytest.raises(ValueError, match="steps must be nonnegative"):
        sample_averaged_distribution(np.ones(4) / 2.0, config, steps=-1, samples=3, seed=1)


def test_sampling_approaches_enumeration():
    ket = np.zeros(24, dtype=np.complex128)
    ket[12] = 1.0
    config = make_config(0.6, 0.0, 0.8, 0.3, 0.0, 0.0)
    exact = enumerate_averaged_distribution(ket, config, 6)
    sampled = sample_averaged_distribution(ket, config, steps=6, samples=3000, seed=5)
    assert np.max(np.abs(exact - sampled)) < 0.05

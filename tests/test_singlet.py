import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_epsilon_profile, reference_outcome_tables, same_array, same_profile
from weakch.inequalities import TSIRELSON_LOWER, TSIRELSON_UPPER
from weakch.singlet import (
    canonical_angle,
    ch_terms,
    ch_value,
    epsilon_profile,
    joint_prob,
    marginal_prob,
    outcome_tables,
)

PI = math.pi


def test_canonical_angle_range():
    assert canonical_angle(0.0) == 0.0
    assert canonical_angle(-PI / 2) == pytest.approx(3 * PI / 2, abs=1e-15)
    assert canonical_angle(2 * PI) == 0.0
    assert 0.0 <= canonical_angle(123.456) < 2 * PI


@pytest.mark.parametrize("value, expected", [
    (-1e-17, 0.0),
    (-5e-324, 0.0),
    (-1e-16, 0.0),
    (-math.ulp(2 * PI) / 2, 0.0),
    (-0.0, 0.0),
    (-2 * PI, 0.0),
    (-4 * PI, 0.0),
    (-math.ulp(2 * PI), math.nextafter(2 * PI, 0.0)),
])
def test_canonical_angle_of_a_tiny_negative_angle_is_in_range(value, expected):
    # r + 2*pi may round to 2*pi itself, which lies outside [0, 2*pi), and
    # fmod gives -0.0 for a negative multiple of 2*pi
    r = canonical_angle(value)
    assert 0.0 <= r < 2 * PI
    assert (r, math.copysign(1.0, r)) == (expected, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_refused(value):
    # every entry point reduces its angles through canonical_angle, which names the bad one
    calls = (
        lambda: canonical_angle(value),
        lambda: joint_prob(value, "+", "-"),
        lambda: ch_terms((0.0, value, 1.0, 2.0)),
        lambda: ch_value((0.0, value, 1.0, 2.0)),
        lambda: outcome_tables([0.5, value], [0.0]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"angle must be finite, got {value!r}")):
            call()


@pytest.mark.parametrize(
    "phi,a,b,expected",
    [
        (PI / 2, "+", "+", 0.25),
        (0.0, "+", "+", 0.0),
        (PI / 4, "+", "+", (2.0 - math.sqrt(2.0)) / 8.0),  # 0.0732233047...
        (PI, "+", "-", 0.0),
    ],
)
def test_joint_prob_reference_values(phi, a, b, expected):
    assert joint_prob(phi, a, b) == pytest.approx(expected, abs=1e-12)


def test_marginals_are_even():
    assert marginal_prob("+") == 0.5
    assert marginal_prob("-") == 0.5
    assert marginal_prob("+") + marginal_prob("-") == 1.0


def test_outcome_validation():
    with pytest.raises(ValueError):
        joint_prob(0.1, "up", "+")


@settings(deadline=None)
@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_joint_probs_normalize(phi):
    total = sum(joint_prob(phi, a, b) for a in "+-" for b in "+-")
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None)
@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_joint_prob_sign_flip_symmetry(phi):
    assert joint_prob(phi, "+", "+") == joint_prob(phi, "-", "-")
    assert joint_prob(phi, "+", "-") == joint_prob(phi, "-", "+")


def test_profile_parallel_directions():
    prof = epsilon_profile(outcome_tables((0.0,), (0.0,)))
    assert prof.eps_a[0] == 0.0
    assert prof.partner_a[0] == 0
    assert prof.eps_global == 0.0


def test_profile_two_bob_choices():
    # evaluate the anticorrelation conditional by hand: deficit sin^2(phi/2)
    prof = epsilon_profile(outcome_tables((0.0,), (PI / 4, PI / 2)))
    assert prof.eps_a[0] == pytest.approx(math.sin(PI / 8) ** 2, abs=1e-12)
    assert prof.eps_a[0] == pytest.approx(0.14644660940672624, abs=1e-12)
    assert prof.partner_a[0] == 0


def test_profile_grid_has_zero_deficit():
    # every direction has a parallel partner on the far wing
    prof = epsilon_profile(outcome_tables((0.0, PI / 2), (0.0, PI / 2)))
    assert prof.eps_global == 0.0


def test_profile_opposite_directions_have_maximal_deficit():
    # at angle pi the outcomes correlate instead of anticorrelating, so the
    # anticorrelation deficit is maximal, not zero
    prof = epsilon_profile(outcome_tables((0.0,), (PI,)))
    assert prof.eps_ab[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_profile_tie_breaks_to_lowest_index():
    # duplicate Bob directions give an exact tie in the deficits
    prof = epsilon_profile(outcome_tables((0.0,), (PI / 4, PI / 4)))
    assert prof.eps_ab[0, 0] == prof.eps_ab[0, 1]
    assert prof.partner_a[0] == 0
    assert prof.partner_b[0] == 0 and prof.partner_b[1] == 0


def test_profile_row_minimum_invariant():
    prof = epsilon_profile(outcome_tables((0.1, 1.3, 2.9), (0.7, 2.0)))
    assert np.all(prof.eps_a[:, None] <= prof.eps_ab + 1e-15)
    assert np.all(prof.eps_b[None, :] <= prof.eps_ba + 1e-15)
    assert prof.eps_global >= prof.eps_a.max()
    assert prof.eps_global >= prof.eps_b.max()


def test_profile_from_external_tables():
    cond_ab = [[0.99, 0.4], [0.7, 0.95]]
    cond_ba = [[0.98, 0.5], [0.6, 0.97]]

    def table(p_ab, p_ba, both_minus=1e-3):
        # p(+_a|-_b) = p_ab and p(+_b|-_a) = p_ba, the rest on (+, +)
        x = p_ab * both_minus / (1.0 - p_ab)
        y = p_ba * both_minus / (1.0 - p_ba)
        return [[1.0 - x - y - both_minus, x], [y, both_minus]]

    tables = np.array([[table(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(cond_ab, cond_ba)])
    prof = epsilon_profile(tables)
    assert prof.eps_ab[0, 0] == pytest.approx(0.01, abs=1e-12)
    assert prof.partner_a[0] == 0
    assert prof.partner_a[1] == 1
    assert prof.eps_b[1] == pytest.approx(1 - 0.97, abs=1e-12)
    assert prof.eps_global == pytest.approx(max(0.01, 0.05, 0.02, 0.03), abs=1e-12)


@pytest.mark.parametrize(
    "tables",
    [
        np.full((2, 2, 2), 0.25),
        np.full((2, 2, 2, 3), 0.25),
        outcome_tables((), (0.0,)),
        outcome_tables((0.0,), ()),
        np.array([[[[0.5, 0.6], [0.0, -0.1]]]]),
        np.array([[[[0.5, np.nan], [0.5, 0.0]]]]),
        np.array([[[[0.5, np.inf], [0.5, 0.0]]]]),
    ],
    ids=["three_axes", "not_2x2", "no_alice_direction", "no_bob_direction", "negative", "nan", "inf"],
)
def test_profile_rejects_malformed_tables(tables):
    for profile in (epsilon_profile, reference_epsilon_profile):
        with pytest.raises(ValueError):
            profile(tables)


def _grid_tables(rng, n_alice, n_bob):
    # Random tables with zero-mass conditioners on either side, quarter-rounded
    # entries, and cells copied along a row or a column for exact ties.
    t = rng.random((n_alice, n_bob, 2, 2))
    if rng.random() < 0.3:
        t = np.round(4.0 * t) / 4.0  # zeros, ties and exact deficits 1/2 and 1/3
    for i, j in np.ndindex(n_alice, n_bob):
        kind = rng.integers(6)
        if kind == 0:
            t[i, j, :, 1] = 0.0  # no B=- mass
        elif kind == 1:
            t[i, j, 1, :] = 0.0  # no A=- mass
        elif kind == 2:
            t[i, j] = 0.0
        elif kind == 3:
            t[i, j] = t[i, rng.integers(n_bob)]
        elif kind == 4:
            t[i, j] = t[rng.integers(n_alice), j]
    if rng.random() < 0.5:
        t /= np.maximum(t.sum(axis=(2, 3), keepdims=True), 1e-300)  # each table a law, or all zero
    return t


@pytest.mark.parametrize("n_alice, n_bob", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_profile_matches_the_numpy_reference(n_alice, n_bob):
    # every field by dtype, shape, bytes and read-only flag
    rng = np.random.default_rng([n_alice, n_bob])
    for _ in range(300):
        t = _grid_tables(rng, n_alice, n_bob)
        assert same_profile(epsilon_profile(t), reference_epsilon_profile(t))
    for _ in range(20):
        alice = rng.uniform(-2 * PI, 2 * PI, n_alice).tolist()
        bob = rng.uniform(-2 * PI, 2 * PI, n_bob).tolist()
        t = outcome_tables(alice, bob)
        assert same_profile(epsilon_profile(t), reference_epsilon_profile(t))


def test_profile_reads_nested_lists_as_the_reference_does():
    t = [[[[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.0], [0.5, 0.0]]]]
    assert same_profile(epsilon_profile(t), reference_epsilon_profile(t))


def test_singlet_profile_is_sin_squared_of_half_angle():
    # the deficit of every direction pair is sin^2(phi/2), to the last bits
    angles = np.linspace(-2 * PI, 2 * PI, 41)
    prof = epsilon_profile(outcome_tables(angles, angles[::3]))
    expected = np.sin(0.5 * (angles[:, None] - angles[None, ::3])) ** 2
    assert np.abs(prof.eps_ab - expected).max() <= 1e-15
    assert np.abs(prof.eps_ba - expected).max() <= 1e-15


def test_ch_value_lower_extremum():
    theta = (0.0, -PI / 2, PI / 4, -PI / 4)
    assert ch_value(theta) == pytest.approx(-(math.sqrt(2) + 1) / 2, abs=1e-12)


def test_ch_value_upper_extremum():
    theta = (0.0, -PI / 2, -3 * PI / 4, -5 * PI / 4)
    assert ch_value(theta) == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)


def test_ch_value_equal_angles():
    assert ch_value((0.3, 0.3, 0.3, 0.3)) == pytest.approx(-1.0, abs=1e-15)


def test_ch_terms_match_value():
    theta = (0.2, 1.1, -0.4, 2.2)
    t = ch_terms(theta)
    combo = t["p13"] + t["p14"] + t["p24"] - t["p23"] - t["p1_plus"] - t["p4_plus"]
    assert combo == ch_value(theta)


@pytest.mark.parametrize("theta", [("0.5", 0.0, 0.0, 0.0), (0.0, True, 0.0, 0.0)], ids=repr)
def test_ch_terms_read_real_numbers(theta):
    # float() would read "0.5" and True as angles
    with pytest.raises(TypeError, match="expected a real number"):
        ch_terms(theta)


def test_ch_value_stays_in_quantum_interval():
    rng = np.random.default_rng(99)
    for theta in rng.uniform(-2 * PI, 2 * PI, size=(4000, 4)):
        v = ch_value(theta)
        assert TSIRELSON_LOWER - 1e-12 <= v <= TSIRELSON_UPPER + 1e-12


def test_outcome_tables_shape_and_mass():
    t = outcome_tables((0.0, 1.0), (0.5, 2.0, 3.0))
    assert t.shape == (2, 3, 2, 2)
    assert np.allclose(t.sum(axis=(2, 3)), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_alice, n_bob", [(1, 1), (2, 2), (3, 2), (4, 3), (0, 2), (2, 0)])
def test_outcome_tables_hold_the_joint_probabilities(n_alice, n_bob):
    # every entry is joint_prob's, by dtype, shape and bytes, at angles
    # within a turn and far outside it
    rng = np.random.default_rng([n_alice, n_bob])
    for scale in (2 * PI, 1e3, 1e9):
        for _ in range(50):
            alice = rng.uniform(-scale, scale, n_alice).tolist()
            bob = rng.uniform(-scale, scale, n_bob).tolist()
            assert same_array(outcome_tables(alice, bob), reference_outcome_tables(alice, bob))


def test_outcome_tables_without_directions_are_empty():
    assert outcome_tables((), (0.0,)).shape == (0, 1, 2, 2)
    assert outcome_tables((0.0,), ()).shape == (1, 0, 2, 2)

import ast
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_correction_terms, reference_weak_ch_bounds
from weakch import simulate as sim
from weakch.inequalities import (
    QUANTUM_EXCESS,
    SYMMETRIC_SETTINGS,
    TSIRELSON_LOWER,
    TSIRELSON_UPPER,
    BadEpsilon,
    BadSettingProbs,
    SettingProbs,
    UnnormalizedTable,
    WeakChError,
    bound_coefficients,
    ch_atom_oracle,
    ch_expression,
    correction_terms,
    epsilon_thresholds,
    evaluate_weak_ch,
    left_sum,
    no_signalling_residuals,
    pair_settings,
    real_numbers,
    tsirelson_check,
    weak_ch_bounds,
)
from weakch.singlet import outcome_tables


def test_correction_terms_vanish_at_zero():
    ct = correction_terms(0.0)
    assert (ct.d_minus_ab, ct.d_plus_ab, ct.d_minus, ct.d_plus) == (0.0, 0.0, 0.0, 0.0)


@settings(deadline=None)
@given(st.floats(1e-12, 1.0))
def test_correction_terms_symmetric_closed_forms(eps):
    ct = correction_terms(eps, SYMMETRIC_SETTINGS)
    root = math.sqrt(eps)
    assert ct.d_minus_ab == pytest.approx(4.0 * root, rel=1e-14)
    assert ct.d_plus_ab == pytest.approx(20.0 * root - 8.0 * eps, rel=1e-14)
    assert ct.d_minus == root
    assert ct.d_plus == pytest.approx(4.0 * root - 2.0 * eps, rel=1e-14)


def test_correction_terms_small_eps_reference():
    ct = correction_terms(1e-4, SYMMETRIC_SETTINGS)
    assert ct.d_minus_ab == pytest.approx(0.04, abs=1e-15)
    assert ct.d_plus_ab == pytest.approx(0.1992, abs=1e-15)


def test_correction_terms_uneven_closed_forms():
    # p(a) != p(b) and neither is 1/2, so (p(a) + p(b))/p(ab) = 7 tells
    # p(a) + p(b) from 1, 2 p(a) or 2 p(b); the figures are exact in binary
    sp = SettingProbs(0.25, 0.625, 0.125)
    ct = correction_terms(1 / 64, sp)  # sqrt(eps) = 1/8
    assert (ct.d_minus_ab, ct.d_plus_ab, ct.d_minus, ct.d_plus) == (0.875, 4.15625, 0.125, 0.46875)
    # the terms read p(a) and p(b) only through their sum
    assert correction_terms(1 / 64, SettingProbs(0.625, 0.25, 0.125)) == ct


@settings(deadline=None)
@given(st.floats(1e-12, 1.0))
def test_correction_term_ordering(eps):
    ct = correction_terms(eps)
    assert ct.d_plus_ab >= ct.d_minus_ab
    assert ct.d_plus >= ct.d_minus


def test_correction_terms_rejects_bad_epsilon():
    with pytest.raises(BadEpsilon):
        correction_terms(-1e-9)
    with pytest.raises(BadEpsilon):
        correction_terms(1.0 + 1e-9)


@pytest.mark.parametrize("bad", [True, False, "0.001", None, [0.5]], ids=repr)
def test_epsilon_is_a_real_number(bad):
    # float() would read True as 1 and "0.001" as a number
    sps = pair_settings(np.full((2, 2), 0.25))
    for call in (
        lambda: correction_terms(bad),
        lambda: weak_ch_bounds(bad),
        lambda: weak_ch_bounds(bad, sps),
        lambda: evaluate_weak_ch(-0.5, (-1.0, 0.0), bad),
    ):
        with pytest.raises(BadEpsilon, match="epsilon must be a real number"):
            call()


def test_setting_probs_validation():
    with pytest.raises(BadSettingProbs):
        SettingProbs(0.5, 0.5, 0.0)
    with pytest.raises(BadSettingProbs):
        SettingProbs(0.5, 0.5, 0.6)
    with pytest.raises(BadSettingProbs):
        SettingProbs(1.5, 0.5, 0.25)


def six_terms(*probs):
    return dict(zip(("p13", "p14", "p24", "p23", "p1_plus", "p4_plus"), probs))


def test_ch_expression_atom_cases():
    # all mass on the atom where all four events occur
    assert ch_expression(six_terms(1, 1, 1, 1, 1, 1)) == 0
    # all mass on the atom with A false and the rest true
    assert ch_expression(six_terms(0, 0, 1, 1, 0, 1)) == -1
    # independent fair coins
    assert ch_expression(six_terms(0.25, 0.25, 0.25, 0.25, 0.5, 0.5)) == pytest.approx(-0.5, abs=1e-15)


def test_weak_bounds_reduce_to_strict_at_zero():
    assert weak_ch_bounds(0.0) == (-1.0, 0.0)


@settings(deadline=None)
@given(st.floats(1e-12, 1.0))
def test_weak_bounds_symmetric_closed_forms(eps):
    lower, upper = weak_ch_bounds(eps, SYMMETRIC_SETTINGS)
    root = math.sqrt(eps)
    assert lower == pytest.approx(-1.0 - (40.0 * root - 12.0 * eps), rel=1e-13, abs=1e-13)
    assert upper == pytest.approx(66.0 * root - 24.0 * eps, rel=1e-13, abs=1e-13)


def _numpy_pair_settings(table):
    # pair_settings as it summed with ndarray.sum
    return tuple(
        SettingProbs(float(table[a].sum()), float(table[:, b].sum()), float(table[a, b]))
        for a, b in ((0, 0), (0, 1), (1, 1), (1, 0))
    )


def test_pair_settings_adds_as_numpy_does():
    rng = np.random.default_rng(19)
    tables = [rng.dirichlet(np.full(4, alpha)).reshape(2, 2) for alpha in (0.3, 1.0, 5.0) for _ in range(300)]
    tables += [rng.random((2, 2)) / 2.0 for _ in range(300)]  # unnormalized, as pair_settings accepts
    for t in tables:
        got, want = pair_settings(t), _numpy_pair_settings(t)
        assert [float.hex(v) for sp in got for v in (sp.p_a, sp.p_b, sp.p_ab)] == [
            float.hex(v) for sp in want for v in (sp.p_a, sp.p_b, sp.p_ab)
        ]
    # ndarray.sum adds two negative zeros to +0.0, and the error says so
    signed = np.array([[-0.0, -0.0], [0.5, 0.5]])
    for build in (pair_settings, _numpy_pair_settings):
        with pytest.raises(BadSettingProbs, match=r"p_a must be in \(0, 1\], got 0\.0$"):
            build(signed)


def test_equal_setting_laws_share_their_pair_settings():
    rng = np.random.default_rng(25)
    tables = [np.full((2, 2), 0.25)]
    tables += [rng.dirichlet(np.full(4, alpha)).reshape(2, 2) for alpha in (0.3, 5.0) for _ in range(50)]
    for t in tables:
        got = pair_settings(t)
        assert pair_settings(t.copy()) is got
        assert pair_settings(np.array(t.tolist(), dtype=float)) is got
        assert [float.hex(v) for sp in got for v in (sp.p_a, sp.p_b, sp.p_ab)] == [
            float.hex(v) for sp in _numpy_pair_settings(t) for v in (sp.p_a, sp.p_b, sp.p_ab)
        ]


@pytest.mark.parametrize(
    "table",
    [[[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.5], [-0.0, 0.0]], [[0.25, 0.25], [0.25, math.nan]], [[0.5, 0.0], [0.5, 0.0]]],
    ids=["zero row", "signed zero row", "NaN", "zero column"],
)
def test_refused_setting_laws_raise_on_every_call(table):
    for _ in range(3):
        with pytest.raises(BadSettingProbs):
            pair_settings(np.array(table))


def test_weak_bounds_per_pair_settings():
    # pairs 13 and 24 at ratio (p(a) + p(b))/p(ab) = 2.5, pairs 14 and 23 at 10
    sps = pair_settings(np.array([[0.4, 0.1], [0.1, 0.4]]))
    assert sps == (
        SettingProbs(0.5, 0.5, 0.4),
        SettingProbs(0.5, 0.5, 0.1),
        SettingProbs(0.5, 0.5, 0.4),
        SettingProbs(0.5, 0.5, 0.1),
    )
    lower, upper = weak_ch_bounds(1e-4, sps)
    assert lower == pytest.approx(-1.0 - 15.0 * 0.01 - 10.0 * 0.0498 - 2.0 * 0.0398, abs=1e-14)
    assert upper == pytest.approx(15.0 * 0.0498 + 10.0 * 0.01 + 2.0 * 0.01, abs=1e-14)
    assert weak_ch_bounds(1e-4, [SYMMETRIC_SETTINGS] * 4) == weak_ch_bounds(1e-4)
    with pytest.raises(BadSettingProbs):
        weak_ch_bounds(1e-4, sps[:3])


def _hex(values):
    return [float.hex(v) for v in values]


def test_weak_bounds_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    epsilons = [0.0, -0.0, 1.0, 1e-12, *(10.0 ** rng.uniform(-12.0, 0.0, 60)).tolist()]
    laws = [np.full((2, 2), 0.25), np.array([[0.1, 0.2], [0.3, 0.4]])]
    laws += [rng.dirichlet(np.full(4, alpha)).reshape(2, 2) for alpha in (0.5, 1.0, 5.0) for _ in range(20)]
    fields = ("epsilon", "d_minus_ab", "d_plus_ab", "d_minus", "d_plus")
    for law in laws:
        sps = pair_settings(law)
        for eps in epsilons:
            for settings in (sps, sps[1], list(sps)):
                assert _hex(weak_ch_bounds(eps, settings)) == _hex(reference_weak_ch_bounds(eps, settings))
            got, want = correction_terms(eps, sps[3]), reference_correction_terms(eps, sps[3])
            assert _hex(getattr(got, f) for f in fields) == _hex(getattr(want, f) for f in fields)


@pytest.mark.parametrize(
    "epsilon, n_settings, error",
    [
        (2.0, 0, BadSettingProbs),  # an empty tuple is refused for its length alone
        (2.0, 3, BadEpsilon),
        (0.5, 3, BadSettingProbs),
        (2.0, 5, BadEpsilon),
        (math.nan, 4, BadEpsilon),
        (-1e-9, 4, BadEpsilon),
        (1.0 + 1e-9, 1, BadEpsilon),
    ],
)
def test_weak_bounds_refuse_bad_input_as_the_reference_does(epsilon, n_settings, error):
    settings = (SYMMETRIC_SETTINGS,) * n_settings if n_settings != 1 else SYMMETRIC_SETTINGS
    for bounds in (weak_ch_bounds, reference_weak_ch_bounds):
        with pytest.raises(error):
            bounds(epsilon, settings)


@settings(deadline=None)
@given(st.floats(0.0, 1.0))
def test_weak_bounds_bracket_strict_interval(eps):
    lower, upper = weak_ch_bounds(eps)
    assert lower <= -1.0
    assert upper >= 0.0
    if eps == 0.0:
        assert (lower, upper) == (-1.0, 0.0)


@settings(deadline=None)
@given(st.floats(1e-10, 1.0), st.floats(1.000001, 10.0))
def test_weak_bounds_monotone_in_eps(eps, factor):
    eps2 = min(1.0, eps * factor)
    lo1, up1 = weak_ch_bounds(eps)
    lo2, up2 = weak_ch_bounds(eps2)
    assert lo2 <= lo1 + 1e-12
    assert up2 >= up1 - 1e-12


def test_evaluate_quantum_value_against_strict_bounds():
    rep = evaluate_weak_ch(TSIRELSON_LOWER, (-1.0, 0.0), 0.0)
    assert rep.violated_lower and not rep.violated_upper


def test_evaluate_quantum_value_with_corrections():
    eps = 1e-4
    rep = evaluate_weak_ch(TSIRELSON_LOWER, weak_ch_bounds(eps), eps)
    # the lower correction 40*sqrt(eps) - 12*eps ~ 0.3988 exceeds the quantum excess
    assert not rep.violated_lower and not rep.violated_upper


def test_evaluate_inside_interval():
    rep = evaluate_weak_ch(-0.5, (-1.0, 0.0), 0.0)
    assert not rep.violated


@pytest.mark.parametrize("args, name", [
    (("-0.5", (-1.0, 0.0), 0.0), "value"),
    ((True, (-1.0, 0.0), 0.0), "value"),
    ((-0.5, (None, 0.0), 0.0), "lower bound"),
    ((-0.5, (-1.0, "0"), 0.0), "upper bound"),
])
def test_evaluate_reads_real_numbers(args, name):
    # float() would read "-0.5" and True as numbers
    with pytest.raises(WeakChError, match=f"{name} must be a real number"):
        evaluate_weak_ch(*args)


@pytest.mark.parametrize("args, name", [
    ((math.nan, (-1.0, 0.0), 0.0), "value"),
    ((math.inf, (-1.0, 0.0), 0.0), "value"),
    ((-5.0, (math.nan, 0.0), 0.0), "lower bound"),
    ((-5.0, (-math.inf, 0.0), 0.0), "lower bound"),
    ((0.5, (-1.0, math.nan), 0.0), "upper bound"),
    ((np.float64(math.nan), (-1.0, 0.0), 0.0), "value"),
])
def test_evaluate_refuses_non_finite_numbers(args, name):
    # a NaN compares as neither below nor above a bound, so it would read
    # as "not violated"
    with pytest.raises(WeakChError, match=f"^{name} must be finite, got"):
        evaluate_weak_ch(*args)


def test_thresholds_reference_values():
    lo, hi = epsilon_thresholds()
    assert f"{lo:.3e}" == "2.689e-05"
    assert f"{hi:.3e}" == "9.869e-06"


def test_thresholds_match_decimal_reference():
    # the smaller root of lin*x - quad*x^2 = excess, squared, in 60 digits
    lo, hi = epsilon_thresholds()
    with localcontext() as ctx:
        ctx.prec = 60
        excess = Decimal(QUANTUM_EXCESS)
        for got, (lin, quad) in zip((lo, hi), bound_coefficients()):
            lin, quad = Decimal(lin), Decimal(quad)
            x = (lin - (lin * lin - 4 * quad * excess).sqrt()) / (2 * quad)
            ref = x * x
            assert abs((Decimal(got) - ref) / ref) <= Decimal("1e-15")


def test_bound_coefficients_at_even_settings_are_exact():
    assert bound_coefficients() == ((40.0, 12.0), (66.0, 24.0))


def test_bound_coefficients_match_the_hand_derivation_at_uneven_settings():
    # summing the correction terms by hand: lower side (8r + 8, 2r + 4),
    # upper side (16r + 2, 6r), with r = (p_a + p_b) / p_ab
    rng = np.random.default_rng(1414)
    for _ in range(500):
        p_a, p_b = rng.uniform(0.05, 1.0, size=2)
        sp = SettingProbs(float(p_a), float(p_b), float(rng.uniform(0.01, min(p_a, p_b))))
        r = (sp.p_a + sp.p_b) / sp.p_ab
        (lin_lo, quad_lo), (lin_up, quad_up) = bound_coefficients(sp)
        assert lin_lo == pytest.approx(8.0 * r + 8.0, rel=1e-12)
        assert quad_lo == pytest.approx(2.0 * r + 4.0, rel=1e-12)
        assert lin_up == pytest.approx(16.0 * r + 2.0, rel=1e-12)
        assert quad_up == pytest.approx(6.0 * r, rel=1e-12)


def test_thresholds_degenerate_excess():
    assert epsilon_thresholds(excess=0.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "excess",
    [-0.1, -math.inf, math.nan, math.inf, True, "0.2", None],
    ids=["negative", "minus_inf", "nan", "inf", "bool", "string", "none"],
)
def test_thresholds_refuse_excess_that_is_no_finite_number_of_at_least_zero(excess):
    with pytest.raises(WeakChError, match="^excess must be"):
        epsilon_thresholds(excess=excess)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_threshold_bracketing(side):
    lo, hi = epsilon_thresholds()
    eps_max = lo if side == "lower" else hi
    value = TSIRELSON_LOWER if side == "lower" else TSIRELSON_UPPER
    for factor, expect in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        eps = eps_max * factor
        rep = evaluate_weak_ch(value, weak_ch_bounds(eps), eps)
        flag = rep.violated_lower if side == "lower" else rep.violated_upper
        assert flag is expect


def test_no_signalling_quantum_tables():
    rng = np.random.default_rng(17)
    for _ in range(25):
        alice = rng.uniform(0, 2 * math.pi, size=2)
        bob = rng.uniform(0, 2 * math.pi, size=2)
        res = no_signalling_residuals(outcome_tables(alice, bob))
        assert max(abs(r) for r in res) <= 1e-12


def test_no_signalling_detects_bump():
    t = outcome_tables((0.0, 1.0), (0.4, 2.0))
    t[0, 0, 0, 0] += 0.01
    t[0, 0] /= t[0, 0].sum()
    res = no_signalling_residuals(t)
    assert max(abs(r) for r in res) > 1e-6


def test_no_signalling_identical_tables_exact_zero():
    block = np.array([[0.1, 0.4], [0.3, 0.2]])
    t = np.stack([np.stack([block, block]), np.stack([block, block])])
    assert no_signalling_residuals(t) == [0.0] * len(no_signalling_residuals(t))


def _loop_no_signalling_residuals(t):
    # the nested-loop form the per-wing array difference replaced
    res = []
    for marg in (t.sum(axis=3), t.sum(axis=2).transpose(1, 0, 2)):
        n_own, n_far = marg.shape[:2]
        for own in range(n_own):
            for f1 in range(n_far):
                for f2 in range(f1 + 1, n_far):
                    for o in range(2):
                        res.append(float(marg[own, f1, o] - marg[own, f2, o]))
    return res


@pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2), (3, 2), (2, 4), (0, 3)])
def test_no_signalling_residuals_match_the_loop(n_a, n_b):
    rng = np.random.default_rng([n_a, n_b])
    t = rng.dirichlet(np.ones(4), size=(n_a, n_b)).reshape(n_a, n_b, 2, 2)
    got = no_signalling_residuals(t)
    assert [float.hex(r) for r in got] == [float.hex(r) for r in _loop_no_signalling_residuals(t)]
    assert all(type(r) is float for r in got)


def test_no_signalling_rejects_unnormalized():
    t = outcome_tables((0.0,), (0.0,))
    t[0, 0, 0, 0] += 0.1
    with pytest.raises(UnnormalizedTable):
        no_signalling_residuals(t)


@pytest.mark.parametrize("where", [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 0)])
def test_no_signalling_rejects_a_nan_table(where):
    # a NaN sum is neither within 1e-9 of one nor further from it
    with pytest.raises(UnnormalizedTable, match="nan"):
        no_signalling_residuals(np.full((2, 2, 2, 2), math.nan))
    t = outcome_tables((0.0, 1.0), (0.5, 2.0))
    t[where] = math.nan
    with pytest.raises(UnnormalizedTable, match="nan"):
        no_signalling_residuals(t)


@pytest.mark.parametrize(
    "value,expected",
    [
        (TSIRELSON_LOWER, True),
        (TSIRELSON_UPPER, True),
        (-1.3, False),
        (0.0, True),
        (0.3, False),
    ],
)
def test_tsirelson_check(value, expected):
    assert tsirelson_check(value) is expected


def test_quantum_excess_is_interval_overshoot():
    assert QUANTUM_EXCESS == pytest.approx(abs(TSIRELSON_LOWER) - 1.0, abs=1e-15)
    assert QUANTUM_EXCESS == TSIRELSON_UPPER


def test_real_numbers_takes_numbers_only():
    assert real_numbers([0, 1, 0.5, np.float64(0.25), np.int64(2)]) == [0.0, 1.0, 0.5, 0.25, 2.0]
    for bad in ([True], [0.5, False], ["0.5"], "05", [None], [[0.5]], [1j], 3, None):
        with pytest.raises(TypeError):
            real_numbers(bad)
    with pytest.raises(OverflowError):
        real_numbers([10**400])


def _estimate():
    return sim.estimate(sim.sample_runs(sim.SimConfig(seed=1, n=1000)))


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda: weak_ch_bounds(10**400), BadEpsilon, "epsilon"),
        (lambda: correction_terms(10**400), BadEpsilon, "epsilon"),
        (lambda: sim.test_inequality(_estimate(), 10**400), BadEpsilon, "epsilon"),
        (lambda: sim.test_inequality(_estimate(), 0.0, 10**400), WeakChError, "k_sigma"),
        (lambda: evaluate_weak_ch(10**400, (-1.0, 0.0), True), WeakChError, "value"),
    ],
    ids=["weak_ch_bounds", "correction_terms", "test_inequality epsilon", "test_inequality k_sigma", "evaluate_weak_ch"],
)
def test_an_int_past_the_float_range_is_a_named_error(call, error, name):
    # float() of such an int raises OverflowError, which no caller expects
    with pytest.raises(error, match=f"^{name} must be a real number within the float range$"):
        call()


def test_left_sum_adds_from_the_left():
    # a compensated sum (Python 3.12's sum()) would give 0.6
    assert float.hex(left_sum([0.1, 0.2, 0.3])) == "0x1.3333333333334p-1"
    assert float.hex(left_sum(np.array([0.1, 0.2, 0.3]))) == "0x1.3333333333334p-1"
    assert type(left_sum([])) is float and left_sum([]) == 0.0


def test_oracle_identity_sums_left_to_right():
    # the negative atoms hold 0.1, 0.2 and 0.3: added in order they make
    # 0.6000000000000001, where a compensated sum (Python 3.12's sum())
    # would give 0.6
    atoms = [0.0] * 16
    atoms[1], atoms[3], atoms[6], atoms[15] = 0.1, 0.2, 0.3, 0.4
    res = ch_atom_oracle(atoms)
    assert float.hex(res.identity_value) == float.hex(-(0.1 + 0.2 + 0.3)) == "-0x1.3333333333334p-1"


def test_every_check_tolerance_is_a_named_module_constant():
    # A float of at most 1e-8 in src/ is the value of a module-level
    # NAME = literal assignment, and the three shared check tolerances are
    # each assigned once, in inequalities.
    inline, assigned = [], {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "weakch").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < node.value <= 1e-8:
                if node not in named:
                    inline.append((path.name, node.lineno, node.value))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(path.stem)
    assert inline == []
    for name in ("VIOLATION_ATOL", "PRECONDITION_TOL", "LAW_SUM_TOL"):
        assert assigned.get(name) == ["inequalities"], name

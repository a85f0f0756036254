import gc
import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    layout_labels,
    aligned_cause_joint,
    build_product_model,
    ch_from_weights,
    count_labels,
    reference_checks,
    reference_eprb_weights,
    uniform_settings,
    within_tolerance_model,
)
from test_validator_fixture import SETTING_LAWS, _zero_cells, joint_report
from weakch.common_cause import (
    BadModel,
    EprbModel,
    GenerationFailed,
    PRECONDITION_TOL,
    PairwiseCcModel,
    PreconditionViolated,
    UnnormalizedInput,
    _WINGS,
    _aggregate,
    _deficit_scale,
    _labelled_model,
    cell_stats,
    ch_atom_oracle,
    check_cause_mass_bounds,
    classify_cells,
    joint_cause_bounds_check,
    model_epsilon,
    model_from_dict,
    pairwise_model_from_dict,
    pairwise_model_to_dict,
    random_eprb_model,
    random_screened_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from weakch import common_cause as cc
from weakch import singlet
from weakch import spaces as spaces_mod
from weakch.inequalities import CH_PAIRS, BadSettingProbs, correction_terms, pair_settings
from weakch.search import SearchConfig, search_counterexample
from weakch.spaces import (
    _NORMALIZED_TOL,
    BadPartition,
    EmptySpace,
    FiniteProbSpace,
    ForeignEvent,
    ResidualReport,
    WeakChError,
    ZeroConditioner,
)


# ---------------------------------------------------------------------------
# 16-atom oracle
# ---------------------------------------------------------------------------


def unit_atoms(i):
    p = [0.0] * 16
    p[i] = 1.0
    return p


def test_oracle_all_events_atom():
    # atom (A, A', B, B') all true: 1 + 1 + 1 - 1 - 1 - 1
    res = ch_atom_oracle(unit_atoms(0b1111))
    assert res.value == 0.0
    assert res.identity_value == 0.0


def test_oracle_negative_atom():
    # atom with A false, the rest true
    res = ch_atom_oracle(unit_atoms(0b0111))
    assert res.value == -1.0
    assert res.identity_value == -1.0
    assert res.in_bounds


def test_oracle_uniform_distribution():
    res = ch_atom_oracle([1.0 / 16.0] * 16)
    assert res.value == pytest.approx(-0.5, abs=1e-15)
    assert res.identity_value == pytest.approx(-0.5, abs=1e-15)


def test_oracle_every_unit_atom_matches_identity():
    for i in range(16):
        res = ch_atom_oracle(unit_atoms(i))
        assert res.value == res.identity_value
        assert -1.0 <= res.value <= 0.0


def test_oracle_rejects_bad_input():
    with pytest.raises(UnnormalizedInput):
        ch_atom_oracle([0.1] * 15)
    with pytest.raises(UnnormalizedInput):
        ch_atom_oracle([0.5] * 16)
    bad = [0.0] * 16
    bad[0], bad[1] = 1.1, -0.1
    with pytest.raises(UnnormalizedInput):
        ch_atom_oracle(bad)
    for nonfinite in (math.nan, math.inf):
        # atom 0 enters no marginal, so only a finiteness test catches it
        with pytest.raises(UnnormalizedInput):
            ch_atom_oracle([nonfinite] + [0.0] * 14 + [1.0])


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(1e-9, 1.0), min_size=16, max_size=16))
def test_oracle_identity_and_range_on_simplex(raw):
    total = sum(raw)
    probs = [v / total for v in raw]
    res = ch_atom_oracle(probs)
    assert abs(res.value - res.identity_value) <= 1e-12
    assert -1.0 - 1e-12 <= res.value <= 1e-12
    assert res.in_bounds


# ---------------------------------------------------------------------------
# pairwise models and the mass bounds
# ---------------------------------------------------------------------------


def det_two_cell_model():
    return random_screened_model(1, 2, 0.0)


def test_generator_deterministic_two_cell():
    m = det_two_cell_model()
    stats = cell_stats(m)
    assert np.allclose(stats.mass, [0.5, 0.5])
    assert stats.cond_a.tolist() == [1.0, 0.0]
    assert stats.cond_b.tolist() == [1.0, 0.0]
    assert model_epsilon(m) == 0.0


def test_generator_single_cell_fails():
    with pytest.raises(GenerationFailed):
        random_screened_model(3, 1, 0.1)


def test_generator_rejects_a_non_integral_cell_count():
    with pytest.raises(WeakChError, match="n_cells must be an integer"):
        random_screened_model(1, 2.5, 0.01)
    # an integral cell count of another integer type is read as a Python int
    assert random_screened_model(1, np.int64(3), 0.01).n_cells == 3


@pytest.mark.parametrize("target", [False, True, "0.01", None], ids=["false", "true", "string", "none"])
@pytest.mark.parametrize("generate", [
    lambda target: random_screened_model(3, 4, target),
    lambda target: random_eprb_model(3, (2, 2, 2, 2), target),
], ids=["pairwise", "eprb"])
def test_generators_read_the_target_as_a_real_number(generate, target):
    with pytest.raises(GenerationFailed, match="^epsilon_target must be a real number"):
        generate(target)


def test_generator_rejects_large_target():
    with pytest.raises(GenerationFailed):
        random_screened_model(3, 4, 0.5)


def test_generator_hits_target_and_revalidates():
    m = random_screened_model(7, 8, 0.01)
    assert abs(model_epsilon(m) - 0.01) <= 1e-6
    rep = check_cause_mass_bounds(m)
    assert rep.p_a == pytest.approx(0.5, abs=1e-9)
    assert rep.p_b == pytest.approx(0.5, abs=1e-9)
    assert cell_stats(m).max_abs <= 1e-12
    assert rep.ok


def test_generator_is_deterministic():
    a = random_screened_model(123, 9, 0.07)
    b = random_screened_model(123, 9, 0.07)
    assert a.space.weights.tolist() == b.space.weights.tolist()
    assert pairwise_model_to_dict(a) == pairwise_model_to_dict(b)


def _generator_moments(seed, n_cells, mid_mass):
    # the draws random_screened_model makes: pair masses, then x and y
    rng = np.random.default_rng(seed)
    n_pairs = n_cells // 2
    raw = rng.uniform(0.5, 1.5, n_pairs)
    cell_mass = raw / raw.sum() * (1.0 - mid_mass) / 2.0
    x = rng.uniform(0.6, 1.0, n_pairs)
    y = rng.uniform(0.6, 1.0, n_pairs)
    return float(np.sum(cell_mass * (x + y))), float(np.sum(cell_mass * x * y))


def _bisect_increasing(f, target, lo, hi):
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) < target:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("case", ["tiny", "odd_mid_slice", "just_below_reach"])
def test_deficit_scale_matches_bisection(case):
    for seed in range(20):
        n_cells, mid = (9, 0.05) if case == "odd_mid_slice" else (8, 0.0)
        m1, m2 = _generator_moments(seed, n_cells, mid)

        def deficit(s):
            return 0.5 * mid + 2.0 * s * m1 - 4.0 * s * s * m2

        reach = deficit(0.49)
        target = {"tiny": 1e-9, "odd_mid_slice": 0.07, "just_below_reach": reach * (1 - 1e-12)}[case]
        scale = _deficit_scale(m1, m2, mid, target)
        ref = _bisect_increasing(deficit, target, 0.0, 0.49)
        assert scale == pytest.approx(ref, rel=1e-12, abs=0.0)
        with pytest.raises(GenerationFailed):
            _deficit_scale(m1, m2, mid, reach * (1 + 1e-12))


def test_generator_fails_just_above_reach():
    m1, m2 = _generator_moments(5, 8, 0.0)
    reach = 2.0 * 0.49 * m1 - 4.0 * 0.49 * 0.49 * m2
    assert random_screened_model(5, 8, reach * (1 - 1e-12)) is not None
    with pytest.raises(GenerationFailed):
        random_screened_model(5, 8, reach * (1 + 1e-12))


def test_classify_deterministic_model():
    classes = classify_cells(det_two_cell_model())
    assert classes.high == (0,)
    assert classes.low == (1,)
    assert classes.mid == ()


def test_classify_independent_halves_single_cell_goes_low():
    # A and B independent halves of a uniform four-atom space, one cell:
    # deficit 1/2, border sqrt(1/2) ~ 0.707, and the 0.5 conditional falls
    # at or below it.
    sp = FiniteProbSpace(("ab", "aB", "Ab", "AB"), [0.25] * 4)
    m = _labelled_model(sp, {"ab", "aB"}, {"ab", "Ab"}, [sp.atoms])
    classes = classify_cells(m)
    assert classes.epsilon == pytest.approx(0.5, abs=1e-12)
    assert classes.low == (0,)
    assert classes.high == ()


def test_classify_trichotomy_is_exhaustive():
    m = random_screened_model(11, 10, 0.01)
    classes = classify_cells(m)
    seen = sorted(classes.high + classes.mid + classes.low)
    assert seen == list(range(m.n_cells))
    assert not (set(classes.high) & set(classes.mid))
    assert not (set(classes.high) & set(classes.low))
    assert not (set(classes.mid) & set(classes.low))


def mid_cell_model(mid_mass=0.02):
    # two deterministic cells plus one balanced middle cell
    half = (1.0 - mid_mass) / 2.0
    weights, atoms, cells = [], [], []
    for i, (mass, q) in enumerate([(half, 1.0), (half, 0.0), (mid_mass, 0.5)]):
        labels = [f"c{i}:{s}" for s in ("11", "10", "01", "00")]
        atoms.extend(labels)
        weights.extend([mass * q * q, mass * q * (1 - q), mass * (1 - q) * q, mass * (1 - q) ** 2])
        cells.append(frozenset(labels))
    sp = FiniteProbSpace(tuple(atoms), np.asarray(weights))
    a = frozenset(x for x in atoms if x.endswith("11") or x.endswith("10"))
    b = frozenset(x for x in atoms if x.endswith("11") or x.endswith("01"))
    return _labelled_model(sp, a, b, cells)


def test_mid_cells_are_classified_and_bounded():
    m = mid_cell_model()
    classes = classify_cells(m)
    assert classes.mid == (2,)
    rep = check_cause_mass_bounds(m)
    assert rep.ok
    assert rep.epsilon == pytest.approx(0.01, abs=1e-12)


def test_cause_mass_bounds_deterministic_edge():
    rep = check_cause_mass_bounds(det_two_cell_model())
    assert rep.epsilon == 0.0
    assert rep.high_mass == rep.p_a == 0.5
    assert rep.lower_ok and rep.upper_ok


def test_cause_mass_bounds_random_sweep():
    rng = np.random.default_rng(204)
    for _ in range(200):
        n_cells = int(rng.integers(2, 17))
        eps = float(rng.uniform(1e-6, 0.25))
        rep = check_cause_mass_bounds(random_screened_model(rng, n_cells, eps))
        assert rep.ok
        assert rep.diagnostics["a_not_b_mass"] == pytest.approx(rep.epsilon / 2, abs=1e-9)
        assert rep.diagnostics["b_not_a_mass"] == pytest.approx(rep.epsilon / 2, abs=1e-9)
        assert rep.diagnostics["mid_gap_sum"] <= rep.epsilon + 1e-9
        assert rep.diagnostics["wide_mid_mass"] <= 2.0 * math.sqrt(rep.epsilon) + 1e-9


def _sure_and_mid_pairs_model(eps: float, k: float) -> PairwiseCcModel:
    # A sure pair of cells (mass h each) and a mid pair (mass k each, p(A|C)
    # = p(B|C) = s and 1 - s): both marginals are h + k = 1/2 and the
    # deficit is 4 k s (1 - s). With border 0 only the sure A cell is high,
    # so p(A) - high_mass = k.
    h = 0.5 - k
    s = 0.5 * (1.0 + math.sqrt(1.0 - eps / k))
    return _labelled_model(
        FiniteProbSpace(
            ("h11", "l00", "m11", "m10", "m01", "m00", "n11", "n10", "n01", "n00"),
            np.array([h, h, k * s * s, k * s * (1 - s), k * (1 - s) * s, k * (1 - s) ** 2,
                      k * (1 - s) ** 2, k * (1 - s) * s, k * s * (1 - s), k * s * s]),
        ),
        {"h11", "m11", "m10", "n11", "n10"},
        {"h11", "m11", "m01", "n11", "n01"},
        [{"h11"}, {"l00"}, {"m11", "m10", "m01", "m00"}, {"n11", "n10", "n01", "n00"}],
    )


def test_upper_bound_fails_between_its_two_terms():
    # p(A) - high_mass = k = 0.39 lies between 4 sqrt(eps) - 2 eps = 0.38
    # and 4 sqrt(eps) = 0.40 at eps = 0.01: the upper bound must fail.
    eps, k = 0.01, 0.39
    m = _sure_and_mid_pairs_model(eps, k)
    rep = check_cause_mass_bounds(m, border=0.0)
    assert rep.epsilon == pytest.approx(eps, abs=1e-12)
    assert rep.high_cells == (0,)
    assert rep.p_a - rep.high_mass == pytest.approx(k, abs=1e-12)
    assert rep.lower_ok and not rep.upper_ok
    assert check_cause_mass_bounds(m).ok  # at the default border sqrt(eps) the bounds hold


@pytest.mark.parametrize("offset,ok", [(-1e-3, True), (0.5 * PRECONDITION_TOL, True), (2.0 * PRECONDITION_TOL, False)])
def test_cause_mass_upper_border(offset, ok):
    # p(A) <= high_mass + 4 sqrt(eps) - 2 eps within PRECONDITION_TOL, with
    # p(A) - high_mass placed offset past that border
    eps = 0.01
    border = 4.0 * math.sqrt(eps) - 2.0 * eps  # d_plus, written out as an independent reference
    rep = check_cause_mass_bounds(_sure_and_mid_pairs_model(eps, border + offset), border=0.0)
    assert rep.epsilon == pytest.approx(eps, abs=1e-15)
    assert rep.p_a - rep.high_mass == pytest.approx(border + offset, abs=1e-15)
    assert (rep.lower_ok, rep.upper_ok) == (True, ok)


@pytest.mark.parametrize("offset,ok", [(-1e-3, True), (0.5e-12, True), (2e-12, False)])
def test_cause_mass_lower_border(monkeypatch, offset, ok):
    # high_mass - sqrt(eps) <= p(A) within 1e-12. A model past the gate
    # (screened, even marginals) keeps high_mass - p(A) within eps, so the
    # evenness gate is patched open. Cells: a sure one (mass h), one of A
    # without B with p(A|C) = 1 - t (mass k), made high by the wider border
    # 0.45, and one of B without A (mass u): high_mass - p(A) = k t and the
    # deficit is u / (h + u).
    monkeypatch.setattr(cc, "_require_screened_even_model", cell_stats)
    eps, k = 0.01, 0.25
    border = math.sqrt(eps)  # d_minus, written out as an independent reference
    t = (border + offset) / k
    u = (1.0 - k) * eps
    h = 1.0 - k - u
    m = _labelled_model(
        FiniteProbSpace(("h11", "k10", "k00", "u01"), np.array([h, k * (1.0 - t), k * t, u])),
        {"h11", "k10"},
        {"h11", "u01"},
        [{"h11"}, {"k10", "k00"}, {"u01"}],
    )
    rep = check_cause_mass_bounds(m, border=0.45)
    assert rep.epsilon == pytest.approx(eps, abs=1e-15)
    assert rep.high_cells == (0, 1)
    assert rep.high_mass - rep.p_a == pytest.approx(border + offset, abs=1e-15)
    assert (rep.lower_ok, rep.upper_ok) == (ok, True)


@pytest.mark.parametrize("name", ["border", "gap_border"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, True, "0.1"])
def test_a_border_is_a_real_number_in_the_unit_interval(name, value):
    m = random_screened_model(1, 5, 1e-3)
    with pytest.raises(WeakChError, match=f"^{name} must be"):
        check_cause_mass_bounds(m, **{name: value})
    if name == "border":
        with pytest.raises(WeakChError, match="^border must be"):
            classify_cells(m, border=value)
    # both ends of [0, 1] are borders
    check_cause_mass_bounds(m, **{name: 0.0})
    check_cause_mass_bounds(m, **{name: 1})


def test_cell_stats_compare_and_hash_by_identity():
    s1, s2 = (cell_stats(random_screened_model(seed, 5, 1e-3)) for seed in (1, 2))
    assert s1 == s1 and s1 != s2
    assert len({s1, s2, s1}) == 2


def test_subset_sums_stay_below_half_eps():
    m = random_screened_model(31, 12, 0.05)
    stats = cell_stats(m)
    eps = model_epsilon(m)
    rng = np.random.default_rng(5)
    for _ in range(100):
        mask = rng.integers(0, 2, size=stats.mass.size).astype(bool)
        sub = float(np.sum(stats.cond_a[mask] * (1 - stats.cond_b[mask]) * stats.mass[mask]))
        assert -1e-12 <= sub <= eps / 2 + 1e-9
        sub_b = float(np.sum(stats.cond_b[mask] * (1 - stats.cond_a[mask]) * stats.mass[mask]))
        assert -1e-12 <= sub_b <= eps / 2 + 1e-9


def test_cause_mass_check_runs_each_step_once(monkeypatch):
    # one pass of the per-cell kernel feeds screening, the cell conditionals
    # and the class sums, and the model keeps it for the next check; the
    # label-level functions are not called at all. cell_stats is counted by
    # the computations behind its calls, as the validators are.
    import weakch.spaces as spaces

    m = random_screened_model(3, 7, 0.01)
    modules = {"_cell_sums": cc, "screening_residuals": spaces, "prob": spaces}
    calls = dict.fromkeys([*modules, "cell_stats"], 0)
    for name, module in modules.items():
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    derive = cc.cell_stats.__wrapped__

    def computed(model):
        calls["cell_stats"] += 1
        return derive(model)

    monkeypatch.setattr(cc, "cell_stats", cc._kept(computed))
    assert check_cause_mass_bounds(m).ok
    assert calls == {"_cell_sums": 1, "screening_residuals": 0, "prob": 0, "cell_stats": 1}
    classify_cells(m)
    assert calls == {"_cell_sums": 1, "screening_residuals": 0, "prob": 0, "cell_stats": 1}


def test_pairwise_model_keeps_read_only_cell_stats_and_masses():
    m = random_screened_model(3, 7, 0.01)
    stats = cc.cell_stats(m)
    assert cc.cell_stats(m) is stats
    for a in (stats.mass, stats.cond_a, stats.cond_b):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    # the generator's own checks computed the masses the checker reads
    w = m.space.weights.tolist()
    expected = tuple(math.fsum(x for x, k in zip(w, mask.tolist()) if k) for mask in (m.in_a, m.in_b, m.in_a & m.in_b))
    assert m.__dict__[cc._event_masses.__wrapped__] == expected
    rep = check_cause_mass_bounds(m)
    assert (rep.p_a, rep.p_b) == expected[:2]
    assert rep.epsilon == max(0.0, 1.0 - expected[2] / expected[1])


def test_cause_mass_bounds_rejects_broken_screening():
    m = random_screened_model(2, 4, 0.01)
    w = m.space.weights.copy()
    w[0] += 0.1
    broken = PairwiseCcModel(FiniteProbSpace(m.space.atoms, w), m.cell_of, m.in_a, m.in_b, m.n_cells)
    with pytest.raises(PreconditionViolated):
        check_cause_mass_bounds(broken)


def test_cause_mass_bounds_rejects_uneven_marginals():
    # deterministic cells screen exactly, but the marginal is 0.6
    sp = FiniteProbSpace(("ab", "none"), [0.6, 0.4])
    m = _labelled_model(sp, {"ab"}, {"ab"}, [{"ab"}, {"none"}])
    with pytest.raises(PreconditionViolated):
        check_cause_mass_bounds(m)
    with pytest.raises(PreconditionViolated):
        classify_cells(m)


def test_zero_mass_cells_go_low_and_are_skipped():
    sp = FiniteProbSpace(("a1", "a2", "z1", "z2"), [0.5, 0.5, 0.0, 0.0])
    m = _labelled_model(sp, {"a1"}, {"a1"}, [{"a1"}, {"a2"}, {"z1", "z2"}])
    classes = classify_cells(m)
    assert 2 in classes.low
    assert cell_stats(m).skipped == (2,)


def test_model_epsilon_rejects_a_zero_mass_conditioner():
    sp = FiniteProbSpace(("x", "y"), [0.5, 0.5])
    with pytest.raises(ZeroConditioner):
        model_epsilon(_labelled_model(sp, {"x"}, set(), [{"x"}, {"y"}]))
    with pytest.raises(ZeroConditioner):
        model_epsilon(_labelled_model(FiniteProbSpace((0, 1), [1.0, 0.0]), {0}, {1}, [{0}, {1}]))


def test_labelled_model_rejects_foreign_atoms():
    sp = FiniteProbSpace(("x", "y"), [0.5, 0.5])
    with pytest.raises(BadModel):
        _labelled_model(sp, {"x", "z"}, {"x"}, [{"x"}, {"y"}])
    with pytest.raises(ForeignEvent):
        _labelled_model(sp, {"x"}, {"x"}, [{"x"}, {"y", "z"}])
    with pytest.raises(BadPartition):
        _labelled_model(sp, {"x", "z"}, {"x"}, [{"x"}])  # the partition is checked first


def test_pairwise_json_roundtrip():
    m = random_screened_model(8, 5, 0.03)
    back = pairwise_model_from_dict(pairwise_model_to_dict(m))
    assert back.space.atoms == m.space.atoms
    assert back.space.weights.tolist() == m.space.weights.tolist()
    assert back.cell_of.tolist() == m.cell_of.tolist()
    assert back.in_a.tolist() == m.in_a.tolist()
    assert back.in_b.tolist() == m.in_b.tolist()
    assert pairwise_model_to_dict(back) == pairwise_model_to_dict(m)


def test_saved_pairwise_models_read_back_bit_for_bit():
    # a generated total such as 0.9999999999999999 must not be divided again when read
    for n_cells in range(2, 17):
        for seed in range(40):
            m = random_screened_model(seed, n_cells, 0.05)
            back = pairwise_model_from_dict(json.loads(json.dumps(pairwise_model_to_dict(m))))
            assert back.space.weights.tobytes() == m.space.weights.tobytes(), (n_cells, seed)
    m = random_screened_model(14, 14, 0.05)
    assert math.fsum(m.space.weights.tolist()) != 1.0
    back = pairwise_model_from_dict(pairwise_model_to_dict(m))
    assert check_cause_mass_bounds(back) == check_cause_mass_bounds(m)


def test_generated_models_share_a_read_only_layout():
    a, b = random_screened_model(1, 9, 0.01), random_screened_model(2, 9, 0.2)
    for name in ("cell_of", "in_a", "in_b"):
        shared = getattr(a, name)
        assert getattr(b, name) is shared
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = shared[1]
    assert b.space.atoms is a.space.atoms
    assert random_screened_model(1, 8, 0.01).cell_of.size == 32
    # the labels written to a file translate back to the same arrays, held
    # on their own, and the model they give checks the same
    for n_cells in range(2, 17):
        m = random_screened_model(n_cells, n_cells, 0.05)
        data = pairwise_model_to_dict(m)
        read = pairwise_model_from_dict(data)
        assert read.cell_of is not m.cell_of and read.cell_of.flags.writeable
        for name in ("cell_of", "in_a", "in_b"):
            assert getattr(read, name).tolist() == getattr(m, name).tolist()
        back = _labelled_model(m.space, data["A"], data["B"], data["partition"])
        s, t = cell_stats(m), cell_stats(back)
        assert (s.index, s.residuals, s.skipped) == (t.index, t.residuals, t.skipped)
        for name in ("mass", "cond_a", "cond_b"):
            assert getattr(s, name).tobytes() == getattr(t, name).tobytes()
        assert check_cause_mass_bounds(back) == check_cause_mass_bounds(m)


def test_pairwise_label_fields_must_be_json_arrays():
    # a string or an object would be read by its characters or keys
    good = {
        "type": "pairwise",
        "space": {"atoms": ["w", "x", "y", "z"], "weights": [0.25, 0.25, 0.25, 0.25]},
        "A": ["w", "x"],
        "B": ["w", "y"],
        "partition": [["w", "x"], ["y", "z"]],
    }
    assert model_from_dict(good).n_cells == 2
    bad_values = ("wxyz", dict.fromkeys("wxyz"))
    for field in ("atoms", "A", "B", "partition", "cell"):
        for bad in bad_values:
            data = {**good, "space": dict(good["space"]), "partition": list(good["partition"])}
            if field == "atoms":
                data["space"]["atoms"] = bad
            elif field == "cell":
                data["partition"][1] = bad
            else:
                data[field] = bad
            with pytest.raises(BadModel, match="JSON array"):
                model_from_dict(data)
    # a file names atoms by JSON strings and integers only, since true, 1.0
    # and 1 would name one atom; library callers keep any hashable label
    with pytest.raises(BadModel, match="strings or integers"):
        model_from_dict({**good, "A": ["w", True]})
    space = FiniteProbSpace(((0, 1), 2.5), [0.5, 0.5])
    assert _labelled_model(space, [(0, 1)], [(0, 1)], [[(0, 1)], [2.5]]).n_cells == 2


# ---------------------------------------------------------------------------
# full joint models
# ---------------------------------------------------------------------------


def perfect_model():
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    return build_product_model(uniform_settings(), aligned_cause_joint(), plus)


def test_pairwise_file_with_an_overflowing_total_is_an_empty_space():
    data = pairwise_model_to_dict(random_screened_model(7, 6, 0.02))
    data["space"]["weights"] = [1e308] * len(data["space"]["weights"])
    with pytest.raises(EmptySpace, match="total mass must be positive and finite"):
        model_from_dict(data)


def test_eprb_model_validation():
    with pytest.raises(BadModel):
        EprbModel(np.ones((2, 2, 2, 2, 2, 2, 2)), (2, 2, 2, 2))
    w = np.zeros((2, 2, 2, 2, 2, 2, 2, 2))
    w[0, 0, 0, 0, 0, 0, 0, 0] = 1.0  # only one setting pair carries mass
    with pytest.raises(BadModel):
        EprbModel(w, (2, 2, 2, 2))
    good = random_eprb_model(5, (2, 2, 2, 2), 1e-3).weights
    for cards in ((2.7, 2, 2, 2), (2.0, 2, 2, 2), (True, 2, 2, 2), (2, 2, 2), (0, 2, 2, 2), 2, None):
        with pytest.raises(BadModel, match="cause cardinalities"):
            EprbModel(good, cards)
    assert EprbModel(good, np.array([2, 2, 2, 2])).cause_cards == (2, 2, 2, 2)
    assert all(type(c) is int for c in EprbModel(good, np.array([2, 2, 2, 2])).cause_cards)
    for bad in (math.nan, math.inf, -math.inf, -1e-3):
        w = good.copy()
        w[0, 1, 0, 0, 1, 0, 1, 0] = bad
        with pytest.raises(BadModel):
            EprbModel(w, (2, 2, 2, 2))


def test_eprb_file_with_an_overflowing_total_is_rejected_without_a_warning():
    # each weight is finite, their sum is not; the rejection is the whole report
    data = {"type": "eprb", "cause_cards": [1, 1, 1, 1], "weights": [1.7e308] * 16}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadModel, match="finite"):
            model_from_dict(data)


def test_eprb_model_with_an_overflowing_total_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadModel, match="finite"):
            EprbModel(np.full((2, 2, 2, 2, 1, 1, 1, 1), 1.7e308), (1, 1, 1, 1))


def test_eprb_weight_count_does_not_wrap():
    # 16 * 2**64 wraps to 0 in int64, which would match an empty weight list
    data = {"type": "eprb", "cause_cards": [2**32, 2**32, 1, 1], "weights": []}
    with pytest.raises(BadModel, match=f"expected {16 * 2**64} weights"):
        model_from_dict(data)


@pytest.mark.parametrize("seed, cards, epsilon", [
    (5, (2, 3, 2, 2), 1e-3),
    # two models whose weights moved when a model read back divided them by their sum again
    (2071700805, (3, 4, 4, 4), 0.00034689589710175763),
    (1043139800, (2, 3, 2, 2), 0.0002534981608367719),
], ids=["5", "2071700805", "1043139800"])
def test_eprb_json_roundtrip(seed, cards, epsilon):
    m = random_eprb_model(seed, cards, epsilon)
    back = model_from_dict(m.to_dict())
    assert isinstance(back, EprbModel)
    assert back.cause_cards == m.cause_cards
    assert back.weights.tobytes() == m.weights.tobytes()
    assert back.weak_report() == m.weak_report()


def test_generated_model_passes_all_validators():
    rng = np.random.default_rng(40)
    for _ in range(10):
        cards = tuple(int(c) for c in rng.integers(2, 5, size=4))
        target = float(rng.uniform(1e-6, 1e-3))
        m = random_eprb_model(rng, cards, target)
        assert validate_loc(m).max_abs <= 1e-12
        assert validate_no_conspiracy(m).max_abs <= 1e-12
        assert validate_screening(m).max_abs <= 1e-12
        prof = m.profile()
        assert 0.0 < prof.eps_global <= target * (1 + 1e-9)
        assert m.plus_probs() == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


def test_generator_reaches_its_target_with_one_draw():
    # each direction's mean deviation is at most 0.45 * target, so each
    # pair's deficit, md_a (1 - md_b) + (1 - md_a) md_b, is at most 0.9 * target
    rng = np.random.default_rng(41)
    for law in SETTING_LAWS:
        for target in (0.0, 1e-7, 1e-3, 0.1, *rng.uniform(0.0, 0.1, 20)):
            cards = tuple(int(c) for c in rng.integers(2, 5, size=4))
            m = random_eprb_model(rng, cards, target, setting_probs=law)
            assert m.profile().eps_global <= 0.9 * target * (1.0 + 1e-12) + 1e-15


def test_generated_model_is_deterministic():
    a = random_eprb_model(77, (2, 2, 3, 2), 5e-4)
    b = random_eprb_model(77, (2, 2, 3, 2), 5e-4)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("law", SETTING_LAWS, ids=["even", "diagonal", "uneven"])
@pytest.mark.parametrize("epsilon", [0.0, 1e-7, 1e-3, 0.1])
def test_generator_matches_the_einsum_reference(law, epsilon):
    # one broadcast product of the per-cause factors, in cause order, gives
    # the weights of one einsum per (pattern, a, b) block bit for bit
    cards_list = ((2, 2, 2, 2), (5, 5, 5, 5), (2, 3, 4, 5), (5, 4, 3, 2), (3, 2, 5, 2), (4, 4, 2, 3), (2, 5, 2, 5))
    for seed, cards in enumerate(cards_list):
        got = random_eprb_model(seed, cards, epsilon, setting_probs=law).weights
        assert got.tobytes() == reference_eprb_weights(seed, cards, epsilon, setting_probs=law).tobytes()


def test_generator_draws_numpys_dirichlet_laws():
    # each cause's group laws against two rng.dirichlet calls in the
    # reference, over groups of 1 to 5 cells: the weights bit for bit and
    # the stream left behind
    cards_rng = np.random.default_rng(43)
    for seed in range(300):
        cards = tuple(int(c) for c in cards_rng.integers(2, 7, size=4))
        epsilon = (0.0, 1e-6, 1e-3, 0.1)[seed % 4]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_eprb_model(rng, cards, epsilon).weights
        assert got.tobytes() == reference_eprb_weights(ref, cards, epsilon).tobytes()
        assert rng.random() == ref.random()


@pytest.mark.parametrize("g0_size, g1_size", [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)])
def test_group_laws_are_numpys_dirichlet_draws(g0_size, g1_size):
    # the first cause split into groups of g0_size and g1_size cells, its laws
    # against two rng.dirichlet calls in the reference: the weights bit for
    # bit and the stream left behind
    card = g0_size + g1_size
    seeds = [s for s in range(2000) if int(np.random.default_rng(s).integers(1, card)) == g0_size][:60]
    assert len(seeds) == 60
    for i, seed in enumerate(seeds):
        epsilon = (0.0, 1e-6, 1e-3)[i % 3]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_eprb_model(rng, (card, card, 2, 3), epsilon).weights
        assert got.tobytes() == reference_eprb_weights(ref, (card, card, 2, 3), epsilon).tobytes()
        assert rng.random() == ref.random()


def test_generator_rejects_bad_arguments():
    with pytest.raises(BadModel):
        random_eprb_model(1, (1, 2, 2, 2), 1e-3)
    with pytest.raises(BadModel, match="cause cardinalities"):
        random_eprb_model(1, (2.5, 2, 2, 2), 1e-3)
    with pytest.raises(GenerationFailed):
        random_eprb_model(1, (2, 2, 2, 2), 0.5)
    # a setting law is read as given: it must sum to 1, and a zero pair leaves the model empty there
    for law in ([[0.3, 0.3], [0.3, 0.3]], [[math.nan, 0.25], [0.25, 0.5]], [[0.5, 0.5], [0.5, -0.5]]):
        with pytest.raises(BadSettingProbs):
            random_eprb_model(1, (2, 2, 2, 2), 1e-3, setting_probs=law)
    with pytest.raises(BadModel, match="every setting pair"):
        random_eprb_model(1, (2, 2, 2, 2), 1e-3, setting_probs=[[0.5, 0.0], [0.0, 0.5]])


@pytest.mark.parametrize(
    "table",
    [[[0.3, 0.3], [0.3, 0.3]], [0.25, 0.25, 0.25, 0.25], [[math.nan, 0.25], [0.25, 0.5]],
     [[math.inf, 0.25], [0.25, 0.25]], [[-math.inf, 0.25], [0.25, 0.25]], [[1.5, -0.5], [0.0, 0.0]]],
    ids=["sum", "flat", "nan", "inf", "minus_inf", "negative"],
)
def test_setting_law_rejects_malformed_tables(table):
    with pytest.raises(BadSettingProbs):
        cc.setting_law(table)


def test_setting_law_reads_tables_read_only():
    even = cc.setting_law(None)
    assert even.tolist() == [[0.25, 0.25], [0.25, 0.25]] and not even.flags.writeable
    given = np.array([[0.1, 0.2], [0.3, 0.4]])
    sp = cc.setting_law(given)
    assert np.array_equal(sp, given / given.sum()) and not sp.flags.writeable
    assert given.flags.writeable  # the caller's table is not frozen
    assert cc.setting_law([[0.5, 0.0], [0.0, 0.5]]).tolist() == [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize("table, kept", [
    ([[0.3, 0.3], [0.3, 0.1]], True),
    ([[0.7, 0.1], [0.1, 0.1]], True),
    ([[0.4, 0.1], [0.1, 0.4]], True),
    ([[0.1, 0.2], [0.3, 0.4]], True),
    ([[0.25, 0.25], [0.25, 0.25 + 1e-10]], False),
    ([[0.25, 0.25], [0.25, 0.25 - 4e-15]], False),
    ([[0.3, 0.3], [0.3, 0.1 + 1e-9]], False),  # its float sum is an ulp off its exact total
], ids=["0.3 law", "0.7 law", "fixture law", "uneven", "1e-10 over", "4e-15 under", "1e-9 over"])
def test_setting_law_is_idempotent(table, kept):
    # a table whose exact total is within _NORMALIZED_TOL of 1 is kept as
    # given, as FiniteProbSpace keeps its weights; any other is divided by
    # its exact total, and the law read again keeps its bits
    law = np.array(table)
    total = math.fsum(law.ravel().tolist())
    sp = cc.setting_law(table)
    assert sp.tobytes() == (law if kept else law / total).tobytes()
    assert (abs(total - 1.0) <= _NORMALIZED_TOL) is kept
    assert cc.setting_law(sp).tobytes() == sp.tobytes()


def test_loc_detects_far_setting_influence():
    m = perfect_model()
    w = m.weights.copy()
    # let Bob's second setting flip Alice's outcome distribution
    w[0, 1] = w[0, 1][::-1, :, :, :, :, :]
    broken = EprbModel(w, m.cause_cards)
    assert validate_loc(broken).max_abs > 0.1


def test_loc_detects_alice_setting_shifting_bob():
    m = perfect_model()
    w = m.weights.copy()
    # under (a2, b3) Bob's outcome is flipped: Alice's setting reaches Bob
    w[1, 0] = w[1, 0][:, ::-1]
    rep = validate_loc(EprbModel(w, m.cause_cards))
    res = dict(zip(rep.labels, rep.residuals))
    assert res["bob B=+ b3 a2 c3=0"] == pytest.approx(0.5, abs=1e-12)
    assert res["bob B=+ b3 a1 c3=0"] == pytest.approx(-0.5, abs=1e-12)
    assert max(abs(r) for k, r in res.items() if k.startswith("alice")) <= 1e-12


def test_loc_skips_zero_mass_cells():
    cause = np.zeros((3, 2, 2, 2))
    cause[(0,) * 4] = 0.5
    cause[1, 1, 1, 1] = 0.5  # cell 2 of the first variable never occurs
    plus = [(1.0, 0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), cause, plus)
    rep = validate_loc(m)
    assert rep.max_abs <= 1e-12
    assert any("c1=2" in s for s in rep.skipped)


def test_no_conspiracy_detects_setting_cause_coupling():
    m = perfect_model()
    w = m.weights.copy()
    w[0, :, :, :, 0] *= 1.5  # cause value 0 made more likely under setting a1
    broken = EprbModel(w, m.cause_cards)
    assert validate_no_conspiracy(broken).max_abs > 1e-3


def test_no_conspiracy_detects_bob_setting_cause_coupling():
    m = perfect_model()
    w = m.weights.copy()
    w[:, 0, :, :, :, :, 0] *= 1.5  # cause c3 value 0 made more likely under setting b3
    rep = validate_no_conspiracy(EprbModel(w, m.cause_cards))
    res = dict(zip(rep.labels, rep.residuals))
    assert res["p(b3, c3=0)"] > 1e-3
    assert res["p(b3, c3=1)"] < -1e-3
    for d in (1, 2):  # Alice's single-cause rows stay exact
        for i in (0, 1):
            assert abs(res[f"p(a{d}, c{d}={i})"]) <= 1e-12


def test_screening_holds_for_any_product_kernels():
    rng = np.random.default_rng(3)
    cause = aligned_cause_joint(p_pattern=0.37)
    plus = [tuple(rng.uniform(0, 1, 2)) for _ in range(4)]
    m = build_product_model(uniform_settings(), cause, plus)
    assert validate_screening(m).max_abs <= 1e-12


def test_screening_detects_cross_cause_outcomes():
    # Alice's first direction reads the second variable: its own cells no
    # longer factorize the pair
    cause = np.zeros((2, 2, 2, 2))
    cause[0, 0, 0, 0] = 0.25
    cause[0, 1, 1, 1] = 0.25
    cause[1, 0, 0, 0] = 0.25
    cause[1, 1, 1, 1] = 0.25  # c1 fair and independent of the pattern
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), cause, plus, attach=(1, 1, 2, 3))
    assert validate_screening(m).max_abs > 0.2


def test_screening_detects_bob_reading_a_foreign_cause():
    # c1, c2 and c4 equal a fair pattern and c3 is a fair coin independent
    # of it; direction 3 reads c4. Inside a c3 cell "A -" and "B +" both
    # mean pattern 1, so the residual of those events is 1/2 - 1/4 > 0.
    cause = np.zeros((2, 2, 2, 2))
    for pattern in (0, 1):
        for coin in (0, 1):
            cause[pattern, pattern, coin, pattern] = 0.25
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), cause, plus, attach=(0, 1, 3, 3))
    rep = validate_screening(m)
    c3 = [r for k, r in zip(rep.labels, rep.residuals) if k.startswith("screen b3 ")]
    assert len(c3) == 2
    assert all(r == pytest.approx(0.25, abs=1e-12) for r in c3)
    others = [r for k, r in zip(rep.labels, rep.residuals) if not k.startswith("screen b3 ")]
    assert max(abs(r) for r in others) <= 1e-12



def _count_computations(monkeypatch) -> dict:
    # Counts the computations behind each value a full-joint model keeps:
    # each derivation is wrapped in a counter, kept again and put back
    # where it was found.
    owners = {
        "outcome_tables": EprbModel,
        "profile": EprbModel,
        "_cause_tables": cc,
        "_aggregate_cells": cc,
        "validate_loc": cc,
        "validate_no_conspiracy": cc,
        "validate_screening": cc,
    }
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        derive = getattr(owner, name).__wrapped__

        def counted(model, _name=name, _derive=derive):
            calls[_name] += 1
            return _derive(model)

        monkeypatch.setattr(owner, name, cc._kept(counted))
    return calls


def test_verify_sequence_computes_each_kept_value_once(monkeypatch):
    # the validators, then the joint-cause check that gates on them, then
    # the weak report, called as the benchmark's verify_joint calls them
    calls = _count_computations(monkeypatch)
    m = cc.random_eprb_model(7, (2, 3, 2, 2), 1e-3)
    reports = (cc.validate_loc(m), cc.validate_no_conspiracy(m), cc.validate_screening(m))
    assert cc.joint_cause_bounds_check(m).ok
    assert not m.weak_report().violated
    assert max(r.max_abs for r in reports) <= PRECONDITION_TOL
    assert calls == dict.fromkeys(calls, 1)


def _reference_cases():
    # (description, weights, cause cards): generated models under even and
    # uneven setting laws, the same weights perturbed, or reweighted by the
    # Alice setting and c1 so that only setting independence fails, dense
    # weights with zero-mass cells, and dense weights with single-cell causes
    rng = np.random.default_rng(36)
    out = []
    for seed in range(24):
        cards = tuple(int(c) for c in rng.integers(2, 5, 4))
        law = SETTING_LAWS[seed % len(SETTING_LAWS)]
        w = random_eprb_model(seed, cards, float(10 ** rng.uniform(-6, -1)), setting_probs=law).weights
        out.append((f"generated seed={seed}", w, cards))
        out.append((f"perturbed seed={seed}", w * rng.uniform(0.5, 1.5, w.shape), cards))
        tilt = rng.uniform(0.5, 1.5, (2, 1, 1, 1, cards[0], 1, 1, 1))
        out.append((f"setting-dependent c1 seed={seed}", w * tilt, cards))
        dense = rng.dirichlet(np.ones(w.size)).reshape(w.shape)
        out.append((f"zero cells seed={seed}", _zero_cells(dense, rng), cards))
        ones = tuple(int(c) for c in rng.permutation([1, *rng.integers(1, 4, 3)]))
        dense = rng.dirichlet(np.ones(16 * math.prod(ones))).reshape(2, 2, 2, 2, *ones)
        out.append((f"cards={ones} seed={seed}", dense, ones))
    return out


def test_checks_read_the_cause_tables_as_sums_of_the_weights_read_them():
    # Every validator's keys, labels and skips, the aggregate causes and the
    # joint-cause gate equal those of the weights summed one row, pair and
    # cell at a time; residuals and p(C^a C^b) differ by rounding only.
    labels = {"locality": cc._loc_label, "no_conspiracy": cc._no_conspiracy_label, "screening": cc._screening_label}
    seen = set()
    for desc, w, cards in _reference_cases():
        m = EprbModel(w, cards)
        ref = reference_checks(m)
        refused = None
        for name, validate in cc.validators().items():
            rep = validate(m)
            keys, residuals, skipped = getattr(ref, name)
            # each label function tells its keys apart, so equal labels are equal keys
            want = (tuple(map(labels[name], keys)), tuple(map(labels[name], skipped)))
            assert (rep.labels, rep.skipped) == want, f"{desc}: {name}"
            assert np.abs(np.subtract(rep.residuals, residuals)).max(initial=0.0) <= 4e-15, f"{desc}: {name}"
            if refused is None and not max(map(abs, residuals), default=0.0) <= PRECONDITION_TOL:
                refused = name
            seen.update(f"{name} skips" for _ in skipped)
        assert [_aggregate(m, row) for row in _WINGS] == ref.aggregate, desc
        joint = joint_report(m)
        assert joint.alice_cells + joint.bob_cells == tuple(ref.aggregate), desc
        for pair, p_cc in zip(joint.pairs, ref.p_joint):
            assert abs(pair.p_joint_cause - p_cc) <= 4e-15, desc
            assert pair.lower_ok == (pair.p_plus_plus - pair.d_plus <= p_cc + PRECONDITION_TOL), desc
            assert pair.upper_ok == (p_cc <= pair.p_plus_plus + pair.d_minus + 1e-12), desc
        try:
            cc.check_assumptions(m)
            gate = None
        except PreconditionViolated as exc:
            gate = str(exc).split()[0]
        assert gate == refused, desc
        seen.add(f"refused by {refused}")
        seen.update("aggregate" for cells in ref.aggregate if cells)
        seen.update("joint cause" for p_cc in ref.p_joint if p_cc > 0.0)
    assert seen >= {
        "locality skips", "screening skips", "aggregate", "joint cause",
        "refused by None", "refused by locality", "refused by no_conspiracy",
    }


def test_generated_models_are_bell_local():
    # The atom probe: a generated model's outcomes read only their own
    # setting and own-direction cause cell, so its cause tuple is a local
    # hidden variable. The 16-atom law it gives the four directions'
    # outcomes, sum over c of p(c) p(A1 | c1) p(A2 | c2) p(B3 | c3)
    # p(B4 | c4), has the model's outcome tables and its CH value, which
    # therefore lies in [-1, 0]: the strict interval cannot be broken.
    rng = np.random.default_rng(13)
    for seed in range(40):
        cards = tuple(int(c) for c in rng.integers(2, 4, 4))
        m = random_eprb_model(seed, cards, float(10 ** rng.uniform(-6, -1)))
        w = m.weights
        kernels = []  # p(outcome | own setting, own cause cell), (outcome, cell); 0 for + at a zero-mass cell
        for row in _WINGS:
            s = w[row.index].sum(axis=0)  # (A, B, c1..c4), the far setting summed out
            s = s.sum(axis=1 - row.wing).sum(axis=tuple(1 + k for k in range(4) if k != row.cause))
            mass = s.sum(axis=0)
            plus = np.divide(s[0], mass, out=np.zeros_like(mass), where=mass > 0.0)
            kernels.append(np.stack([plus, 1.0 - plus]))
        law = np.einsum("ijkl,wi,xj,yk,zl->wxyz", w.sum(axis=(0, 1, 2, 3)), *kernels)  # outcome 0 is +
        for a in (0, 1):
            for b in (0, 1):
                table = law.sum(axis=(1 - a, 3 - b))
                assert np.abs(table - m.outcome_tables()[a, b]).max() <= 1e-15, (seed, a, b)
        # the oracle's atom 8 A1 + 4 A2 + 2 B3 + B4 counts + as 1
        res = ch_atom_oracle(law[::-1, ::-1, ::-1, ::-1].ravel().tolist())
        assert res.in_bounds
        assert abs(res.value - m.weak_report().value) <= 1e-15, seed


def test_verify_sequence_pairs_the_setting_law_once(monkeypatch):
    # the joint-cause check and the weak report share the per-pair law that
    # pair_settings keeps for equal tables
    calls = []
    monkeypatch.setattr(cc, "pair_settings", lambda table: calls.append(pair_settings(table)) or calls[-1])
    m = cc.random_eprb_model(7, (2, 3, 2, 2), 1e-3)
    assert cc.joint_cause_bounds_check(m).ok
    assert not m.weak_report().violated
    assert len(calls) == 2 and calls[0] is calls[1]


def test_kept_values_belong_to_their_model():
    m = random_eprb_model(8, (2, 2, 2, 2), 1e-3)
    twin = EprbModel(m.weights, m.cause_cards)
    for derive in (EprbModel.outcome_tables, EprbModel.profile, validate_loc, validate_no_conspiracy, validate_screening):
        value = derive(m)
        assert derive(m) is value
        assert derive(twin) is not value
    assert np.array_equal(twin.outcome_tables(), m.outcome_tables())
    assert validate_screening(twin) == validate_screening(m)


def test_kept_reports_do_not_keep_their_model_alive():
    # The reports are kept in the model's __dict__. One that referred back
    # to its model would make a cycle that only the cyclic collector frees,
    # so every discarded model would linger until a collection.
    m = random_eprb_model(8, (2, 2, 2, 2), 1e-3)
    model = weakref.ref(m)
    gc.disable()
    try:
        reports = [check(m) for check in (validate_loc, validate_no_conspiracy, validate_screening)]
        assert joint_cause_bounds_check(m).ok
        del m
        assert model() is None
        assert max(r.max_abs for r in reports) <= PRECONDITION_TOL
    finally:
        gc.enable()


def test_labels_are_formatted_once_per_cause_cardinalities(monkeypatch):
    formatted = count_labels(monkeypatch)
    # the validators, the joint-cause check and the weak report, called as
    # the benchmark's verify_joint calls them
    cards = (2, 3, 2, 2)
    m = random_eprb_model(7, cards, 1e-3)
    reports = (validate_loc(m), validate_no_conspiracy(m), validate_screening(m))
    assert joint_cause_bounds_check(m).ok
    assert not m.weak_report().violated
    assert max(r.max_abs for r in reports) <= PRECONDITION_TOL
    # the model's layout formatted each of its labels once, and nothing else
    assert sorted(formatted) == layout_labels(cards)
    formatted.clear()
    # another model of these cards, and the search on them, format none
    twin = random_eprb_model(8, cards, 1e-3)
    again = (validate_loc(twin), validate_no_conspiracy(twin), validate_screening(twin))
    assert again[0].labels is reports[0].labels and again[1].labels is reports[1].labels
    assert joint_cause_bounds_check(twin).ok
    search_counterexample(SearchConfig(seed=2, restarts=2, cause_cards=cards))
    for rep in again:
        k = max(range(len(rep.residuals)), key=lambda i: abs(rep.residuals[i]))
        assert rep.worst() == (rep.labels[k], rep.residuals[k])
    assert formatted == []


def test_full_check_profiles_the_model_once(monkeypatch):
    # generation, the three validators, the joint-cause check and the weak
    # report all read the one deficit profile the model computes
    calls = []
    profile = singlet.epsilon_profile
    monkeypatch.setattr(singlet, "epsilon_profile", lambda tables: calls.append(1) or profile(tables))
    m = random_eprb_model(7, (2, 3, 2, 2), 1e-3)
    for check in (validate_loc, validate_no_conspiracy, validate_screening, joint_cause_bounds_check):
        check(m)
    m.weak_report()
    assert len(calls) == 1


def _profile_bits(prof):
    return {
        k: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v.hex()
        for k, v in vars(prof).items()
    }


def test_model_profile_is_the_profile_of_its_tables():
    rng = np.random.default_rng(4)
    w = rng.dirichlet(np.ones(256)).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    w[0, 1, :, 1] = 0.0  # pair (a1, b4): no B=- mass to condition p(+_a | -_b) on
    w[1, 0, 1] = 0.0  # pair (a2, b3): no A=- mass to condition p(+_b | -_a) on
    dirichlet = EprbModel(w, (2, 2, 2, 2))
    models = [random_eprb_model(seed, (2, 3, 2, 2), 1e-3) for seed in range(3)] + [dirichlet]
    for m in models:
        prof = m.profile()
        assert _profile_bits(prof) == _profile_bits(singlet.epsilon_profile(m.outcome_tables()))
        t = m.outcome_tables().tolist()
        for i, j in np.ndindex(2, 2):  # the reference: one float division per deficit
            (_, pm), (mp, mm) = t[i][j]
            assert prof.eps_ab[i, j] == (1.0 - pm / (pm + mm) if pm + mm > 0.0 else 1.0)
            assert prof.eps_ba[i, j] == (1.0 - mp / (mp + mm) if mp + mm > 0.0 else 1.0)
    assert dirichlet.profile().eps_ab[0, 1] == 1.0 and dirichlet.profile().eps_ba[1, 0] == 1.0


def test_memoised_model_tables_reject_writes():
    m = random_eprb_model(8, (2, 2, 2, 2), 1e-3)
    assert m.outcome_tables() is m.outcome_tables() and m.profile() is m.profile()
    for table in (m.setting_probs(), m.outcome_tables(), m.profile().eps_ab):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5
    assert np.array_equal(m.setting_probs(), m.weights.sum(axis=(2, 3, 4, 5, 6, 7)))

def test_aggregate_cause_includes_forcing_and_boundary_cells():
    # first variable has a sure cell, a boundary cell with conditional
    # exactly 1 - sqrt(eps), and an opposite-group cell; the boundary cell
    # carries weight sqrt(t) so the direction deficit lands exactly at t
    t = 0.0025
    root = math.sqrt(t)
    w = root
    cause = np.zeros((3, 2, 2, 2))
    cause[0, 0, 0, 0] = 0.5 * (1.0 - w)
    cause[1, 0, 0, 0] = 0.5 * w
    cause[2, 1, 1, 1] = 0.5
    plus = [(1.0, 1.0 - root, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), cause, plus)
    assert m.profile().eps_a[0] == pytest.approx(t, rel=1e-9)
    cells = _aggregate(m, _WINGS[0])
    assert 0 in cells  # conditional exactly 1
    assert 1 in cells  # conditional exactly at the cutoff
    assert 2 not in cells


def test_aggregate_cause_empty_when_cells_uninformative():
    # Alice's first direction reads the second variable, so its own cells
    # all sit at one half while the deficit stays zero
    cause = np.zeros((2, 2, 2, 2))
    cause[0, 0, 0, 0] = 0.25
    cause[0, 1, 1, 1] = 0.25
    cause[1, 0, 0, 0] = 0.25
    cause[1, 1, 1, 1] = 0.25
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), cause, plus, attach=(1, 1, 2, 3))
    assert m.profile().eps_a[0] == 0.0
    assert _aggregate(m, _WINGS[0]) == ()
    assert _aggregate(m, _WINGS[1]) == (0,)


def test_joint_cause_bounds_perfect_model_equality():
    m = perfect_model()
    rep = joint_cause_bounds_check(m)
    assert rep.epsilon == 0.0
    for pair in rep.pairs:
        assert pair.p_joint_cause == pair.p_plus_plus == 0.0
        assert pair.lower_ok and pair.upper_ok


def test_joint_cause_bounds_generated_sweep():
    rng = np.random.default_rng(90)
    for _ in range(30):
        cards = tuple(int(c) for c in rng.integers(2, 4, size=4))
        m = random_eprb_model(rng, cards, float(rng.uniform(1e-6, 1e-3)))
        assert joint_cause_bounds_check(m).ok


def test_joint_cause_bounds_terms_are_the_correction_terms():
    # each pair's terms, read from one root of the model's deficit, are correction_terms' bit for bit
    rng = np.random.default_rng(91)
    models = [perfect_model()] + [
        random_eprb_model(rng, tuple(int(c) for c in rng.integers(2, 5, size=4)), float(rng.uniform(1e-6, 1e-2)), law)
        for law in SETTING_LAWS
        for _ in range(8)
    ]
    for m in models:
        rep = joint_cause_bounds_check(m)
        settings = dict(zip(CH_PAIRS.values(), pair_settings(m.setting_probs())))
        for pair, (ai, bj) in zip(rep.pairs, ((0, 0), (0, 1), (1, 0), (1, 1))):
            ct = correction_terms(rep.epsilon, settings[ai, bj])
            assert pair.pair == f"{ai + 1}{bj + 3}"
            assert (pair.d_minus, pair.d_plus) == (ct.d_minus_ab, ct.d_plus_ab)
            assert type(pair.d_minus) is type(pair.d_plus) is float


def test_max_abs_is_computed_once_per_report(monkeypatch):
    # check_assumptions reads each kept report's max_abs; a second call reads it again for free
    computed = []
    max_abs = spaces_mod._max_abs
    monkeypatch.setattr(spaces_mod, "_max_abs", lambda residuals: computed.append(residuals) or max_abs(residuals))
    m = random_eprb_model(92, (3, 2, 4, 2), 1e-4)
    cc.check_assumptions(m)
    cc.check_assumptions(m)
    assert len(computed) == 3
    assert [validate(m).max_abs for validate in cc.validators().values()] == [max_abs(r) for r in computed]
    assert len(computed) == 3


def test_joint_cause_bounds_rejects_conspiracy():
    m = perfect_model()
    w = m.weights.copy()
    w[0, :, :, :, 0] *= 1.5
    with pytest.raises(PreconditionViolated):
        joint_cause_bounds_check(EprbModel(w, m.cause_cards))


@pytest.fixture
def clean_gate(monkeypatch):
    # joint_cause_bounds_check looks its three validators up in common_cause
    for name in ("validate_loc", "validate_no_conspiracy", "validate_screening"):
        monkeypatch.setattr(cc, name, lambda model: ResidualReport((), (), ()))


def _joint_border_model(f: float, x: float = 2.0**-18) -> EprbModel:
    """A model whose pair 13 has p(C^a C^b) = (3/8 + f/4) / (1 + x), and nothing else moves with f.

    The four causes equal a fair hidden bit z. A is + when c1 = 0 at a1 and
    when c2 = 1 at a2; B is + when c3 = 0 at b3 and when c4 = 1 at b4. So
    p(+,+|a1 b3) = 1/2 and the aggregate causes are c1 = 0 and c3 = 0. An
    extra (-, -) mass x at pair (a1, b4) sets the deficit to x / (1/8 + x).
    In pair (a2, b4), whose outcomes read only c2 and c4, c1 and c3 are both
    0 with probability f apart from z, so f moves p(C^a C^b) and no table.
    That breaks setting independence: a check needs its gate patched clean.
    """
    w = np.zeros((2,) * 8)
    for z in (0, 1):
        for a, b in ((0, 0), (0, 1), (1, 0)):
            w[a, b, (z, 1 - z)[a], (z, 1 - z)[b], z, z, z, z] = 1 / 8
        for k, p in ((0, f), (1, 1.0 - f)):
            w[1, 1, 1 - z, 1 - z, k, z, k, z] = p / 8
    w[0, 1, 1, 1, 1, 1, 1, 1] = x
    return EprbModel(w, (2, 2, 2, 2))


def _pair_13_at(p_joint_cause: float):
    x = 2.0**-18
    pair = joint_cause_bounds_check(_joint_border_model(4.0 * (p_joint_cause * (1.0 + x) - 0.375), x)).pairs[0]
    assert pair.p_joint_cause == pytest.approx(p_joint_cause, abs=1e-15)
    return pair


def test_joint_cause_lower_border(clean_gate):
    # p(+,+|ab) - d_plus_ab <= p(C^a C^b) within PRECONDITION_TOL. No model
    # that passes the validators is known to reach this border, so these
    # run with the gate patched clean.
    ref = _pair_13_at(0.5)
    assert ref.d_minus < ref.d_plus
    border = ref.p_plus_plus - ref.d_plus
    for p_cc, ok in (
        (border - 2.0 * PRECONDITION_TOL, False),  # beyond the tolerance
        (border - 0.5 * PRECONDITION_TOL, True),  # inside it
        (border + 0.5 * (ref.d_plus - ref.d_minus), True),  # yet below p(+,+|ab) - d_minus_ab
    ):
        pair = _pair_13_at(p_cc)
        assert (pair.lower_ok, pair.upper_ok) == (ok, True), p_cc - border


def test_joint_cause_upper_border(clean_gate):
    # p(C^a C^b) <= p(+,+|ab) + d_minus_ab within 1e-12. The paper proves
    # this side for every model that meets the assumptions, so only a model
    # that fails them can cross it: the gate is patched clean.
    ref = _pair_13_at(0.5)
    border = ref.p_plus_plus + ref.d_minus
    for p_cc, ok in (
        (border + 0.5e-12, True),  # inside the tolerance
        (border + 2e-12, False),  # beyond it
        (border + 0.5 * (ref.d_plus - ref.d_minus), False),  # yet below p(+,+|ab) + d_plus_ab
    ):
        pair = _pair_13_at(p_cc)
        assert (pair.lower_ok, pair.upper_ok) == (True, ok), p_cc - border


def _aggregate_border_model(w_plus: float) -> EprbModel:
    # Cause c1 has two cells. At a1, cell 0 carries only (+, -) and cell 1
    # carries (+, +) with mass w_plus and (-, +) with 0.6875 - w_plus, so
    # p(+_a1 | -_b3) = 1 and the a1 deficit is exactly 0: the cutoff is 1.
    w = np.zeros((2, 2, 2, 2, 2, 1, 1, 1))
    w[0, 0, 0, 1, 0] = 1 / 8
    w[0, 0, 0, 0, 1] = w_plus
    w[0, 0, 1, 0, 1] = 0.6875 - w_plus
    w[0, 1, 0, 1, 0] = w[1, 0, 0, 1, 0] = w[1, 1, 0, 1, 0] = 1 / 16
    return EprbModel(w, (2, 1, 1, 1))


def test_aggregate_cause_cutoff_tolerance():
    # a cell joins the aggregate when p(+|a1, cell) >= cutoff - 1e-12
    edge = 1.0 - 1e-12
    w_edge = edge * 0.6875
    assert w_edge / 0.6875 == edge
    m = _aggregate_border_model(w_edge)
    # All weights are multiples of 2^-53 that sum to 1, so normalising and
    # summing are exact and the cell's conditional is edge itself.
    assert (m.weights[0, 0, 0, 0, 1, 0, 0, 0], m.weights[0, 0, 1, 0, 1, 0, 0, 0]) == (w_edge, 0.6875 - w_edge)
    eps_dir = m.profile().eps_a[0]
    assert (eps_dir, 1 - math.sqrt(eps_dir), _aggregate(m, _WINGS[0])) == (0.0, 1.0, (0, 1))
    for q, cells in ((1.0 - 0.5e-12, (0, 1)), (1.0 - 2e-12, (0,))):  # inside the tolerance, beyond it
        assert _aggregate(_aggregate_border_model(q * 0.6875), _WINGS[0]) == cells, q


def test_weak_report_matches_components():
    m = random_eprb_model(9, (2, 2, 2, 2), 1e-3)
    rep = m.weak_report()
    assert rep.epsilon == m.profile().eps_global
    assert rep.value == pytest.approx(ch_from_weights(m.weights), abs=1e-15)
    assert not rep.violated


WITHIN_TOLERANCE = Path(__file__).resolve().parent / "golden" / "eprb_within_tolerance.json"


def test_within_tolerance_fixture_is_the_helpers_model():
    assert json.loads(WITHIN_TOLERANCE.read_text()) == within_tolerance_model().to_dict()


def test_within_tolerance_model_meets_the_gate_only_to_tolerance():
    # A 1e-9 share of a PR box in a deterministic local strategy: the gate
    # passes, with screening's residual near delta/2 = 5e-10, and CH lies
    # below -1 by as much at a deficit of exactly 0.
    m = model_from_dict(json.loads(WITHIN_TOLERANCE.read_text()))
    cc.check_assumptions(m)
    assert validate_loc(m).max_abs == 0.0 and validate_no_conspiracy(m).max_abs == 0.0
    assert validate_screening(m).max_abs == pytest.approx(5.0e-10, rel=1e-6)
    assert validate_screening(m).max_abs <= PRECONDITION_TOL
    assert m.profile().eps_global == 0.0
    assert m.weak_report().value == pytest.approx(-1.0 - 5e-10, abs=1e-15)

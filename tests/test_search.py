import dataclasses
import itertools
import math
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import weakch.common_cause as common_cause_mod
import weakch.search as search_mod
import weakch.singlet as singlet_mod
from helpers import (
    aligned_cause_joint,
    build_product_model,
    ordered_penalty,
    reference_search,
    uniform_settings,
)
from weakch.common_cause import (
    PRECONDITION_TOL,
    EprbModel,
    PreconditionViolated,
    joint_cause_bounds_check,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from weakch.inequalities import TSIRELSON_LOWER, TSIRELSON_UPPER, tsirelson_check
from weakch.search import (
    MAX_GRID_SIZE,
    MAX_SEARCH_WEIGHTS,
    SearchConfig,
    _evaluate,
    _feasible,
    constraint_penalty,
    optimize_angles,
    search_counterexample,
)
from weakch.singlet import canonical_angle, ch_terms, ch_value
from weakch.spaces import ResidualReport, WeakChError


def test_optimizer_finds_lower_extremum():
    theta, value = optimize_angles(mode="min", grid_size=16)
    assert value == pytest.approx(TSIRELSON_LOWER, abs=1e-9)
    assert tsirelson_check(value)
    # inter-direction pattern up to symmetry: three joints at the small
    # angle, the crossed one at the wide angle
    t = ch_terms(theta)
    small = 0.5 * math.sin(math.pi / 8) ** 2
    wide = 0.5 * math.sin(3 * math.pi / 8) ** 2
    for key in ("p13", "p14", "p24"):
        assert t[key] == pytest.approx(small, abs=1e-9)
    assert t["p23"] == pytest.approx(wide, abs=1e-9)


def test_optimizer_finds_upper_extremum():
    _, value = optimize_angles(mode="max", grid_size=16)
    assert value == pytest.approx(TSIRELSON_UPPER, abs=1e-9)


def test_optimizer_agrees_with_small_dense_grid():
    # brute-force oracle on an aligned grid
    n = 48
    g = 2 * np.pi * np.arange(n) / n
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")

    def s(t):
        return np.sin(t / 2.0) ** 2

    vals = 0.5 * (s(Y) + s(Z) + s(X - Z) - s(X - Y)) - 1.0
    _, lo = optimize_angles(mode="min", grid_size=16)
    _, hi = optimize_angles(mode="max", grid_size=16)
    assert lo <= vals.min() + 1e-12
    assert hi >= vals.max() - 1e-12
    assert lo == pytest.approx(float(vals.min()), abs=1e-6)
    assert hi == pytest.approx(float(vals.max()), abs=1e-6)


def test_optimizer_rejects_small_grid():
    with pytest.raises(ValueError):
        optimize_angles(grid_size=4)


def test_optimizer_rejects_an_unknown_mode():
    # the sign of the grid's objective is read from it; nothing else is extremized
    with pytest.raises(ValueError, match="^mode must be 'min' or 'max', got 'median'$"):
        optimize_angles(mode="median")


def test_optimizer_rejects_a_grid_above_its_cap():
    # the grid holds grid_size**3 points; one above the cap is refused
    # before anything is allocated
    with pytest.raises(ValueError, match="grid_size"):
        optimize_angles(grid_size=MAX_GRID_SIZE + 1)


def test_search_config_caps_the_weight_tensor():
    assert 16 * 8**4 == MAX_SEARCH_WEIGHTS
    SearchConfig(cause_cards=(8, 8, 8, 8))  # exactly at the cap
    for cards in ((9, 8, 8, 8), (1000, 1000, 1000, 1000)):
        with pytest.raises(WeakChError, match="weights"):
            SearchConfig(cause_cards=cards)


@pytest.mark.parametrize("value", [8.5, True], ids=["8.5", "True"])  # 8.5 would run a nine-point uneven grid
def test_optimizer_reads_its_grid_size_as_an_integer(value):
    with pytest.raises(WeakChError, match="grid_size must be an integer"):
        optimize_angles(grid_size=value)


@pytest.mark.parametrize("mode, bound", [("min", TSIRELSON_LOWER), ("max", TSIRELSON_UPPER)])
def test_optimizer_reaches_tsirelson_from_its_best_grid_point(mode, bound):
    # theta1 = 0 and offsets (pi/2, -pi/4, pi/4) or their mirror for min;
    # max turns the third and fourth directions by pi
    q = math.pi / 4
    turn = 0.0 if mode == "min" else math.pi
    exact = {
        tuple(canonical_angle(t) for t in (0.0, s * 2 * q, turn - s * q, turn + s * q))
        for s in (1, -1)
    }
    # every grid from 8 to 24 points a side, and the largest ones
    for grid in [*range(8, 25), 64, 127, 128]:
        theta, value = optimize_angles(mode=mode, grid_size=grid)
        assert theta in exact, grid
        assert abs(value - bound) <= 2e-15, (grid, value)
        assert value == ch_value(theta), grid


def test_penalty_zero_for_product_model():
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    m = build_product_model(uniform_settings(), aligned_cause_joint(), plus)
    assert constraint_penalty(m) <= 1e-20


def test_penalty_positive_after_perturbation():
    m = random_eprb_model(6, (2, 2, 2, 2), 1e-3)
    w = m.weights.copy()
    w[0, 0, 0, 0, 0, 0, 0, 0] += 1e-3
    assert constraint_penalty(EprbModel(w, m.cause_cards)) > 1e-12


def test_penalty_invariant_under_cause_relabeling():
    m = random_eprb_model(21, (3, 2, 2, 2), 1e-3)
    w = m.weights.copy()
    w[..., 0, 0, 0, 0] += 1e-4  # leave the constraint manifold first
    bumped = EprbModel(w, m.cause_cards)
    perm = [2, 0, 1]
    relabeled = EprbModel(bumped.weights[:, :, :, :, perm], m.cause_cards)
    p1 = constraint_penalty(bumped)
    p2 = constraint_penalty(relabeled)
    assert p1 > 0
    assert p2 == pytest.approx(p1, rel=1e-9)


def test_config_validation():
    with pytest.raises(WeakChError):
        SearchConfig(restarts=0)
    with pytest.raises(WeakChError):
        SearchConfig(cause_cards=(1, 2, 2, 2))
    with pytest.raises(WeakChError, match="cause cardinalities"):
        SearchConfig(cause_cards=(2.5, 2, 2, 2))
    with pytest.raises(WeakChError):
        SearchConfig(eps_band=(0.5, 0.1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", None),
        ("seed", True),
        ("restarts", 1.5),
        ("restarts", None),
        ("max_iters", 2.0),
        ("max_iters", None),
        ("max_iters", "3"),
        ("eps_band", ("0", 1e-3)),
        ("eps_band", (0.0, False)),
        ("eps_band", (math.nan, 1e-3)),
        ("eps_band", (0.0, math.inf)),
        ("eps_band", (-1e-12, 1e-3)),
        ("eps_band", (0.0, 1.0 + 1e-12)),
    ],
)
def test_config_rejects_non_finite_and_negative_knobs(field, value):
    # eps_band is the one real-number setting; a NaN end would put every
    # deficit outside the band, and the search would still return normally
    with pytest.raises(WeakChError, match=field):
        SearchConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("eps_band", None), ("eps_band", 5), ("eps_band", (10**400, 1)), ("eps_band", (0, 10**400))],
    ids=["eps_band None", "eps_band an int", "eps_band past the float range", "eps_band upper past the float range"],
)
def test_config_names_the_field_it_cannot_read(field, value):
    # not iterable, or an int past the float range: Python's own TypeError or OverflowError otherwise
    with pytest.raises(WeakChError, match=f"^{field} must"):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("band", [(0, 0), (0.0, 1.0), (1, 1)])
def test_config_accepts_the_band_edges(band):
    cfg = SearchConfig(eps_band=band)
    assert cfg.eps_band == band
    assert all(type(v) is float for v in cfg.eps_band)


def test_config_stores_python_ints():
    cfg = SearchConfig(seed=np.uint32(3), restarts=np.int64(2), max_iters=np.int8(5), cause_cards=np.array([2, 3, 2, 2]))
    assert (cfg.seed, cfg.restarts, cfg.max_iters, cfg.cause_cards) == (3, 2, 5, (2, 3, 2, 2))
    assert all(type(v) is int for v in (cfg.seed, cfg.restarts, cfg.max_iters, *cfg.cause_cards))


@pytest.mark.parametrize("field", ["step_init", "step_decay", "penalty_weight", "feas_tol"])
def test_config_has_no_walk_settings(field):
    # the step schedule and the penalty weight are module constants, and
    # feasibility uses the validators' precondition tolerance
    with pytest.raises(TypeError, match=field):
        SearchConfig(**{field: 0.5})


def test_search_replay_is_bit_identical():
    cfg = SearchConfig(seed=13, restarts=2)
    r1 = search_counterexample(cfg)
    r2 = search_counterexample(cfg)
    assert r1.restart_index == r2.restart_index
    assert r1.objective == r2.objective
    assert np.array_equal(r1.model.weights, r2.model.weights)


def test_search_zero_band_is_infeasible():
    for seed in (0, 5):
        cfg = SearchConfig(seed=seed, restarts=2, eps_band=(0.0, 0.0))
        res = search_counterexample(cfg)
        assert res.feasible is False
        assert res.epsilon == 0.0


def test_search_takes_no_steps():
    res = search_counterexample(SearchConfig(seed=3, restarts=1))
    assert res.trace == ()
    assert not hasattr(res, "accepted")


@pytest.mark.parametrize("max_iters", [1, 7, 10**6])
def test_max_iters_does_not_change_the_search(max_iters):
    # accepted and validated, but not read
    cfg = SearchConfig(seed=11, restarts=3, cause_cards=(3, 2, 4, 2))
    res = search_counterexample(cfg)
    other = search_counterexample(dataclasses.replace(cfg, max_iters=max_iters))
    assert other.restart_index == res.restart_index
    assert (other.objective, other.penalty, other.feasible) == (res.objective, res.penalty, res.feasible)
    assert other.model.weights.tobytes() == res.model.weights.tobytes()


def test_search_feasible_claims_are_validated():
    cfg = SearchConfig(seed=8, restarts=2)
    res = search_counterexample(cfg)
    if res.feasible:
        validators = (validate_loc, validate_no_conspiracy, validate_screening)
        assert max(validate(res.model).max_abs for validate in validators) <= PRECONDITION_TOL
        assert not res.weak_report.violated
        assert res.ch_value < -1.0 or res.ch_value > 0.0
    else:
        # an infeasible outcome is a valid result and never a nonexistence claim
        assert res.model is not None


def test_feasibility_needs_every_residual_within_the_precondition_tolerance():
    # 1e-6 of mass moved between Bob's outcomes at one setting pair leaves
    # a locality residual of 4e-6 but a penalty of only 6.4e-11, while CH
    # breaks the strict interval inside the weak one: check-model refuses
    # the model, so the search must not call it feasible.
    m = random_eprb_model(0, (2, 2, 2, 2), 3e-6)
    w = m.weights.copy()
    move = 1e-6 * w[1, 0, 0, 1] / w[1, 0, 0, 1].sum()
    w[1, 0, 0, 1] -= move
    w[1, 0, 0, 0] += move
    model = EprbModel(w, (2, 2, 2, 2))
    cfg = SearchConfig()
    res = _evaluate(model, 0, cfg, model.weak_report())
    assert res.penalty < 1e-10
    assert res.ch_value < -1.0 and not res.weak_report.violated
    assert cfg.eps_band[0] <= res.epsilon <= cfg.eps_band[1]
    with pytest.raises(PreconditionViolated, match="locality"):
        joint_cause_bounds_check(res.model)
    assert _feasible(res, cfg) is False


def test_check_model_and_the_search_refuse_a_nan_residual(monkeypatch):
    # A NaN is neither above nor within the tolerance; the one gate passes
    # only residuals <= PRECONDITION_TOL, and looks each validator up when
    # it runs.
    model = random_eprb_model(0, (2, 2, 2, 2), 3e-6)
    res = _evaluate(model, 0, SearchConfig(), model.weak_report())
    res = dataclasses.replace(res, ch_value=1.0)  # as if it broke the strict interval
    cfg = SearchConfig(eps_band=(res.epsilon, res.epsilon))
    assert not res.weak_report.violated
    assert _feasible(res, cfg) is True
    for residuals in ((math.nan,), (0.0, math.nan)):  # first or not, max alone would skip a later one
        monkeypatch.setattr(common_cause_mod, "validate_loc", lambda m: ResidualReport(residuals))
        with pytest.raises(PreconditionViolated, match="^locality residual nan exceeds"):
            joint_cause_bounds_check(model)
        assert _feasible(res, cfg) is False


def test_search_keeps_only_its_best_restart():
    # the search's peak memory must not grow with the restart count
    def peak(restarts):
        tracemalloc.start()
        try:
            search_counterexample(SearchConfig(seed=3, restarts=restarts))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    search_counterexample(SearchConfig(seed=3, restarts=40))  # fills the caches first
    assert peak(40) - peak(4) < 200_000


CARDS = [(2, 2, 2, 2), (3, 2, 4, 2), (4, 4, 4, 4)]
BANDS = [(1e-6, 1e-3), (1e-5, 3e-5), (0.0, 0.0)]


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cards", CARDS)
def test_search_is_the_best_of_its_start_models(cards, band):
    _assert_is_the_reference_search(SearchConfig(seed=2, restarts=3, cause_cards=cards, eps_band=band))


def _run_restart(cfg, restart):
    # one restart's generated model, evaluated as if it had won
    model = search_mod._start_model(cfg, restart)
    return _evaluate(model, restart, cfg, model.weak_report())


def _assert_is_the_reference_search(cfg):
    res = search_counterexample(cfg)
    ref = reference_search(cfg)
    assert res.restart_index == ref.restart_index
    assert res.objective == ref.objective
    assert res.penalty == ref.penalty
    assert res.epsilon == ref.epsilon
    assert res.ch_value == ref.ch_value
    assert res.weak_report == ref.weak_report
    assert res.feasible == ref.feasible
    assert res.model.weights.tobytes() == ref.model.weights.tobytes()


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cards", CARDS)
def test_every_restart_reports_a_validator_clean_model(cards, band):
    # what the search reports is a generated model, so each restart's is a
    # model with every setting pair at 1/4 and residuals zero up to rounding
    cfg = SearchConfig(seed=2, restarts=3, cause_cards=cards, eps_band=band)
    for r in range(cfg.restarts):
        res = _run_restart(cfg, r)
        w = res.model.weights
        assert np.isfinite(w).all() and (w >= 0.0).all()
        assert np.abs(w.reshape(4, -1).sum(axis=1) - 0.25).max() <= 1e-15
        assert max(validate(res.model).max_abs for validate in (validate_loc, validate_no_conspiracy, validate_screening)) <= PRECONDITION_TOL
        assert res.penalty == constraint_penalty(res.model) <= 1e-26


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cards", CARDS)
def test_more_restarts_never_give_a_worse_result(cards, band):
    # a restart's model does not depend on the restart count, and a later
    # restart wins only with a strictly better objective
    cfg = SearchConfig(seed=4, restarts=1, cause_cards=cards, eps_band=band)
    best = search_counterexample(cfg)
    for n in range(2, 6):
        res = search_counterexample(dataclasses.replace(cfg, restarts=n))
        last = _run_restart(cfg, n - 1)
        expected = last if last.objective > best.objective else best
        assert res.restart_index == expected.restart_index
        assert res.objective == expected.objective >= best.objective
        assert res.model.weights.tobytes() == expected.model.weights.tobytes()
        best = res


def test_ties_go_to_the_lowest_restart_index(monkeypatch):
    # Every restart generates restart 0's model, so their objectives tie
    # and restart 0 wins. The penalty is not ranked on, so even at 1.0 it
    # is restart 0 alone that is evaluated.
    cfg = SearchConfig(seed=6, restarts=4)
    start = search_mod._start_model
    monkeypatch.setattr(search_mod, "_start_model", lambda cfg, restart: start(cfg, 0))
    evaluated = []
    monkeypatch.setattr(search_mod, "_evaluate", lambda *args: evaluated.append(args[1]) or _evaluate(*args))
    for penalty in (None, 1.0):
        if penalty is not None:
            monkeypatch.setattr(search_mod, "constraint_penalty", lambda m: penalty)
        first = _run_restart(cfg, 0)
        evaluated.clear()
        res = search_counterexample(cfg)
        assert (res.restart_index, res.objective, res.penalty) == (0, first.objective, first.penalty)
        assert res.model.weights.tobytes() == first.model.weights.tobytes()
        assert evaluated == [0]


def test_a_one_restart_search_evaluates_its_restart_once(monkeypatch):
    # A one-restart search evaluates its one restart once, and whatever
    # the penalty, it is reported as that restart's evaluation reports it.
    cfg = SearchConfig(seed=6, restarts=1)
    monkeypatch.setattr(search_mod, "constraint_penalty", lambda m: 1.0)
    expected = _run_restart(cfg, 0)
    evaluated = []
    monkeypatch.setattr(search_mod, "_evaluate", lambda *args: evaluated.append(args[1]) or _evaluate(*args))
    res = search_counterexample(cfg)
    assert evaluated == [0]
    for field in ("restart_index", "objective", "penalty", "epsilon", "ch_value", "weak_report", "feasible"):
        assert getattr(res, field) == getattr(expected, field)
    assert res.model.weights.tobytes() == expected.model.weights.tobytes()


def test_restart_streams_are_keyed_by_seed_and_index():
    # a stream keyed by seed + restart would repeat (1, 0) as (0, 1)
    models = {
        _run_restart(SearchConfig(seed=seed), r).model.weights.tobytes()
        for seed in range(4)
        for r in range(4)
    }
    assert len(models) == 16


# Two benchmark search jobs whose winning generated model (restart 0 and
# restart 1) moved when its weights were divided by their sum again.
NARROW_WIDE = [
    SearchConfig(seed=seed, restarts=2, cause_cards=(4, 4, 4, 4), eps_band=(1e-5, 3e-5))
    for seed in (1610819869, 1933752451)
]


@pytest.mark.parametrize("cfg, restart", [
    (SearchConfig(seed=56), 3),
    (NARROW_WIDE[0], 0),
    (NARROW_WIDE[1], 1),
    (SearchConfig(seed=56), 0),
    (NARROW_WIDE[0], 1),
    (NARROW_WIDE[1], 0),
    (SearchConfig(seed=2, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0)), 2),
], ids=["56-3", "1610819869-0", "1933752451-1", "56-0", "1610819869-1", "1933752451-0", "2-2"])
def test_a_search_result_is_its_generated_model(cfg, restart):
    # the restart reports the model random_eprb_model generated, not a
    # rebuild that divides its weights by their sum again
    lo, hi = cfg.eps_band
    rng = np.random.default_rng([cfg.seed, restart])
    generated = random_eprb_model(rng, cfg.cause_cards, min(0.5 * (lo + hi), 0.1))
    res = _run_restart(cfg, restart)
    assert res.model.weights.tobytes() == generated.weights.tobytes()
    assert res.weak_report == generated.weak_report()


@pytest.mark.parametrize("gate", [False, True], ids=["gate fails", "gate passes"])
def test_each_restart_builds_one_model(monkeypatch, gate):
    # the generator builds the restart's model, and that model is the one
    # reported, whether or not it passes the gate
    built = []
    init = EprbModel.__init__
    monkeypatch.setattr(EprbModel, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    if gate:
        monkeypatch.setattr(search_mod, "_feasible", lambda res, cfg: True)
    res = _run_restart(SearchConfig(seed=13), 0)
    assert res.feasible is gate
    assert len(built) == 1
    assert built[0] is res.model


@pytest.mark.parametrize("shift, ch_value, violated, feasible", [
    (0.0, 1.0, False, True),
    (0.5e-12, 1.0, False, True),
    (2e-12, 1.0, False, False),
    (-0.5e-12, 1.0, False, True),
    (-2e-12, 1.0, False, False),
    (0.0, 2e-12, False, True),
    (0.0, 1e-12, False, False),
    (0.0, -1.0 - 2e-12, False, True),
    (0.0, -1.0 - 0.5e-12, False, False),
    (0.0, 1.0, True, False),
], ids=[
    "in the band", "1/2e-12 below the band", "2e-12 below the band", "1/2e-12 above the band",
    "2e-12 above the band", "strict excess 2e-12", "strict excess 1e-12",
    "strict excess 2e-12 below -1", "strict excess 1/2e-12 below -1", "weak interval broken",
])
def test_feasibility_gate_tolerances(shift, ch_value, violated, feasible):
    # A clean model's result, as if its CH value were ch_value, in a
    # one-point band shifted from its deficit: the deficit may lie 1e-12
    # outside the band, and the strict excess must be above 1e-12.
    model = random_eprb_model(0, (2, 2, 2, 2), 3e-6)
    res = _evaluate(model, 0, SearchConfig(), model.weak_report())
    assert not res.weak_report.violated
    weak = dataclasses.replace(res.weak_report, violated_lower=violated)
    res = dataclasses.replace(res, ch_value=ch_value, weak_report=weak)
    cfg = SearchConfig(eps_band=(res.epsilon + shift, res.epsilon + shift))
    assert _feasible(res, cfg) is feasible


BENCHMARK_STYLE = [
    SearchConfig(seed=100 + k, restarts=2, max_iters=150, cause_cards=cards, eps_band=band)
    for k, (cards, band) in enumerate(itertools.product([(2, 2, 2, 2), (4, 4, 4, 4)], BANDS[:2]))
] + [SearchConfig(seed=7, restarts=1, max_iters=150, eps_band=(0.0, 0.0))]


@pytest.mark.parametrize("cfg", BENCHMARK_STYLE, ids=lambda cfg: f"{cfg.seed}")
def test_benchmark_style_searches_evaluate_each_restart_once(monkeypatch, cfg):
    # the benchmark counts restarts * max_iters operations; the search reads
    # each restart's weak report once and evaluates only the restart that wins
    evaluated = []
    reports = []
    weak_report = EprbModel.weak_report
    monkeypatch.setattr(search_mod, "_evaluate", lambda *args: evaluated.append(args) or _evaluate(*args))
    monkeypatch.setattr(EprbModel, "weak_report", lambda self: reports.append(self) or weak_report(self))
    res = search_counterexample(cfg)
    assert res.trace == ()
    assert len(evaluated) == 1
    assert len(reports) == cfg.restarts == len(set(map(id, reports)))


LONGER = [
    SearchConfig(seed=2, restarts=n, cause_cards=cards, eps_band=band)
    for n in (4, 7) for cards in CARDS for band in BANDS
] + BENCHMARK_STYLE


@pytest.mark.parametrize("cfg", LONGER, ids=lambda cfg: f"{cfg.seed}-{cfg.restarts}-{cfg.cause_cards}-{cfg.eps_band}")
def test_longer_searches_are_the_best_of_their_start_models(cfg):
    _assert_is_the_reference_search(cfg)


@pytest.mark.parametrize("penalized", [1, 2])
@pytest.mark.parametrize("cfg", [
    SearchConfig(seed=3, restarts=4, cause_cards=(3, 2, 4, 2)),
    SearchConfig(seed=2, restarts=7, cause_cards=(4, 4, 4, 4), eps_band=(1e-5, 3e-5)),
    SearchConfig(seed=4, restarts=3),
], ids=lambda cfg: f"{cfg.seed}-{cfg.restarts}")
def test_a_penalized_top_restart_still_wins(monkeypatch, cfg, penalized):
    # The objective is read from the weak report alone, so a penalty of 1.0
    # on the restarts of the best bounds does not move the top one: it wins,
    # reports that penalty and its bound as its objective, and is the one
    # restart evaluated, with the penalty computed once.
    models = [search_mod._start_model(cfg, r) for r in range(cfg.restarts)]
    bounds = [search_mod._objective(m.weak_report(), cfg) for m in models]
    order = sorted(range(cfg.restarts), key=lambda r: (bounds[r], -r), reverse=True)
    heavy = {models[r].weights.tobytes() for r in order[:penalized]}
    assert len(heavy) == penalized
    penalty = search_mod.constraint_penalty
    calls = []
    monkeypatch.setattr(
        search_mod, "constraint_penalty",
        lambda m: calls.append(m) or (1.0 if m.weights.tobytes() in heavy else penalty(m)),
    )
    evaluated = []
    monkeypatch.setattr(search_mod, "_evaluate", lambda *args: evaluated.append(args[1]) or _evaluate(*args))
    res = search_counterexample(cfg)
    top = order[0]
    assert res.restart_index == top
    assert res.penalty == 1.0
    assert res.objective == bounds[top]
    assert res.model.weights.tobytes() == models[top].weights.tobytes()
    assert evaluated == [top]
    assert len(calls) == 1


def _perturbed(seed, cards):
    m = random_eprb_model(seed, cards, 1e-3)
    w = m.weights.copy()
    w[(0,) * w.ndim] += 1e-3
    return EprbModel(w, m.cause_cards)


def test_penalty_is_the_ordered_validator_sum():
    plus = [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)]
    models = [
        build_product_model(uniform_settings(), aligned_cause_joint(), plus),
        random_eprb_model(3, (4, 4, 4, 4), 1e-3),
        _perturbed(6, (2, 2, 2, 2)),
        _perturbed(21, (3, 2, 4, 2)),
    ]
    for m in models:
        assert constraint_penalty(m) == ordered_penalty(m)


def test_each_restart_runs_the_later_stages_once(monkeypatch):
    calls = {"validate_no_conspiracy": 0, "validate_screening": 0, "weak_report": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("validate_no_conspiracy", "validate_screening"):
        monkeypatch.setattr(search_mod, name, counting(name, getattr(search_mod, name)))
    monkeypatch.setattr(EprbModel, "weak_report", counting("weak_report", EprbModel.weak_report))
    cfg = SearchConfig(seed=13, restarts=2)
    res = search_counterexample(cfg)
    assert res.feasible is False
    # each restart's weak report is read once, and the validators run once,
    # for the restart that wins
    assert calls == {"validate_no_conspiracy": 1, "validate_screening": 1, "weak_report": 2}


def test_a_search_profiles_each_restart_once(monkeypatch):
    # the generator's deficit check, the weak report, and the winner's
    # validators, screening partners included, all read the one profile
    # each restart's model keeps
    calls = []
    profile = singlet_mod.epsilon_profile
    monkeypatch.setattr(singlet_mod, "epsilon_profile", lambda tables: calls.append(1) or profile(tables))
    res = search_counterexample(SearchConfig(seed=5, restarts=3, cause_cards=(2, 3, 2, 2)))
    assert res.penalty == constraint_penalty(res.model)  # the winner's validators ran
    assert len(calls) == 3


def test_importing_the_search_loads_no_thread_pool():
    code = "import sys, weakch.search\nprint('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


WIDE = SearchConfig(seed=5, restarts=2, cause_cards=(4, 4, 4, 4))


def test_concurrent_callers_get_their_sequential_results():
    # Each call has its own restart streams, so three calls running at
    # once, with the interpreter switching threads often, return what each
    # returns alone.
    configs = (WIDE, SearchConfig(seed=2, restarts=3, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0)), SearchConfig(seed=3, restarts=2))
    alone = [search_counterexample(cfg) for cfg in configs]
    barrier = threading.Barrier(len(configs))

    def run(cfg):
        barrier.wait(timeout=60)
        return search_counterexample(cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(configs)) as callers:
            futures = [callers.submit(run, cfg) for cfg in configs]
            together = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for res, ref in zip(together, alone):
        assert (res.restart_index, res.objective, res.penalty) == (ref.restart_index, ref.objective, ref.penalty)
        assert res.model.weights.tobytes() == ref.model.weights.tobytes()


def test_a_search_leaves_no_thread_behind(monkeypatch):
    before = threading.active_count()
    search_counterexample(WIDE)
    assert threading.active_count() == before
    calls = itertools.count(1)
    generate = search_mod.random_eprb_model

    def failing(*args):
        # the second restart's model
        if next(calls) == 2:
            raise RuntimeError("generation failed")
        return generate(*args)

    monkeypatch.setattr(search_mod, "random_eprb_model", failing)
    with pytest.raises(RuntimeError, match="generation failed"):
        search_counterexample(WIDE)
    assert threading.active_count() == before


def test_weakch_functions_run_on_the_calling_thread(monkeypatch):
    # a tracer that assumes one thread sees every weakch call on the caller's
    threads = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    names = ("random_eprb_model", "_evaluate", "constraint_penalty", "_feasible")
    for name in names:
        monkeypatch.setattr(search_mod, name, recording(name, getattr(search_mod, name)))
    monkeypatch.setattr(EprbModel, "weak_report", recording("weak_report", EprbModel.weak_report))
    search_counterexample(WIDE)
    assert threads == dict.fromkeys((*names, "weak_report"), {threading.get_ident()})

import itertools
import math

import numpy as np
import pytest

import weakch.search as search_mod
from helpers import (
    aligned_cause_joint,
    build_product_model,
    ordered_penalty,
    reference_search,
    uniform_settings,
)
from weakch.common_cause import EprbModel, random_eprb_model
from weakch.inequalities import TSIRELSON_LOWER, TSIRELSON_UPPER, tsirelson_check
from weakch.search import (
    MAX_GRID_SIZE,
    MAX_SEARCH_WEIGHTS,
    SearchConfig,
    _evaluate,
    constraint_penalty,
    optimize_angles,
    search_counterexample,
)
from weakch.singlet import ch_terms
from weakch.spaces import WeakChError


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


def test_optimizer_rejects_negative_refine_sweeps():
    # range(-1) would silently run no sweep
    with pytest.raises(ValueError, match="refine_sweeps"):
        optimize_angles(grid_size=8, refine_sweeps=-1)
    _, value = optimize_angles(grid_size=8, refine_sweeps=0)  # grid points only
    assert TSIRELSON_LOWER - 1e-12 <= value <= TSIRELSON_UPPER + 1e-12


def test_optimizer_rejects_a_negative_seed():
    # numpy's own refusal would not say which input was negative
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        optimize_angles(grid_size=8, seed=-1)


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("grid,seed", [(8, 0), (12, 1), (16, 2)])
def test_optimizer_value_stays_in_quantum_interval(mode, grid, seed):
    _, value = optimize_angles(mode=mode, seed=seed, grid_size=grid)
    assert TSIRELSON_LOWER - 1e-9 <= value <= TSIRELSON_UPPER + 1e-9


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
    with pytest.raises(WeakChError):
        SearchConfig(step_init=0.0)
    with pytest.raises(WeakChError):
        SearchConfig(eps_band=(0.5, 0.1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("step_init", math.inf),
        ("step_init", math.nan),
        ("penalty_weight", math.nan),
        ("penalty_weight", math.inf),
        ("penalty_weight", -1.0),
        ("feas_tol", math.nan),
        ("feas_tol", math.inf),
        ("feas_tol", -1e-12),
    ],
)
def test_config_rejects_non_finite_and_negative_knobs(field, value):
    # a NaN penalty weight makes every objective NaN, so the walk could
    # never accept a step and would still return normally
    with pytest.raises(WeakChError, match=field):
        SearchConfig(**{field: value})


def test_config_accepts_zero_penalty_weight_and_feas_tol():
    cfg = SearchConfig(penalty_weight=0.0, feas_tol=0.0)
    assert (cfg.penalty_weight, cfg.feas_tol) == (0.0, 0.0)


def test_search_replay_is_bit_identical():
    cfg = SearchConfig(seed=13, restarts=2, max_iters=50)
    r1 = search_counterexample(cfg)
    r2 = search_counterexample(cfg)
    assert r1.trace == r2.trace
    assert r1.restart_index == r2.restart_index
    assert r1.objective == r2.objective
    assert np.array_equal(r1.model.weights, r2.model.weights)


def test_search_zero_band_is_infeasible():
    for seed in (0, 5):
        cfg = SearchConfig(seed=seed, restarts=2, max_iters=40, eps_band=(0.0, 0.0))
        res = search_counterexample(cfg)
        assert res.feasible is False
        assert res.epsilon == 0.0


def test_search_trace_is_monotone():
    cfg = SearchConfig(seed=3, restarts=1, max_iters=80)
    res = search_counterexample(cfg)
    pens = [p for p, _ in res.trace]
    objs = [o for _, o in res.trace]
    assert len(res.trace) == cfg.max_iters
    assert all(b <= a for a, b in zip(pens, pens[1:]))
    assert all(b >= a for a, b in zip(objs, objs[1:]))


def test_search_feasible_claims_are_validated():
    cfg = SearchConfig(seed=8, restarts=2, max_iters=60)
    res = search_counterexample(cfg)
    if res.feasible:
        assert constraint_penalty(res.model) <= cfg.feas_tol
        assert not res.weak_report.violated
        assert res.ch_value < -1.0 or res.ch_value > 0.0
    else:
        # an infeasible outcome is a valid result and never a nonexistence claim
        assert res.model is not None


CARDS = [(2, 2, 2, 2), (3, 2, 4, 2), (4, 4, 4, 4)]
BANDS = [(1e-6, 1e-3), (1e-5, 3e-5), (0.0, 0.0)]


def _assert_same_search(res, ref, cfg):
    assert res.trace == ref.trace
    assert res.objective == ref.objective
    assert res.penalty == ref.penalty
    assert res.epsilon == ref.epsilon
    assert res.ch_value == ref.ch_value
    assert res.restart_index == ref.restart_index
    assert res.model.weights.tobytes() == ref.model.weights.tobytes()
    assert res.weak_report == ref.weak_report
    assert res.feasible == ref.feasible
    assert res.accepted == ref.accepted
    assert res.accepted + sum(res.rejected.values()) == cfg.max_iters


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cards", CARDS)
@pytest.mark.parametrize("step", [0.05, 1e-16])
def test_lazy_search_matches_full_evaluation(cards, band, step):
    # The tiny step keeps proposals within rounding of the start, so some
    # pass locality and reach the later stages or the objective.
    cfg = SearchConfig(
        seed=2, restarts=2, max_iters=30, cause_cards=cards, eps_band=band, step_init=step
    )
    _assert_same_search(search_counterexample(cfg), reference_search(cfg), cfg)


def test_lazy_search_matches_full_evaluation_across_accepted_steps():
    cfg = SearchConfig(
        seed=2, restarts=1, max_iters=60, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0),
        step_init=1e-16,
    )
    res = search_counterexample(cfg)
    assert res.accepted > 0
    _assert_same_search(res, reference_search(cfg), cfg)


def _perturbed(seed, cards):
    m = random_eprb_model(seed, cards, 1e-3)
    w = m.weights.copy()
    w[(0,) * w.ndim] += 1e-3
    return EprbModel(w, m.cause_cards)


@pytest.mark.parametrize("seed,cards", [(6, (2, 2, 2, 2)), (21, (3, 2, 4, 2)), (4, (4, 4, 4, 4))])
def test_cutoff_sits_exactly_at_the_current_penalty(seed, cards):
    m = _perturbed(seed, cards)
    args = (m.weights.ravel(), m.weights.shape, m.cause_cards, SearchConfig())
    full = _evaluate(*args)
    p = full.penalty
    assert p > 0.0
    assert _evaluate(*args, cutoff=p) == full
    partial = np.cumsum(list(search_mod._penalty_terms(m)))
    below = float(np.nextafter(p, -np.inf))
    first_over = ("locality", "no_conspiracy", "screening")[int(np.argmax(partial > below))]
    assert _evaluate(*args, cutoff=below) == first_over
    assert _evaluate(*args, cutoff=0.0) == "locality"


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


def test_rejected_proposals_skip_the_later_stages(monkeypatch):
    calls = {"validate_no_conspiracy": 0, "validate_screening": 0, "weak_report": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("validate_no_conspiracy", "validate_screening"):
        monkeypatch.setattr(search_mod, name, counting(name, getattr(search_mod, name)))
    monkeypatch.setattr(EprbModel, "weak_report", counting("weak_report", EprbModel.weak_report))
    cfg = SearchConfig(seed=13, restarts=2, max_iters=50)
    res = search_counterexample(cfg)
    assert res.feasible is False
    # only the start of each restart is evaluated in full
    assert calls == {"validate_no_conspiracy": 2, "validate_screening": 2, "weak_report": 2}


def test_benchmark_style_searches_reject_every_proposal_at_locality():
    shapes = itertools.product([(2, 2, 2, 2), (4, 4, 4, 4)], BANDS[:2])
    jobs = [
        SearchConfig(seed=100 + k, restarts=2, max_iters=150, cause_cards=cards, eps_band=band)
        for k, (cards, band) in enumerate(shapes)
    ]
    jobs.append(SearchConfig(seed=7, restarts=1, max_iters=150, eps_band=(0.0, 0.0)))
    for cfg in jobs:
        res = search_counterexample(cfg)
        assert res.accepted == 0
        assert res.rejected == {
            "construct": 0,
            "locality": cfg.max_iters,
            "no_conspiracy": 0,
            "screening": 0,
            "objective": 0,
        }

import dataclasses
import itertools
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
from test_validator_fixture import CARDS as FIXTURE_CARDS
from test_validator_fixture import validator_models
from weakch.common_cause import (
    _WINGS,
    PRECONDITION_TOL,
    EprbModel,
    PreconditionViolated,
    joint_cause_bounds_check,
    locality_residuals,
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
from weakch.singlet import ch_terms, ch_value
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
    # every grid from 8 to 24 points a side, and the largest ones
    for grid in [*range(8, 25), 64, 127, 128]:
        theta, value = optimize_angles(mode=mode, grid_size=grid)
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
    ev = _evaluate(model.weights, model.weights.shape, model.cause_cards, cfg)
    assert ev.penalty < 1e-10
    assert ev.weak.value < -1.0 and not ev.weak.violated
    assert cfg.eps_band[0] <= ev.weak.epsilon <= cfg.eps_band[1]
    with pytest.raises(PreconditionViolated, match="locality"):
        joint_cause_bounds_check(ev.model)
    assert _feasible(ev, cfg) is False


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
    assert len(res.trace) == cfg.max_iters


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("cards", CARDS)
@pytest.mark.parametrize("step", [0.05, 1e-16])
def test_lazy_search_matches_full_evaluation(monkeypatch, cards, band, step):
    # The tiny step keeps proposals within rounding of the start, so some
    # pass locality and reach the later stages or the objective.
    monkeypatch.setattr(search_mod, "_STEP_INIT", step)
    cfg = SearchConfig(seed=2, restarts=2, max_iters=30, cause_cards=cards, eps_band=band)
    _assert_same_search(search_counterexample(cfg), reference_search(cfg), cfg)


def test_lazy_search_matches_full_evaluation_across_accepted_steps(monkeypatch):
    monkeypatch.setattr(search_mod, "_STEP_INIT", 1e-16)
    cfg = SearchConfig(seed=2, restarts=1, max_iters=60, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0))
    res = search_counterexample(cfg)
    assert res.accepted > 0
    _assert_same_search(res, reference_search(cfg), cfg)


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


def test_benchmark_style_searches_reject_every_proposal_at_locality(monkeypatch):
    shapes = itertools.product([(2, 2, 2, 2), (4, 4, 4, 4)], BANDS[:2])
    jobs = [
        SearchConfig(seed=100 + k, restarts=2, max_iters=150, cause_cards=cards, eps_band=band)
        for k, (cards, band) in enumerate(shapes)
    ]
    jobs.append(SearchConfig(seed=7, restarts=1, max_iters=150, eps_band=(0.0, 0.0)))
    evaluated = []
    monkeypatch.setattr(search_mod, "_evaluate", lambda *args: evaluated.append(args) or _evaluate(*args))
    for cfg in jobs:
        evaluated.clear()
        res = search_counterexample(cfg)
        assert res.accepted == 0
        assert len(res.trace) == cfg.max_iters
        # the screen turns every proposal away: only each restart's start is evaluated
        assert len(evaluated) == cfg.restarts


BLOCK_EDGES = [
    ((2, 2, 2, 2), 1), ((2, 2, 2, 2), 70),  # blocks of 64 proposals
    ((3, 2, 4, 2), 1), ((3, 2, 4, 2), 23),  # blocks of 21
    ((4, 4, 4, 4), 1), ((4, 4, 4, 4), 10),  # blocks of 4
]


@pytest.mark.parametrize("cards,iters", BLOCK_EDGES)
def test_lazy_search_matches_full_evaluation_at_block_edges(cards, iters):
    cfg = SearchConfig(seed=3, restarts=2, max_iters=iters, cause_cards=cards)
    _assert_same_search(search_counterexample(cfg), reference_search(cfg), cfg)


@pytest.mark.parametrize("cards,band,seed,iters", [
    ((4, 4, 4, 4), (0.0, 0.0), 7, 12),  # accepts proposals 0 and 1 of the first block of 4
    ((2, 2, 2, 2), (1e-6, 1e-3), 11, 70),  # accepts proposal 16 of the first block of 64
])
def test_lazy_search_matches_full_evaluation_across_mid_block_acceptances(monkeypatch, cards, band, seed, iters):
    monkeypatch.setattr(search_mod, "_STEP_INIT", 1e-15)
    cfg = SearchConfig(seed=seed, restarts=1, max_iters=iters, cause_cards=cards, eps_band=band)
    res = search_counterexample(cfg)
    block = search_mod._BLOCK_WEIGHTS // (16 * math.prod(cards))
    moves = [t for t in range(1, iters) if res.trace[t] != res.trace[t - 1]]
    assert res.accepted > 0
    assert any(0 < t % block < block - 1 for t in moves)
    _assert_same_search(res, reference_search(cfg), cfg)


def _loop_project_simplex(v):
    # the one-vector projection the batched one replaced
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def _loop_repin_settings(w, shape, sp):
    # the one-vector re-pinning the batched one replaced
    out = w.reshape(shape).copy()
    for a in (0, 1):
        for b in (0, 1):
            s = out[a, b].sum()
            if s <= 0.0:
                out[a, b] = sp[a, b] / out[a, b].size
            else:
                out[a, b] *= sp[a, b] / s
    return out.ravel()


@pytest.mark.parametrize("cards", CARDS)
def test_batched_projection_and_repinning_match_row_by_row(cards):
    shape = (2, 2, 2, 2, *cards)
    n = math.prod(shape)
    sp = np.array([[0.4, 0.1], [0.2, 0.3]])
    rng = np.random.default_rng(5)
    v = rng.dirichlet(np.ones(n), size=6) + rng.standard_normal((6, n)) * [[0.0], [1e-16], [1e-3], [0.05], [1.0], [3.0]]
    projected = search_mod._project_simplex(v)
    w = rng.uniform(0.0, 1.0, (6, n))
    w[2].reshape(shape)[1, 0] = 0.0  # a setting block with no mass
    repinned = search_mod._repin_settings(w, sp)
    for row in range(6):
        assert projected[row].tobytes() == search_mod._project_simplex(v[row]).tobytes()
        assert projected[row].tobytes() == _loop_project_simplex(v[row]).tobytes()
        assert repinned[row].tobytes() == search_mod._repin_settings(w[row], sp).tobytes()
        assert repinned[row].tobytes() == _loop_repin_settings(w[row], shape, sp).tobytes()
    assert np.all(repinned[2].reshape(shape)[1, 0] == 0.2 / (n // 4))


@pytest.mark.parametrize("cards", FIXTURE_CARDS)
def test_locality_residuals_of_a_block_are_the_validators(cards):
    # The screen reads a block of proposals as one batch, validate_loc each
    # model as a batch of one: each model's residuals are the same bits
    # either way, and its NaNs are the entries the validator skips. The
    # validator fixture's models include zero-mass cells and far settings,
    # so both kinds of skip occur.
    models = [EprbModel(w, c) for _, w, c in validator_models() if c == cards]
    block = np.stack([m.weights for m in models])
    rows = [locality_residuals(block, (row,)) for row in _WINGS]  # as the screen reads them
    kinds = set()
    for b, m in enumerate(models):
        flat = np.concatenate([res[b] for res in rows], axis=-1).transpose(2, 0, 1).ravel()  # validate_loc's order
        rep = validate_loc(m)
        assert [r.hex() for r in flat[~np.isnan(flat)].tolist()] == [r.hex() for r in rep.residuals]
        kinds.update(len(key) for key in rep._skipped)
    assert kinds == {2, 3}


def _walk_proposals(base, scales, seed):
    # rows as the walk makes them: noise added, projected, re-pinned
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((len(scales), base.size)) * np.array(scales)[:, None] / base.size
    return search_mod._repin_settings(search_mod._project_simplex(base + noise), np.full((2, 2), 0.25))


@pytest.mark.parametrize("cards", [(2, 2, 2, 2), (3, 2, 4, 2), (4, 4, 8, 8)])
def test_locality_screen_marks_only_proposals_rejected_at_locality(cards):
    shape = (2, 2, 2, 2, *cards)
    cfg = SearchConfig(cause_cards=cards)
    base = random_eprb_model(9, cards, 1e-3).weights.ravel()
    props = _walk_proposals(base, [0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1, 1.0], 9)
    models = [EprbModel(p.reshape(shape), cards) for p in props]
    # the screen normalises as the constructor does
    normalised = props / props.sum(axis=1)[:, None]
    assert all(normalised[b].tobytes() == m.weights.tobytes() for b, m in enumerate(models))
    largest = [max(np.square(validate_loc(m).residuals)) for m in models]
    marked_any = False
    for cutoff in [0.0, 1e-40, 1e-30, 1e-20, 1e-12, *largest, *(np.nextafter(x, -1.0) for x in largest)]:
        marked = search_mod._locality_rejects(props, shape, cutoff)
        assert list(marked) == [x > cutoff for x in largest]
        for p in props[marked]:
            assert _evaluate(p, shape, cards, cfg).penalty > cutoff
        marked_any |= marked.any()
    assert marked_any


@pytest.mark.parametrize("cards", [(2, 2, 2, 2), (3, 2, 4, 2)])
def test_move_refuses_rows_that_are_no_model(cards):
    # rows the walk never proposes: EprbModel refuses them, so the walk stays
    shape = (2, 2, 2, 2, *cards)
    cfg = SearchConfig(cause_cards=cards)
    base = random_eprb_model(9, cards, 1e-3).weights.ravel()
    start = _evaluate(base, shape, cards, cfg)
    anything = dataclasses.replace(start, penalty=math.inf, objective=-math.inf)  # any model beats it
    bad = np.stack([np.zeros(base.size), base, base, base])
    bad[1, 5] = -1e-300  # a negative weight
    bad[2, 7] = math.nan
    bad[3].reshape(shape)[0, 1] = 0.0  # a setting pair with no mass
    for row in bad:
        assert search_mod._move(row.copy(), anything, shape, cards, cfg) is None
    assert search_mod._move(base, anything, shape, cards, cfg) is not None


@pytest.mark.parametrize("cards", [(2, 2, 2, 2), (3, 2, 4, 2), (4, 3, 2, 4)])
@pytest.mark.parametrize("step", [0.05, 0.5, 1.0])
def test_walk_proposals_are_valid_models(monkeypatch, cards, step):
    # what lets the screen drop EprbModel's checks: every proposal is
    # finite and nonnegative with each setting block at 1/4, and is a model
    shape = (2, 2, 2, 2, *cards)
    screen = search_mod._locality_rejects
    blocks = []
    monkeypatch.setattr(search_mod, "_locality_rejects", lambda props, *rest: blocks.append(props.copy()) or screen(props, *rest))
    monkeypatch.setattr(search_mod, "_STEP_INIT", step)
    for seed in (0, 1, 2):
        search_counterexample(SearchConfig(seed=seed, restarts=1, max_iters=30, cause_cards=cards))
    props = np.concatenate(blocks)
    assert len(props) >= 90
    assert np.isfinite(props).all() and (props >= 0.0).all()
    assert np.abs(props.reshape(len(props), 4, -1).sum(axis=2) - 0.25).max() <= 1e-15
    for p in props:
        EprbModel(p.reshape(shape), cards)


@pytest.mark.parametrize("recheck, claimed", [
    ({}, True),  # the re-evaluation confirms the claim
    ({"feasible": False}, False),  # the re-evaluation is not feasible
    ({"flip": True}, False),  # the re-evaluation is feasible with another violated side
])
def test_feasibility_claims_are_rechecked(monkeypatch, recheck, claimed):
    # The benchmark-style walk evaluates only its start and the re-check;
    # _feasible is forced to claim the walk's state feasible.
    evaluated = []

    def evaluate(*args):
        ev = _evaluate(*args)
        if evaluated and recheck.get("flip"):
            ev = dataclasses.replace(ev, weak=dataclasses.replace(ev.weak, violated_lower=not ev.weak.violated_lower))
        evaluated.append(ev)
        return ev

    verdicts = iter([True, recheck.get("feasible", True)])
    monkeypatch.setattr(search_mod, "_evaluate", evaluate)
    monkeypatch.setattr(search_mod, "_feasible", lambda ev, cfg: next(verdicts))
    res = search_counterexample(SearchConfig(seed=13, restarts=1, max_iters=50))
    assert res.feasible is claimed
    start, check = evaluated
    assert check.model is not start.model
    assert check.model.weights.tobytes() == res.model.weights.tobytes()
    assert res.model is start.model  # no step was accepted


@pytest.mark.parametrize("block_weights", [1, 3 * 768 + 5, 2**20])
def test_search_does_not_depend_on_the_block_length(monkeypatch, block_weights):
    # blocks of 1, 3 and all 60 proposals at 768 weights, across 2 acceptances
    monkeypatch.setattr(search_mod, "_STEP_INIT", 1e-16)
    cfg = SearchConfig(seed=2, restarts=1, max_iters=60, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0))
    res = search_counterexample(cfg)
    monkeypatch.setattr(search_mod, "_BLOCK_WEIGHTS", block_weights)
    other = search_counterexample(cfg)
    assert res.accepted == 2
    assert other.trace == res.trace
    assert other.model.weights.tobytes() == res.model.weights.tobytes()
    assert (other.objective, other.penalty, other.accepted) == (res.objective, res.penalty, res.accepted)


# accepts steps under a step of 1e-16
ACCEPTING = SearchConfig(seed=2, restarts=1, max_iters=60, cause_cards=(3, 2, 4, 2), eps_band=(0.0, 0.0))
WIDE = SearchConfig(seed=5, restarts=2, max_iters=30, cause_cards=(4, 4, 4, 4))


def test_concurrent_callers_get_their_sequential_results(monkeypatch):
    # Each call has its own restart streams and its own draw helper, so
    # three calls running at once, with the interpreter switching threads
    # often, return what each returns alone.
    monkeypatch.setattr(search_mod, "_STEP_INIT", 1e-16)
    configs = (WIDE, ACCEPTING, SearchConfig(seed=3, restarts=2, max_iters=70))
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
    assert alone[1].accepted > 0
    for res, ref in zip(together, alone):
        assert res.trace == ref.trace
        assert (res.objective, res.accepted) == (ref.objective, ref.accepted)
        assert res.model.weights.tobytes() == ref.model.weights.tobytes()


def test_a_search_leaves_no_thread_behind(monkeypatch):
    before = threading.active_count()
    search_counterexample(WIDE)
    assert threading.active_count() == before
    calls = itertools.count(1)
    screen = search_mod._locality_rejects

    def failing(*args):
        # the third block's screen, with the fourth block's draw under way
        if next(calls) == 3:
            raise RuntimeError("screen failed")
        return screen(*args)

    monkeypatch.setattr(search_mod, "_locality_rejects", failing)
    with pytest.raises(RuntimeError, match="screen failed"):
        search_counterexample(WIDE)
    assert threading.active_count() == before


def test_importing_the_search_loads_no_thread_pool():
    code = "import sys, weakch.search\nprint('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_weakch_functions_run_on_the_calling_thread(monkeypatch):
    # Only numpy's draws run on the helper: a tracer that assumes one
    # thread sees every weakch call on the caller's.
    threads = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_evaluate", "_locality_rejects", "_project_simplex"):
        monkeypatch.setattr(search_mod, name, recording(name, getattr(search_mod, name)))
    monkeypatch.setattr(EprbModel, "weak_report", recording("weak_report", EprbModel.weak_report))
    search_counterexample(WIDE)
    caller = {threading.get_ident()}
    assert threads == dict.fromkeys(("_evaluate", "_project_simplex", "_locality_rejects", "weak_report"), caller)

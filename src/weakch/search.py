"""Numerical optimization: extremal angles and constrained model search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import singlet
from .common_cause import (
    _WINGS,
    EprbModel,
    PreconditionViolated,
    cause_cardinalities,
    check_assumptions,
    locality_residuals,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from .inequalities import WeakChError, WeakChReport, ch_expression, integer, real_number

TAU = 2.0 * math.pi
MAX_GRID_SIZE = 128  # optimize_angles holds ~64 bytes per point of its grid_size**3 grid
MAX_SEARCH_WEIGHTS = 2**16  # cap on a search's weight count, 16 * prod(cause_cards)
# weights per block of search proposals drawn and screened at once; the next
# block is drawn on a helper thread while this one is screened
_BLOCK_WEIGHTS = 2**14
# the walk's step schedule (step k is _STEP_INIT * _STEP_DECAY**k, applied to
# noise scaled by 1 / w.size) and the weight of the penalty in its objective
_STEP_INIT = 0.05
_STEP_DECAY = 0.99
_PENALTY_WEIGHT = 1e4


# The exact extremal offset triples (theta2, theta3, theta4), theta1 = 0, of
# each mode. With theta1 = 0 the singlet's CH value is (2 - S) / 4 - 1 for
# S = cos t3 + cos t4 + cos(t2 - t4) - cos(t2 - t3), and S = 2*sqrt(2), its
# maximum (Tsirelson), forces (t3, t4, t2 - t4) to (-pi/4, pi/4, pi/4) or all
# three negated. Turning t3 and t4 by pi negates S, which gives the maximum.
_Q = 0.25 * math.pi
_EXTREMA = {
    "min": ((2 * _Q, -_Q, _Q), (-2 * _Q, _Q, -_Q)),
    "max": ((2 * _Q, math.pi - _Q, math.pi + _Q), (-2 * _Q, math.pi + _Q, math.pi - _Q)),
}


def _ch_offsets(x, y, z):
    # CH combination with theta1 pinned at 0 and offsets (x, y, z) for
    # theta2..theta4; works on scalars and arrays alike.
    def pp(t):
        return 0.5 * np.sin(0.5 * t) ** 2

    return ch_expression({
        "p13": pp(y), "p14": pp(z), "p24": pp(x - z), "p23": pp(x - y),
        "p1_plus": 0.5, "p4_plus": 0.5,
    })


def optimize_angles(mode: str = "min", grid_size: int = 16) -> tuple[tuple[float, float, float, float], float]:
    """Extremize the singlet CH combination over measurement directions.

    A grid over the three angle offsets relative to the first direction
    gives its first best point, and of the mode's two exact extremal offset
    triples the one nearer to it (summed circular distance) is returned: the
    four absolute directions (first pinned at 0), reduced to [0, 2*pi), and
    their CH value, the Tsirelson bound to within rounding.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    grid_size = integer("grid_size", grid_size)
    if not 8 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be between 8 and {MAX_GRID_SIZE}, got {grid_size}")
    sign = 1.0 if mode == "min" else -1.0

    pts = TAU * np.arange(grid_size) / grid_size
    vals = sign * _ch_offsets(*np.meshgrid(pts, pts, pts, indexing="ij"))
    best = pts[list(np.unravel_index(np.argmin(vals), vals.shape))]
    # the triple at the least summed circular distance from the grid point
    offsets = min(_EXTREMA[mode], key=lambda t: sum(abs(math.remainder(a - b, TAU)) for a, b in zip(t, best)))
    theta = (0.0, *offsets)
    return tuple(singlet.canonical_angle(t) for t in theta), singlet.ch_value(theta)


def constraint_penalty(model: EprbModel) -> float:
    """Sum of squared residuals over all assumption validators.

    Zero exactly when locality, setting independence, and partner-direction
    screening all hold exactly; invariant under relabeling cause values.
    """
    total = 0.0
    for validate in (validate_loc, validate_no_conspiracy, validate_screening):
        rep = validate(model)
        total += float(np.sum(np.square(rep.residuals))) if rep.residuals else 0.0
    return total


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection of each row (the last axis) onto the probability simplex.
    out = np.sort(v, axis=-1)
    u = out[..., ::-1]  # descending
    css = np.cumsum(u, axis=-1)
    css -= 1.0
    u *= np.arange(1.0, v.shape[-1] + 1)
    rho = v.shape[-1] - 1 - np.argmax((u > css)[..., ::-1], axis=-1, keepdims=True)  # last index above
    theta = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
    np.subtract(v, theta, out=out)
    return np.maximum(out, 0.0, out=out)


def _repin_settings(w: np.ndarray, sp: np.ndarray) -> np.ndarray:
    # Rescale each setting block of each row to the target setting
    # probabilities; keeps the setting-independence part of the penalty
    # pinned by construction. A block of no mass is spread evenly.
    blocks = w.reshape(*w.shape[:-1], 4, -1)  # (setting pair, rest) per row
    s = blocks.sum(axis=-1, keepdims=True)
    target = sp.reshape(4, 1)
    empty = s <= 0.0
    out = blocks * (target / np.where(empty, 1.0, s))
    np.copyto(out, target / blocks.shape[-1], where=empty)
    return out.reshape(w.shape)


def _locality_rejects(props: np.ndarray, shape: tuple, cutoff: float) -> np.ndarray:
    # Which proposals (rows) would fail `penalty <= cutoff` in full. A walk
    # proposal is nonnegative and finite with each setting block at its
    # pinned mass, so EprbModel accepts it and divides it by the same sum.
    # A proposal is marked at its first locality residual with r * r >
    # cutoff: the penalty adds nonnegative terms to that square, so under
    # rounding it is at least as large. A NaN residual (no conditioning
    # mass) never exceeds it; every proposal not marked is left to _evaluate.
    w = (props / props.sum(axis=1)[:, None]).reshape(len(props), *shape)
    marked = np.zeros(len(w), dtype=bool)
    for row in _WINGS:
        res = locality_residuals(w, (row,))
        marked |= (res * res > cutoff).reshape(len(w), -1).any(axis=1)
        if marked.all():
            break
    return marked


@dataclass(frozen=True)
class SearchConfig:
    """A counterexample search's seed, sizes and deficit band; deterministic per seed.

    The walk's step schedule and penalty weight are the module constants
    _STEP_INIT, _STEP_DECAY and _PENALTY_WEIGHT.
    """

    seed: int = 0
    restarts: int = 4
    max_iters: int = 200
    cause_cards: tuple[int, int, int, int] = (2, 2, 2, 2)
    eps_band: tuple[float, float] = (1e-6, 1e-3)

    def __post_init__(self):
        for name, lower in (("seed", 0), ("restarts", 1), ("max_iters", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lower))
        object.__setattr__(self, "cause_cards", cause_cardinalities(self.cause_cards, 2))
        if 16 * math.prod(self.cause_cards) > MAX_SEARCH_WEIGHTS:
            raise WeakChError(f"cause_cards give more than {MAX_SEARCH_WEIGHTS} weights")
        try:
            band = tuple(real_number("eps_band", v) for v in self.eps_band)
        except TypeError:  # not iterable
            raise WeakChError("eps_band must be made of real numbers") from None
        object.__setattr__(self, "eps_band", band)
        if len(band) != 2 or not 0.0 <= band[0] <= band[1] <= 1.0:
            raise WeakChError("eps_band must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best state of the search, with its certificate data.

    feasible is claimed only when each assumption validator's residuals are
    within PRECONDITION_TOL, the tolerance check-model applies, and a
    re-evaluation confirms that and the inequality statuses; an infeasible
    outcome is a valid result, never a nonexistence claim.

    accepted counts the proposals of this restart that moved the walk.
    A proposal moves it when its full evaluation improves the objective
    without raising the constraint penalty; one whose model or report
    cannot be built never does.

    Proposals are drawn, projected and screened for locality in blocks
    of up to 2**14 weights. The next block's noise is drawn on a helper
    thread while this one is screened, in the stream's order. The screen
    turns away a proposal whose locality residuals alone already exceed
    the current penalty; every other proposal is evaluated in full. The
    walk, its trace and accepted are those of proposing and judging one
    step at a time, bit for bit.
    """

    model: EprbModel
    restart_index: int
    objective: float
    penalty: float
    epsilon: float
    ch_value: float
    weak_report: WeakChReport
    trace: tuple[tuple[float, float], ...]
    feasible: bool
    accepted: int


@dataclass(frozen=True)
class _Eval:
    model: EprbModel
    penalty: float
    weak: WeakChReport
    strict_excess: float
    objective: float


def _evaluate(w: np.ndarray, shape: tuple, cards: tuple, cfg: SearchConfig) -> _Eval:
    model = EprbModel(w.reshape(shape), cards)
    pen = constraint_penalty(model)
    weak = model.weak_report()
    v = weak.value
    eps = weak.epsilon
    strict_excess = max(-1.0 - v, v)
    weak_excess = max(weak.lower - v, v - weak.upper, 0.0)
    lo, hi = cfg.eps_band
    band_dist = max(lo - eps, eps - hi, 0.0)
    objective = strict_excess - _PENALTY_WEIGHT * (
        pen + band_dist * band_dist + weak_excess * weak_excess
    )
    return _Eval(model, pen, weak, strict_excess, objective)


def _move(prop: np.ndarray, cur: _Eval, shape: tuple, cards: tuple, cfg: SearchConfig) -> _Eval | None:
    # The evaluation a proposal moves the walk to, if any. Accept only steps
    # that improve the objective without letting the constraint penalty
    # grow; this keeps the penalty trace monotone.
    try:
        nxt = _evaluate(prop, shape, cards, cfg)
    except WeakChError:
        return None
    return nxt if nxt.objective > cur.objective and nxt.penalty <= cur.penalty else None


def _feasible(ev: _Eval, cfg: SearchConfig) -> bool:
    # The validators must pass the gate that check-model applies through
    # joint_cause_bounds_check; it is run only after the cheaper tests pass.
    lo, hi = cfg.eps_band
    if not (
        lo - 1e-12 <= ev.weak.epsilon <= hi + 1e-12
        and ev.strict_excess > 1e-12
        and not ev.weak.violated
    ):
        return False
    try:
        check_assumptions(ev.model)
    except PreconditionViolated:
        return False
    return True


def _step_blocks(cfg: SearchConfig, block: int):
    # The step of each proposal, one list per block, computed as the walk
    # reaches it: the whole schedule would hold max_iters floats.
    step = _STEP_INIT
    for first in range(0, cfg.max_iters, block):
        steps = []
        for _ in range(min(block, cfg.max_iters - first)):
            steps.append(step)
            step *= _STEP_DECAY
        yield steps


def _run_restart(cfg: SearchConfig, restart: int, helper) -> SearchResult:
    rng = np.random.default_rng([cfg.seed, restart])
    cards = cfg.cause_cards
    shape = (2, 2, 2, 2, *cards)
    sp = np.full((2, 2), 0.25)
    lo, hi = cfg.eps_band
    start = random_eprb_model(rng, cards, min(0.5 * (lo + hi), 0.1), setting_probs=sp)
    w = start.weights.ravel()
    size = w.size

    def draw(steps):
        # A proposal's noise does not depend on which earlier proposals were
        # accepted, so a block of them draws it at once: the same stream as
        # one draw of w.size per proposal. Only the helper calls this, one
        # block after another, so the stream keeps its order.
        delta = rng.standard_normal((len(steps), size))
        delta *= np.array(steps)[:, None]
        delta *= 1.0 / size
        return delta

    blocks = _step_blocks(cfg, max(1, _BLOCK_WEIGHTS // size))
    pending = helper.submit(draw, next(blocks))
    cur = _evaluate(w, shape, cards, cfg)

    trace = []
    accepted = 0
    while pending is not None:
        delta = pending.result()
        # the next block's noise is drawn while this block is screened
        steps = next(blocks, None)
        pending = None if steps is None else helper.submit(draw, steps)
        while len(delta):
            # After an acceptance the rest of the block is proposed again
            # from the new state, with the noise already drawn.
            props = _repin_settings(_project_simplex(w + delta), sp)
            marked = _locality_rejects(props, shape, cur.penalty)
            for t, prop in enumerate(props):
                nxt = None if marked[t] else _move(prop, cur, shape, cards, cfg)
                if nxt is not None:
                    w, cur = prop, nxt
                    accepted += 1
                trace.append((cur.penalty, cur.objective))
                if cur is nxt:
                    break
            delta = delta[t + 1:]

    feasible = _feasible(cur, cfg)
    if feasible:
        # Independent re-validation before any feasibility claim.
        check = _evaluate(cur.model.weights.ravel(), shape, cards, cfg)
        feasible = (
            _feasible(check, cfg)
            and check.weak.violated_lower == cur.weak.violated_lower
            and check.weak.violated_upper == cur.weak.violated_upper
        )
    return SearchResult(
        model=cur.model,
        restart_index=restart,
        objective=cur.objective,
        penalty=cur.penalty,
        epsilon=cur.weak.epsilon,
        ch_value=cur.weak.value,
        weak_report=cur.weak,
        trace=tuple(trace),
        feasible=feasible,
        accepted=accepted,
    )


def search_counterexample(cfg: SearchConfig) -> SearchResult:
    """Search for a model that breaks the strict interval but not the weak one.

    Projected local search on the atom-weight simplex with setting
    marginals re-pinned each step. Restarts use independent streams keyed
    by (seed, restart index), so concurrent execution cannot change the
    result; merging picks the best objective with the lowest restart index
    as the tiebreak. With a deficit band containing only zero the two
    intervals coincide, so no feasible point exists there.

    The restarts run in turn on the calling thread and share one helper
    thread, which draws each block's noise from the restart's stream while
    the caller screens the block before it. Only numpy runs on the helper,
    and it has exited when this returns or raises.
    """
    # imported here, so that importing this module does not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:
        # max keeps only the best result so far, not every restart's
        return max(
            (_run_restart(cfg, r, helper) for r in range(cfg.restarts)),
            key=lambda res: (res.objective, -res.restart_index),
        )

"""Numerical optimization: extremal angles and constrained model search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import singlet
from .common_cause import (
    _WINGS,
    EprbModel,
    _marginal,
    cause_cardinalities,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from .inequalities import WeakChError, WeakChReport, ch_expression, integer

TAU = 2.0 * math.pi
_GRID_STARTS = 6  # best grid points refined by optimize_angles, besides two random ones
MAX_GRID_SIZE = 128  # optimize_angles holds ~64 bytes per point of its grid_size**3 grid
MAX_SEARCH_WEIGHTS = 2**16  # cap on a search's weight count, 16 * prod(cause_cards)
_BLOCK_WEIGHTS = 2**14  # weights per block of search proposals drawn and screened at once


def _ch_offsets(x, y, z):
    # CH combination with theta1 pinned at 0 and offsets (x, y, z) for
    # theta2..theta4; works on scalars and arrays alike.
    def pp(t):
        return 0.5 * np.sin(0.5 * t) ** 2

    return ch_expression({
        "p13": pp(y), "p14": pp(z), "p24": pp(x - z), "p23": pp(x - y),
        "p1_plus": 0.5, "p4_plus": 0.5,
    })


def _refine(point: np.ndarray, sign: float, sweeps: int) -> tuple[np.ndarray, float]:
    # Each coordinate slice of the objective is a single harmonic
    # c0 + A cos t + B sin t, so the conditional optimum has a closed form.
    cur = np.array(point, dtype=float)

    def value(p):
        return sign * float(_ch_offsets(p[0], p[1], p[2]))

    f_cur = value(cur)
    for _ in range(sweeps):
        f_before = f_cur
        for k in range(3):
            base = cur.copy()

            def slice_val(t):
                base[k] = t
                return value(base)

            f0 = slice_val(0.0)
            fq = slice_val(0.5 * math.pi)
            fp = slice_val(math.pi)
            amp_c = 0.5 * (f0 - fp)
            amp_s = fq - 0.5 * (f0 + fp)
            if amp_c == 0.0 and amp_s == 0.0:
                continue
            t_star = math.atan2(amp_s, amp_c) + math.pi  # argmin of the harmonic
            f_star = slice_val(t_star)
            if f_star < f_cur:
                cur[k] = t_star % TAU
                f_cur = f_star
        if f_before - f_cur < 1e-16:
            break
    return cur, sign * f_cur


def optimize_angles(
    mode: str = "min",
    seed: int = 0,
    grid_size: int = 16,
    refine_sweeps: int = 60,
) -> tuple[tuple[float, float, float, float], float]:
    """Extremize the singlet CH combination over measurement directions.

    A coarse grid over the three angle offsets relative to the first
    direction seeds coordinate-descent refinement from the best grid points
    plus a few random ones; the best refined point wins. Returns the four
    absolute directions (first pinned at 0) and the extremal value.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    grid_size = integer("grid_size", grid_size)
    refine_sweeps = integer("refine_sweeps", refine_sweeps)
    seed = integer("seed", seed)
    if not 8 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be between 8 and {MAX_GRID_SIZE}, got {grid_size}")
    if refine_sweeps < 0:
        raise ValueError(f"refine_sweeps must be nonnegative, got {refine_sweeps}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    sign = 1.0 if mode == "min" else -1.0

    pts = TAU * np.arange(grid_size) / grid_size
    gx, gy, gz = np.meshgrid(pts, pts, pts, indexing="ij")
    vals = sign * _ch_offsets(gx, gy, gz)
    flat = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    order = np.argsort(vals.ravel(), kind="stable")

    rng = np.random.default_rng(seed)
    candidates = [flat[i] for i in order[:_GRID_STARTS]]
    candidates.extend(rng.uniform(0.0, TAU, size=(2, 3)))

    best_point, best_val = None, math.inf
    for cand in candidates:
        point, val = _refine(np.asarray(cand, dtype=float), sign, refine_sweeps)
        if sign * val < best_val:
            best_point, best_val = point, sign * val

    theta = (0.0, float(best_point[0]), float(best_point[1]), float(best_point[2]))
    return tuple(singlet.canonical_angle(t) for t in theta), singlet.ch_value(theta)


def _square_sum(rep) -> float:
    return float(np.sum(np.square(rep.residuals))) if rep.residuals else 0.0


def _penalty_terms(model: EprbModel):
    # The validators' squared-residual sums in the order the penalty adds
    # them; each validator runs only when its term is asked for.
    yield _square_sum(validate_loc(model))
    yield _square_sum(validate_no_conspiracy(model))
    yield _square_sum(validate_screening(model))


def constraint_penalty(model: EprbModel) -> float:
    """Sum of squared residuals over all assumption validators.

    Zero exactly when locality, setting independence, and partner-direction
    screening all hold exactly; invariant under relabeling cause values.
    """
    total = 0.0
    for term in _penalty_terms(model):
        total += term
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


def _locality_residuals(w: np.ndarray):
    # validate_loc's arithmetic over a batch of normalised weight tensors
    # (leading axis), one _WINGS row at a time: the same _marginal sums
    # and per-cell operations, so each residual equals the validator's bit
    # for bit. Yields the residuals (batch, far, outcome, cell). An entry
    # the validator skips has no conditioning mass: it is 0/0, NaN, here.
    for row in _WINGS:
        s = _marginal(w[(slice(None), *row.index)], (0, 1, 2 + row.wing, 4 + row.cause))
        pooled = s[:, 0] + s[:, 1]  # (batch, outcome, cell): far settings pooled
        pooled /= pooled[:, :1] + pooled[:, 1:]
        yield s / (s[:, :, :1] + s[:, :, 1:]) - pooled[:, None]


def _locality_rejects(props: np.ndarray, shape: tuple, cutoff: float) -> np.ndarray:
    # Which proposals (rows) _evaluate would turn away at "locality". A
    # proposal is marked when EprbModel accepts it (the same checks on the
    # same sums) and one locality residual has r * r > cutoff: the
    # validator's squared sum of nonnegative terms is at least that square
    # under rounding, so the running penalty exceeds cutoff at locality.
    # A skipped residual is NaN and never exceeds it; every proposal not
    # marked is left to _evaluate.
    with np.errstate(divide="ignore", invalid="ignore"):
        total = props.sum(axis=1)
        valid = (props.min(axis=1) >= 0.0) & (0.0 < total) & (total < math.inf)
        w = props / total[:, None]
        valid &= (w.reshape(len(w), 4, -1).max(axis=2) > 0.0).all(axis=1)
        marked = ~valid  # done with, whether rejected or left to _evaluate
        for res in _locality_residuals(w.reshape(len(w), *shape)):
            marked |= (res * res > cutoff).reshape(len(w), -1).any(axis=1)
            if marked.all():
                break
    return marked & valid


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the counterexample search; deterministic per seed."""

    seed: int = 0
    restarts: int = 4
    max_iters: int = 200
    cause_cards: tuple[int, int, int, int] = (2, 2, 2, 2)
    step_init: float = 0.05
    step_decay: float = 0.99
    penalty_weight: float = 1e4
    eps_band: tuple[float, float] = (1e-6, 1e-3)
    feas_tol: float = 1e-9

    def __post_init__(self):
        for name, lower in (("seed", 0), ("restarts", 1), ("max_iters", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lower))
        object.__setattr__(self, "cause_cards", cause_cardinalities(self.cause_cards, 2))
        if 16 * math.prod(self.cause_cards) > MAX_SEARCH_WEIGHTS:
            raise WeakChError(f"cause_cards give more than {MAX_SEARCH_WEIGHTS} weights")
        # a step of 1 already moves each weight (noise step_init / n) by about its own size (1 / n)
        if not (0.0 < self.step_init <= 1.0 and 0.0 < self.step_decay <= 1.0):
            raise WeakChError("step schedule must have step_init and step_decay in (0, 1]")
        # NaN fails every comparison, so these reject it too
        if not 0.0 <= self.penalty_weight < math.inf:
            raise WeakChError("penalty_weight must be finite and nonnegative")
        if not 0.0 <= self.feas_tol < math.inf:
            raise WeakChError("feas_tol must be finite and nonnegative")
        lo, hi = self.eps_band
        if not (0.0 <= lo <= hi <= 1.0):
            raise WeakChError("eps_band must satisfy 0 <= lo <= hi <= 1")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best state of the search, with its certificate data.

    feasible is claimed only after the assumption validators re-confirm the
    penalty and the inequality statuses recompute identically; an
    infeasible outcome is a valid result, never a nonexistence claim.

    accepted and rejected count the proposals of this restart; rejected
    maps each stage to the proposals it turned away, so accepted plus all
    rejections equals max_iters. A proposal is rejected at "construct"
    when its model or report cannot be built; at "locality",
    "no_conspiracy" or "screening" when the penalty summed up to that
    validator exceeds the current penalty; and at "objective" when its
    full evaluation does not improve on the current state.

    Proposals are drawn, projected and screened for locality in blocks
    of up to 2**14 weights; the walk, its trace and these counts are
    those of proposing and judging one step at a time, bit for bit.
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
    rejected: dict[str, int]


_VALIDATOR_STAGES = ("locality", "no_conspiracy", "screening")


@dataclass(frozen=True)
class _Eval:
    penalty: float
    epsilon: float
    ch: float
    weak: WeakChReport
    strict_excess: float
    objective: float


def _evaluate(
    w: np.ndarray, shape: tuple, cards: tuple, cfg: SearchConfig, cutoff: float = math.inf
) -> _Eval | str:
    # Full evaluation of a weight vector, or the name of the validator
    # stage at which the penalty summed so far exceeds cutoff. Partial sums
    # of nonnegative terms never decrease under rounding, so such a
    # proposal would also fail `penalty <= cutoff` once fully evaluated;
    # a tie or a NaN term goes on to the full evaluation.
    model = EprbModel(w.reshape(shape), cards)
    pen = 0.0
    for stage, term in zip(_VALIDATOR_STAGES, _penalty_terms(model)):
        pen += term
        if pen > cutoff:
            return stage
    weak = model.weak_report()
    v = weak.value
    eps = weak.epsilon
    strict_excess = max(-1.0 - v, v)
    weak_excess = max(weak.lower - v, v - weak.upper, 0.0)
    lo, hi = cfg.eps_band
    band_dist = max(lo - eps, eps - hi, 0.0)
    objective = strict_excess - cfg.penalty_weight * (
        pen + band_dist * band_dist + weak_excess * weak_excess
    )
    return _Eval(pen, eps, v, weak, strict_excess, objective)


def _next_state(prop: np.ndarray, cur: _Eval, shape: tuple, cards: tuple, cfg: SearchConfig) -> _Eval | str:
    # The evaluation a proposal moves the walk to, or the stage that turned
    # it away. Accept only steps that improve the objective without letting
    # the constraint penalty grow; this keeps the penalty trace monotone.
    try:
        nxt = _evaluate(prop, shape, cards, cfg, cutoff=cur.penalty)
    except WeakChError:
        return "construct"
    if isinstance(nxt, str) or (nxt.objective > cur.objective and nxt.penalty <= cur.penalty):
        return nxt
    return "objective"


def _run_restart(cfg: SearchConfig, restart: int) -> SearchResult:
    rng = np.random.default_rng([cfg.seed, restart])
    cards = cfg.cause_cards
    shape = (2, 2, 2, 2, *cards)
    sp = np.full((2, 2), 0.25)
    lo, hi = cfg.eps_band
    start = random_eprb_model(rng, cards, min(0.5 * (lo + hi), 0.1), setting_probs=sp)
    w = start.weights.ravel().copy()
    cur = _evaluate(w, shape, cards, cfg)

    trace = []
    accepted = 0
    rejected = dict.fromkeys(("construct", *_VALIDATOR_STAGES, "objective"), 0)
    step = cfg.step_init
    scale = 1.0 / w.size
    block = max(1, _BLOCK_WEIGHTS // w.size)
    for first in range(0, cfg.max_iters, block):
        # A proposal's noise does not depend on which earlier proposals were
        # accepted, so a block of them draws it at once: the same stream as
        # one draw of w.size per proposal.
        steps = []
        for _ in range(min(block, cfg.max_iters - first)):
            steps.append(step)
            step *= cfg.step_decay
        delta = rng.standard_normal((len(steps), w.size))
        delta *= np.array(steps)[:, None]
        delta *= scale
        while len(delta):
            # After an acceptance the rest of the block is proposed again
            # from the new state, with the noise already drawn.
            props = _repin_settings(_project_simplex(w + delta), sp)
            marked = _locality_rejects(props, shape, cur.penalty)
            for t, prop in enumerate(props):
                nxt = "locality" if marked[t] else _next_state(prop, cur, shape, cards, cfg)
                if isinstance(nxt, str):
                    rejected[nxt] += 1
                else:
                    w, cur = prop, nxt
                    accepted += 1
                trace.append((cur.penalty, cur.objective))
                if cur is nxt:
                    break
            delta = delta[t + 1:]

    model = EprbModel(w.reshape(shape), cards)
    feasible = (
        cur.penalty <= cfg.feas_tol
        and lo - 1e-12 <= cur.epsilon <= hi + 1e-12
        and cur.strict_excess > 1e-12
        and not cur.weak.violated
    )
    if feasible:
        # Independent re-validation before any feasibility claim.
        check = _evaluate(model.weights.ravel(), shape, cards, cfg)
        feasible = (
            check.penalty <= cfg.feas_tol
            and lo - 1e-12 <= check.epsilon <= hi + 1e-12
            and check.strict_excess > 1e-12
            and not check.weak.violated
            and check.weak.violated_lower == cur.weak.violated_lower
            and check.weak.violated_upper == cur.weak.violated_upper
        )
    return SearchResult(
        model=model,
        restart_index=restart,
        objective=cur.objective,
        penalty=cur.penalty,
        epsilon=cur.epsilon,
        ch_value=cur.ch,
        weak_report=cur.weak,
        trace=tuple(trace),
        feasible=feasible,
        accepted=accepted,
        rejected=rejected,
    )


def search_counterexample(cfg: SearchConfig) -> SearchResult:
    """Search for a model that breaks the strict interval but not the weak one.

    Projected local search on the atom-weight simplex with setting
    marginals re-pinned each step. Restarts use independent streams keyed
    by (seed, restart index), so concurrent execution cannot change the
    result; merging picks the best objective with the lowest restart index
    as the tiebreak. With a deficit band containing only zero the two
    intervals coincide, so no feasible point exists there.
    """
    results = [_run_restart(cfg, r) for r in range(cfg.restarts)]
    return max(results, key=lambda res: (res.objective, -res.restart_index))

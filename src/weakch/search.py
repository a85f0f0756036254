"""Numerical optimization: extremal angles and constrained model search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import singlet
from .common_cause import (
    EprbModel,
    PreconditionViolated,
    cause_cardinalities,
    check_assumptions,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from .inequalities import WeakChError, WeakChReport, ch_expression, integer, real_number

TAU = 2.0 * math.pi
MAX_GRID_SIZE = 128  # optimize_angles holds ~64 bytes per point of its grid_size**3 grid
MAX_SEARCH_WEIGHTS = 2**16  # cap on a search's weight count, 16 * prod(cause_cards)
_PENALTY_WEIGHT = 1e4  # the weight of the constraint penalty in the search's objective


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


@dataclass(frozen=True)
class SearchConfig:
    """A counterexample search's seed, sizes and deficit band; deterministic per seed.

    max_iters is validated and kept for callers that still pass it; the
    search does not read it. The penalty weight is the module constant
    _PENALTY_WEIGHT.
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

    trace is always empty, as the search takes no steps; it stays for
    callers that still read it.
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


@dataclass(frozen=True)
class _Eval:
    model: EprbModel
    penalty: float
    weak: WeakChReport
    strict_excess: float
    objective: float


def _evaluate(w: np.ndarray, cards: tuple, cfg: SearchConfig) -> _Eval:
    model = EprbModel(w, cards)
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


def _run_restart(cfg: SearchConfig, restart: int) -> SearchResult:
    rng = np.random.default_rng([cfg.seed, restart])
    cards = cfg.cause_cards
    lo, hi = cfg.eps_band
    start = random_eprb_model(rng, cards, min(0.5 * (lo + hi), 0.1), setting_probs=np.full((2, 2), 0.25))
    cur = _evaluate(start.weights, cards, cfg)
    feasible = _feasible(cur, cfg)
    if feasible:
        # Independent re-validation before any feasibility claim.
        check = _evaluate(cur.model.weights, cards, cfg)
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
        trace=(),
        feasible=feasible,
    )


def search_counterexample(cfg: SearchConfig) -> SearchResult:
    """Search for a model that breaks the strict interval but not the weak one.

    Each restart generates one model with random_eprb_model, whose
    validator residuals are zero up to rounding, from its own stream keyed
    by (seed, restart index), and evaluates it once; the best objective
    wins, with the lowest restart index as the tiebreak. The search does
    not move away from these models. With a deficit band containing only
    zero the two intervals coincide, so no feasible point exists there.
    """
    # max keeps only the best result so far, not every restart's
    return max(
        (_run_restart(cfg, r) for r in range(cfg.restarts)),
        key=lambda res: (res.objective, -res.restart_index),
    )

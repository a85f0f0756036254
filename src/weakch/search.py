"""Numerical optimization: extremal angles and constrained model search."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

MAX_GRID_SIZE = 128  # optimize_angles holds ~64 bytes per point of its grid_size**3 grid
MAX_SEARCH_WEIGHTS = 2**16  # cap on a search's weight count, 16 * prod(cause_cards)
_PENALTY_WEIGHT = 1e4  # the weight of the band distance and weak excess squares in the search's objective


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

    pts = singlet.TAU * np.arange(grid_size) / grid_size
    vals = sign * _ch_offsets(*np.meshgrid(pts, pts, pts, indexing="ij"))
    best = pts[list(np.unravel_index(np.argmin(vals), vals.shape))]
    # the triple at the least summed circular distance from the grid point
    offsets = min(_EXTREMA[mode], key=lambda t: sum(abs(math.remainder(a - b, singlet.TAU)) for a, b in zip(t, best)))
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
    search does not read it. The objective's weight on the band distance
    and weak excess is the module constant _PENALTY_WEIGHT.
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

    objective is read from the weak report alone; penalty is the winner's
    constraint_penalty, reported but not ranked on. feasible is claimed
    only when each assumption validator's residuals are within
    PRECONDITION_TOL, the tolerance check-model applies; an infeasible
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


def _start_model(cfg: SearchConfig, restart: int) -> EprbModel:
    # the restart's generated model, from its own stream keyed by (seed, restart index)
    rng = np.random.default_rng([cfg.seed, restart])
    lo, hi = cfg.eps_band
    return random_eprb_model(rng, cfg.cause_cards, min(0.5 * (lo + hi), 0.1))


def _objective(weak: WeakChReport, cfg: SearchConfig) -> float:
    # The strict excess less _PENALTY_WEIGHT times the squares of the band
    # distance and of the weak excess, all read from the weak report.
    v = weak.value
    eps = weak.epsilon
    lo, hi = cfg.eps_band
    band_dist = max(lo - eps, eps - hi, 0.0)
    weak_excess = max(weak.lower - v, v - weak.upper, 0.0)
    return max(-1.0 - v, v) - _PENALTY_WEIGHT * (band_dist * band_dist + weak_excess * weak_excess)


def _feasible(res: SearchResult, cfg: SearchConfig) -> bool:
    # The validators must pass the gate that check-model applies through
    # joint_cause_bounds_check; it is run only after the cheaper tests pass.
    lo, hi = cfg.eps_band
    if not (
        lo - 1e-12 <= res.epsilon <= hi + 1e-12
        and max(-1.0 - res.ch_value, res.ch_value) > 1e-12
        and not res.weak_report.violated
    ):
        return False
    try:
        check_assumptions(res.model)
    except PreconditionViolated:
        return False
    return True


def _evaluate(model: EprbModel, restart: int, cfg: SearchConfig, weak: WeakChReport) -> SearchResult:
    # The winning restart's result: its weak report, its objective, the
    # validator penalty it reports and the feasibility gate.
    res = SearchResult(
        model=model, restart_index=restart, objective=_objective(weak, cfg), penalty=constraint_penalty(model),
        epsilon=weak.epsilon, ch_value=weak.value, weak_report=weak, trace=(), feasible=False,
    )
    return replace(res, feasible=_feasible(res, cfg))


def search_counterexample(cfg: SearchConfig) -> SearchResult:
    """Search for a model that breaks the strict interval but not the weak one.

    Each restart generates one model with random_eprb_model, whose
    validator residuals are zero up to rounding, from its own stream keyed
    by (seed, restart index), and reads its weak report. The objective
    comes from that report alone; the best wins, with the lowest restart
    index as the tiebreak. The search does not move away from these
    models. With a deficit band containing only zero the two intervals
    coincide, so no feasible point exists there.

    The validators run once, on the winner: their penalty is reported,
    and they gate feasibility at PRECONDITION_TOL as check-model does.

    With this generator the result is never feasible, by construction and
    not for want of restarts: each outcome reads only its own setting and
    own-direction cause cell, so the cause tuple is a local hidden
    variable, the four outcomes have a joint law and the CH value lies in
    [-1, 0], inside the strict interval.
    """
    best = None  # (objective, restart, model, weak report) of the best restart so far
    for restart in range(cfg.restarts):
        model = _start_model(cfg, restart)
        weak = model.weak_report()
        objective = _objective(weak, cfg)
        if best is None or objective > best[0]:  # strict, so ties keep the lowest restart
            best = objective, restart, model, weak
    _, restart, model, weak = best
    return _evaluate(model, restart, cfg, weak)

"""Verification engines for separate-common-cause models.

Two kinds of model live here.

PairwiseCcModel is a single correlated pair of events together with a
partition that screens the correlation off cell by cell. Near-perfect
correlation with deficit eps forces almost all mass into cells that make
the outcome nearly certain or nearly impossible; the checker verifies the
resulting sandwich

    high_mass - sqrt(eps) <= p(A) < high_mass + 4*sqrt(eps) - 2*eps

where high_mass is the total weight of cells with p(A|C_i) >= 1 - sqrt(eps),
together with the bookkeeping identities behind it.

EprbModel is a full joint distribution over two Alice settings, two Bob
settings, both outcomes, and four per-direction cause variables. Validators
cover locality (a far setting never shifts a near outcome given the near
cause), setting independence of the causes, and screening by the
partner-direction partitions. The joint-cause checker verifies that the
probability of both aggregate causes stays inside the correction-term
interval around p(+,+|ab).

The 16-atom enumeration oracle for the CH expression (ch_atom_oracle) is
re-exported from inequalities, where it needs no numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import singlet
from .inequalities import (  # the oracle names are re-exported
    _NEGATIVE_ATOMS,
    CH_PAIRS,
    LAW_SUM_TOL,
    PRECONDITION_TOL,
    VIOLATION_ATOL,
    BadSettingProbs,
    OracleResult,
    UnnormalizedInput,
    WeakChReport,
    _smaller_root,
    _terms,
    ch_atom_oracle,
    ch_expression,
    ch_table_terms,
    correction_terms,
    evaluate_weak_ch,
    integer,
    left_sum,
    pair_settings,
    real_number,
    real_numbers,
    weak_ch_bounds,
)
from .spaces import (
    CellStats,
    FiniteProbSpace,
    ResidualReport,
    WeakChError,
    ZeroConditioner,
    _cell_stats,
    _cell_sums,
    _json_array,
    _json_object,
    _label_list,
    _normalized,
    _translate,
    space_from_dict,
    space_to_dict,
)


class PreconditionViolated(WeakChError):
    """A checker's statistical precondition fails beyond tolerance."""


class GenerationFailed(WeakChError):
    """The random model generator could not satisfy its target."""


class BadModel(WeakChError):
    """A model's structural invariants are violated."""


def cause_cardinalities(values, floor: int) -> tuple[int, int, int, int]:
    """Four cause cardinalities as Python ints, each at least floor; BadModel otherwise, for 2.0 too."""
    try:
        cards = tuple(integer("a cause cardinality", c, floor) for c in values)
    except (TypeError, WeakChError):  # not iterable, or an entry that is no such integer
        cards = ()
    if len(cards) != 4:
        raise BadModel(f"need four integer cause cardinalities >= {floor}, got {values!r}")
    return cards


def setting_law(table) -> np.ndarray:
    """The 2x2 setting law p(a, b), read-only; None gives the even law.

    A given table must be 2x2, finite and nonnegative and sum to 1 within
    LAW_SUM_TOL, or BadSettingProbs is raised. As FiniteProbSpace's
    weights, it is kept or divided by its exact total by
    spaces._normalized, so a law read again keeps its bits.
    """
    if table is None:
        return singlet._freeze(np.full((2, 2), 0.25))
    sp = np.asarray(table, dtype=float)
    # NaN and -inf fail the first comparison, +inf the sum's
    if sp.shape != (2, 2) or not (sp >= 0.0).all() or not abs(float(sp.sum()) - 1.0) <= LAW_SUM_TOL:
        raise BadSettingProbs(f"setting law must be a finite, nonnegative 2x2 table summing to 1, got {sp.tolist()}")
    total = math.fsum(sp.ravel().tolist())
    return singlet._freeze(_normalized(sp, total))


def _kept(derive):
    # derive(model), computed on first use and kept in the model's __dict__
    # under derive itself, as functools.cached_property keeps a value under
    # its name. A model is immutable, so a kept value never goes stale.
    @functools.wraps(derive)
    def kept(model):
        value = model.__dict__.get(derive)
        if value is None:
            value = model.__dict__[derive] = derive(model)
        return value

    return kept


# ---------------------------------------------------------------------------
# Pairwise models: one correlation, one screening partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairwiseCcModel:
    """A probability space, two events, and a partition meant to screen them.

    Held as arrays in atom order: cell_of[k] is the cell of atom k, and
    in_a[k], in_b[k] say whether it lies in A and in B; n_cells counts the
    cells, empty ones included. Labels come in once, through
    _labelled_model, and go out through pairwise_model_to_dict; the checks
    read only the arrays. Its cell statistics and event masses are computed
    on first use and kept (see _kept).
    """

    space: FiniteProbSpace
    cell_of: np.ndarray
    in_a: np.ndarray
    in_b: np.ndarray
    n_cells: int


def _labelled_model(space: FiniteProbSpace, event_a, event_b, cells) -> PairwiseCcModel:
    # The model of labelled events and partition cells (any iterables of
    # atom labels); an event atom outside the space raises BadModel.
    return PairwiseCcModel(
        space, *_translate(space, event_a, event_b, cells, BadModel("events must be subsets of the atom set"))
    )


@_kept
def cell_stats(model: PairwiseCcModel) -> CellStats:
    """Mass, conditionals and screening residual of each positive-mass cell; kept, read-only."""
    stats = _cell_stats(_cell_sums(model.space.weights, model.cell_of, model.in_a, model.in_b, model.n_cells))
    for a in (stats.mass, stats.cond_a, stats.cond_b):
        a.flags.writeable = False
    return stats


@dataclass(frozen=True)
class CellClasses:
    """Cells split by how decisively they fix the first outcome.

    low:  p(A|C_i) <= border (zero-mass cells land here by convention)
    high: p(A|C_i) >= 1 - border
    mid:  strictly between

    When the two cutoffs overlap (eps >= 1/4) a cell satisfying both tests
    counts as low. The border defaults to sqrt(eps) but is configurable,
    since tighter borders tighten the resulting constraints.
    """

    high: tuple[int, ...]
    mid: tuple[int, ...]
    low: tuple[int, ...]
    epsilon: float
    border: float


@_kept
def _event_masses(model: PairwiseCcModel) -> tuple[float, float, float]:
    # the correctly rounded p(A), p(B) and p(AB)
    w = model.space.weights
    return tuple(math.fsum(w[mask].tolist()) for mask in (model.in_a, model.in_b, model.in_a & model.in_b))


def model_epsilon(model: PairwiseCcModel) -> float:
    """Correlation deficit 1 - p(A|B), clamped at zero against rounding."""
    _, p_b, p_ab = _event_masses(model)
    if p_b <= 0.0:
        raise ZeroConditioner("cannot condition on an event of zero probability")
    return max(0.0, 1.0 - p_ab / p_b)


def _require_screened_even_model(model: PairwiseCcModel) -> CellStats:
    # Returns the cell statistics it checked.
    stats = cell_stats(model)
    if stats.max_abs > PRECONDITION_TOL:
        raise PreconditionViolated(
            f"screening residual {stats.max_abs:.3e} exceeds {PRECONDITION_TOL:.1e}"
        )
    for name, v in zip(("p(A)", "p(B)"), _event_masses(model)[:2]):
        if abs(v - 0.5) > PRECONDITION_TOL:
            raise PreconditionViolated(f"{name} = {v!r} is not 1/2 within {PRECONDITION_TOL:.1e}")
    return stats


def _classify(stats: CellStats, eps: float, border: float) -> tuple[CellClasses, np.ndarray, np.ndarray]:
    # Also returns the high and mid masks over the positive-mass cells.
    q = stats.cond_a
    low = q <= border
    high = ~low & (q >= 1.0 - border)
    mid = ~(low | high)
    index = np.asarray(stats.index, dtype=np.intp)
    classes = CellClasses(
        high=tuple(index[high].tolist()),
        mid=tuple(index[mid].tolist()),
        low=tuple(sorted(stats.skipped + tuple(index[low].tolist()))),
        epsilon=eps,
        border=border,
    )
    return classes, high, mid


def classify_cells(model: PairwiseCcModel, *, border: float | None = None) -> CellClasses:
    """Trichotomy of partition cells by their conditional p(A|C_i).

    Requires an exactly screened model with even marginals, within
    PRECONDITION_TOL. A given border is a real number in [0, 1].
    """
    stats = _require_screened_even_model(model)
    eps = model_epsilon(model)
    return _classify(stats, eps, math.sqrt(eps) if border is None else _border("border", border))[0]


def _border(name: str, value) -> float:
    x = real_number(name, value)
    if not 0.0 <= x <= 1.0:
        raise WeakChError(f"{name} must be in [0, 1], got {x!r}")
    return x


@dataclass(frozen=True)
class CauseMassReport:
    """Result of the near-deterministic-cell mass bounds check.

    diagnostics holds the bookkeeping sums behind the proof of the bounds:

    a_not_b_mass  sum of p(A|C_i)(1 - p(B|C_i)) p(C_i), equal to eps/2
    b_not_a_mass  the mirrored sum, also eps/2
    mid_gap_sum   sum over mid cells of |p(A|C_i) - p(B|C_i)| p(C_i), <= eps
    wide_mid_mass mass of mid cells whose conditional gap reaches the
                  gap border (default sqrt(eps)/2), <= 2*sqrt(eps)

    The upper bound is strict in exact arithmetic but unattainable at
    eps = 0 where equality holds, so it is checked non-strictly at
    PRECONDITION_TOL.
    """

    epsilon: float
    border: float
    high_cells: tuple[int, ...]
    mid_cells: tuple[int, ...]
    low_cells: tuple[int, ...]
    high_mass: float
    p_a: float
    p_b: float
    lower_ok: bool
    upper_ok: bool
    diagnostics: dict

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_cause_mass_bounds(
    model: PairwiseCcModel,
    *,
    border: float | None = None,
    gap_border: float | None = None,
) -> CauseMassReport:
    """Verify the mass bounds and their proof diagnostics for one model.

    Preconditions (each enforced within PRECONDITION_TOL): the partition
    screens the correlation off, and both marginals sit at one half. The
    half-marginal tolerance is an implementation choice; the bounds are
    derived for exactly even marginals. The strict upper bound is checked
    with the same tolerance, the lower bound at VIOLATION_ATOL. A given
    border or gap_border is a real number in [0, 1].

    At the default border the lower bound cannot fail: a high cell has
    p(A|C) >= 1 - sqrt(eps), so p(A) >= (1 - sqrt(eps)) * high_mass >=
    high_mass - d_minus. It can fail only at a border above sqrt(eps).
    """
    stats = _require_screened_even_model(model)
    p_a, p_b, _ = _event_masses(model)
    eps = model_epsilon(model)
    ct = correction_terms(eps)
    classes, high, mid = _classify(stats, eps, ct.d_minus if border is None else _border("border", border))

    high_mass = left_sum(stats.mass[high].tolist())
    lower_ok = high_mass - ct.d_minus <= p_a + VIOLATION_ATOL
    upper_ok = p_a <= high_mass + ct.d_plus + PRECONDITION_TOL

    q, r, m = stats.cond_a, stats.cond_b, stats.mass
    gap_b = 0.5 * ct.d_minus if gap_border is None else _border("gap_border", gap_border)
    gap = np.abs(q - r)
    diagnostics = {
        "a_not_b_mass": float((q * (1.0 - r) * m).sum()),
        "b_not_a_mass": float((r * (1.0 - q) * m).sum()),
        "mid_gap_sum": left_sum((gap[mid] * m[mid]).tolist()),
        "wide_mid_mass": left_sum(m[mid & (gap >= gap_b)].tolist()),
        "gap_border": gap_b,
    }
    return CauseMassReport(
        epsilon=eps,
        border=classes.border,
        high_cells=classes.high,
        mid_cells=classes.mid,
        low_cells=classes.low,
        high_mass=high_mass,
        p_a=p_a,
        p_b=p_b,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        diagnostics=diagnostics,
    )


_OUTCOME_SUFFIX = ("11", "10", "01", "00")  # (in A, in B) indicator pairs
_GEN_S_MAX = 0.49
_GEN_ZERO_TARGET = 1e-12  # a deficit target at most this takes no mid cell mass
_GEN_ROUNDING = 1e-15  # the rounding slack of a reached deficit
_GEN_RELATIVE_SLACK = 1e-9  # random_eprb_model's deficit may exceed its target by this share of it
_GEN_TARGET_MISS = 1e-6  # random_screened_model's deficit may miss its target by this


def _deficit_scale(m1: float, m2: float, mid_mass: float, target: float) -> float:
    """Deviation scale s in [0, _GEN_S_MAX] at which the deficit hits target.

    The generated model's deficit is 0.5*mid_mass + 2*s*m1 - 4*s^2*m2.
    Conditionals drawn from [0.6, 1] put its vertex m1/(4*m2) at s >= 0.5,
    so it rises over [0, _GEN_S_MAX] and, once the target is within reach,
    the smaller root is the only root there.
    """
    if target <= 0.5 * mid_mass + _GEN_ROUNDING:
        return 0.0
    s = _GEN_S_MAX
    if 0.5 * mid_mass + 2.0 * s * m1 - 4.0 * s * s * m2 < target:
        raise GenerationFailed(f"target deficit {target} is out of reach for these draws")
    return _smaller_root(2.0 * m1, 4.0 * m2, target - 0.5 * mid_mass)


@functools.lru_cache(maxsize=64)
def _pairwise_layout(n_cells: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    # The atom labels, cell_of, in_a and in_b of a generated model, which
    # depend only on its cell count; the arrays are read-only, so every
    # model of that count shares them. Cell 2k is pair k and cell 2k+1 its
    # mirror; an odd count ends with the mid cell. Each cell's four atoms
    # follow _OUTCOME_SUFFIX.
    atoms = tuple(f"c{i}:{suf}" for i in range(n_cells) for suf in _OUTCOME_SUFFIX)
    layout = (
        np.repeat(np.arange(n_cells), 4),
        np.tile([True, True, False, False], n_cells),
        np.tile([True, False, True, False], n_cells),
    )
    for a in layout:
        a.flags.writeable = False
    return (atoms, *layout)


def random_screened_model(
    seed: int | np.random.Generator,
    n_cells: int,
    epsilon_target: float,
) -> PairwiseCcModel:
    """Random exactly-screened model with even marginals and a target deficit.

    Cells come in mirrored pairs of equal mass whose conditionals are
    complements of each other, which pins both marginals at exactly one
    half; with an odd cell count one self-mirrored cell at conditional 1/2
    takes a small slice of mass. Within-cell joints are products, so
    screening is exact by construction. The deficit is quadratic in the
    shared deviation scale, and the scale that matches the target is its
    closed-form smaller root (see _deficit_scale). Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(seed)
    n_cells = integer("n_cells", n_cells)
    if n_cells < 2:
        raise GenerationFailed(
            "a single screened cell forces independence, which is incompatible "
            "with a deficit below one half"
        )
    if not (0.0 <= epsilon_target < 0.5):
        raise GenerationFailed(f"epsilon_target must be in [0, 0.5), got {epsilon_target}")

    n_pairs = n_cells // 2
    has_mid = n_cells % 2 == 1
    mid_mass = min(epsilon_target, 0.05) if has_mid and epsilon_target > _GEN_ZERO_TARGET else 0.0

    raw = rng.uniform(0.5, 1.5, n_pairs)
    pair_mass = raw / raw.sum() * (1.0 - mid_mass)
    cell_mass = pair_mass / 2.0
    x = rng.uniform(0.6, 1.0, n_pairs)
    y = rng.uniform(0.6, 1.0, n_pairs)
    m1 = float((cell_mass * (x + y)).sum())
    m2 = float((cell_mass * x * y).sum())

    scale = _deficit_scale(m1, m2, mid_mass, epsilon_target)

    pairs = slice(0, 2 * n_pairs, 2)
    mass = np.full(n_cells, mid_mass)
    q = np.full(n_cells, 0.5)
    r = np.full(n_cells, 0.5)
    mass[: 2 * n_pairs] = np.repeat(cell_mass, 2)
    q[pairs] = 1.0 - scale * x
    r[pairs] = 1.0 - scale * y
    q[1::2] = 1.0 - q[pairs]
    r[1::2] = 1.0 - r[pairs]
    # each weight is a product like (mass * q) * r, multiplied in that order
    plus, minus, r_minus = mass * q, mass * (1.0 - q), 1.0 - r
    weights = np.stack([plus * r, plus * r_minus, minus * r, minus * r_minus], axis=1)
    # divided by their exact total even when it is within spaces._NORMALIZED_TOL of one, which a space keeps
    weights /= math.fsum(weights.ravel().tolist())
    atoms, *layout = _pairwise_layout(n_cells)  # shared by every model of this cell count
    model = PairwiseCcModel(FiniteProbSpace(atoms, weights), *layout, n_cells)

    p_a, p_b, _ = _event_masses(model)  # kept: the deficit below and the checker read them
    if abs(p_a - 0.5) > PRECONDITION_TOL or abs(p_b - 0.5) > PRECONDITION_TOL:
        raise GenerationFailed(f"marginals drifted: p(A)={p_a!r}, p(B)={p_b!r}")
    achieved = model_epsilon(model)
    if abs(achieved - epsilon_target) > _GEN_TARGET_MISS:
        raise GenerationFailed(
            f"deficit {achieved!r} missed the target {epsilon_target!r} beyond 1e-6"
        )
    return model


def pairwise_model_to_dict(model: PairwiseCcModel) -> dict:
    atoms = model.space.atoms
    cells: list[list] = [[] for _ in range(model.n_cells)]
    for label, i in zip(atoms, model.cell_of.tolist()):
        cells[i].append(label)
    return {
        "type": "pairwise",
        "space": space_to_dict(model.space),
        "A": sorted(a for a, keep in zip(atoms, model.in_a.tolist()) if keep),
        "B": sorted(b for b, keep in zip(atoms, model.in_b.tolist()) if keep),
        "partition": [sorted(c) for c in cells],
    }


def pairwise_model_from_dict(data: dict) -> PairwiseCcModel:
    space = space_from_dict(_json_object(data["space"], "space"))
    cells = [_label_list(c, "a partition cell") for c in _json_array(data["partition"], "partition")]
    return _labelled_model(space, _label_list(data["A"], "A"), _label_list(data["B"], "B"), cells)


# ---------------------------------------------------------------------------
# Full joint models over settings, outcomes, and per-direction causes
# ---------------------------------------------------------------------------

# Weight tensor axes: (a-setting, b-setting, A-outcome, B-outcome, c1..c4).
# Settings index Alice directions 1, 2 and Bob directions 3, 4; outcome
# index 0 is "+". Cause variable k belongs to direction k+1.


class _Wing(NamedTuple):
    """One (wing, direction) row of the per-wing table.

    wing is 0 for Alice and 1 for Bob, which is also the axis of the wing's
    setting (and, plus 2, of its outcome) in the weights; cause is the
    own-direction cause variable, weight axis 4 + cause. weights[index]
    selects the own setting, so the far setting comes first, the outcome
    sits at axis 1 + wing and the cause at axis 3 + cause.
    """

    side: str
    wing: int
    setting: int
    cause: int
    index: tuple
    name: str  # own setting label
    far: tuple[str, str]  # far setting labels
    outcome: str


_WINGS = (
    _Wing("alice", 0, 0, 0, (0,), "a1", ("b3", "b4"), "A"),
    _Wing("alice", 0, 1, 1, (1,), "a2", ("b3", "b4"), "A"),
    _Wing("bob", 1, 0, 2, (slice(None), 0), "b3", ("a1", "a2"), "B"),
    _Wing("bob", 1, 1, 3, (slice(None), 1), "b4", ("a1", "a2"), "B"),
)


@functools.cache
def _summed_axes(ndim: int, keep: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k for k in range(ndim) if k not in keep)


def _marginal(w: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    # np.add.reduce is what w.sum calls, without the wrapper
    return np.add.reduce(w, axis=_summed_axes(w.ndim, keep))


@dataclass(frozen=True, eq=False)
class EprbModel:
    """Joint distribution over settings, outcomes, and four cause variables.

    The weights are kept or divided by their sum by spaces._normalized, so
    a model read back from its to_dict has them bit for bit. Its setting
    law is computed at construction. Its outcome tables, deficit profile,
    cause tables (see _CauseTables) and validator reports are computed on
    first use and kept (see _kept). All of them are read-only.
    """

    weights: np.ndarray
    cause_cards: tuple[int, int, int, int]

    def __post_init__(self):
        cards = cause_cardinalities(self.cause_cards, 1)
        w = np.asarray(self.weights, dtype=float)
        expected = (2, 2, 2, 2, *cards)
        if w.shape != expected:
            raise BadModel(f"weight tensor shape {w.shape} does not match {expected}")
        lowest = float(w.min())  # NaN propagates through min
        if not lowest >= 0.0:
            raise BadModel(f"negative or NaN weight {lowest}")
        # +inf survives min but not a finite total; finite weights may also
        # sum past the float range, which numpy would warn of before the
        # check below rejects it
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if not 0.0 < total < math.inf:
            raise BadModel(f"total mass must be positive and finite, got {total}")
        w = _normalized(w, total)
        pair = w.sum(axis=tuple(range(2, w.ndim)))
        if (pair <= 0.0).any():
            raise BadModel("every setting pair needs positive probability")
        w.flags.writeable = False
        pair.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cause_cards", cards)
        object.__setattr__(self, "_setting_probs", pair)

    def setting_probs(self) -> np.ndarray:
        return self._setting_probs

    @_kept
    def outcome_tables(self) -> np.ndarray:
        joint = _marginal(self.weights, (0, 1, 2, 3))
        t = joint / joint.sum(axis=(2, 3), keepdims=True)
        t.flags.writeable = False
        return t

    @_kept
    def profile(self) -> singlet.EpsilonProfile:
        return singlet.epsilon_profile(self.outcome_tables())

    def plus_probs(self) -> np.ndarray:
        """p(+ | own setting) as a (wing, setting) table, wing 0 for Alice and 1 for Bob."""
        w = self.weights
        return np.array([_marginal(w, (wing, 2 + wing))[:, 0] / _marginal(w, (wing,)) for wing in (0, 1)])

    def weak_report(self) -> WeakChReport:
        eps = self.profile().eps_global
        bounds = weak_ch_bounds(eps, pair_settings(self._setting_probs))
        terms = ch_table_terms(self.outcome_tables(), self.plus_probs())
        return evaluate_weak_ch(ch_expression(terms), bounds, eps, terms=terms)

    def to_dict(self) -> dict:
        return {
            "type": "eprb",
            "cause_cards": list(self.cause_cards),
            "weights": [float(v) for v in self.weights.ravel()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EprbModel":
        cards = cause_cardinalities(data["cause_cards"], 1)
        flat = np.asarray(real_numbers(_json_array(data["weights"], "weights")))
        n = 16 * math.prod(cards)  # exact, where np.prod wraps in int64
        if flat.size != n:
            raise BadModel(f"expected {n} weights for cards {cards}, got {flat.size}")
        return cls(flat.reshape((2, 2, 2, 2, *cards)), cards)


class _CauseTables(NamedTuple):
    """The marginals of a full-joint model that its checks read.

    The cells of all four causes make one cell axis, each cause a block
    (_Layout.blocks): Alice's causes c1, c2 and then Bob's c3, c4. A cell's
    row is the _WINGS row of its cause.
    """

    single: np.ndarray  # p(a, b, A, B, cell), (2, 2, 2, 2, cells)
    pairs: np.ndarray  # p(a, b, Alice's cell, Bob's cell), every cross-wing cause pair at once
    own: np.ndarray  # p(far setting, own outcome, cell) at the own setting of the cell's row, (2, 2, cells)


@_kept
def _cause_tables(model: EprbModel) -> _CauseTables:
    # Three reductions of the weights, the others of their small results;
    # kept, read-only.
    n1, n2, n3, n4 = model.cause_cards
    w = model.weights.reshape(16, n1, n2, n3, n4)
    alice = np.add.reduce(w, axis=(3, 4))  # p(a, b, A, B, c1, c2)
    bob = np.add.reduce(w, axis=(1, 2))  # p(a, b, A, B, c3, c4)
    single = np.concatenate([np.add.reduce(t, axis=k) for t in (alice, bob) for k in (2, 1)], axis=1)
    single = single.reshape(2, 2, 2, 2, -1)
    causes = np.add.reduce(w.reshape(4, 4, n1, n2, n3, n4), axis=1)  # p(a, b, c1..c4)
    # p(a, b, Alice's cell, c3, c4), then every cross-wing pair
    by_alice = np.concatenate((np.add.reduce(causes, axis=2), np.add.reduce(causes, axis=1)), axis=1)
    pairs = np.concatenate((np.add.reduce(by_alice, axis=3), np.add.reduce(by_alice, axis=2)), axis=2)
    pairs = pairs.reshape(2, 2, n1 + n2, n3 + n4)
    near = (np.add.reduce(single, axis=3), np.add.reduce(single, axis=2))  # (a, b, own outcome, cell) per wing
    blocks = _layout(model.cause_cards).blocks
    own = np.concatenate([near[r.wing][r.index][..., blocks[r.cause]] for r in _WINGS], axis=-1)
    for a in (single, pairs, own):
        a.flags.writeable = False
    return _CauseTables(single, pairs, own)


def _loc_label(key: tuple) -> str:
    # (row, cell, far, outcome) of a residual; (row, cell) or (row, cell, far) of a skip
    row, i, *rest = key
    r = _WINGS[row]
    cell = f"c{r.cause + 1}={i}"
    if len(rest) == 2:
        f, o = rest
        return f"{r.side} {r.outcome}={'+-'[o]} {r.name} {r.far[f]} {cell}"
    return " ".join((r.side, r.name, *(r.far[f] for f in rest), cell))


@_kept
def validate_loc(model: EprbModel) -> ResidualReport:
    """Locality residuals: far setting vs pooled conditionals of near outcomes.

    For each wing, own setting, own-direction cause cell, far setting, and
    outcome, p(out | own, far, cell) - p(out | own, cell), read from the
    cause tables' p(far, out, cell) at each row's own setting. Cells or
    setting pairs of zero conditioning mass (0/0, NaN) are skipped and
    listed.
    """
    s = _cause_tables(model).own
    with np.errstate(invalid="ignore"):
        pooled = s[0] + s[1]  # (outcome, cell)
        pooled /= pooled[:1] + pooled[1:]
        out = s / (s[:, :1] + s[:, 1:])
    out -= pooled
    flat = out.transpose(2, 0, 1).ravel().tolist()  # (cell, far, out)
    labels = _layout(model.cause_cards).loc
    if not math.isnan(sum(flat)):  # a NaN, a residual of no conditioning mass, makes the sum NaN
        return ResidualReport(tuple(flat), labels)
    # both outcomes of a far setting share its conditioning mass, so they
    # are NaN together, and a cell of no mass is NaN at both far settings
    cells = ((r, i) for r, card in enumerate(model.cause_cards) for i in range(card))
    skipped = []
    for cell, (r, i) in enumerate(cells):
        far = [f for f in (0, 1) if math.isnan(flat[4 * cell + 2 * f])]
        if far:
            skipped.append(_loc_label((r, i) if len(far) == 2 else (r, i, *far)))
    kept = [(label, x) for label, x in zip(labels, flat) if x == x]
    return ResidualReport(tuple(x for _, x in kept), tuple(label for label, _ in kept), tuple(skipped))


def _no_conspiracy_label(key: tuple) -> str:
    # (tag, cause, cell) or (tag, cause, cell, cause, cell)
    tag, *cells = key
    return "p(" + ", ".join((tag, *(f"c{k + 1}={i}" for k, i in zip(cells[::2], cells[1::2])))) + ")"


@_kept
def validate_no_conspiracy(model: EprbModel) -> ResidualReport:
    """Setting-independence residuals of the five product conditions.

    Settings must be independent of each single cause cell and of pairs of
    cause cells from opposite wings; the validator checks exactly the five
    listed product forms, nothing finer. Each residual is
    p(setting event, cells) - p(setting event) p(cells), read from the
    cause tables.
    """
    t = _cause_tables(model)
    sp = model.setting_probs()
    cells = np.add.reduce(t.single, axis=(2, 3))  # p(a, b, cell)
    events = np.concatenate((np.add.reduce(cells, axis=1), np.add.reduce(cells, axis=0), cells.reshape(4, -1)))
    p_events = np.concatenate((sp.sum(axis=1), sp.sum(axis=0), sp.ravel()))
    by_cell = events - p_events[:, None] * np.add.reduce(cells, axis=(0, 1))
    by_pair = t.pairs - sp[:, :, None, None] * np.add.reduce(t.pairs, axis=(0, 1))
    layout = _layout(model.cause_cards)
    residuals = np.concatenate((by_cell.ravel(), by_pair.ravel())).take(layout.no_conspiracy_places)
    return ResidualReport(tuple(residuals.tolist()), layout.no_conspiracy)


def _screening_label(key: tuple) -> str:
    # (row, partner, cell), of a residual or a skip
    row, partner, i = key
    r = _WINGS[row]
    return f"screen {r.name} partner {r.far[partner]} c{r.cause + 1} cell={i}"


class _Layout(NamedTuple):
    """What the checks of a full-joint model read that depends only on its cause cardinalities.

    blocks places each cause's cells on the cause tables' cell axis, c1's
    first; cause k is the cause of _WINGS row k. loc and no_conspiracy are
    the labels of validate_loc's and validate_no_conspiracy's residuals in
    report order; no_conspiracy_places picks those residuals out of the
    (8, cells) table by setting event (the four settings in row order,
    then the setting pairs at 4 + 2 * ai + bj) and the (a, b, Alice's cell,
    Bob's cell) table, flattened one after the other. screening[row][partner]
    labels the residuals of a row's cells at that partner. Every model of
    these cards shares them.
    """

    blocks: tuple[slice, ...]
    loc: tuple[str, ...]
    no_conspiracy: tuple[str, ...]
    no_conspiracy_places: np.ndarray
    screening: tuple[tuple[tuple[str, ...], ...], ...]


@functools.lru_cache(maxsize=256)
def _layout(cards: tuple[int, ...]) -> _Layout:
    starts = tuple(accumulate(cards, initial=0))
    blocks = tuple(map(slice, starts[:-1], starts[1:]))
    n_cells, n_alice = starts[4], starts[2]
    by_cell = np.arange(8 * n_cells).reshape(8, n_cells)
    by_pair = np.arange(8 * n_cells, 8 * n_cells + 4 * n_alice * (n_cells - n_alice)).reshape(2, 2, n_alice, -1)
    keys: list[tuple] = []
    places = []
    for row in _WINGS:
        keys += ((row.name, row.cause, i) for i in range(cards[row.cause]))
        places.append(by_cell[row.cause, blocks[row.cause]])
    for ra in _WINGS[:2]:
        for rb in _WINGS[2:]:
            tag = ra.name + rb.name
            for k in (ra.cause, rb.cause):
                keys += ((tag, k, i) for i in range(cards[k]))
                places.append(by_cell[4 + 2 * ra.setting + rb.setting, blocks[k]])
            keys += product((tag,), (ra.cause,), range(cards[ra.cause]), (rb.cause,), range(cards[rb.cause]))
            bob = blocks[rb.cause]  # Bob's cells start at 0 on the pair table's last axis
            bob = slice(bob.start - n_alice, bob.stop - n_alice)
            places.append(by_pair[ra.setting, rb.setting, blocks[ra.cause], bob].ravel())
    no_conspiracy_places = np.concatenate(places)
    no_conspiracy_places.flags.writeable = False
    return _Layout(
        blocks=blocks,
        loc=tuple(_loc_label((r, i, f, o)) for r in range(4) for i in range(cards[r]) for f in (0, 1) for o in (0, 1)),
        no_conspiracy=tuple(map(_no_conspiracy_label, keys)),
        no_conspiracy_places=no_conspiracy_places,
        screening=tuple(
            tuple(tuple(_screening_label((r, p, i)) for i in range(cards[r])) for p in (0, 1)) for r in range(4)
        ),
    )


@_kept
def validate_screening(model: EprbModel) -> ResidualReport:
    """Screening residuals of the partner-direction cause partitions.

    For each direction with its partner direction on the far wing, the
    cause cells of the direction must factorize the events (+ on the near
    wing, - on the far wing) inside their setting pair. Partners come from
    the model's own conditional tables, not from any quantum formula.
    """
    prof = model.profile()
    cards = model.cause_cards
    partners = [int((prof.partner_a, prof.partner_b)[row.wing][row.setting]) for row in _WINGS]
    pairs = [2 * p + row.setting if row.wing else 2 * row.setting + p for row, p in zip(_WINGS, partners)]
    # p(A, B, cell) at each cell's setting pair, as (cell, A and B)
    s = _cause_tables(model).single.reshape(4, 4, -1)[np.repeat(pairs, cards), :, np.arange(sum(cards))]
    mass = np.add.reduce(s, axis=1)
    by_row = _layout(cards).screening
    # joined with +: tuple() of an iterator resizes as it grows, which fragments memory over many models
    labels = sum((by_row[r][p] for r, p in enumerate(partners)), ())
    skipped: tuple = ()
    positive = mass > 0.0
    if not positive.all():
        keys = [(r, p, i) for r, p in enumerate(partners) for i in range(cards[r])]
        skipped = tuple(_screening_label(k) for k, keep in zip(keys, positive.tolist()) if not keep)
        labels = tuple(label for label, keep in zip(labels, positive.tolist()) if keep)
        s, mass = s[positive], mass[positive]
    pp, pm, _, mm = s.T
    # p(A+ B-) - p(A+) p(B-) and p(A- B+) - p(A-) p(B+) are both the
    # determinant of the cell's 2x2 table over -mass^2, so which wing is
    # near does not matter
    residuals = pm / mass - (pp + pm) / mass * ((pm + mm) / mass)
    return ResidualReport(tuple(residuals.tolist()), labels, skipped)


@_kept
def _aggregate_cells(model: EprbModel) -> np.ndarray:
    # Whether each cell lies in its row's aggregate cause: it makes the +
    # outcome nearly certain, p(+ | own, cell) >= 1 - sqrt(eps_dir) within
    # VIOLATION_ATOL; kept, read-only.
    prof = model.profile()
    s = _cause_tables(model).own
    p, m = s[0] + s[1]
    mass = p + m
    cutoff = np.repeat(1.0 - np.sqrt(np.concatenate((prof.eps_a, prof.eps_b))), model.cause_cards)
    with np.errstate(invalid="ignore"):  # 0/0 in a cell of no mass, which is left out
        inside = (mass > 0.0) & (p / mass >= cutoff - VIOLATION_ATOL)
    inside.flags.writeable = False
    return inside


def _aggregate(model: EprbModel, row: _Wing) -> tuple[int, ...]:
    # the aggregate cause of a row, as the own-direction cause cells in it
    block = _layout(model.cause_cards).blocks[row.cause]
    return tuple(_aggregate_cells(model)[block].nonzero()[0].tolist())


@dataclass(frozen=True)
class JointCausePair:
    pair: str
    p_plus_plus: float
    p_joint_cause: float
    d_minus: float
    d_plus: float
    lower_ok: bool
    upper_ok: bool


@dataclass(frozen=True)
class JointCauseReport:
    epsilon: float
    pairs: tuple[JointCausePair, ...]
    alice_cells: tuple[tuple[int, ...], tuple[int, ...]]
    bob_cells: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return all(p.lower_ok and p.upper_ok for p in self.pairs)


def validators() -> dict[str, Callable[[EprbModel], ResidualReport]]:
    """The three assumption validators by the names check-model reports them under.

    Built at each call, so each validator is looked up when it runs.
    """
    return {
        "locality": validate_loc,
        "no_conspiracy": validate_no_conspiracy,
        "screening": validate_screening,
    }


def check_assumptions(model: EprbModel) -> None:
    """Raise PreconditionViolated unless every assumption validator holds.

    Each validator's largest residual must be within PRECONDITION_TOL; one
    that is not <= it, a NaN included, is refused. The reports are kept on
    the model, so running them again costs nothing.
    """
    for what, validate in validators().items():
        worst = validate(model).max_abs
        if not worst <= PRECONDITION_TOL:
            raise PreconditionViolated(f"{what} residual {worst:.3e} exceeds {PRECONDITION_TOL:.1e}")


def joint_cause_bounds_check(model: EprbModel) -> JointCauseReport:
    """Check the correction-term interval around p(+,+|ab) for each pair.

    For every setting pair, the probability that both aggregate causes
    occur must satisfy

        p(+,+|ab) - d_plus_ab <= p(C^a C^b) <= p(+,+|ab) + d_minus_ab

    with the correction terms computed at the model's own global deficit.
    The three validators must hold within PRECONDITION_TOL, the lower side
    carries the same tolerance and the upper side VIOLATION_ATOL. Their
    reports are kept on the model, so a caller that has run them pays
    nothing to run them again here.
    """
    check_assumptions(model)
    t = model.outcome_tables()
    eps = model.profile().eps_global
    agg = [_aggregate(model, row) for row in _WINGS]
    settings = dict(zip(CH_PAIRS.values(), pair_settings(model.setting_probs())))
    # p(C^a C^b) of every pair: the mass of the cell pairs whose two cells lie in their aggregate causes
    c1, c2, c3, c4 = _layout(model.cause_cards).blocks
    inside = _aggregate_cells(model)
    both = np.add.reduce(_cause_tables(model).pairs, axis=(0, 1)) * np.outer(inside[: c3.start], inside[c3.start :])
    p_joint = np.add.reduceat(np.add.reduceat(both, (0, c2.start), axis=0), (0, c4.start - c3.start), axis=1).tolist()
    # eps_global is a float in [0, 1], one minus a conditional, so no pair
    # re-reads it: the terms share one root, as in weak_ch_bounds
    root = math.sqrt(eps)
    pairs = []
    for ai in (0, 1):
        for bj in (0, 1):
            d_minus, d_plus, _, _ = _terms(eps, root, settings[ai, bj])
            p_cc = p_joint[ai][bj]
            p_pp = float(t[ai, bj, 0, 0])
            pairs.append(
                JointCausePair(
                    pair=f"{ai + 1}{bj + 3}",
                    p_plus_plus=p_pp,
                    p_joint_cause=p_cc,
                    d_minus=d_minus,
                    d_plus=d_plus,
                    lower_ok=p_pp - d_plus <= p_cc + PRECONDITION_TOL,
                    upper_ok=p_cc <= p_pp + d_minus + VIOLATION_ATOL,
                )
            )
    return JointCauseReport(
        epsilon=eps,
        pairs=tuple(pairs),
        alice_cells=(agg[0], agg[1]),
        bob_cells=(agg[2], agg[3]),
    )


def _group_laws(rng: np.random.Generator, g0_size: int, card: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell laws of a group of g0_size cells and of the other card - g0_size.

    Bit for bit, and with the same use of the stream, what
    rng.dirichlet(np.full(size, 2.0)) gives for the one group and then the
    other: numpy's Dirichlet draws one gamma variate per cell and scales
    them by the reciprocal of their running sum.
    """
    gammas = rng.standard_gamma(2.0, card)
    laws = []
    for part in (gammas[:g0_size], gammas[g0_size:]):
        laws.append(part * (1.0 / left_sum(part.tolist())))
    return laws[0], laws[1]


def random_eprb_model(
    seed: int | np.random.Generator,
    cause_cards: Sequence[int] = (2, 2, 2, 2),
    epsilon_target: float = 1e-3,
    setting_probs: np.ndarray | None = None,
) -> EprbModel:
    """Random model satisfying every assumption exactly, with a small deficit.

    Construction: settings are drawn independently of everything else; a
    hidden binary pattern picks, for each cause variable, a group of cell
    values (so cause variables are correlated only through the pattern);
    each outcome depends only on its own setting and its own-direction
    cause cell. That product structure makes locality, setting
    independence, and screening hold identically, for any kernels. Outcome
    kernels are near-deterministic with randomized per-cell deviations
    balanced so both wings stay exactly even, and the deviation scale
    keeps the global deficit at or below 0.9 * epsilon_target.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    cards = cause_cardinalities(cause_cards, 2)
    if not (0.0 <= epsilon_target <= 0.1):
        raise GenerationFailed(
            f"epsilon_target must be in [0, 0.1] for this generator, got {epsilon_target}"
        )
    sp = setting_law(setting_probs)  # a zero entry leaves a setting pair empty: EprbModel rejects it

    splits = []  # per cause variable: the (cells, law) group of each hidden pattern
    laws = []  # per cause variable: its cell law under each pattern, (pattern, cell)
    for card in cards:
        g0_size = int(rng.integers(1, card))
        perm = rng.permutation(card)
        idx0, idx1 = perm[:g0_size], perm[g0_size:]
        idx0.sort()
        idx1.sort()
        w0, w1 = _group_laws(rng, g0_size, card)
        splits.append(((idx0, w0), (idx1, w1)))
        law = np.zeros((2, card))
        law[0, idx0] = w0
        law[1, idx1] = w1
        laws.append(law)
    scale = (0.5 * sp).reshape(1, 2, 2, 1, 1, 1, 1, 1, 1)

    # A direction's mean deviation md is at most delta, so a pair's deficit,
    # md_a (1 - md_b) + (1 - md_a) md_b <= 2 delta, is at most 0.9 epsilon_target.
    delta = 0.45 * epsilon_target
    # each direction's deviations, own group then other group, in row order
    draws = rng.uniform(0.5, 1.0, sum(cards)) * delta if delta else None
    start = 0
    w = None
    for row in _WINGS:
        card = cards[row.cause]
        # Alice's directions favour pattern 0, Bob's pattern 1
        des_idx, des_w = splits[row.cause][row.wing]
        oth_idx, oth_w = splits[row.cause][1 - row.wing]
        vec = np.zeros(card)
        if draws is None:
            vec[des_idx] = 1.0
        else:
            d_raw = draws[start : start + des_idx.size]
            e_raw = draws[start + des_idx.size : start + card]
            start += card
            md = float(np.dot(des_w, d_raw))
            me = float(np.dot(oth_w, e_raw))
            vec[des_idx] = 1.0 - d_raw
            vec[oth_idx] = e_raw * (md / me)
        # (setting, outcome, cell): the outcome kernel at the own
        # setting, 1 at the other, where the outcome reads another cause
        kernel = np.ones((2, 2, card))
        kernel[row.setting] = vec, 1.0 - vec
        # on the axes (pattern, a, b, A, B, c1..c4)
        shape = [2, 2 - row.wing, 1 + row.wing, 2 - row.wing, 1 + row.wing, 1, 1, 1, 1]
        shape[5 + row.cause] = card
        factor = (laws[row.cause][:, None, None, :] * kernel).reshape(shape)
        # The factors are multiplied in cause order and then scaled, the
        # rounding of the recorded weights (tests/golden); see
        # reference_eprb_weights in tests/helpers.py.
        w = factor if w is None else w * factor
    w = w * scale
    w = w[0] + w[1]  # sum over the hidden pattern
    w /= float(w.sum())  # so that EprbModel keeps them bit for bit

    model = EprbModel(w, cards)
    achieved = model.profile().eps_global
    if not achieved <= epsilon_target * (1.0 + _GEN_RELATIVE_SLACK) + _GEN_ROUNDING:
        raise GenerationFailed(f"deficit {achieved!r} exceeds the target {epsilon_target!r}")
    return model


def model_from_dict(data: dict):
    """Model from its JSON form.

    Malformed input (a missing field, a label list that is not a JSON
    array, a number that is not real, a full model of the wrong shape)
    raises BadModel, as does an event atom outside the space. Labels that
    form no valid space or partition raise the label errors of spaces.
    """
    if not isinstance(data, dict):
        raise BadModel(f"a model must be a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    try:
        if kind == "eprb":
            return EprbModel.from_dict(data)
        if kind == "pairwise":
            return pairwise_model_from_dict(data)
    except KeyError as exc:
        raise BadModel(f"{kind} model lacks the field {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise BadModel(f"malformed {kind} model: {exc}") from exc
    raise BadModel(f"unknown model type {kind!r}")

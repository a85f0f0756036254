"""The CH inequality, its correction-term weakening, and related checks.

For arbitrary events A, A', B, B' of one probability space the CH
combination

    p(AB) + p(AB') + p(A'B') - p(A'B) - p(A) - p(B')

lies in [-1, 0]. When the four pairwise correlations are only nearly
perfect, with deficit eps, the interval widens by correction terms built
from sqrt(eps):

    d_minus_ab = (p(a) + p(b)) * sqrt(eps) / p(ab)
    d_plus_ab  = (p(a) + p(b)) * (5*sqrt(eps) - 2*eps) / p(ab)
    d_minus    = sqrt(eps)
    d_plus     = 4*sqrt(eps) - 2*eps

The weakened bounds are

    lower = -1 - d_minus_13 - d_minus_14 - d_minus_24 - d_plus_23 - 2*d_plus
    upper =      d_plus_13  + d_plus_14  + d_plus_24  + d_minus_23 + 2*d_minus

which reduce to the strict CH interval [-1, 0] at eps = 0. This module
also solves for the largest eps at which the extremal quantum value still
violates each bound, checks the quantum (Tsirelson) interval
[-(sqrt(2)+1)/2, (sqrt(2)-1)/2], computes no-signalling residuals of
per-setting-pair outcome tables, and evaluates the combination on an
explicit distribution over the 16 atoms of the four events and their
complements, cross-checked against the complement-sum identity that proves
the [-1, 0] range. It needs only the standard library; numpy is imported
by the one function that takes arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

TSIRELSON_LOWER = -(math.sqrt(2.0) + 1.0) / 2.0
TSIRELSON_UPPER = (math.sqrt(2.0) - 1.0) / 2.0

# How far the extremal quantum value sits outside the strict CH interval,
# the same amount (sqrt(2)-1)/2 on both sides.
QUANTUM_EXCESS = TSIRELSON_UPPER

# The check tolerances, by role. At eps = 0 the weak interval is the strict
# one, so every verdict near it rests on them. An exact or strict
# inequality is tested non-strictly at VIOLATION_ATOL: strictness is not
# detectable in floating point, and the eps = 0 reduction must pass exactly.
VIOLATION_ATOL = 1e-12
# Each residual of a checker's statistical precondition (screening,
# locality, setting independence, even marginals) must be within this.
PRECONDITION_TOL = 1e-9
# A given law (setting table, outcome tables, atoms) sums to one within this.
LAW_SUM_TOL = 1e-9


class WeakChError(Exception):
    """Base class for domain errors raised by this package."""


class BadEpsilon(WeakChError):
    """Deficit outside [0, 1]."""


class BadSettingProbs(WeakChError):
    """Setting probabilities violate their constraints."""


class UnnormalizedTable(WeakChError):
    """A per-setting-pair outcome table does not sum to one."""


class UnnormalizedInput(WeakChError):
    """An explicit atom distribution is malformed or not normalized."""


@dataclass(frozen=True)
class SettingProbs:
    """Probabilities of one Alice setting, one Bob setting, and their joint."""

    p_a: float
    p_b: float
    p_ab: float

    def __post_init__(self):
        for name, v in (("p_a", self.p_a), ("p_b", self.p_b), ("p_ab", self.p_ab)):
            if not (0.0 < v <= 1.0):
                raise BadSettingProbs(f"{name} must be in (0, 1], got {v}")
        if self.p_ab > min(self.p_a, self.p_b) + VIOLATION_ATOL:
            raise BadSettingProbs(
                f"p_ab={self.p_ab} exceeds min(p_a, p_b)={min(self.p_a, self.p_b)}"
            )


# The even, independent choice: p(a) = p(b) = 1/2 and p(ab) = 1/4.
SYMMETRIC_SETTINGS = SettingProbs(0.5, 0.5, 0.25)


# The joint terms of the CH combination and their (Alice, Bob) setting
# indices, in the pair order 13, 14, 24, 23 used throughout.
CH_PAIRS = {"p13": (0, 0), "p14": (0, 1), "p24": (1, 1), "p23": (1, 0)}


def ch_table_terms(joint, plus) -> dict[str, float]:
    """The six CH terms, in the order ch_expression names them, read from tables.

    joint[a, b, 0, 0] is p(+,+ | a, b), taken for each pair in CH_PAIRS;
    plus[wing, setting] is p(+ | own setting), wing 0 for Alice and 1 for
    Bob, taken at direction 1 (plus[0, 0]) and direction 4 (plus[1, 1]).
    Both are numpy arrays.
    """
    pp = joint[:, :, 0, 0].tolist()
    terms = {name: pp[a][b] for name, (a, b) in CH_PAIRS.items()}
    (terms["p1_plus"], _), (_, terms["p4_plus"]) = plus.tolist()
    return terms


def left_sum(values) -> float:
    """The floats in values added one at a time from the left, starting at 0.0.

    Not sum(): from Python 3.12 on, sum() of Python floats compensates
    its rounding, so its result would depend on the Python version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def real_numbers(values) -> list[float]:
    """The items of values as floats; each must be a real number.

    A real number is a value whose type converts itself to float (int,
    float, numpy scalars), other than a boolean. Meant for lists parsed
    from JSON, where a boolean is an int to Python and a numeric string
    would pass float(): both raise TypeError, as does a value that is not
    iterable. An int beyond the float range raises OverflowError.
    """
    out = []
    for v in values:
        if isinstance(v, bool) or not hasattr(type(v), "__float__"):
            raise TypeError(f"expected a real number, got {v!r}")
        out.append(float(v))
    return out


def real_number(name: str, value, error: type[WeakChError] = WeakChError) -> float:
    """value as a float if it is a real number as real_numbers defines one; otherwise error.

    An int beyond the float range is an error too, not the OverflowError of float().
    """
    try:
        (x,) = real_numbers((value,))
    except TypeError:
        raise error(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # no repr: an int of more than 4300 digits has none
        raise error(f"{name} must be a real number within the float range") from None
    return x


def integer(name: str, value, lower: int | None = None) -> int:
    """value as a Python int, at least lower if given; a bool, float or other non-index value is a WeakChError."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise WeakChError(f"{name} must be an integer, got {value!r}")
    if lower is not None and n < lower:
        raise WeakChError(f"{name} must be at least {lower}, got {n}")
    return n


# Distinct setting laws whose per-pair SettingProbs are kept: a run uses a
# few, and each entry is four small frozen objects.
PAIR_SETTINGS_MEMO = 64


def pair_settings(table) -> tuple[SettingProbs, ...]:
    """Per-pair SettingProbs of a 2x2 setting table, in CH_PAIRS order.

    table[a, b] is the probability of Alice setting a with Bob setting b.
    Built once per distinct table and shared: equal tables give the same
    tuple of frozen SettingProbs.
    """
    # Read once as Python floats: its two rows are the memo's key
    return _pair_settings(*map(tuple, table.tolist()))


@functools.lru_cache(maxsize=PAIR_SETTINGS_MEMO)
def _pair_settings(*t) -> tuple[SettingProbs, ...]:
    # Only a table with every entry in (0, 1] builds, and such floats are
    # equal exactly when their bits are, so a kept key is exact. A refused
    # table raises on every call, as lru_cache keeps no exception.
    # (0.0 + x) + y is what ndarray.sum gives for two entries, bit for bit,
    # signed zeros included.
    return tuple(
        SettingProbs(0.0 + t[a][0] + t[a][1], 0.0 + t[0][b] + t[1][b], float(t[a][b]))
        for a, b in CH_PAIRS.values()
    )


@dataclass(frozen=True)
class CorrectionTerms:
    """Correction terms for one setting pair at a given deficit.

    All four terms vanish at eps = 0 and d_plus dominates d_minus for eps
    in (0, 1].
    """

    epsilon: float
    d_minus_ab: float
    d_plus_ab: float
    d_minus: float
    d_plus: float


def deficit(epsilon) -> float:
    """epsilon as a float in [0, 1]; anything else, NaN, a bool or a string included, is a BadEpsilon."""
    eps = real_number("epsilon", epsilon, BadEpsilon)
    if not (0.0 <= eps <= 1.0):
        raise BadEpsilon(f"epsilon must be in [0, 1], got {epsilon}")
    return eps


def _terms(eps: float, root: float, sp: SettingProbs) -> tuple[float, float, float, float]:
    # (d_minus_ab, d_plus_ab, d_minus, d_plus) at deficit eps = root**2
    ratio = (sp.p_a + sp.p_b) / sp.p_ab
    return ratio * root, ratio * (5.0 * root - 2.0 * eps), root, 4.0 * root - 2.0 * eps


def correction_terms(epsilon: float, sp: SettingProbs = SYMMETRIC_SETTINGS) -> CorrectionTerms:
    """Correction terms at deficit epsilon for the given setting probabilities."""
    eps = deficit(epsilon)
    return CorrectionTerms(eps, *_terms(eps, math.sqrt(eps), sp))


def ch_expression(terms) -> float:
    """The six-term CH combination p13 + p14 + p24 - p23 - p1_plus - p4_plus.

    terms maps those six names to probabilities; the combination lies in
    [-1, 0] for events of one space.
    """
    return (
        terms["p13"] + terms["p14"] + terms["p24"]
        - terms["p23"] - terms["p1_plus"] - terms["p4_plus"]
    )


_SETTINGS_NEEDED = "need one SettingProbs or four, one per pair"


def weak_ch_bounds(
    epsilon: float,
    settings: SettingProbs | tuple[SettingProbs, ...] = SYMMETRIC_SETTINGS,
) -> tuple[float, float]:
    """Corrected interval for the CH combination at deficit epsilon.

    settings is one SettingProbs shared by all four pairs, or four of them
    in pair order 13, 14, 24, 23; anything else is a BadSettingProbs. At
    eps = 0 this returns exactly (-1.0, 0.0). epsilon is read once, as
    correction_terms reads it.
    """
    if isinstance(settings, SettingProbs):
        sps = (settings,) * 4
    else:
        try:
            sps = tuple(settings)
        except TypeError:  # not iterable
            sps = ()
    if not sps:  # refused for its length before epsilon is read
        raise BadSettingProbs(_SETTINGS_NEEDED)
    eps = deficit(epsilon)
    root = math.sqrt(eps)
    try:
        terms = [_terms(eps, root, sp) for sp in sps]
    except (AttributeError, TypeError):  # an entry without the three probabilities
        raise BadSettingProbs(_SETTINGS_NEEDED) from None
    if len(terms) != 4:
        raise BadSettingProbs(_SETTINGS_NEEDED)
    (m13, p13, d_minus, d_plus), (m14, p14, _, _), (m24, p24, _, _), (m23, p23, _, _) = terms
    lower = -1.0 - m13 - m14 - m24 - p23 - 2.0 * d_plus
    upper = p13 + p14 + p24 + m23 + 2.0 * d_minus
    return lower, upper


@dataclass(frozen=True)
class WeakChReport:
    """Outcome of checking one CH combination value against corrected bounds."""

    value: float
    lower: float
    upper: float
    epsilon: float
    violated_lower: bool
    violated_upper: bool
    terms: dict | None = None

    @property
    def violated(self) -> bool:
        return self.violated_lower or self.violated_upper


def evaluate_weak_ch(
    value: float,
    bounds: tuple[float, float],
    epsilon: float,
    terms: dict | None = None,
) -> WeakChReport:
    """Flag whether a combination value leaves the corrected interval.

    The report carries the input probabilities when available, for audit
    output. value and both bounds must be finite real numbers and epsilon
    a deficit in [0, 1], as real_number and deficit read them; a NaN would
    compare as inside the interval.
    """
    lower, upper = real_number("lower bound", bounds[0]), real_number("upper bound", bounds[1])
    v = real_number("value", value)
    for name, x in (("value", v), ("lower bound", lower), ("upper bound", upper)):
        if not math.isfinite(x):
            raise WeakChError(f"{name} must be finite, got {x!r}")
    return WeakChReport(
        value=v,
        lower=lower,
        upper=upper,
        epsilon=deficit(epsilon),
        violated_lower=v < lower - VIOLATION_ATOL,
        violated_upper=v > upper + VIOLATION_ATOL,
        terms=terms,
    )


def bound_coefficients(sp: SettingProbs = SYMMETRIC_SETTINGS) -> tuple[tuple[float, float], tuple[float, float]]:
    """Coefficients (lin, quad) so each total correction is lin*x - quad*x^2, x = sqrt(eps).

    Assumes all four direction pairs share the same setting probabilities.
    Read off weak_ch_bounds at eps = 1 and eps = 1/4: a widening w(x)
    gives lin = 4*w(1/2) - w(1) and quad = 4*w(1/2) - 2*w(1). For the even
    symmetric choice this gives (40, 12) for the lower side and (66, 24)
    for the upper side.
    """
    (lo_1, up_1), (lo_h, up_h) = weak_ch_bounds(1.0, sp), weak_ch_bounds(0.25, sp)
    return tuple(
        (4.0 * w_h - w_1, 4.0 * w_h - 2.0 * w_1)
        for w_1, w_h in ((-1.0 - lo_1, -1.0 - lo_h), (up_1, up_h))
    )


def _smaller_root(lin: float, quad: float, rhs: float) -> float:
    # Solve lin*x - quad*x^2 = rhs for the smaller nonnegative root.
    # Written as 2*rhs / (lin + sqrt(disc)), which does not cancel when
    # 4*quad*rhs is small against lin^2 the way (lin - sqrt(disc)) / (2*quad)
    # does.
    disc = lin * lin - 4.0 * quad * rhs
    if disc < 0.0:
        raise WeakChError("no crossing: requested excess exceeds the correction maximum")
    return 2.0 * rhs / (lin + math.sqrt(disc))


def epsilon_thresholds(
    excess: float = QUANTUM_EXCESS,
    sp: SettingProbs = SYMMETRIC_SETTINGS,
) -> tuple[float, float]:
    """Largest deficits at which the extremal quantum values still violate.

    Solves lin*x - quad*x^2 = excess for x = sqrt(eps) in closed form
    (smaller quadratic root) for both bound sides and returns
    (eps_lower_max, eps_upper_max). With excess = 0 both thresholds are 0.
    An excess that is not a finite real number of at least 0, or that
    exceeds either side's correction maximum lin^2 / (4 quad), raises
    WeakChError.
    """
    excess = real_number("excess", excess)
    if not 0.0 <= excess < math.inf:  # a NaN fails too
        raise WeakChError(f"excess must be finite and at least 0, got {excess!r}")
    (lin_lo, quad_lo), (lin_up, quad_up) = bound_coefficients(sp)
    x_lo = _smaller_root(lin_lo, quad_lo, excess)
    x_up = _smaller_root(lin_up, quad_up, excess)
    return x_lo * x_lo, x_up * x_up


def no_signalling_residuals(tables: np.ndarray) -> list[float]:
    """Marginal-consistency residuals of per-setting-pair outcome tables.

    tables[a, b] is the 2x2 joint outcome distribution given settings
    (a, b), each normalized to one within LAW_SUM_TOL. For each wing,
    outcome, own setting, and pair of far settings, returns the difference
    between the two far-setting marginals. All residuals vanish exactly when the
    far setting cannot influence the near marginal.
    """
    import numpy as np

    t = np.asarray(tables, dtype=float)
    if t.ndim != 4 or t.shape[2:] != (2, 2):
        raise UnnormalizedTable("tables must have shape (n_a, n_b, 2, 2)")
    dev = np.abs(t.sum(axis=(2, 3)) - 1.0)
    if not (dev <= LAW_SUM_TOL).all():  # a NaN sum fails too
        worst = float(dev.max())
        raise UnnormalizedTable(f"table sums deviate from 1 by up to {worst}")
    res: list[float] = []
    # each wing's marginals as (own setting, far setting, own outcome)
    for marg in (t.sum(axis=3), t.sum(axis=2).transpose(1, 0, 2)):
        f1, f2 = np.triu_indices(marg.shape[1], 1)  # each pair of far settings, f1 < f2
        res += (marg[:, f1] - marg[:, f2]).ravel().tolist()
    return res


def tsirelson_check(value: float) -> bool:
    """True iff value lies in the quantum interval, within VIOLATION_ATOL."""
    return TSIRELSON_LOWER - VIOLATION_ATOL <= float(value) <= TSIRELSON_UPPER + VIOLATION_ATOL


# Atom index bits are (A, A', B, B'), most significant first; bit 1 means the
# event occurs. These eight atoms are exactly the ones the CH combination
# counts with weight -1.
_NEGATIVE_ATOMS = (1, 3, 6, 7, 8, 9, 12, 14)


@dataclass(frozen=True)
class OracleResult:
    value: float
    identity_value: float
    in_bounds: bool


def ch_atom_oracle(atom_probs: Sequence[float]) -> OracleResult:
    """Evaluate the CH combination on an explicit 16-atom distribution.

    Computes the six marginals from the atoms, evaluates the combination,
    and independently recomputes it as minus the mass of the eight
    negatively-counted atoms. Because those eight atoms are distinct, the
    combination of any normalized distribution lies in [-1, 0]; in_bounds
    reports that check at VIOLATION_ATOL. The atoms must be real numbers
    summing to one within LAW_SUM_TOL.
    """
    try:
        p = real_numbers(atom_probs)
    except (TypeError, OverflowError) as exc:  # e.g. null, strings, booleans, nested lists
        raise UnnormalizedInput(f"need a sequence of 16 real numbers: {exc}") from exc
    if len(p) != 16:
        raise UnnormalizedInput(f"need 16 atom probabilities, got {len(p)}")
    if not all(math.isfinite(v) for v in p):
        raise UnnormalizedInput(f"non-finite atom probability in {p}")
    if min(p) < -VIOLATION_ATOL:
        raise UnnormalizedInput(f"negative atom probability {min(p)}")
    total = math.fsum(p)
    if abs(total - 1.0) > LAW_SUM_TOL:
        raise UnnormalizedInput(f"atom probabilities sum to {total!r}, not 1")

    # A, A', B, B' stand for directions 1, 2, 3, 4, so p13 = p(AB).
    value = ch_expression({
        "p13": p[10] + p[11] + p[14] + p[15],
        "p14": p[9] + p[11] + p[13] + p[15],
        "p24": p[5] + p[7] + p[13] + p[15],
        "p23": p[6] + p[7] + p[14] + p[15],
        "p1_plus": p[8] + p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15],
        "p4_plus": p[1] + p[3] + p[5] + p[7] + p[9] + p[11] + p[13] + p[15],
    })
    identity = -left_sum(p[i] for i in _NEGATIVE_ATOMS)
    in_bounds = -1.0 - VIOLATION_ATOL <= value <= VIOLATION_ATOL
    return OracleResult(value=value, identity_value=identity, in_bounds=in_bounds)

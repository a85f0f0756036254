"""Monte Carlo generation of measurement records and finite-sample testing.

Runs are drawn per setting pair and outcome pair, either from the singlet
formulas at four given directions or from the conditional tables of a
saved model. Estimates are conditional relative frequencies with Wald
standard errors, and the inequality test declares a violation only when a
bound is exceeded by more than k standard errors.

The counts of a record are drawn directly from one np.random.default_rng(seed)
stream: one multinomial over the setting pairs, then one multinomial over
the outcome pairs of each setting pair that received runs. That is at most
five draws for any number of runs, with the law of run-by-run sampling.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import singlet
from .common_cause import EprbModel, setting_law
from .inequalities import (
    WeakChError,
    ch_expression,
    ch_table_terms,
    deficit,
    integer,
    left_sum,
    pair_settings,
    real_number,
    weak_ch_bounds,
)


class UndefinedEstimate(WeakChError):
    """A required estimate has no observations behind it."""


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Run count, directions, setting distribution, and outcome source ("singlet" or an EprbModel)."""

    seed: int
    n: int
    theta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    setting_probs: np.ndarray | None = None
    source: str | EprbModel = "singlet"

    def __post_init__(self):
        n = integer("n", self.n, 1)
        if n >= 1 << 63:  # numpy's multinomial counts are int64
            raise WeakChError(f"n must be at most 2^63 - 1, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        if not (isinstance(self.source, EprbModel) or self.source == "singlet"):
            raise WeakChError(f"source must be 'singlet' or an EprbModel, got {self.source!r}")
        try:
            theta = tuple(real_number("an angle", t) for t in self.theta)
        except TypeError:  # theta not iterable
            raise WeakChError("theta must hold exactly four finite angles") from None
        if len(theta) != 4 or not all(map(math.isfinite, theta)):
            raise WeakChError(f"theta must hold exactly four finite angles, got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "setting_probs", setting_law(self.setting_probs))


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Event counts per (setting pair, outcome pair); counts sum to n.

    setting_probs is the 2x2 setting law the runs were drawn from.
    """

    counts: np.ndarray
    n: int
    setting_probs: np.ndarray


# Distinct direction sets whose singlet outcome law is kept: a run uses a
# few, and each entry is one 4x4 array.
SINGLET_LAW_MEMO = 64


@functools.lru_cache(maxsize=SINGLET_LAW_MEMO)
def _singlet_law(angles: bytes) -> np.ndarray:
    """The singlet's read-only 4x4 outcome law at the four directions packed in angles.

    Keyed on the angles' bytes, so that only bit-identical directions
    share a law: 0.0 and -0.0 do not.
    """
    theta = struct.unpack("4d", angles)
    return singlet._freeze(singlet.outcome_tables(theta[:2], theta[2:]).reshape(4, 4))


def sample_runs(cfg: SimConfig) -> CountsTable:
    """Draw cfg.n independent runs; deterministic for a given seed.

    Each run picks a setting pair from cfg.setting_probs and then an
    outcome pair from the source's conditional table. The counts are drawn
    as exact multinomials from np.random.default_rng(cfg.seed): the pair
    counts first, then the outcome counts of each pair with runs, in pair
    order. That realizes the same law as run-by-run sampling.
    """
    # row a * 2 + b: the outcome law at settings (a, b)
    if isinstance(cfg.source, EprbModel):
        outcome_probs = cfg.source.outcome_tables().reshape(4, 4)
    else:
        outcome_probs = _singlet_law(struct.pack("4d", *cfg.theta))
    out = np.zeros((4, 4), dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    for pair, cnt in enumerate(rng.multinomial(cfg.n, cfg.setting_probs.ravel()).tolist()):
        if cnt:
            out[pair] = rng.multinomial(cnt, outcome_probs[pair])
    return CountsTable(counts=out.reshape(2, 2, 2, 2), n=cfg.n, setting_probs=cfg.setting_probs)


@dataclass(frozen=True, eq=False)
class Estimates:
    """Relative frequencies with Wald standard errors; NaN marks no data.

    joint[a, b] is the outcome table given settings (a, b); plus[wing, s]
    is p(+ | own setting s) on wing 0 (Alice) or 1 (Bob), pooled over the
    far setting.
    """

    joint: np.ndarray
    joint_se: np.ndarray
    plus: np.ndarray
    plus_se: np.ndarray
    pair_counts: np.ndarray
    undefined: tuple[str, ...]
    setting_probs: np.ndarray


def _tally_rows() -> np.ndarray:
    """The rows that estimate multiplies a record's 16 counts, in (a, b, A, B) order, by.

    The first 20 rows give the 16 joint counts and the 4 single-wing "+"
    counts in (wing, own setting) order; the last 20 give the runs that
    condition each of those: its setting pair's, then its own setting's.
    Written by slice assignment: ufuncs that nothing else here calls
    would page in numpy code that adds over half a megabyte to a process's peak RSS.
    """
    t = np.zeros((40, 16), dtype=np.int64)
    t[:16].reshape(-1)[::17] = 1  # each joint count itself
    cell = t.reshape(40, 2, 2, 2, 2)  # [row, a, b, A, B]
    cell[16, 0, :, 0] = cell[17, 1, :, 0] = cell[18, :, 0, :, 0] = cell[19, :, 1, :, 0] = 1  # "+" at an own setting
    pair = t[20:36].reshape(2, 2, 4, 2, 2, 4)  # [a, b, outcome pair] of the row, then of the count
    pair[0, 0, :, 0, 0] = pair[0, 1, :, 0, 1] = pair[1, 0, :, 1, 0] = pair[1, 1, :, 1, 1] = 1
    cell[36, 0] = cell[37, 1] = cell[38, :, 0] = cell[39, :, 1] = 1  # runs at an own setting
    return t


_TALLY = _tally_rows()


def estimate(table: CountsTable) -> Estimates:
    """Conditional frequencies and standard errors from a counts table.

    Joint outcome probabilities condition on their setting pair; the
    single-wing estimates pool over the far setting. Unobserved
    conditioners produce NaN entries listed in undefined. Wald intervals
    are adequate away from degenerate probabilities; near 0 or 1 (aligned
    directions) they collapse to zero width.
    """
    tally = np.dot(_TALLY, table.counts.ravel())
    hits, runs = tally[:20], tally[20:]
    m = runs.tolist()
    undefined = []
    if 0 in m:  # an empty conditioner: its 0/0 is the NaN that marks it
        undefined = [f"pair {a + 1}{b + 3}" for a in (0, 1) for b in (0, 1) if not m[8 * a + 4 * b]]
        undefined += [
            f"{('alice', 'bob')[w]} setting {2 * w + s + 1}" for w in (0, 1) for s in (0, 1) if not m[16 + 2 * w + s]
        ]
        with np.errstate(invalid="ignore"):
            freq = hits / runs
    else:
        freq = hits / runs
    se = np.sqrt(freq * (1.0 - freq) / runs)
    return Estimates(
        joint=freq[:16].reshape(2, 2, 2, 2),
        joint_se=se[:16].reshape(2, 2, 2, 2),
        plus=freq[16:].reshape(2, 2),
        plus_se=se[16:].reshape(2, 2),
        pair_counts=runs[:16:4].reshape(2, 2),
        undefined=tuple(undefined),
        setting_probs=table.setting_probs,
    )


@dataclass(frozen=True, eq=False)
class SampleTest:
    """Finite-sample inequality decision with its margins in sigma units.

    Error propagation treats the six terms as independent; the joint terms
    come from disjoint setting-pair subsamples, and the overlap between the
    two pooled marginals and the joints is conservatively ignored.
    """

    value: float
    se: float
    lower: float
    upper: float
    epsilon: float
    k_sigma: float
    violated_lower: bool
    violated_upper: bool
    margin_lower: float
    margin_upper: float
    terms: dict
    term_ses: dict


def test_inequality(est: Estimates, epsilon: float, k_sigma: float = 3.0) -> SampleTest:
    """Check the estimated combination against the corrected interval.

    The interval uses the setting law the runs were drawn from. A
    violation is declared only when the bound is exceeded by more than
    k_sigma propagated standard errors. Margins report the signed distance
    past each bound in sigma units. epsilon is read as weak_ch_bounds reads
    it, and k_sigma must be a finite, positive real number: a bool or a
    string is refused, as elsewhere.
    """
    k_sigma = real_number("k_sigma", k_sigma)
    if not (0.0 < k_sigma < math.inf):
        raise WeakChError(f"k_sigma must be finite and positive, got {k_sigma}")
    terms = ch_table_terms(est.joint, est.plus)
    ses = ch_table_terms(est.joint_se, est.plus_se)
    bad = [k for k, v in terms.items() if math.isnan(v)]
    if bad:
        raise UndefinedEstimate(f"missing observations for {', '.join(bad)}")

    value = ch_expression(terms)
    se = math.sqrt(left_sum(s * s for s in ses.values()))
    settings = pair_settings(est.setting_probs)
    epsilon = deficit(epsilon)
    lower, upper = weak_ch_bounds(epsilon, settings)

    if se == 0.0:
        margin_lower = math.copysign(math.inf, lower - value) if lower != value else 0.0
        margin_upper = math.copysign(math.inf, value - upper) if value != upper else 0.0
    else:
        margin_lower = (lower - value) / se
        margin_upper = (value - upper) / se
    return SampleTest(
        value=value,
        se=se,
        lower=lower,
        upper=upper,
        epsilon=epsilon,
        k_sigma=k_sigma,
        violated_lower=value < lower - k_sigma * se,
        violated_upper=value > upper + k_sigma * se,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        terms=terms,
        term_ses=ses,
    )

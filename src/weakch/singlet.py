"""Singlet-state predictions for a two-wing spin measurement.

For two spin-1/2 particles in the singlet state measured along directions
separated by an angle phi, the joint outcome probabilities are

    p(+,+) = p(-,-) = sin^2(phi/2) / 2
    p(+,-) = p(-,+) = cos^2(phi/2) / 2

and each single-wing outcome is unbiased, p(+) = p(-) = 1/2, independent of
either direction. This module evaluates those predictions, builds the
anticorrelation-deficit profile of outcome tables (how far the best
available correlations are from perfect), and computes the six-term CH
combination on four directions.

Angle convention: radians, canonicalized to [0, 2*pi). All formulas are
2*pi-periodic and even in the angle, so canonicalization preserves values
while keeping golden outputs byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Sequence

from .inequalities import ch_expression, real_numbers

if TYPE_CHECKING:  # numpy is imported by the functions that build arrays
    import numpy as np

TAU = 2.0 * math.pi

Sign = Literal["+", "-"]
OUTCOMES: tuple[Sign, Sign] = ("+", "-")


def canonical_angle(value: float) -> float:
    """Reduce an angle in radians to the canonical range [0, 2*pi); ValueError names a non-finite one."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {value!r}")
    r = math.fmod(value, TAU)
    if r <= 0.0:  # -0.0 too, which fmod gives for a negative multiple of 2*pi
        r += TAU
        if r == TAU:  # a tiny negative angle rounds up to 2*pi, which is 0 on the circle
            r = 0.0
    return r


def _check_sign(outcome: str) -> str:
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be '+' or '-', got {outcome!r}")
    return outcome


def _sign_prob(half: float, same: bool) -> float:
    # the joint probability of equal (same) or opposite signs at half the angle
    return 0.5 * (math.sin(half) if same else math.cos(half)) ** 2


def joint_prob(phi: float, a_out: Sign, b_out: Sign) -> float:
    """Joint outcome probability at inter-direction angle phi.

    sin^2(phi/2)/2 for equal signs, cos^2(phi/2)/2 for opposite signs.
    """
    if a_out not in OUTCOMES or b_out not in OUTCOMES:  # _check_sign names the bad one
        _check_sign(a_out)
        _check_sign(b_out)
    return _sign_prob(0.5 * canonical_angle(phi), a_out == b_out)


def marginal_prob(outcome: Sign) -> float:
    """Single-wing outcome probability; exactly 1/2 for either sign."""
    _check_sign(outcome)
    return 0.5


def outcome_tables(alice: Sequence[float], bob: Sequence[float]) -> np.ndarray:
    """Per-setting-pair joint outcome tables, shape (n_alice, n_bob, 2, 2).

    tables[i, j] is indexed [a_out, b_out] with 0 = '+' and holds
    joint_prob(alice[i] - bob[j], a_out, b_out).
    """
    import numpy as np

    rows = []
    for a in alice:
        row = []
        for b in bob:
            half = 0.5 * canonical_angle(a - b)
            s, c = _sign_prob(half, True), _sign_prob(half, False)
            row.append([[s, c], [c, s]])
        rows.append(row)
    # np.array reads an empty axis as the last one; the reshape puts it in its place
    return np.array(rows).reshape(len(alice), len(bob), 2, 2)


@dataclass(frozen=True, eq=False)
class EpsilonProfile:
    """Anticorrelation deficits of per-setting-pair outcome tables.

    eps_ab[i, j] is the deficit 1 - p(+_a | -_b) for Alice direction i and
    Bob direction j; eps_ba[i, j] the mirrored deficit 1 - p(+_b | -_a).
    Each direction keeps its per-direction minimum together with the index
    of the partner direction achieving it (ties broken toward the lowest
    index, an arbitrary but reproducible choice). eps_global is the largest
    of all per-direction minima.
    """

    eps_ab: np.ndarray
    eps_ba: np.ndarray
    eps_a: np.ndarray
    partner_a: np.ndarray
    eps_b: np.ndarray
    partner_b: np.ndarray
    eps_global: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def epsilon_profile(tables: np.ndarray) -> EpsilonProfile:
    """Deficit profile of outcome tables, shape (n_alice, n_bob, 2, 2).

    tables[i, j] is p(A, B | a_i, b_j) indexed [A, B] with 0 = '+', as
    outcome_tables and EprbModel.outcome_tables give it. eps_ab is
    1 - p(+_a | -_b) and eps_ba is 1 - p(+_b | -_a), a conditioner of zero
    mass counting as conditional 0; for the singlet, epsilon_profile(
    outcome_tables(alice, bob)) gives sin^2(phi/2). Raises ValueError on
    another shape, an empty axis, or a negative or non-finite entry.
    """
    import numpy as np

    t = np.asarray(tables, dtype=float)
    if t.ndim != 4 or t.shape[2:] != (2, 2) or t.size == 0:
        raise ValueError(f"outcome tables need shape (n_alice, n_bob, 2, 2), both counts >= 1, got {t.shape}")
    if not (np.isfinite(t).all() and t.min() >= 0.0):
        raise ValueError("outcome tables must be finite and nonnegative")
    # on nonnegative entries each conditional lies in [0, 1]
    denom_b_minus = t[:, :, 0, 1] + t[:, :, 1, 1]
    denom_a_minus = t[:, :, 1, 0] + t[:, :, 1, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        eps_ab = 1.0 - np.where(denom_b_minus > 0.0, t[:, :, 0, 1] / denom_b_minus, 0.0)
        eps_ba = 1.0 - np.where(denom_a_minus > 0.0, t[:, :, 1, 0] / denom_a_minus, 0.0)

    eps_a = eps_ab.min(axis=1)
    partner_a = eps_ab.argmin(axis=1)
    eps_b = eps_ba.min(axis=0)
    partner_b = eps_ba.argmin(axis=0)
    eps_global = float(max(eps_a.max(), eps_b.max()))
    return EpsilonProfile(
        eps_ab=_freeze(eps_ab),
        eps_ba=_freeze(eps_ba),
        eps_a=_freeze(eps_a),
        partner_a=_freeze(partner_a),
        eps_b=_freeze(eps_b),
        partner_b=_freeze(partner_b),
        eps_global=eps_global,
    )


def ch_terms(theta: Sequence[float]) -> dict[str, float]:
    """The six singlet probabilities entering the CH combination.

    theta holds the four absolute directions (1, 2 for Alice; 3, 4 for Bob),
    real numbers as real_numbers reads them; each joint term uses the
    inter-direction angle theta_i - theta_j.
    """
    t = real_numbers(theta)
    if len(t) != 4:
        raise ValueError("theta must hold exactly four angles")
    t1, t2, t3, t4 = t
    return {
        "p13": joint_prob(t1 - t3, "+", "+"),
        "p14": joint_prob(t1 - t4, "+", "+"),
        "p24": joint_prob(t2 - t4, "+", "+"),
        "p23": joint_prob(t2 - t3, "+", "+"),
        "p1_plus": marginal_prob("+"),
        "p4_plus": marginal_prob("+"),
    }


def ch_value(theta: Sequence[float]) -> float:
    """CH combination p13 + p14 + p24 - p23 - p(+|1) - p(+|4) for the singlet."""
    return ch_expression(ch_terms(theta))

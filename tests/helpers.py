"""Shared constructors for tests."""

import numpy as np

from weakch.common_cause import EprbModel


def _along(vec, axis, cards):
    shape = [1, 1, 1, 1]
    shape[axis] = len(vec)
    return np.asarray(vec, dtype=float).reshape(shape)


def build_product_model(sp, cause_joint, plus, attach=(0, 1, 2, 3)) -> EprbModel:
    """Joint model with settings independent of causes and per-direction kernels.

    plus[d] is the probability of outcome "+" for direction d as a function
    of the cause variable it reads; attach[d] picks that variable (defaults
    to each direction's own). Locality and setting independence hold
    identically for any inputs; screening holds when each kernel reads its
    own variable.
    """
    sp = np.asarray(sp, dtype=float)
    cause_joint = np.asarray(cause_joint, dtype=float)
    cards = cause_joint.shape
    w = np.zeros((2, 2, 2, 2, *cards))
    for a in (0, 1):
        ka = [np.asarray(plus[a], dtype=float), 1.0 - np.asarray(plus[a], dtype=float)]
        for b in (0, 1):
            kb = [np.asarray(plus[2 + b], dtype=float), 1.0 - np.asarray(plus[2 + b], dtype=float)]
            for oa in (0, 1):
                fa = _along(ka[oa], attach[a], cards)
                for ob in (0, 1):
                    fb = _along(kb[ob], attach[2 + b], cards)
                    w[a, b, oa, ob] = sp[a, b] * cause_joint * fa * fb
    return EprbModel(w, cards)


def uniform_settings() -> np.ndarray:
    return np.full((2, 2), 0.25)


def aligned_cause_joint(cards=(2, 2, 2, 2), p_pattern=0.5) -> np.ndarray:
    """All four cause variables equal a hidden fair pattern (first two values)."""
    joint = np.zeros(cards)
    joint[(0,) * 4] = p_pattern
    joint[(1,) * 4] = 1.0 - p_pattern
    return joint


def ch_from_weights(weights) -> float:
    """CH combination of a joint tensor (a, b, A, B, causes...), recomputed directly.

    Conditions each joint term on its setting pair and each single-wing
    term on its own setting, without going through EprbModel.
    """
    w = np.asarray(weights, dtype=float)
    joint = w.reshape(2, 2, 2, 2, -1).sum(axis=4)  # (a, b, A, B)
    pp = joint[:, :, 0, 0] / joint.sum(axis=(2, 3))
    p1 = joint[0, :, 0, :].sum() / joint[0].sum()
    p4 = joint[:, 1, :, 0].sum() / joint[:, 1].sum()
    return float(pp[0, 0] + pp[0, 1] + pp[1, 1] - pp[1, 0] - p1 - p4)

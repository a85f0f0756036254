"""Shared constructors and reference implementations for tests."""

import math
from types import SimpleNamespace

import numpy as np

from weakch import common_cause, search, singlet
from weakch.common_cause import (
    EprbModel,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from weakch.inequalities import BadEpsilon, BadSettingProbs, CorrectionTerms, SettingProbs


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


def reference_eprb_weights(seed, cause_cards=(2, 2, 2, 2), epsilon_target=1e-3, setting_probs=None) -> np.ndarray:
    """common_cause.random_eprb_model's weights, built with one einsum per (pattern, a, b) block.

    The same draws in the same order as the generator: one uniform draw per
    group and direction, eight in all per attempt, where the generator
    draws them at once. Each block is the product of the four per-cause
    factors in cause order, scaled by half the setting pair's probability.
    """
    rng = np.random.default_rng(seed)
    cards = common_cause.cause_cardinalities(cause_cards, 2)
    sp = common_cause.setting_law(setting_probs)
    splits = []
    for card in cards:
        g0_size = int(rng.integers(1, card))
        perm = rng.permutation(card)
        idx0 = np.sort(perm[:g0_size])
        idx1 = np.sort(perm[g0_size:])
        w0 = rng.dirichlet(np.full(idx0.size, 2.0))
        w1 = rng.dirichlet(np.full(idx1.size, 2.0))
        splits.append(((idx0, w0), (idx1, w1)))
    group_vecs = [[np.zeros(card) for card in cards] for _ in (0, 1)]  # [pattern][cause]
    for x, groups in enumerate(splits):
        for z, (idx, law) in enumerate(groups):
            group_vecs[z][x][idx] = law

    delta = 0.45 * epsilon_target
    for _ in range(6):
        kernels = []  # (outcome, cell) per direction
        for row in common_cause._WINGS:
            des_idx, des_w = splits[row.cause][row.wing]
            oth_idx, oth_w = splits[row.cause][1 - row.wing]
            vec = np.zeros(cards[row.cause])
            if delta == 0.0:
                vec[des_idx] = 1.0
            else:
                d_raw = rng.uniform(0.5, 1.0, des_idx.size) * delta
                e_raw = rng.uniform(0.5, 1.0, oth_idx.size) * delta
                md = float(np.dot(des_w, d_raw))
                me = float(np.dot(oth_w, e_raw))
                e_raw = e_raw * (md / me)
                vec[des_idx] = 1.0 - d_raw
                vec[oth_idx] = e_raw
            kernels.append(np.stack([vec, 1.0 - vec]))

        w = np.zeros((2, 2, 2, 2, *cards))
        for z in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    subs = ["i", "j", "k", "l"]
                    ops = list(group_vecs[z])
                    for k, o in ((a, "a"), (2 + b, "b")):
                        subs[k] = o + subs[k]
                        ops[k] = kernels[k] * ops[k]
                    w[a, b] += 0.5 * sp[a, b] * np.einsum(",".join(subs) + "->abijkl", *ops)

        model = EprbModel(w, cards)
        if model.profile().eps_global <= epsilon_target * (1.0 + 1e-9) + 1e-15:
            return model.weights
        delta *= 0.5
    raise common_cause.GenerationFailed("no attempt reached the target deficit")


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


def ordered_penalty(model: EprbModel) -> float:
    """The three validators' squared residuals summed in order: loc, no conspiracy, screening."""
    total = 0.0
    for rep in (
        validate_loc(model),
        validate_no_conspiracy(model),
        validate_screening(model),
    ):
        total += float(np.sum(np.square(rep.residuals))) if rep.residuals else 0.0
    return total


def _full_evaluation(w, cards, cfg) -> SimpleNamespace:
    model = EprbModel(w, cards)
    pen = ordered_penalty(model)
    weak = model.weak_report()
    v = weak.value
    strict_excess = max(-1.0 - v, v)
    weak_excess = max(weak.lower - v, v - weak.upper, 0.0)
    lo, hi = cfg.eps_band
    band_dist = max(lo - weak.epsilon, weak.epsilon - hi, 0.0)
    objective = strict_excess - search._PENALTY_WEIGHT * (
        pen + band_dist * band_dist + weak_excess * weak_excess
    )
    return SimpleNamespace(
        model=model, penalty=pen, epsilon=weak.epsilon, ch=v, weak=weak,
        strict_excess=strict_excess, objective=objective,
    )


def _reference_restart(cfg, restart: int) -> SimpleNamespace:
    rng = np.random.default_rng([cfg.seed, restart])
    cards = tuple(cfg.cause_cards)
    lo, hi = cfg.eps_band
    start = random_eprb_model(rng, cards, min(0.5 * (lo + hi), 0.1), setting_probs=np.full((2, 2), 0.25))
    cur = _full_evaluation(start.weights, cards, cfg)
    feasible = (
        all(
            validate(cur.model).max_abs <= common_cause.PRECONDITION_TOL
            for validate in (validate_loc, validate_no_conspiracy, validate_screening)
        )
        and lo - 1e-12 <= cur.epsilon <= hi + 1e-12
        and cur.strict_excess > 1e-12
        and not cur.weak.violated
    )
    return SimpleNamespace(
        model=cur.model,
        restart_index=restart,
        objective=cur.objective,
        penalty=cur.penalty,
        epsilon=cur.epsilon,
        ch_value=cur.ch,
        weak_report=cur.weak,
        feasible=feasible,
    )


def reference_search(cfg) -> SimpleNamespace:
    """The counterexample search written out: each restart's start model, evaluated in full.

    Each restart generates its model from the stream keyed by (seed,
    restart index) and runs all three validators and the weak report on
    it; the best objective wins, the lowest restart index breaking ties.
    A feasible winner is returned without the search's re-validation step.
    """
    results = [_reference_restart(cfg, r) for r in range(cfg.restarts)]
    return max(results, key=lambda res: (res.objective, -res.restart_index))


def count_labels(monkeypatch) -> list:
    """The keys of every validator label formatted from now on, in order.

    The validators look their formatters up in common_cause when they run,
    so a report made after this call formats through a counter.
    """
    formatted = []
    for name in ("_loc_label", "_no_conspiracy_label", "_screening_label"):
        label = getattr(common_cause, name)
        monkeypatch.setattr(common_cause, name, lambda key, _label=label: formatted.append(key) or _label(key))
    return formatted


def reference_correction_terms(epsilon, sp: SettingProbs) -> CorrectionTerms:
    """correction_terms written out term by term, with epsilon read by float()."""
    eps = float(epsilon)
    if not (0.0 <= eps <= 1.0) or math.isnan(eps):
        raise BadEpsilon(f"epsilon must be in [0, 1], got {epsilon}")
    root = math.sqrt(eps)
    ratio = (sp.p_a + sp.p_b) / sp.p_ab
    return CorrectionTerms(
        epsilon=eps,
        d_minus_ab=ratio * root,
        d_plus_ab=ratio * (5.0 * root - 2.0 * eps),
        d_minus=root,
        d_plus=4.0 * root - 2.0 * eps,
    )


def reference_weak_ch_bounds(epsilon, settings) -> tuple[float, float]:
    """weak_ch_bounds summed from one CorrectionTerms per pair.

    Each pair's terms read epsilon again, so a bad epsilon is refused at
    the first pair and an empty settings tuple only for its length.
    """
    if isinstance(settings, SettingProbs):
        cts = [reference_correction_terms(epsilon, settings)] * 4
    else:
        cts = [reference_correction_terms(epsilon, sp) for sp in settings]
        if len(cts) != 4:
            raise BadSettingProbs("need one SettingProbs or four, one per pair")
    ct13, ct14, ct24, ct23 = cts
    lower = -1.0 - ct13.d_minus_ab - ct14.d_minus_ab - ct24.d_minus_ab - ct23.d_plus_ab - 2.0 * ct13.d_plus
    upper = ct13.d_plus_ab + ct14.d_plus_ab + ct24.d_plus_ab + ct23.d_minus_ab + 2.0 * ct13.d_minus
    return lower, upper


def reference_estimate(counts) -> SimpleNamespace:
    """simulate.estimate's frequencies, standard errors and labels, from axis sums of the counts."""
    pair_n = counts.sum(axis=(2, 3))
    own = np.array([counts.sum(axis=(1, 3)), counts.sum(axis=(0, 2))])  # (wing, own setting, own outcome)
    own_n = own.sum(axis=2)
    n = pair_n[:, :, None, None]
    with np.errstate(invalid="ignore"):
        joint = counts / n
        plus = own[:, :, 0] / own_n
    undefined = [f"pair {a + 1}{b + 3}" for a in (0, 1) for b in (0, 1) if not pair_n[a, b]]
    undefined += [f"{('alice', 'bob')[w]} setting {2 * w + s + 1}" for w in (0, 1) for s in (0, 1) if not own_n[w, s]]
    return SimpleNamespace(
        joint=joint,
        joint_se=np.sqrt(joint * (1.0 - joint) / n),
        plus=plus,
        plus_se=np.sqrt(plus * (1.0 - plus) / own_n),
        pair_counts=pair_n,
        undefined=tuple(undefined),
    )


def reference_outcome_tables(alice, bob) -> np.ndarray:
    """singlet.outcome_tables entry by entry from joint_prob, shape (len(alice), len(bob), 2, 2)."""
    t = np.zeros((len(alice), len(bob), 2, 2))
    for i, a in enumerate(alice):
        for j, b in enumerate(bob):
            for x, a_out in enumerate(singlet.OUTCOMES):
                for y, b_out in enumerate(singlet.OUTCOMES):
                    t[i, j, x, y] = singlet.joint_prob(a - b, a_out, b_out)
    return t


def same_array(got, want) -> bool:
    """Equal dtype, shape and bytes; a NaN equals a NaN of the same bits."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

"""Bit-identity of the full-model engines against a recorded fixture.

tests/golden/validators.json holds digests (the first 16 hex digits of a
sha256) of:
- for a fixed set of seeded models, each validator's labels, float.hex
  residuals and skipped list, the aggregate cause cells and the
  joint-cause report;
- for a grid of seeds, cause cards, deficits and setting laws, the weights
  random_eprb_model generates;
- estimate() on seeded count tables, some with empty setting pairs;
- no_signalling_residuals() on random outcome tables of 2 or 3 settings
  per wing;
- for seeded random_screened_model draws and hand-built pairwise models
  (zero-mass and empty cells, mid cells, broken screening, uneven
  marginals, shuffled atom order), the generated weights and labels,
  cell_stats, classify_cells, every CauseMassReport field, model_epsilon,
  the marginals, the screening cell lists and the error each check
  raises. Screening residuals are stored in full as float.hex strings;
- for 100 seeded searches (the CLI defaults, seven restarts at cards
  3,2,4,2, and two restarts at cards 2,2,2,2 and 4,4,4,4 in two deficit
  bands), the winning restart, feasibility, the float.hex of the
  objective, penalty, deficit, CH value and weak bounds, and a digest of
  the model's weights.
Everything must match exactly.
The models are exact generated ones (residuals at the rounding level, so
any change in summation order shows), perturbed weights, dense random
weights with zero-mass cause cells, and outcome kernels that read a
foreign cause. The first few validator cases are also stored in full, so
the file shows what each digest covers. After a change meant to alter any
of these, re-record with

    PYTHONPATH=src python tests/test_validator_fixture.py

and say in the change log what moved and why.
"""

import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import build_product_model
from weakch import common_cause
from weakch.common_cause import (
    EprbModel,
    GenerationFailed,
    _WINGS,
    _aggregate,
    _labelled_model,
    _loc_label,
    cell_stats,
    check_cause_mass_bounds,
    classify_cells,
    joint_cause_bounds_check,
    model_epsilon,
    pairwise_model_to_dict,
    random_eprb_model,
    random_screened_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from weakch.inequalities import no_signalling_residuals
from weakch.search import SearchConfig, search_counterexample
from weakch.simulate import CountsTable, estimate
from weakch.spaces import FiniteProbSpace, ResidualReport, WeakChError, prob

FIXTURE = Path(__file__).resolve().parent / "golden" / "validators.json"
CARDS = ((2, 2, 2, 2), (3, 2, 4, 2), (2, 3, 2, 3), (4, 4, 4, 4))
EPSILONS = (0.0, 1e-6, 1e-3, 0.1)
SETTING_LAWS = (None, ((0.4, 0.1), (0.1, 0.4)), ((0.1, 0.2), (0.3, 0.4)))
N_MODEL_SEEDS = 60
N_FULL = 5
N_PAIRWISE_DRAWS = 160


def _zero_cells(w, rng):
    # Three different causes each lose one cell: everywhere, under the
    # setting of its own direction, and inside one setting pair. Those are
    # the three kinds of skip in the validators.
    w = w.copy()
    everywhere, own_setting, in_pair = (int(k) for k in rng.permutation(4)[:3])
    sel = [slice(None)] * w.ndim
    sel[4 + everywhere] = int(rng.integers(w.shape[4 + everywhere]))
    w[tuple(sel)] = 0.0
    sel = [slice(None)] * w.ndim
    sel[own_setting // 2] = own_setting % 2
    sel[4 + own_setting] = int(rng.integers(w.shape[4 + own_setting]))
    w[tuple(sel)] = 0.0
    sel = [int(x) for x in rng.integers(2, size=2)] + [slice(None)] * (w.ndim - 2)
    sel[4 + in_pair] = int(rng.integers(w.shape[4 + in_pair]))
    w[tuple(sel)] = 0.0
    return w


def validator_models():
    """(description, weights, cause cards) of every validator case, in order."""
    out = []
    for seed in range(N_MODEL_SEEDS):
        rng = np.random.default_rng([7, seed])
        cards = CARDS[seed % len(CARDS)]
        sp = SETTING_LAWS[seed % len(SETTING_LAWS)]
        base = random_eprb_model(seed, cards, EPSILONS[1 + seed % 3], setting_probs=sp).weights
        noisy = base * rng.uniform(0.5, 1.5, base.shape)
        out.append((f"generated seed={seed}", base, cards))
        out.append((f"perturbed seed={seed}", noisy, cards))
        attach = tuple(int(x) for x in rng.integers(4, size=4))
        plus = [rng.uniform(0.0, 1.0, cards[attach[d]]) for d in range(4)]
        cause = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
        foreign = build_product_model(rng.dirichlet(np.ones(4)).reshape(2, 2), cause, plus, attach)
        out.append((f"foreign attach={attach} seed={seed}", foreign.weights, cards))
        dense = rng.dirichlet(np.ones(base.size)).reshape(base.shape)
        out.append((f"dirichlet seed={seed}", dense, cards))
        out.append((f"zero cells seed={seed}", _zero_cells(dense, rng), cards))
    return out


def _residual_record(rep):
    return {
        "labels": list(rep.labels),
        "residuals": [float(r).hex() for r in rep.residuals],
        "skipped": list(rep.skipped),
    }


def _clean(model) -> ResidualReport:
    return ResidualReport((), (), ())


def joint_report(model):
    """joint_cause_bounds_check with its precondition gate patched clean.

    The fixture records the bounds of every model, those that fail the
    validators included, so each validator the check looks up in
    common_cause reports no residual here.
    """
    gate = dict.fromkeys(("validate_loc", "validate_no_conspiracy", "validate_screening"), _clean)
    with mock.patch.multiple(common_cause, **gate):
        return joint_cause_bounds_check(model)


def validator_record(weights, cards) -> dict:
    model = EprbModel(weights, cards)
    prof = model.profile()
    aggregates = []
    for row in _WINGS:
        eps_dir = float((prof.eps_a, prof.eps_b)[row.wing][row.setting])
        cutoff = 1 - math.sqrt(eps_dir)
        aggregates.append([row.side, row.setting, list(_aggregate(model, row)), cutoff.hex(), eps_dir.hex()])
    joint = joint_report(model)
    return {
        "loc": _residual_record(validate_loc(model)),
        "no_conspiracy": _residual_record(validate_no_conspiracy(model)),
        "screening": _residual_record(validate_screening(model)),
        "aggregate": aggregates,
        "joint": {
            "epsilon": joint.epsilon.hex(),
            "alice_cells": [list(c) for c in joint.alice_cells],
            "bob_cells": [list(c) for c in joint.bob_cells],
            "pairs": [
                [p.pair, p.p_plus_plus.hex(), p.p_joint_cause.hex(), p.d_minus.hex(),
                 p.d_plus.hex(), p.lower_ok, p.upper_ok]
                for p in joint.pairs
            ],
        },
    }


def _digest(data) -> str:
    # 64 bits of sha256 tell any change apart and keep the fixture small
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def generator_digests() -> dict:
    out = {}
    for seed in range(8):
        for cards in CARDS:
            for eps in EPSILONS:
                for law, sp in enumerate(SETTING_LAWS):
                    key = f"seed={seed} cards={''.join(map(str, cards))} eps={eps!r} law={law}"
                    try:
                        w = random_eprb_model(seed, cards, eps, setting_probs=sp).weights
                    except GenerationFailed as exc:
                        out[key] = f"GenerationFailed: {exc}"
                        continue
                    out[key] = _digest(np.ascontiguousarray(w).tobytes())
    return out


def estimate_digests() -> list:
    rng = np.random.default_rng(11)
    out = []
    for _ in range(100):
        counts = rng.integers(0, 50, (2, 2, 2, 2)) * (rng.uniform(size=(2, 2, 1, 1)) > 0.2)
        if counts.sum() == 0:
            counts[0, 0, 0, 0] = 1
        est = estimate(CountsTable(counts, int(counts.sum()), np.full((2, 2), 0.25)))
        record = [
            [float(v).hex() for v in np.ravel(arr)]
            for arr in (est.joint, est.joint_se, est.plus[0], est.plus_se[0],
                        est.plus[1], est.plus_se[1], est.pair_counts)
        ]
        out.append(_digest([record, list(est.undefined)]))
    return out


def no_signalling_digests() -> list:
    rng = np.random.default_rng(13)
    out = []
    for n_a, n_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(10):
            t = rng.dirichlet(np.ones(4), size=(n_a, n_b)).reshape(n_a, n_b, 2, 2)
            out.append(_digest([float(r).hex() for r in no_signalling_residuals(t)]))
    return out


def _four_atom_cells(cells):
    # (mass, p(A|C), p(B|C)) per cell -> labelled product cells "c<i>:<AB>"
    atoms, weights, groups = [], [], []
    for i, (mass, q, r) in enumerate(cells):
        labels = [f"c{i}:{s}" for s in ("11", "10", "01", "00")]
        atoms += labels
        weights += [mass * q * r, mass * q * (1 - r), mass * (1 - q) * r, mass * (1 - q) * (1 - r)]
        groups.append(labels)
    a = [x for x in atoms if x.endswith(("11", "10"))]
    b = [x for x in atoms if x.endswith(("11", "01"))]
    return atoms, weights, a, b, groups


def _labelled(atoms, weights, a, b, cells):
    return _labelled_model(FiniteProbSpace(tuple(atoms), np.asarray(weights, dtype=float)), a, b, cells)


def _shuffled(model, rng):
    # the same model with its atoms listed in a random order
    d = pairwise_model_to_dict(model)
    order = rng.permutation(len(d["space"]["atoms"]))
    atoms = [d["space"]["atoms"][k] for k in order]
    weights = [d["space"]["weights"][k] for k in order]
    return _labelled(atoms, weights, d["A"], d["B"], d["partition"])


def pairwise_models():
    """(description, model) of every pairwise case, in order."""
    out = []
    rng = np.random.default_rng(17)
    for k in range(N_PAIRWISE_DRAWS):
        n_cells = 2 + k % 15
        eps = 0.0 if k % 10 == 0 else float(rng.uniform(0.0, 0.25))
        seed = int(rng.integers(2**31))
        out.append((f"draw seed={seed} n_cells={n_cells} eps={eps!r}", random_screened_model(seed, n_cells, eps)))
    for k in range(12):
        base = random_screened_model(100 + k, 3 + k, 0.02 * (k % 5))
        w = base.space.weights
        d = pairwise_model_to_dict(base)
        # relative noise 1e-13 keeps the preconditions, 0.3 breaks screening
        for tag, scale in (("jitter", 1e-13), ("perturbed", 0.3)):
            noisy = w * (1.0 + scale * rng.uniform(-1.0, 1.0, w.size))
            out.append((f"{tag} k={k}", _labelled(d["space"]["atoms"], noisy, d["A"], d["B"], d["partition"])))
        out.append((f"shuffled k={k}", _shuffled(base, rng)))
    for mid in (0.02, 0.1, 0.3):
        half = (1.0 - mid) / 2.0
        out.append((f"mid cell mass={mid}", _labelled(*_four_atom_cells([(half, 1.0, 1.0), (half, 0.0, 0.0), (mid, 0.5, 0.5)]))))
    for eps in (0.01, 0.1):
        q = 1.0 - eps
        out.append((f"lower edge eps={eps}", _labelled(*_four_atom_cells([(0.5 / q, q, q), (1.0 - 0.5 / q, 0.0, 0.0)]))))
    zero = (["a1", "a2", "z1", "z2"], [0.5, 0.5, 0.0, 0.0], ["a1"], ["a1"])
    out.append(("zero-mass cell", _labelled(*zero, [["a1"], ["a2"], ["z1", "z2"]])))
    out.append(("zero-mass and empty cells", _labelled(*zero, [[], ["a1"], ["z1"], ["a2"], ["z2"], []])))
    out.append(("uneven marginals", _labelled(["ab", "none"], [0.6, 0.4], ["ab"], ["ab"], [["ab"], ["none"]])))
    halves = ["ab", "aB", "Ab", "AB"]
    out.append(("independent halves", _labelled(halves, [0.25] * 4, ["ab", "aB"], ["ab", "Ab"], [halves])))
    out.append(("B empty", _labelled(["x", "y"], [0.5, 0.5], ["x"], [], [["x"], ["y"]])))
    space = FiniteProbSpace((0, 1, 2, 3), [0.1, 0.2, 0.3, 0.4])
    out.append(("integer atoms", _labelled_model(space, [0, 1], [1, 2], [[0, 3], [1], [2]])))
    for k in range(10):
        n = int(rng.integers(2, 12))
        atoms = [f"x{i}" for i in rng.permutation(3 * n)]
        weights = rng.dirichlet(np.ones(3 * n)) * (rng.uniform(size=3 * n) > 0.2)
        weights[0] += 0.01
        cell = rng.integers(n, size=3 * n)
        cells = [[a for a, c in zip(atoms, cell) if c == i] for i in range(n)]
        a = [x for x in atoms if rng.uniform() < 0.5]
        b = [x for x in atoms if rng.uniform() < 0.5]
        out.append((f"dense k={k}", _labelled(atoms, weights, a, b, cells)))
    return out


def _attempt(f):
    try:
        return f()
    except WeakChError as exc:
        return type(exc).__name__


def _report_record(rep):
    fields = {}
    for name, value in vars(rep).items():
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = {k: v.hex() for k, v in value.items()}
        fields[name] = value
    return fields


def pairwise_record(model) -> dict:
    d = pairwise_model_to_dict(model)
    weights = np.ascontiguousarray(model.space.weights)
    stats = cell_stats(model)
    return {
        "weights": _digest(weights.tobytes()),
        "labels": {k: d[k] for k in ("A", "B", "partition")} | {"atoms": d["space"]["atoms"]},
        "cell_stats": {
            "index": list(stats.index),
            "mass": [float(x).hex() for x in stats.mass],
            "cond_a": [float(x).hex() for x in stats.cond_a],
            "cond_b": [float(x).hex() for x in stats.cond_b],
            "skipped": list(stats.skipped),
        },
        "classes": _attempt(lambda: _report_record(classify_cells(model))),
        "report": _attempt(lambda: _report_record(check_cause_mass_bounds(model))),
        "report_borders": _attempt(
            lambda: _report_record(check_cause_mass_bounds(model, border=0.05, gap_border=0.01))
        ),
        "epsilon": _attempt(lambda: model_epsilon(model).hex()),
        "marginals": [prob(model.space, d[k]).hex() for k in ("A", "B")],
        "screening": {"cell_indices": list(stats.index), "skipped_cells": list(stats.skipped)},
    }


def pairwise_cases() -> list:
    cases = []
    for k, (desc, model) in enumerate(pairwise_models()):
        rec = pairwise_record(model)
        entry = {"case": desc, **{part: _digest(v) for part, v in rec.items()}}
        entry["residuals"] = [r.hex() for r in cell_stats(model).residuals]
        if k < N_FULL:
            entry["full"] = rec
        cases.append(entry)
    return cases


def search_configs() -> list[SearchConfig]:
    """The fixture's searches, in order."""
    return [
        *(SearchConfig(seed=seed) for seed in range(40)),
        *(SearchConfig(seed=seed, restarts=7, cause_cards=(3, 2, 4, 2)) for seed in range(20)),
        *(
            SearchConfig(seed=seed, restarts=2, cause_cards=cards, eps_band=band)
            for cards in ((2, 2, 2, 2), (4, 4, 4, 4))
            for band in ((1e-6, 1e-3), (1e-5, 3e-5))
            for seed in range(10)
        ),
    ]


def search_digests() -> list:
    out = []
    for cfg in search_configs():
        res = search_counterexample(cfg)
        weak = res.weak_report
        out.append({
            "case": f"seed={cfg.seed} restarts={cfg.restarts} cards={''.join(map(str, cfg.cause_cards))} band={cfg.eps_band!r}",
            "restart_index": res.restart_index,
            "feasible": res.feasible,
            **{name: float(getattr(res, name)).hex() for name in ("objective", "penalty", "epsilon", "ch_value")},
            "weak": [weak.value.hex(), weak.lower.hex(), weak.upper.hex()],
            "weights": _digest(np.ascontiguousarray(res.model.weights).tobytes()),
        })
    return out


def record() -> dict:
    cases = []
    for k, (desc, weights, cards) in enumerate(validator_models()):
        rec = validator_record(weights, cards)
        entry = {"case": desc, **{part: _digest(v) for part, v in rec.items()}}
        if k < N_FULL:
            entry["full"] = rec
        cases.append(entry)
    return {
        "validators": cases,
        "generator": generator_digests(),
        "estimate": estimate_digests(),
        "no_signalling": no_signalling_digests(),
        "pairwise": pairwise_cases(),
        "search": search_digests(),
    }


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def test_validators_match_the_fixture(fixture):
    expected = fixture["validators"]
    models = validator_models()
    assert len(models) == len(expected)
    for (desc, weights, cards), want in zip(models, expected):
        assert desc == want["case"]
        rec = validator_record(weights, cards)
        if "full" in want:
            assert rec == want["full"], desc
        for part, value in rec.items():
            assert _digest(value) == want[part], f"{desc}: {part}"


def test_fixture_cases_exercise_every_branch():
    # skips in locality and screening, residuals far from zero, and
    # nonempty aggregates must all occur, or the digests prove little
    recs = [validator_record(w, c) for _, w, c in validator_models()[:40]]
    assert any(r["loc"]["skipped"] for r in recs)
    assert any(r["screening"]["skipped"] for r in recs)
    assert any(any(abs(float.fromhex(x)) > 0.01 for x in r["screening"]["residuals"]) for r in recs)
    assert any(any(a[2] for a in r["aggregate"]) for r in recs)


def test_generated_weights_match_the_fixture(fixture):
    assert generator_digests() == fixture["generator"]


def test_estimates_match_the_fixture(fixture):
    assert estimate_digests() == fixture["estimate"]


def test_no_signalling_residuals_match_the_fixture(fixture):
    assert no_signalling_digests() == fixture["no_signalling"]


def test_pairwise_engine_matches_the_fixture(fixture):
    expected = fixture["pairwise"]
    models = pairwise_models()
    assert len(models) == len(expected)
    for (desc, model), want in zip(models, expected):
        assert desc == want["case"]
        rec = pairwise_record(model)
        if "full" in want:
            assert rec == want["full"], desc
        for part, value in rec.items():
            assert _digest(value) == want[part], f"{desc}: {part}"
        assert [r.hex() for r in cell_stats(model).residuals] == want["residuals"], desc


def test_searches_match_the_fixture(fixture):
    assert search_digests() == fixture["search"]


def test_pairwise_fixture_cases_exercise_every_branch():
    # mid, skipped and empty cells, a failed precondition, a zero
    # conditioner and passing reports must all occur
    recs = {desc: pairwise_record(m) for desc, m in pairwise_models()}
    reports = [r["report"] for r in recs.values()]
    assert any(isinstance(r, dict) and r["mid_cells"] for r in reports)
    assert any(isinstance(r, dict) and r["lower_ok"] and r["upper_ok"] for r in reports)
    assert "PreconditionViolated" in reports
    assert any(r["epsilon"] == "ZeroConditioner" for r in recs.values())
    assert any(r["cell_stats"]["skipped"] for r in recs.values())
    assert recs["zero-mass and empty cells"]["screening"]["skipped_cells"] == [0, 2, 4, 5]


@pytest.mark.parametrize("cards", CARDS)
def test_locality_residuals_are_differences_of_conditionals(cards):
    # Per model, each residual is p(out | own, far, cell) - p(out | own, cell),
    # summed here from the weights one cell at a time, and each skip is a
    # cell, or a cell at one far setting, of no conditioning mass. The
    # fixture's models include zero-mass cells and far settings, so both
    # kinds of skip occur.
    kinds = set()
    for _, w, c in validator_models():
        if c != cards:
            continue
        m = EprbModel(w, c)
        keys, want, skipped = [], [], []
        for r, row in enumerate(_WINGS):
            s = np.moveaxis(m.weights[row.index], (0, 1 + row.wing, 3 + row.cause), (0, 1, 2))  # far, out, cell, ...
            for i in range(c[row.cause]):
                cell = s[:, :, i].reshape(2, 2, -1).sum(axis=-1)  # (far, out)
                if cell.sum() == 0.0:
                    skipped.append((r, i))
                    continue
                for f in (0, 1):
                    if cell[f].sum() == 0.0:
                        skipped.append((r, i, f))
                        continue
                    for o in (0, 1):
                        keys.append((r, i, f, o))
                        want.append(cell[f, o] / cell[f].sum() - cell[:, o].sum() / cell.sum())
        rep = validate_loc(m)
        # _loc_label tells its keys apart, so equal labels are equal keys
        assert (rep.labels, rep.skipped) == (tuple(map(_loc_label, keys)), tuple(map(_loc_label, skipped)))
        assert rep.residuals == pytest.approx(want, rel=0, abs=1e-12)
        kinds.update(map(len, skipped))
    assert kinds == {2, 3}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

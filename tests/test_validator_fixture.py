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
  per wing.
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
from pathlib import Path

import numpy as np
import pytest

from helpers import build_product_model
from weakch.common_cause import (
    EprbModel,
    GenerationFailed,
    _aggregate,
    _joint_cause_bounds,
    random_eprb_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from weakch.inequalities import no_signalling_residuals
from weakch.simulate import CountsTable, estimate

FIXTURE = Path(__file__).resolve().parent / "golden" / "validators.json"
CARDS = ((2, 2, 2, 2), (3, 2, 4, 2), (2, 3, 2, 3), (4, 4, 4, 4))
EPSILONS = (0.0, 1e-6, 1e-3, 0.1)
SETTING_LAWS = (None, ((0.4, 0.1), (0.1, 0.4)), ((0.1, 0.2), (0.3, 0.4)))
N_MODEL_SEEDS = 60
N_FULL = 5


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


def validator_record(weights, cards) -> dict:
    model = EprbModel(weights, cards)
    prof = model.profile()
    aggregates = []
    for side in ("alice", "bob"):
        for d in (0, 1):
            agg = _aggregate(model, side, d, prof)
            aggregates.append([side, d, list(agg.cells), agg.cutoff.hex(), agg.epsilon_dir.hex()])
    joint = _joint_cause_bounds(model, model.outcome_tables(), prof)
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
            for arr in (est.joint, est.joint_se, est.alice_plus, est.alice_plus_se,
                        est.bob_plus, est.bob_plus_se, est.pair_counts)
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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import weakch.simulate as sim
from helpers import reference_sample_runs
from weakch.cli import main
from weakch.common_cause import (
    EprbModel,
    model_from_dict,
    pairwise_model_to_dict,
    random_eprb_model,
    random_screened_model,
)
from weakch.inequalities import TSIRELSON_LOWER
from weakch.spaces import WeakChError

LOWER_ANGLES = (0.0, -math.pi / 2, math.pi / 4, -math.pi / 4)


def test_single_run_counts():
    table = sim.sample_runs(sim.SimConfig(seed=0, n=1, theta=LOWER_ANGLES))
    assert table.counts.sum() == 1
    assert table.n == 1


def test_aligned_directions_never_coincide_plus_plus():
    # every pair at angle zero: the equal-sign outcomes have probability zero
    table = sim.sample_runs(sim.SimConfig(seed=4, n=20000, theta=(0.0, 0.0, 0.0, 0.0)))
    assert table.counts[:, :, 0, 0].sum() == 0
    assert table.counts[:, :, 1, 1].sum() == 0


def test_sampling_is_deterministic():
    cfg = sim.SimConfig(seed=9, n=123457, theta=LOWER_ANGLES)
    a = sim.sample_runs(cfg)
    b = sim.sample_runs(cfg)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("n", [sim._CHUNK - 1, sim._CHUNK, sim._CHUNK + 3])
def test_sampling_across_chunk_boundaries(n):
    table = sim.sample_runs(sim.SimConfig(seed=8, n=n, theta=LOWER_ANGLES))
    assert int(table.counts.sum()) == n


def test_pair_frequencies_sum_exactly_to_one():
    table = sim.sample_runs(sim.SimConfig(seed=2, n=5000, theta=LOWER_ANGLES))
    for a in (0, 1):
        for b in (0, 1):
            n_pair = int(table.counts[a, b].sum())
            total = sum(Fraction(int(k), n_pair) for k in table.counts[a, b].ravel())
            assert total == 1


def test_config_validation():
    with pytest.raises(WeakChError):
        sim.SimConfig(seed=1, n=0)
    with pytest.raises(WeakChError):
        sim.SimConfig(seed=1, n=10, theta=(0.0, 0.0, 0.0))
    with pytest.raises(WeakChError):
        sim.SimConfig(seed=1, n=10, setting_probs=np.full((2, 2), 0.3))


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.5), ("n", 3.0), ("n", True), ("n", "10"), ("n", np.float64(5.0)), ("n", np.True_),
     ("seed", 1.5), ("seed", False), ("seed", None)],
)
def test_config_rejects_non_integers(field, value):
    kwargs = {"seed": 1, "n": 10, field: value}
    with pytest.raises(WeakChError, match=f"{field} must be an integer"):
        sim.SimConfig(**kwargs)


def test_config_stores_python_ints():
    cfg = sim.SimConfig(seed=np.uint32(3), n=np.int64(70000))
    assert type(cfg.seed) is int and type(cfg.n) is int
    table = sim.sample_runs(cfg)
    assert type(table.n) is int
    assert int(table.counts.sum()) == table.n == 70000


# seeds of one to four 32-bit words (with the chunk index, up to five entropy words for
# a pool of four); chunk indices on both sides of a block edge
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7, 2**96 + 5])
@pytest.mark.parametrize("first", [0, 1 << 16, sim._STATE_BLOCK - 2])
def test_chunk_states_are_numpys(seed, first):
    states = list(sim._chunk_states(seed, first + 4))
    assert len(states) == first + 4
    for k in (0, 1, first, first + 1, first + 2, first + 3):
        expected = np.random.default_rng([seed, k]).bit_generator.state["state"]
        assert states[k] == (expected["state"], expected["inc"])


@pytest.mark.parametrize("seed", [5, 2**32, 2**64 + 7])
def test_chunk_states_at_two_word_chunk_indices(seed):
    # chunk indices from 2^32 on are two entropy words. A zero word padding the entropy to
    # at most four words hashes like the pool's own padding, so only the three-word seed
    # tells a spurious high word at 2^32 - 1 apart.
    for k in (2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1):
        expected = np.random.default_rng([seed, k]).bit_generator.state["state"]
        assert list(sim._block_states(seed, k, k + 1)) == [(expected["state"], expected["inc"])]


def test_chunk_states_come_in_bounded_blocks(monkeypatch):
    blocks = []
    block_states = sim._block_states
    def recording(seed, start, stop):
        blocks.append((start, stop))
        return block_states(seed, start, stop)
    monkeypatch.setattr(sim, "_block_states", recording)
    monkeypatch.setattr(sim, "_STATE_BLOCK", 3)
    assert len(list(sim._chunk_states(4, 8))) == 8
    assert blocks == [(0, 3), (3, 6), (6, 8)]
    # a block stops at chunk 2^32, where chunk indices become two words
    blocks.clear()
    monkeypatch.setattr(sim, "_block_states", lambda seed, start, stop: blocks.append((start, stop)) or ())
    monkeypatch.setattr(sim, "_STATE_BLOCK", 2**31 + 1)
    list(sim._chunk_states(4, 2**32 + 5))
    assert blocks == [(0, 2**31 + 1), (2**31 + 1, 2**32), (2**32, 2**32 + 5)]


def _assert_reference_counts(cfg):
    table = sim.sample_runs(cfg)
    expected = reference_sample_runs(cfg)
    assert table.counts.dtype == expected.counts.dtype
    assert np.array_equal(table.counts, expected.counts)
    assert table.n == expected.n == cfg.n


@pytest.mark.parametrize("n", [1, sim._CHUNK - 1, sim._CHUNK, sim._CHUNK + 3])
def test_counts_match_a_per_chunk_default_rng(n):
    _assert_reference_counts(sim.SimConfig(seed=8, n=n, theta=LOWER_ANGLES))


def test_counts_match_across_state_blocks(monkeypatch):
    monkeypatch.setattr(sim, "_STATE_BLOCK", 2)
    # chunks 0-1, 2-3 and 4: two block edges, the last chunk partial
    _assert_reference_counts(sim.SimConfig(seed=2**40 + 1, n=4 * sim._CHUNK + 17, theta=LOWER_ANGLES))


@pytest.mark.parametrize(
    "setting_probs",
    [None, [[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.0], [0.25, 0.25]]],
    ids=["uniform", "uneven", "zero pair"],
)
def test_counts_match_for_each_source_and_setting_law(setting_probs):
    model = random_eprb_model(15, (2, 2, 2, 2), 0.0)
    for source in ("singlet", model):
        _assert_reference_counts(sim.SimConfig(
            seed=11, n=3 * sim._CHUNK + 5, theta=LOWER_ANGLES, setting_probs=setting_probs, source=source
        ))


def test_wald_reference_case():
    # 3 of 12: estimate 0.25, standard error 0.125, for a joint cell (3 of
    # the 12 runs of pair 13 at ++) and a marginal (Bob + in 3 of the 12
    # runs at setting 4, all of them in pair 24)
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    counts[0, 0] = [[3, 3], [3, 3]]
    counts[1, 1] = [[1, 2], [2, 7]]
    est = sim.estimate(sim.CountsTable(counts, int(counts.sum()), np.full((2, 2), 0.25)))
    assert (est.joint[0, 0, 0, 0], est.joint_se[0, 0, 0, 0]) == (0.25, 0.125)
    assert (est.plus[1, 1], est.plus_se[1, 1]) == (0.25, 0.125)


def test_degenerate_estimate_has_zero_se():
    table = sim.sample_runs(sim.SimConfig(seed=4, n=4000, theta=(0.0, 0.0, 0.0, 0.0)))
    est = sim.estimate(table)
    # opposite-sign outcomes exhaust each pair: p(+-) + p(-+) = 1
    for a in (0, 1):
        for b in (0, 1):
            assert est.joint[a, b, 0, 0] == 0.0
            assert est.joint_se[a, b, 0, 0] == 0.0


def test_empty_pair_is_flagged_undefined():
    sp = np.array([[0.5, 0.5], [0.0, 0.0]])
    table = sim.sample_runs(sim.SimConfig(seed=1, n=500, theta=LOWER_ANGLES, setting_probs=sp))
    est = sim.estimate(table)
    assert any("pair 23" in u for u in est.undefined)
    assert math.isnan(est.joint[1, 0, 0, 0])
    with pytest.raises(sim.UndefinedEstimate):
        sim.test_inequality(est, 0.0)


def test_large_run_declares_violation():
    cfg = sim.SimConfig(seed=1, n=10**6, theta=LOWER_ANGLES)
    rep = sim.test_inequality(sim.estimate(sim.sample_runs(cfg)), 0.0, 3.0)
    assert rep.violated_lower
    assert abs(rep.value - TSIRELSON_LOWER) <= 4 * rep.se
    assert rep.margin_lower > 3.0


def test_small_run_declares_nothing():
    for seed in (1, 3):
        cfg = sim.SimConfig(seed=seed, n=100, theta=LOWER_ANGLES)
        rep = sim.test_inequality(sim.estimate(sim.sample_runs(cfg)), 0.0, 3.0)
        assert not rep.violated_lower
        assert math.isfinite(rep.margin_lower)


def test_moderate_deficit_forbids_lower_violation():
    # at eps = 1e-3 the lower correction is about 1.25, far beyond the
    # quantum excess, so no sample can be declared violating
    cfg = sim.SimConfig(seed=6, n=200000, theta=LOWER_ANGLES)
    rep = sim.test_inequality(sim.estimate(sim.sample_runs(cfg)), 1e-3, 3.0)
    assert rep.lower < -2.2
    assert not rep.violated_lower


def test_error_shrinks_with_sample_size():
    errs = []
    for k, n in enumerate((10**3, 10**4, 10**5, 10**6)):
        cfg = sim.SimConfig(seed=1 + k, n=n, theta=LOWER_ANGLES)
        rep = sim.test_inequality(sim.estimate(sim.sample_runs(cfg)), 0.0, 3.0)
        errs.append(abs(rep.value - TSIRELSON_LOWER))
        assert errs[-1] <= 4 * rep.se
    assert errs[-1] < errs[0]


def test_sampling_from_model_file(tmp_path):
    model = random_eprb_model(15, (2, 2, 2, 2), 0.0)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_dict()))
    cfg = sim.SimConfig(seed=3, n=5000, source=model_from_dict(json.loads(path.read_text())))
    table = sim.sample_runs(cfg)
    # perfect anticorrelation: equal-sign outcomes never occur
    assert table.counts[:, :, 0, 0].sum() == 0
    assert table.counts[:, :, 1, 1].sum() == 0


def test_bad_model_file(tmp_path, capsys):
    # simulate --model refuses a broken file and a pairwise model, exit 2
    path = tmp_path / "broken.json"
    path.write_text("{\"type\": \"eprb\"}")
    pairwise = tmp_path / "pairwise.json"
    pairwise.write_text(json.dumps(pairwise_model_to_dict(random_screened_model(2, 4, 0.01))))
    for bad, reason in ((path, "lacks the field"), (pairwise, "does not hold a full joint model")):
        assert main(["simulate", "--seed", "1", "--n", "10", "--model", str(bad)]) == 2
        assert reason in json.loads(capsys.readouterr().out)["error"]


def test_source_is_the_singlet_or_a_model_never_a_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(random_eprb_model(15, (2, 2, 2, 2), 0.0).to_dict()))
    for source in (str(path), "singlet.json", ""):
        with pytest.raises(WeakChError):
            sim.SimConfig(seed=1, n=10, source=source)


def _exact_estimates(joint_pp, p1_plus, p4_plus) -> sim.Estimates:
    # estimates without sampling error: every standard error is zero
    joint = np.zeros((2, 2, 2, 2))
    joint[:, :, 0, 0] = joint_pp
    return sim.Estimates(
        joint=joint, joint_se=np.zeros_like(joint),
        plus=np.array([[p1_plus, 0.5], [0.5, p4_plus]]), plus_se=np.zeros((2, 2)),
        pair_counts=np.full((2, 2), 100), undefined=(), setting_probs=np.full((2, 2), 0.25),
    )


@pytest.mark.parametrize("kind", ["generated", "dirichlet"])
def test_exact_estimates_give_the_weak_report(kind):
    # a model's own tables as estimates without sampling error: the sample
    # test and the exact report read the same six terms. The Dirichlet
    # model has uneven settings and single-wing probabilities.
    if kind == "generated":
        model = random_eprb_model(21, (3, 2, 4, 2), 5e-4, setting_probs=[[0.1, 0.2], [0.3, 0.4]])
    else:
        w = np.random.default_rng(22).dirichlet(np.ones(16 * 12)).reshape(2, 2, 2, 2, 3, 1, 2, 2)
        model = EprbModel(w, (3, 1, 2, 2))
    t = model.outcome_tables()
    est = sim.Estimates(
        joint=t, joint_se=np.zeros_like(t), plus=model.plus_probs(), plus_se=np.zeros((2, 2)),
        pair_counts=np.full((2, 2), 100), undefined=(), setting_probs=model.setting_probs(),
    )
    weak = model.weak_report()
    rep = sim.test_inequality(est, weak.epsilon)
    assert list(rep.terms.items()) == list(weak.terms.items())
    assert (rep.value, rep.lower, rep.upper, rep.se) == (weak.value, weak.lower, weak.upper, 0.0)


@pytest.mark.parametrize(
    "joint_pp, p1, p4, margins",
    [
        (0.0, 0.25, 0.25, (-math.inf, -math.inf)),  # value -0.5, inside
        (0.0, 0.5, 0.5, (0.0, -math.inf)),  # value -1, on the lower bound
        (0.0, 1.0, 0.5, (math.inf, -math.inf)),  # value -1.5, below it
        ([[1.0, 0.0], [0.0, 0.0]], 0.5, 0.5, (-math.inf, 0.0)),  # value 0, on the upper bound
        ([[1.0, 1.0], [0.0, 0.0]], 0.5, 0.5, (-math.inf, math.inf)),  # value 1, above it
    ],
)
def test_margins_without_sampling_error(joint_pp, p1, p4, margins):
    rep = sim.test_inequality(_exact_estimates(joint_pp, p1, p4), 0.0, 3.0)
    assert (rep.lower, rep.upper, rep.se) == (-1.0, 0.0, 0.0)
    assert (rep.margin_lower, rep.margin_upper) == margins
    assert rep.violated_lower == (margins[0] > 0.0)
    assert rep.violated_upper == (margins[1] > 0.0)

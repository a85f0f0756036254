import json
import math
from fractions import Fraction

import numpy as np
import pytest

import weakch.simulate as sim
from helpers import reference_estimate, reference_weak_ch_bounds, same_array
from weakch import singlet
from weakch.cli import main
from weakch.common_cause import (
    EprbModel,
    model_from_dict,
    pairwise_model_to_dict,
    random_eprb_model,
    random_screened_model,
)
from weakch.inequalities import TSIRELSON_LOWER, BadEpsilon, pair_settings
from weakch.spaces import WeakChError

LOWER_ANGLES = (0.0, -math.pi / 2, math.pi / 4, -math.pi / 4)
UNEVEN = [[0.1, 0.2], [0.3, 0.4]]


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
    # and the seed is what fixes them
    other = sim.sample_runs(sim.SimConfig(seed=10, n=123457, theta=LOWER_ANGLES))
    assert not np.array_equal(a.counts, other.counts)


def test_a_config_built_from_a_config_law_samples_the_same_counts():
    # the law a config stores is the law it was given, so passing it on
    # keeps its bits and the record's draws
    cfg = sim.SimConfig(seed=3, n=2000, setting_probs=[[0.3, 0.3], [0.3, 0.1]])
    again = sim.SimConfig(seed=3, n=2000, setting_probs=cfg.setting_probs)
    assert again.setting_probs.tobytes() == cfg.setting_probs.tobytes()
    assert np.array_equal(sim.sample_runs(again).counts, sim.sample_runs(cfg).counts)


@pytest.mark.parametrize("n", [1, 2**63 - 1])
def test_counts_sum_to_n(n):
    table = sim.sample_runs(sim.SimConfig(seed=8, n=n, theta=LOWER_ANGLES, setting_probs=UNEVEN))
    assert int(table.counts.sum()) == table.n == n
    assert table.counts.dtype == np.int64 and table.counts.min() >= 0


def test_n_is_below_two_to_the_63():
    # numpy's multinomial takes int64 counts: one run more would overflow it
    assert sim.SimConfig(seed=1, n=2**63 - 1).n == 2**63 - 1
    with pytest.raises(WeakChError, match="n must be at most 2\\^63 - 1"):
        sim.SimConfig(seed=1, n=2**63)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 7])
def test_seed_stream_is_a_seed_and_zero_stream(seed):
    # SeedSequence pads its entropy with zero words, so default_rng(seed) is
    # default_rng([seed, 0]): records drawn from the latter keep their counts
    state = np.random.default_rng(seed).bit_generator.state
    assert state == np.random.default_rng([seed, 0]).bit_generator.state


# The sampler before the direct draw seeded chunk k of 2^16 runs with
# default_rng([seed, k]). A record of at most 2^16 runs was chunk 0 alone,
# and default_rng(seed) has chunk 0's state, so such a record keeps its counts.
OLD_CHUNK = 1 << 16


def _chunk_zero_counts(cfg) -> np.ndarray:
    """Counts of a record of at most OLD_CHUNK runs as the chunked sampler drew them."""
    assert cfg.n <= OLD_CHUNK
    if isinstance(cfg.source, EprbModel):
        tables = cfg.source.outcome_tables()
    else:
        tables = singlet.outcome_tables(cfg.theta[:2], cfg.theta[2:])
    rng = np.random.default_rng([cfg.seed, 0])
    out = np.zeros((4, 4), dtype=np.int64)
    for pair, cnt in enumerate(rng.multinomial(cfg.n, cfg.setting_probs.ravel())):
        if cnt:
            a, b = divmod(pair, 2)
            out[pair] += rng.multinomial(cnt, tables[a, b].ravel())
    return out.reshape(2, 2, 2, 2)


@pytest.mark.parametrize("n", [1, OLD_CHUNK - 1, OLD_CHUNK])
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 7])
def test_small_records_keep_their_counts(seed, n):
    cfg = sim.SimConfig(seed=seed, n=n, theta=LOWER_ANGLES)
    assert np.array_equal(sim.sample_runs(cfg).counts, _chunk_zero_counts(cfg))


@pytest.mark.parametrize(
    "setting_probs",
    [None, UNEVEN, [[0.5, 0.0], [0.25, 0.25]]],
    ids=["uniform", "uneven", "zero pair"],
)
def test_small_records_keep_their_counts_for_each_source_and_setting_law(setting_probs):
    model = random_eprb_model(15, (2, 2, 2, 2), 0.0)
    for source in ("singlet", model):
        cfg = sim.SimConfig(seed=11, n=OLD_CHUNK - 5, theta=LOWER_ANGLES, setting_probs=setting_probs, source=source)
        assert np.array_equal(sim.sample_runs(cfg).counts, _chunk_zero_counts(cfg))


class _RecordingRng:
    """A Generator that records the (n, pvals length) of each multinomial it draws."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def multinomial(self, n, pvals):
        self._draws.append((int(n), len(pvals)))
        return self._rng.multinomial(n, pvals)


@pytest.mark.parametrize("n", [1, OLD_CHUNK + 1, 2**63 - 1])
def test_sampling_draws_one_multinomial_per_pair_with_runs(monkeypatch, n):
    # one draw of the pair counts, then one per pair with runs, whatever n is
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingRng(default_rng(seed), draws))
    table = sim.sample_runs(sim.SimConfig(seed=3, n=n, theta=LOWER_ANGLES, setting_probs=UNEVEN))
    pair_counts = table.counts.reshape(4, 4).sum(axis=1)
    assert draws[0] == (n, 4)
    assert draws[1:] == [(int(c), 4) for c in pair_counts if c]
    assert len(draws) == (2 if n == 1 else 5)


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


@pytest.mark.parametrize(
    "field, value",
    [("setting_probs", [[math.nan, 0.25], [0.25, 0.5]]), ("setting_probs", [[math.inf, 0.25], [0.25, 0.25]]),
     ("theta", (math.nan, 0.0, 0.0, 0.0)), ("theta", (0.0, 0.0, math.inf, 0.0))],
)
def test_config_rejects_non_finite_inputs(field, value):
    # a NaN would otherwise reach the sampler's multinomial draws
    with pytest.raises(WeakChError, match="finite"):
        sim.SimConfig(seed=1, n=10, **{field: value})


@pytest.mark.parametrize("theta", [("0.5", 0.0, 0.0, 0.0), (0.0, True, 0.0, 0.0), (0.0, 0.0, None, 0.0)], ids=repr)
def test_config_reads_angles_as_real_numbers(theta):
    # float() would read "0.5" and True as angles
    with pytest.raises(WeakChError, match="an angle must be a real number"):
        sim.SimConfig(seed=1, n=10, theta=theta)


@pytest.mark.parametrize(
    "theta, message",
    [(None, "^theta must"), ((10**400, 0, 0, 0), "^an angle must be a real number within the float range")],
    ids=["None", "past the float range"],
)
def test_config_names_theta_when_it_cannot_read_it(theta, message):
    # not iterable, or an int past the float range: Python's own TypeError or OverflowError otherwise
    with pytest.raises(WeakChError, match=message):
        sim.SimConfig(seed=1, n=10, theta=theta)


def test_config_stores_python_ints():
    cfg = sim.SimConfig(seed=np.uint32(3), n=np.int64(70000))
    assert type(cfg.seed) is int and type(cfg.n) is int
    table = sim.sample_runs(cfg)
    assert type(table.n) is int
    assert int(table.counts.sum()) == table.n == 70000


@pytest.mark.parametrize("source", ["singlet", "model"])
def test_zero_probability_pair_gets_no_runs(source):
    model = random_eprb_model(15, (2, 2, 2, 2), 0.0) if source == "model" else "singlet"
    cfg = sim.SimConfig(seed=11, n=10**6, theta=LOWER_ANGLES, setting_probs=[[0.5, 0.0], [0.25, 0.25]], source=model)
    counts = sim.sample_runs(cfg).counts
    assert counts[0, 1].sum() == 0
    assert counts[0, 0].sum() > 0 and counts[1].sum() > 0
    assert int(counts.sum()) == cfg.n


# Pearson chi-square quantiles 1e-4 and 1 - 1e-4 at 600 and 2400 degrees of
# freedom: 200 seeds, 3 per seed for the pair counts and 4 x 3 per seed for
# the outcome counts given the pair counts
GOF_SEEDS = range(200)
PAIR_CHI2 = (479.64, 737.46)
OUTCOME_CHI2 = (2150.85, 2666.25)


def _dirichlet_weights() -> np.ndarray:
    """Weights of a full joint model at cause cards 3,1,2,2 with every outcome table entry positive."""
    return np.random.default_rng(22).dirichlet(np.ones(16 * 12)).reshape(2, 2, 2, 2, 3, 1, 2, 2)


def _source(kind: str, flipped: bool) -> dict:
    """SimConfig fields of a source; flipped swaps Alice's outcomes in every table."""
    if kind == "singlet":
        # turning Alice's directions by pi swaps her outcomes
        turn = math.pi if flipped else 0.0
        return {"theta": (LOWER_ANGLES[0] + turn, LOWER_ANGLES[1] + turn) + LOWER_ANGLES[2:]}
    w = _dirichlet_weights()
    return {"source": EprbModel(w[:, :, ::-1] if flipped else w, (3, 1, 2, 2))}


def _tables(theta=LOWER_ANGLES, source="singlet") -> np.ndarray:
    return singlet.outcome_tables(theta[:2], theta[2:]) if source == "singlet" else source.outcome_tables()


def _chi2(tables, drawn_law=UNEVEN, **fields) -> tuple[float, float]:
    """Pearson statistics over GOF_SEEDS of records drawn at drawn_law, tested against UNEVEN and tables.

    The first sums over the pair counts, the second over the outcome counts
    given the pair counts.
    """
    n = 20000
    expected_pairs = n * np.ravel(UNEVEN)
    pair_stat = outcome_stat = 0.0
    for seed in GOF_SEEDS:
        counts = sim.sample_runs(sim.SimConfig(seed=seed, n=n, setting_probs=drawn_law, **fields)).counts
        counts = counts.reshape(4, 4)
        pair_n = counts.sum(axis=1)
        expected = pair_n[:, None] * tables.reshape(4, 4)
        pair_stat += float(((pair_n - expected_pairs) ** 2 / expected_pairs).sum())
        outcome_stat += float(((counts - expected) ** 2 / expected).sum())
    return pair_stat, outcome_stat


@pytest.mark.parametrize("kind", ["singlet", "model"])
def test_counts_fit_the_setting_law_and_outcome_tables(kind):
    # Over many seeds the summed statistics lie between the two quantiles: a
    # sampler that misplaces runs reads high, one that rounds its expected
    # counts reads low.
    fields = _source(kind, flipped=False)
    tables = _tables(**fields)
    assert np.all(tables > 0.0)
    pair_stat, outcome_stat = _chi2(tables, **fields)
    assert PAIR_CHI2[0] < pair_stat < PAIR_CHI2[1]
    assert OUTCOME_CHI2[0] < outcome_stat < OUTCOME_CHI2[1]
    # negative controls: counts drawn with Alice's outcomes swapped in every
    # table, or at the reversed law, are rejected by the same statistics
    assert _chi2(tables, **_source(kind, flipped=True))[1] > OUTCOME_CHI2[1]
    assert _chi2(tables, np.ravel(UNEVEN)[::-1].reshape(2, 2), **fields)[0] > PAIR_CHI2[1]


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


@pytest.mark.parametrize(
    "setting_probs, undefined",
    [
        ([[0.5, 0.5], [0.0, 0.0]], ("pair 23", "pair 24", "alice setting 2")),
        ([[0.5, 0.0], [0.5, 0.0]], ("pair 14", "pair 24", "bob setting 4")),
    ],
    ids=["alice", "bob"],
)
def test_empty_pair_is_flagged_undefined(setting_probs, undefined):
    # empty pairs in row order 13, 14, 23, 24, then the own settings they leave empty
    table = sim.sample_runs(sim.SimConfig(seed=1, n=500, theta=LOWER_ANGLES, setting_probs=setting_probs))
    est = sim.estimate(table)
    assert est.undefined == undefined
    assert math.isnan(est.joint[1, 1, 0, 0])
    with pytest.raises(sim.UndefinedEstimate):
        sim.test_inequality(est, 0.0)


@pytest.mark.parametrize("k_sigma", [math.nan, math.inf, 0.0, -3.0])
def test_k_sigma_is_finite_and_positive(k_sigma):
    est = sim.estimate(sim.sample_runs(sim.SimConfig(seed=1, n=1000, theta=LOWER_ANGLES)))
    with pytest.raises(WeakChError, match="k_sigma must be finite and positive"):
        sim.test_inequality(est, 0.0, k_sigma)


@pytest.mark.parametrize("arg", ["epsilon", "k_sigma"])
@pytest.mark.parametrize("bad", [True, False, "3", None], ids=repr)
def test_epsilon_and_k_sigma_are_real_numbers(arg, bad):
    # float() would read True as 1 and "3" as a number
    est = sim.estimate(sim.sample_runs(sim.SimConfig(seed=1, n=1000, theta=LOWER_ANGLES)))
    args = {"epsilon": 0.0, "k_sigma": 3.0, arg: bad}
    with pytest.raises(BadEpsilon if arg == "epsilon" else WeakChError, match=f"{arg} must be a real number"):
        sim.test_inequality(est, **args)


@pytest.mark.parametrize("epsilon", [0, Fraction(1, 1000), np.float64(1e-3)], ids=repr)
def test_sample_test_holds_the_epsilon_as_a_float(epsilon):
    est = sim.estimate(sim.sample_runs(sim.SimConfig(seed=1, n=1000, theta=LOWER_ANGLES)))
    rep = sim.test_inequality(est, epsilon)
    assert type(rep.epsilon) is float and rep.epsilon == float(epsilon)


def test_se_sums_the_squared_errors_left_to_right():
    # a record whose six squared errors a compensated sum (Python 3.12's
    # sum()) rounds to 0x1.5af62d141c0f2p-3 instead
    rep = sim.test_inequality(sim.estimate(sim.sample_runs(sim.SimConfig(seed=1, n=100, theta=LOWER_ANGLES))), 0.0)
    var = 0.0
    for s in rep.term_ses.values():
        var += s * s
    assert float.hex(rep.se) == float.hex(math.sqrt(var)) == "0x1.5af62d141c0f1p-3"


@pytest.mark.parametrize("source", ["singlet", "model"])
@pytest.mark.parametrize(
    "setting_probs",
    [
        None,
        UNEVEN,
        [[0.97, 0.01], [0.01, 0.01]],
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.5, 0.0], [0.5, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ],
    ids=["uniform", "uneven", "skewed", "alice empty", "bob empty", "one pair"],
)
def test_estimate_matches_the_reference_bit_for_bit(source, setting_probs):
    # every array by dtype, shape and bytes (NaN as NaN), and the bounds of
    # the sample test as one CorrectionTerms per pair gives them
    if source == "model":
        source = random_eprb_model(5, (2, 3, 2, 2), 1e-3, setting_probs=UNEVEN)
    rng = np.random.default_rng(41)
    for seed, n in enumerate([1, 2, 3, 10, 100, 1000, 10**4, 10**6, 10**8] * 3):
        theta = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, 4))
        table = sim.sample_runs(sim.SimConfig(seed=seed, n=n, theta=theta, setting_probs=setting_probs, source=source))
        got, want = sim.estimate(table), reference_estimate(table.counts)
        for field in ("joint", "joint_se", "plus", "plus_se", "pair_counts"):
            assert same_array(getattr(got, field), getattr(want, field)), field
        assert got.undefined == want.undefined
        if got.undefined:
            continue
        for eps in (0.0, -0.0, 1e-3):
            rep = sim.test_inequality(got, eps)
            want_bounds = reference_weak_ch_bounds(eps, pair_settings(table.setting_probs))
            assert [float.hex(rep.lower), float.hex(rep.upper)] == [float.hex(v) for v in want_bounds]


def test_singlet_law_is_kept_read_only_and_bit_for_bit():
    # one law per angle set, equal to outcome_tables' own; the sign of a zero
    # angle does not change the law, so 0.0 and -0.0 share one
    rng = np.random.default_rng(25)
    thetas = [tuple(rng.uniform(-2 * math.pi, 2 * math.pi, 4)) for _ in range(40)]
    thetas += [tuple(t + 2 * math.pi for t in theta) for theta in thetas[:10]]
    thetas += [(0.0, -0.0, 0.0, -0.0), (-0.0, 0.0, -0.0, 0.0), (0.0,) * 4, (-0.0,) * 4, (-0.0, 0.0, 0.0, -0.0)]
    for theta in thetas:
        law = sim._singlet_law(theta)
        want = singlet.outcome_tables(theta[:2], theta[2:])
        assert same_array(law, want.reshape(4, 4))
        assert sim._singlet_law(theta) is law
        with pytest.raises(ValueError):
            law[0, 0] = 0.5
        want[0, 0, 0, 0] = 0.5  # outcome_tables still returns a fresh, writable array
    signed_zeros = thetas[-5:]
    assert all(sim._singlet_law(theta) is sim._singlet_law((0.0,) * 4) for theta in signed_zeros)


def test_singlet_records_compute_one_law_per_angle_set(monkeypatch):
    calls = []
    tables = singlet.outcome_tables
    monkeypatch.setattr(singlet, "outcome_tables", lambda alice, bob: calls.append(1) or tables(alice, bob))
    theta = (0.0, 1.5, -0.75, 2.25)  # in no other test
    counts = [sim.sample_runs(sim.SimConfig(seed=seed, n=1000, theta=theta)).counts for seed in (1, 2, 3, 1)]
    assert len(calls) == 1
    assert np.array_equal(counts[0], counts[3])
    signed = sim.sample_runs(sim.SimConfig(seed=1, n=1000, theta=(-0.0, *theta[1:]))).counts  # the same law
    assert len(calls) == 1
    assert np.array_equal(signed, counts[0])


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
        model = EprbModel(_dirichlet_weights(), (3, 1, 2, 2))
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

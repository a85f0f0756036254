"""Monte Carlo generation of measurement records and finite-sample testing.

Runs are drawn per setting pair and outcome pair, either from the singlet
formulas at four given directions or from the conditional tables of a
saved model. Estimates are conditional relative frequencies with Wald
standard errors, and the inequality test declares a violation only when a
bound is exceeded by more than k standard errors.

Sampling runs in chunks of 2^16 runs, and chunk k draws from the stream of
np.random.default_rng([seed, k]). Those streams' starting states are derived
in one array pass per block of chunks, reproducing numpy's SeedSequence hash
and PCG64 seeding, so the counts equal a per-chunk default_rng draw bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import singlet
from .common_cause import EprbModel, setting_law
from .inequalities import WeakChError, ch_expression, ch_table_terms, integer, pair_settings, weak_ch_bounds

_CHUNK = 1 << 16
# chunk states are derived this many chunks (2^28 runs) at a time
_STATE_BLOCK = 1 << 12

# numpy's SeedSequence: pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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
        object.__setattr__(self, "n", integer("n", self.n, 1))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        if not (isinstance(self.source, EprbModel) or self.source == "singlet"):
            raise WeakChError(f"source must be 'singlet' or an EprbModel, got {self.source!r}")
        theta = tuple(float(t) for t in self.theta)
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


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's first count hashmix constants, (xor, multiplier) as a (2, count, 1) array."""
    pairs = []
    for _ in range(count):
        nxt = init * mult & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, row i of the result with constant pair i; uint32 wraps as in C."""
    xor, mult = consts
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy[:, j]).generate_state(4, np.uint64) as column j, for each j.

    entropy is an (L, m) uint32 array of entropy words; the result is the
    (4, m) uint64 state words. Within one step of the pool mix the
    destination rows do not depend on each other, so each step is one
    array operation over its rows.
    """
    size = _POOL_SIZE
    consts = _hash_consts(_INIT_A, _MULT_A, size * max(size, len(entropy)))
    pool = np.zeros((size, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:size]
    pool = _hashmix(pool, consts[:, :size])
    used = size
    for src in range(size):
        dst = [i for i in range(size) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[:, used : used + size - 1]))
        used += size - 1
    for word in entropy[size:]:
        pool = _mix(pool, _hashmix(word, consts[:, used : used + size]))
        used += size
    # generate_state: eight uint32 words from the pool in cycle, paired little-endian
    half = _hashmix(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 2 * size))
    half = half.astype(np.uint64)
    return half[0::2] | half[1::2] << np.uint64(32)


def _block_states(seed: int, start: int, stop: int):
    """Yield (state, inc) of np.random.default_rng([seed, k]).bit_generator for start <= k < stop.

    Every k must have as many 32-bit words as stop - 1 (one below 2^32).
    """
    # least significant first, at least one (SeedSequence's int coercion)
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    ks = np.arange(start, stop, dtype=np.uint64)
    chunk_words = [ks & _MASK32] if stop - 1 <= _MASK32 else [ks & _MASK32, ks >> np.uint64(32)]
    entropy = np.empty((len(seed_words) + len(chunk_words), len(ks)), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words) :] = chunk_words
    for s_hi, s_lo, i_hi, i_lo in zip(*_seed_sequence_words(entropy).tolist()):
        # PCG64's srandom: inc from the stream word, then two LCG steps around adding the state word
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _chunk_states(seed: int, n_chunks: int):
    """Yield the PCG64 (state, inc) of chunks 0 .. n_chunks - 1, _STATE_BLOCK chunks at a time."""
    start = 0
    while start < n_chunks:
        stop = min(start + _STATE_BLOCK, n_chunks)
        if start <= _MASK32 < stop - 1:  # one entropy length per block
            stop = _MASK32 + 1
        yield from _block_states(seed, start, stop)
        start = stop


def sample_runs(cfg: SimConfig) -> CountsTable:
    """Draw cfg.n independent runs; deterministic for a given seed.

    Each run picks a setting pair from cfg.setting_probs and then an
    outcome pair from the source's conditional table. Counts are drawn as
    exact multinomials chunk by chunk, which realizes the same law as
    run-by-run sampling. Chunk k draws from the stream of
    np.random.default_rng([cfg.seed, k]); one bit generator is loaded with
    each chunk's state in turn.
    """
    if isinstance(cfg.source, EprbModel):
        tables = cfg.source.outcome_tables()
    else:
        tables = singlet.outcome_tables(cfg.theta[:2], cfg.theta[2:])
    sp_flat = cfg.setting_probs.ravel()
    outcome_probs = tables.reshape(4, 4)  # row a * 2 + b: the outcome law at settings (a, b)
    out = np.zeros((4, 4), dtype=np.int64)
    bg = np.random.PCG64(0)  # its state is replaced before each chunk's draws
    rng = np.random.Generator(bg)
    for chunk_idx, (state, inc) in enumerate(_chunk_states(cfg.seed, -(-cfg.n // _CHUNK))):
        bg.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        pair_counts = rng.multinomial(min(_CHUNK, cfg.n - chunk_idx * _CHUNK), sp_flat)
        for pair, cnt in enumerate(pair_counts.tolist()):
            if cnt:
                out[pair] += rng.multinomial(cnt, outcome_probs[pair])
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


def estimate(table: CountsTable) -> Estimates:
    """Conditional frequencies and standard errors from a counts table.

    Joint outcome probabilities condition on their setting pair; the
    single-wing estimates pool over the far setting. Unobserved
    conditioners produce NaN entries listed in undefined. Wald intervals
    are adequate away from degenerate probabilities; near 0 or 1 (aligned
    directions) they collapse to zero width.
    """
    counts = table.counts
    pair_n = counts.sum(axis=(2, 3))
    # (wing, own setting, own outcome), Bob's counts transposed to Alice's layout
    own = np.stack([counts, counts.transpose(1, 0, 3, 2)]).sum(axis=(2, 4))
    own_n = own.sum(axis=2)
    n = pair_n[:, :, None, None]
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN of an empty conditioner
        joint = counts / n
        plus = own[:, :, 0] / own_n
    joint_se = np.sqrt(joint * (1.0 - joint) / n)
    plus_se = np.sqrt(plus * (1.0 - plus) / own_n)
    undefined = [f"pair {a + 1}{b + 3}" for a, b in np.argwhere(pair_n == 0).tolist()]
    undefined += [
        f"{('alice', 'bob')[w]} setting {2 * w + s + 1}" for w, s in np.argwhere(own_n == 0).tolist()
    ]
    return Estimates(
        joint=joint,
        joint_se=joint_se,
        plus=plus,
        plus_se=plus_se,
        pair_counts=pair_n,
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
    past each bound in sigma units.
    """
    terms = ch_table_terms(est.joint, est.plus)
    ses = ch_table_terms(est.joint_se, est.plus_se)
    bad = [k for k, v in terms.items() if math.isnan(v)]
    if bad:
        raise UndefinedEstimate(f"missing observations for {', '.join(bad)}")

    value = ch_expression(terms)
    se = math.sqrt(sum(s * s for s in ses.values()))
    lower, upper = weak_ch_bounds(epsilon, pair_settings(est.setting_probs))

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
        epsilon=float(epsilon),
        k_sigma=float(k_sigma),
        violated_lower=value < lower - k_sigma * se,
        violated_upper=value > upper + k_sigma * se,
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        terms=terms,
        term_ses=ses,
    )

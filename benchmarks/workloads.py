"""The benchmark workloads: seeded inputs, closed-loop runs, checks.

Every workload runs one client in one thread: the next operation starts
only after the previous one has finished. Inputs come from the workload
seed alone. Each operation is checked against a reference that does not
come from the code under test: a closed form, an identity the paper
proves, a value recomputed here with numpy, or a replay of the same call.
Byte-identical outputs are the test suite's job, so a ulp-level change in
a generated model is not a failure here. A wrong value, a wrong exit code
or an unexpected exception counts as a failed operation.

The workloads call only public weakch functions and the CLI, always
through the module attribute (``cc.validate_loc``, not a bound copy), so
that the tracer's wrappers see every call. Importing this module imports
weakch from the working tree's ``src/`` and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import weakch  # noqa: E402
from weakch import cli, search, simulate  # noqa: E402
from weakch import common_cause as cc  # noqa: E402

if Path(weakch.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"weakch comes from {weakch.__file__}, not from {SRC}")

SQRT2 = math.sqrt(2.0)
TSIRELSON_LOWER = -(SQRT2 + 1.0) / 2.0
QUANTUM_EXCESS = (SQRT2 - 1.0) / 2.0
# Directions at which the singlet reaches TSIRELSON_LOWER.
EXTREMAL_ANGLES = (0.0, -math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)
ANGLES_ARG = ",".join(repr(t) for t in EXTREMAL_ANGLES)

# A run makes at least this many cli calls, so that the third quartile of
# statistics.quantiles (exclusive method) has ten samples beyond it.
CLI_MIN_CALLS = 44
CLI_TIMEOUT_S = 120.0
VERIFY_SPECS = 16384
SEARCH_RESTARTS = 2
SEARCH_ITERS = 150
SAMPLE_SIZES = (10**6, 10**7, 10**8)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)


class OpTimes:
    """Per-operation wall times, and the same times scaled to nominal speed.

    The loop calls ``tick`` between operations (at most one reference
    sample every ``every_s``, see speed.py) and ``add`` after each one.
    ``results`` scales each operation by the reference around its middle.
    """

    def __init__(self, every_s: float):
        self.probe = SpeedProbe(every_s)
        self.mid: list[float] = []
        self.raw: list[float] = []
        self.fixed: list[float] = []

    def tick(self) -> None:
        self.probe.tick()

    def add(self, start: float, end: float, elapsed: float | None = None, fixed: float = 0.0) -> None:
        """An operation between start and end.

        elapsed excludes time spent outside the operation; ``fixed`` seconds
        of it are not scaled (see run_cli).
        """
        self.mid.append(0.5 * (start + end))
        self.raw.append(end - start if elapsed is None else elapsed)
        self.fixed.append(fixed)

    def __len__(self) -> int:
        return len(self.raw)

    def results(self) -> dict:
        return {
            "op_s": self.probe.scale(self.mid, self.raw, self.fixed),
            "raw_op_s": self.raw,
            "speed_factor": self.probe.factor(),
        }


def _off(x: float, ref: float, tol: float) -> bool:
    return not abs(x - ref) <= tol * max(1.0, abs(ref))


def _guarded(check, *args) -> str | None:
    try:
        return check(*args)
    except Exception as exc:  # a malformed result is a failed check
        return f"check raised {exc!r}"


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def singlet_ch(theta) -> float:
    """Singlet CH combination from p(+,+|phi) = sin^2(phi/2)/2 and p(+) = 1/2."""
    t1, t2, t3, t4 = theta

    def pp(phi):
        return 0.5 * math.sin(0.5 * phi) ** 2

    return pp(t1 - t3) + pp(t1 - t4) + pp(t2 - t4) - pp(t2 - t3) - 1.0


def thresholds_closed_form() -> tuple[float, float]:
    """Largest deficits still violated at the quantum extremes, even settings.

    With x = sqrt(eps) and p(a) = p(b) = 1/2, p(ab) = 1/4 the lower bound
    widens by 40x - 12x^2 and the upper by 66x - 24x^2; each threshold is
    the smaller root of widening = (sqrt(2) - 1)/2.
    """

    def root(lin, quad):
        x = (lin - math.sqrt(lin * lin - 4.0 * quad * QUANTUM_EXCESS)) / (2.0 * quad)
        return x * x

    return root(40.0, 12.0), root(66.0, 24.0)


def bounds_closed_form(eps: float) -> tuple[float, float]:
    x = math.sqrt(eps)
    return -1.0 - (40.0 * x - 12.0 * eps), 66.0 * x - 24.0 * eps


def ch_from_weights(weights) -> float:
    """CH combination of a full joint tensor (a, b, A, B, causes...)."""
    w = np.asarray(weights, dtype=float)
    joint = w.reshape(2, 2, 2, 2, -1).sum(axis=4)
    t = joint / joint.sum(axis=(2, 3), keepdims=True)
    p1 = joint[0, :, 0, :].sum() / joint[0].sum()
    p4 = joint[:, 1, :, 0].sum() / joint[:, 1].sum()
    return float(t[0, 0, 0, 0] + t[0, 1, 0, 0] + t[1, 1, 0, 0] - t[1, 0, 0, 0] - p1 - p4)


def product_weights(rng: np.random.Generator, cards: tuple[int, ...]) -> np.ndarray:
    """Full joint weights where each outcome reads its own setting and cause.

    Settings are even and independent of the causes; the four causes have a
    random joint law. Locality, setting independence and screening hold
    exactly, so the model is a local hidden-variable model whose CH value
    lies in [-1, 0].
    """
    cause = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
    plus = [rng.uniform(0.1, 0.9, c) for c in cards]
    w = np.zeros((2, 2, 2, 2, *cards))
    for a in (0, 1):
        for b in (0, 1):
            shape_a = [2, 1, 1, 1, 1, 1]
            shape_a[2 + a] = cards[a]
            shape_b = [1, 2, 1, 1, 1, 1]
            shape_b[4 + b] = cards[2 + b]
            ka = np.stack([plus[a], 1.0 - plus[a]]).reshape(shape_a)
            kb = np.stack([plus[2 + b], 1.0 - plus[2 + b]]).reshape(shape_b)
            w[a, b] = 0.25 * cause[None, None] * ka * kb
    return w


def pairwise_model_dict(rng: np.random.Generator, n_pairs: int) -> tuple[dict, float]:
    """A screened pairwise model file with p(A) = p(B) = 1/2, and its deficit.

    Cells come in mirrored pairs of equal mass with complementary
    conditionals (which pins both marginals at one half), and the joint
    inside each cell is a product (which makes screening exact).
    """
    mass = rng.uniform(0.5, 1.5, n_pairs)
    mass = mass / mass.sum() / 2.0
    scale = rng.uniform(0.005, 0.1)
    x = rng.uniform(0.6, 1.0, n_pairs)
    y = rng.uniform(0.6, 1.0, n_pairs)
    atoms, weights, cells = [], [], []
    for k in range(n_pairs):
        q, r = 1.0 - scale * x[k], 1.0 - scale * y[k]
        for side, (qq, rr) in enumerate(((q, r), (1.0 - q, 1.0 - r))):
            labels = [f"c{2 * k + side}:{suffix}" for suffix in ("11", "10", "01", "00")]
            m = float(mass[k])
            weights += [m * qq * rr, m * qq * (1 - rr), m * (1 - qq) * rr, m * (1 - qq) * (1 - rr)]
            atoms += labels
            cells.append(labels)
    w = np.asarray(weights)
    in_a = np.array([a.endswith(("11", "10")) for a in atoms])
    in_b = np.array([a.endswith(("11", "01")) for a in atoms])
    eps = 1.0 - w[in_a & in_b].sum() / w[in_b].sum()
    data = {
        "type": "pairwise",
        "space": {"atoms": atoms, "weights": weights},
        "A": [a for a, keep in zip(atoms, in_a) if keep],
        "B": [a for a, keep in zip(atoms, in_b) if keep],
        "partition": cells,
    }
    return data, float(eps)


def oracle_reference(atoms) -> float:
    """CH value of a 16-atom law; atom bits are (A, A', B, B'), MSB first."""
    p = np.asarray(atoms, dtype=float).reshape(2, 2, 2, 2)
    p_ab = p[1, :, 1, :].sum()
    p_abp = p[1, :, :, 1].sum()
    p_apbp = p[:, 1, :, 1].sum()
    p_apb = p[:, 1, 1, :].sum()
    return float(p_ab + p_abp + p_apbp - p_apb - p[1].sum() - p[:, :, :, 1].sum())


# ---------------------------------------------------------------------------
# cli: fresh weakch processes over a fixed command mix
# ---------------------------------------------------------------------------


def _envelope_check(expected_code: int, check_result):
    def check(code: int, text: str) -> str | None:
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        return check_result(json.loads(text)["result"])

    return check


def setup_cli(seed: int, workdir: Path) -> list[tuple[str, list[str], object]]:
    """The command mix with its input files written to workdir."""
    rng = np.random.default_rng([seed, 1])
    workdir.mkdir(parents=True, exist_ok=True)

    joint_w = product_weights(rng, (2, 2, 2, 2))
    joint_ref = ch_from_weights(joint_w)
    joint_file = workdir / "joint.json"
    joint_file.write_text(json.dumps(
        {"type": "eprb", "cause_cards": [2, 2, 2, 2], "weights": joint_w.ravel().tolist()}
    ))
    pair_data, pair_eps = pairwise_model_dict(rng, int(rng.integers(2, 9)))
    pair_file = workdir / "pairwise.json"
    pair_file.write_text(json.dumps(pair_data))
    atoms = rng.dirichlet(np.ones(16))
    atoms_file = workdir / "atoms.json"
    atoms_file.write_text(json.dumps(atoms.tolist()))
    atoms_ref = oracle_reference(atoms)

    eps_bounds = float(rng.uniform(1e-6, 1e-2))
    check_value = float(rng.uniform(-0.9, -0.1))
    check_eps = float(rng.uniform(1e-6, 1e-2))
    sim_seed = int(rng.integers(0, 2**31))
    lo_ref, up_ref = bounds_closed_form(eps_bounds)
    th_lo, th_up = thresholds_closed_form()

    def thresholds(r):
        if _off(r["eps_lower_max"], th_lo, 1e-12) or _off(r["eps_upper_max"], th_up, 1e-12):
            return f"thresholds {r} differ from the closed form {(th_lo, th_up)}"
        return None

    def bounds(r):
        if _off(r["lower"], lo_ref, 1e-12) or _off(r["upper"], up_ref, 1e-12):
            return f"bounds ({r['lower']}, {r['upper']}) differ from {(lo_ref, up_ref)}"
        return None

    def check_ok(r):
        return None if not (r["violated_lower"] or r["violated_upper"]) else "inside value flagged"

    def check_violated(r):
        return None if r["violated_lower"] and not r["violated_upper"] else "violation missed"

    def predict(r):
        return None if not _off(r["ch_value"], TSIRELSON_LOWER, 1e-12) else f"ch_value {r['ch_value']}"

    def oracle(r):
        if _off(r["value"], atoms_ref, 1e-12) or not r["in_bounds"]:
            return f"oracle {r} differs from {atoms_ref}"
        return None

    def joint_model(r):
        if r["status"] != "ok" or _off(r["weak_report"]["value"], joint_ref, 1e-12):
            return f"joint model status {r['status']}, value {r.get('weak_report')}"
        return None

    def pairwise_model(r):
        cm = r["cause_mass"]
        if r["status"] != "ok" or _off(cm["epsilon"], pair_eps, 1e-12):
            return f"pairwise model status {r['status']}, eps {cm['epsilon']} vs {pair_eps}"
        if _off(cm["diagnostics"]["a_not_b_mass"], pair_eps / 2.0, 1e-9):
            return "a_not_b_mass is not eps/2"
        return None

    def optimize(r):
        if _off(r["ch_value"], TSIRELSON_LOWER, 1e-9) or _off(singlet_ch(r["theta"]), r["ch_value"], 1e-12):
            return f"optimize-angles {r}"
        return None

    def simulate_check(r):
        test = r["test"]
        if np.asarray(r["counts"]).sum() != 10**6 or abs(test["value"] - TSIRELSON_LOWER) > 4.0 * test["se"]:
            return f"simulate estimate {test['value']} (se {test['se']})"
        return None

    return [
        ("thresholds", ["thresholds"], _envelope_check(0, thresholds)),
        ("bounds", ["bounds", "--epsilon", repr(eps_bounds)], _envelope_check(0, bounds)),
        ("check_ok", ["check", "--value", repr(check_value), "--epsilon", repr(check_eps)],
         _envelope_check(0, check_ok)),
        ("check_violated", ["check", "--value", repr(TSIRELSON_LOWER), "--epsilon", "0"],
         _envelope_check(3, check_violated)),
        ("predict", ["predict", "--angles", ANGLES_ARG], _envelope_check(0, predict)),
        ("oracle", ["oracle", "--file", str(atoms_file)], _envelope_check(0, oracle)),
        ("check_model_joint", ["check-model", "--file", str(joint_file)], _envelope_check(0, joint_model)),
        ("check_model_pairwise", ["check-model", "--file", str(pair_file)],
         _envelope_check(0, pairwise_model)),
        ("optimize_angles", ["optimize-angles", "--mode", "min", "--grid", "16"], _envelope_check(0, optimize)),
        ("simulate", ["simulate", "--seed", str(sim_seed), "--n", "1000000", "--angles", ANGLES_ARG],
         _envelope_check(3, simulate_check)),
    ]


def cli_process(argv: list[str], env: dict) -> tuple[int, str, float, float, float]:
    """Run one weakch process.

    Returns the exit code, stdout, spawn-to-exit seconds, the child's user
    CPU seconds and its peak RSS in MB.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "weakch.cli", "--format", "json", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    out = bytearray()
    try:
        fd = proc.stdout.fileno()
        while True:
            left = start + CLI_TIMEOUT_S - time.perf_counter()
            if left <= 0.0:
                proc.kill()
                break
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
    finally:
        proc.stdout.close()
        # wait4 reaps the child and gives its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - start
    return proc.returncode, out.decode(), elapsed, usage.ru_utime, usage.ru_maxrss / 1024.0


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--format", "json", *argv])
    return code, out.getvalue()


def run_cli(commands, deadline: float, tally: Tally, *, in_process: bool) -> dict:
    """Cycle through the command mix until the deadline and CLI_MIN_CALLS are both reached."""
    env = {k: v for k, v in os.environ.items() if k != "WEAKCH_FORMAT"}
    env["PYTHONPATH"] = str(SRC)
    times = OpTimes(every_s=0.0)  # one reference sample before every call
    rss = []
    k = 0
    while k < CLI_MIN_CALLS or time.perf_counter() < deadline:
        name, argv, check = commands[k % len(commands)]
        k += 1
        times.tick()
        start = time.perf_counter()
        if in_process:
            try:
                code, text = cli_in_process(argv)
            except Exception as exc:
                code, text = None, repr(exc)
            times.add(start, time.perf_counter())
        else:
            code, text, elapsed, user, peak = cli_process(argv, env)
            # Only the child's user CPU time runs at the interpreter speed the
            # reference tracks; process creation, kernel time and I/O are kept.
            times.add(start, start + elapsed, fixed=max(elapsed - user, 0.0))
            rss.append(peak)
        problem = _guarded(check, code, text)
        tally.record(None if problem is None else f"{name}: {problem}")
    out = times.results()
    p50, p75 = quartiles(out["op_s"])
    return {
        **out,
        "work": len(times),
        "rss_mb": max(rss) if rss else None,
        "named": {
            "cli_ms_p50": (p50 * 1e3, "ms", len(times)),
            "cli_ms_p75": (p75 * 1e3, "ms", len(times)),
        },
    }


# ---------------------------------------------------------------------------
# verify: generated models, each checked once
# ---------------------------------------------------------------------------


def setup_verify(seed: int, workdir: Path) -> dict:
    """Seeded specs for c08-style pairwise and c09-style joint models."""
    rng = np.random.default_rng([seed, 2])
    n = VERIFY_SPECS
    return {
        "n_cells": rng.integers(2, 17, n),
        "eps": rng.uniform(1e-6, 0.25, n),
        "pair_seed": rng.integers(0, 2**31, n),
        "cards": rng.integers(2, 5, (n, 4)),
        "eps_joint": rng.uniform(1e-7, 1e-3, n),
        "joint_seed": rng.integers(0, 2**31, n),
    }


def _check_pairwise(rep, eps_target: float) -> str | None:
    eps = rep.epsilon
    if not rep.ok:
        return f"mass bounds fail at eps {eps}"
    if abs(eps - eps_target) > 1e-6:
        return f"deficit {eps} misses the target {eps_target}"
    if abs(rep.p_a - 0.5) > 1e-9 or abs(rep.p_b - 0.5) > 1e-9:
        return f"marginals {rep.p_a}, {rep.p_b} are not 1/2"
    d = rep.diagnostics
    if abs(d["a_not_b_mass"] - eps / 2.0) > 1e-9 or abs(d["b_not_a_mass"] - eps / 2.0) > 1e-9:
        return "a_not_b_mass or b_not_a_mass is not eps/2"
    return None


def _check_joint(model, eps_target, residuals, joint, weak) -> str | None:
    worst = max(r.max_abs for r in residuals)
    if worst > 1e-9:
        return f"validator residual {worst} on a model built to satisfy every assumption"
    if not joint.ok or joint.epsilon > eps_target * (1.0 + 1e-9) + 1e-15:
        return f"joint-cause interval fails at eps {joint.epsilon}"
    ref = ch_from_weights(model.weights)
    if weak.violated or _off(weak.value, ref, 1e-12) or not -1.0 - 1e-12 <= ref <= 1e-12:
        return f"weak report {weak.value} vs recomputed {ref}"
    return None


def run_verify_pairwise(specs: dict, deadline: float, tally: Tally) -> dict:
    """One operation: one c08-style pairwise model generated and checked."""
    clock = time.perf_counter
    times = OpTimes(every_s=0.3)
    while not len(times) or clock() < deadline:
        times.tick()
        i = len(times) % VERIFY_SPECS
        eps = float(specs["eps"][i])
        start = clock()
        try:
            model = cc.random_screened_model(int(specs["pair_seed"][i]), int(specs["n_cells"][i]), eps)
            rep = cc.check_cause_mass_bounds(model)
            problem = None
        except Exception as exc:
            problem = f"pairwise model raised {exc!r}"
        times.add(start, clock())
        if problem is None:
            problem = _guarded(_check_pairwise, rep, eps)
        tally.record(problem)
    out = times.results()
    n = len(times)
    return {**out, "work": n, "named": {"pairwise_models_per_s": (n / math.fsum(out["op_s"]), "1/s", n)}}


def run_verify_joint(specs: dict, deadline: float, tally: Tally) -> dict:
    """One operation: one c09-style full-joint model generated and run through every check."""
    clock = time.perf_counter
    times = OpTimes(every_s=0.3)
    while not len(times) or clock() < deadline:
        times.tick()
        i = len(times) % VERIFY_SPECS
        eps = float(specs["eps_joint"][i])
        cards = tuple(int(c) for c in specs["cards"][i])
        start = clock()
        try:
            model = cc.random_eprb_model(int(specs["joint_seed"][i]), cards, eps)
            residuals = (cc.validate_loc(model), cc.validate_no_conspiracy(model), cc.validate_screening(model))
            joint = cc.joint_cause_bounds_check(model)
            weak = model.weak_report()
            problem = None
        except Exception as exc:
            problem = f"joint model raised {exc!r}"
        times.add(start, clock())
        if problem is None:
            problem = _guarded(_check_joint, model, eps, residuals, joint, weak)
        tally.record(problem)
    out = times.results()
    n = len(times)
    return {**out, "work": n, "named": {"joint_models_per_s": (n / math.fsum(out["op_s"]), "1/s", n)}}


# ---------------------------------------------------------------------------
# search: the counterexample search on a fixed job list
# ---------------------------------------------------------------------------


def setup_search(seed: int, workdir: Path) -> list[search.SearchConfig]:
    """Four jobs (two cause sizes x two deficit bands) plus one zero-band job."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for cards in ((2, 2, 2, 2), (4, 4, 4, 4)):
        for band in ((1e-6, 1e-3), (1e-5, 3e-5)):
            jobs.append(search.SearchConfig(
                seed=int(rng.integers(0, 2**31)), restarts=SEARCH_RESTARTS, max_iters=SEARCH_ITERS,
                cause_cards=cards, eps_band=band,
            ))
    # With only eps = 0 allowed the two intervals coincide: never feasible.
    jobs.append(search.SearchConfig(
        seed=int(rng.integers(0, 2**31)), restarts=1, max_iters=SEARCH_ITERS, eps_band=(0.0, 0.0),
    ))
    return jobs


def strict_excess(value: float) -> float:
    return max(-1.0 - value, value)


def accepted_steps(trace) -> tuple[int, int]:
    """Accepted steps and proposals, read as changes between trace entries.

    SearchResult.trace is the winning restart's trace only, so the ratio
    covers that restart. Its first entry follows the first proposal and
    the start state is not in the trace, so the first proposal is not
    counted: a trace of max_iters entries gives max_iters - 1 proposals.
    """
    return sum(1 for a, b in zip(trace, trace[1:]) if a != b), max(len(trace) - 1, 0)


def _check_search(cfg, res, previous) -> str | None:
    if previous is not None and not (
        res.trace == previous.trace
        and res.objective == previous.objective
        and np.array_equal(res.model.weights, previous.model.weights)
    ):
        return "replay of the same job differs"
    ref = ch_from_weights(res.model.weights)
    if _off(res.ch_value, ref, 1e-12):
        return f"reported CH value {res.ch_value} vs recomputed {ref}"
    if res.feasible:
        if cfg.eps_band == (0.0, 0.0):
            return "zero band reported feasible"
        if strict_excess(ref) <= 0.0 or res.weak_report.violated:
            return f"feasible claim with CH value {ref}"
    return None


def run_search(jobs, deadline: float, tally: Tally) -> dict:
    clock = time.perf_counter
    previous = [None] * len(jobs)
    times = OpTimes(every_s=0.0)  # a reference sample before every job
    best = -math.inf
    accepted = proposals = 0
    while not len(times) or clock() < deadline:
        spent = 0.0
        first = clock()
        for j, cfg in enumerate(jobs):
            times.tick()
            start = clock()
            try:
                res = search.search_counterexample(cfg)
            except Exception as exc:
                tally.record(f"search job {j} raised {exc!r}")
                continue
            finally:
                spent += clock() - start
            problem = _guarded(_check_search, cfg, res, previous[j])
            tally.record(None if problem is None else f"job {j}: {problem}")
            previous[j] = res
            if cfg.eps_band != (0.0, 0.0):
                best = max(best, strict_excess(res.ch_value))
            a, p = accepted_steps(res.trace)
            accepted += a
            proposals += p
        times.add(first, clock(), spent)
    out = times.results()
    per_job = [s / len(jobs) for s in out["op_s"]]
    if best == -math.inf:  # every job failed
        best = 0.0
    return {
        **out,
        "work": len(times) * sum(cfg.restarts * cfg.max_iters for cfg in jobs),
        "search.accept_ratio": accepted / proposals if proposals else 0.0,
        "search.best_excess": best,
        "named": {
            "search_s_p50": (statistics.median(per_job), "s", len(per_job)),
            "search_best_excess": (best, "1", len(times) * (len(jobs) - 1)),
        },
    }


# ---------------------------------------------------------------------------
# sample: seeded records, estimates and finite-sample tests
# ---------------------------------------------------------------------------


def setup_sample(seed: int, workdir: Path) -> list[tuple[simulate.SimConfig, float, bool]]:
    """(config, exact CH value, expected violation) at each size and source."""
    rng = np.random.default_rng([seed, 4])
    while True:
        w = product_weights(rng, (2, 2, 2, 2))
        exact = ch_from_weights(w)
        # keep the model well inside [-1, 0], so a 3-sigma test never flags it
        if -0.95 <= exact <= -0.05:
            break
    model = cc.EprbModel(w, (2, 2, 2, 2))
    ops = []
    for n in SAMPLE_SIZES:
        ops.append((simulate.SimConfig(seed=int(rng.integers(0, 2**31)), n=n, theta=EXTREMAL_ANGLES),
                    TSIRELSON_LOWER, True))
        ops.append((simulate.SimConfig(seed=int(rng.integers(0, 2**31)), n=n, source=model), exact, False))
    return ops


def _check_sample(cfg, exact, violated, table, rep) -> str | None:
    if int(table.counts.sum()) != cfg.n:
        return f"counts sum to {int(table.counts.sum())}, not {cfg.n}"
    if abs(rep.value - exact) > 4.0 * rep.se:
        return f"estimate {rep.value} is more than 4 se ({rep.se}) from {exact}"
    if rep.violated_lower != violated or rep.violated_upper:
        return f"decision ({rep.violated_lower}, {rep.violated_upper}) at exact value {exact}"
    return None


def run_sample(ops, deadline: float, tally: Tally) -> dict:
    """One operation is a pass over all six configurations.

    A pass has one time scale, where single configurations span 1 to 70 ms;
    quantiles over passes do not jump between size classes.
    """
    clock = time.perf_counter
    times = OpTimes(every_s=0.0)  # a reference sample before every pass
    runs = 0
    while not len(times) or clock() < deadline:
        times.tick()
        spent = 0.0
        first = clock()
        for cfg, exact, violated in ops:
            start = clock()
            try:
                table = simulate.sample_runs(cfg)
                rep = simulate.test_inequality(simulate.estimate(table), 0.0, 3.0)
                problem = None
            except Exception as exc:
                problem = f"sampling raised {exc!r}"
            spent += clock() - start
            if problem is None:
                problem = _guarded(_check_sample, cfg, exact, violated, table, rep)
            tally.record(problem)
            runs += cfg.n
        times.add(first, clock(), spent)
    out = times.results()
    return {
        **out,
        "work": runs,
        "named": {"sample_runs_per_s": (runs / math.fsum(out["op_s"]), "1/s", len(times) * len(ops))},
    }


def quartiles(samples) -> tuple[float, float]:
    """Median and third quartile (statistics.quantiles, exclusive method)."""
    if len(samples) < 2:
        return float(samples[0]), float(samples[0])
    q = statistics.quantiles(samples, n=4)
    return q[1], q[2]


SETUP = {
    "cli": setup_cli,
    "verify_pairwise": setup_verify,
    "verify_joint": setup_verify,
    "search": setup_search,
    "sample": setup_sample,
}
RUN = {
    "verify_pairwise": run_verify_pairwise,
    "verify_joint": run_verify_joint,
    "search": run_search,
    "sample": run_sample,
}

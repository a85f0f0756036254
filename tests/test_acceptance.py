"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import json
import math
import time

import numpy as np

import weakch.simulate as sim
from weakch.cli import main
from weakch.common_cause import (
    ch_atom_oracle,
    check_cause_mass_bounds,
    joint_cause_bounds_check,
    pairwise_model_from_dict,
    random_eprb_model,
    random_screened_model,
)
from weakch.inequalities import (
    TSIRELSON_LOWER,
    TSIRELSON_UPPER,
    ch_expression,
    epsilon_thresholds,
    evaluate_weak_ch,
    no_signalling_residuals,
    weak_ch_bounds,
)
from weakch.search import SearchConfig, constraint_penalty, optimize_angles, search_counterexample
from weakch.singlet import ch_value, outcome_tables

PI = math.pi
LOWER_THETA = (0.0, -PI / 2, PI / 4, -PI / 4)
UPPER_THETA = (0.0, -PI / 2, -3 * PI / 4, -5 * PI / 4)


def report(num, description, ok):
    print(f"[criterion {num:02d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_c01_lower_bound_quantum_value(capsys):
    start = time.perf_counter()
    angles = ",".join(repr(t) for t in LOWER_THETA)
    code, env = run_cli(capsys, "predict", "--angles", angles)
    elapsed = time.perf_counter() - start
    value = env["result"]["ch_value"]
    ok = (
        code == 0
        and abs(value - (-(math.sqrt(2) + 1) / 2)) <= 1e-12
        and elapsed < 1.0
    )
    report(1, f"lower-bound quantum value {value:.16f} in {elapsed:.3f}s", ok)


def test_c02_upper_bound_quantum_value(capsys):
    start = time.perf_counter()
    angles = ",".join(repr(t) for t in UPPER_THETA)
    code, env = run_cli(capsys, "predict", "--angles", angles)
    elapsed = time.perf_counter() - start
    value = env["result"]["ch_value"]
    ok = (
        code == 0
        and abs(value - (math.sqrt(2) - 1) / 2) <= 1e-12
        and elapsed < 1.0
    )
    report(2, f"upper-bound quantum value {value:.16f} in {elapsed:.3f}s", ok)


def test_c03_thresholds(capsys):
    start = time.perf_counter()
    code, env = run_cli(capsys, "thresholds")
    elapsed = time.perf_counter() - start
    lo = env["result"]["eps_lower_max"]
    hi = env["result"]["eps_upper_max"]
    solver_lo, solver_hi = epsilon_thresholds()
    ok = (
        code == 0
        and f"{lo:.3e}" == "2.689e-05"
        and f"{hi:.3e}" == "9.869e-06"
        and lo == solver_lo  # full-precision solver value passes through
        and hi == solver_hi
        and elapsed < 1.0
    )
    report(3, f"thresholds {lo:.6e} / {hi:.6e} in {elapsed:.3f}s", ok)


def test_c04_symmetric_bound_formulas():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        eps = float(rng.uniform(1e-12, 0.01))
        lower, upper = weak_ch_bounds(eps)
        root = math.sqrt(eps)
        worst = max(
            worst,
            abs(lower - (-1.0 - (40.0 * root - 12.0 * eps))),
            abs(upper - (66.0 * root - 24.0 * eps)),
        )
    report(4, f"symmetric closed forms, worst deviation {worst:.2e}", worst <= 1e-12)


def test_c05_threshold_bracketing():
    lo, hi = epsilon_thresholds()
    ok = True
    for eps_max, value, side in ((lo, TSIRELSON_LOWER, "lower"), (hi, TSIRELSON_UPPER, "upper")):
        for factor, expect in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            eps = eps_max * factor
            rep = evaluate_weak_ch(value, weak_ch_bounds(eps), eps)
            flag = rep.violated_lower if side == "lower" else rep.violated_upper
            ok = ok and (flag is expect)
    report(5, "violation flips exactly across both thresholds", ok)


def test_c06_zero_deficit_reduction():
    bounds = weak_ch_bounds(0.0)
    ok = bounds == (-1.0, 0.0)
    rng = np.random.default_rng(606)
    for _ in range(1000):
        probs = rng.uniform(0.0, 1.0, size=6)
        value = ch_expression(dict(zip(("p13", "p14", "p24", "p23", "p1_plus", "p4_plus"), probs)))
        weak = evaluate_weak_ch(value, bounds, 0.0)
        strict_lower = value < -1.0 - 1e-12
        strict_upper = value > 0.0 + 1e-12
        ok = ok and weak.violated_lower == strict_lower and weak.violated_upper == strict_upper
    report(6, "weak evaluator reduces to the strict one at zero deficit", ok)


def test_c07_atom_oracle_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    raw = rng.exponential(size=(100000, 16))
    pts = raw / raw.sum(axis=1, keepdims=True)
    ok = True
    for row in pts.tolist():
        res = ch_atom_oracle(row)
        if not (res.in_bounds and abs(res.value - res.identity_value) <= 1e-12):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(7, f"100000 atom distributions in range in {elapsed:.1f}s", ok)


def test_c08_cause_mass_bounds_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    for i in range(10000):
        n_cells = 2 + (i % 15)
        eps = float(rng.uniform(1e-6, 0.25))
        rep = check_cause_mass_bounds(random_screened_model(rng, n_cells, eps))
        if not (
            rep.ok
            and abs(rep.diagnostics["a_not_b_mass"] - rep.epsilon / 2) <= 1e-9
            and abs(rep.diagnostics["b_not_a_mass"] - rep.epsilon / 2) <= 1e-9
        ):
            ok = False
            break
    det = check_cause_mass_bounds(random_screened_model(1, 2, 0.0))
    ok = ok and det.ok and det.epsilon == 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(8, f"10000 screened models pass the mass bounds in {elapsed:.1f}s", ok)


def test_c08_lower_bound_needs_its_sqrt_eps():
    # One high cell with p(A|C) = p(B|C) = q = 1 - eps and mass 1/(2q), one
    # low cell with all its mass outside A and B. Screening is exact, both
    # marginals are 1/2 and the deficit is eps, so high_mass exceeds p(A) by
    # eps / (2 (1 - eps)): inside the sqrt(eps) slack, far beyond rounding.
    eps = 0.01
    q = 1.0 - eps
    hi = 0.5 / q
    atoms = ["h11", "h10", "h01", "h00", "l00"]
    weights = [hi * q * q, hi * q * eps, hi * eps * q, hi * eps * eps, 1.0 - hi]
    data = {
        "type": "pairwise",
        "space": {"atoms": atoms, "weights": weights},
        "A": ["h11", "h10"],
        "B": ["h11", "h01"],
        "partition": [atoms[:4], ["l00"]],
    }
    rep = check_cause_mass_bounds(pairwise_model_from_dict(data))
    excess = rep.high_mass - rep.p_a
    ok = (
        rep.ok
        and rep.high_cells == (0,)
        and abs(rep.epsilon - eps) <= 1e-12
        and abs(excess - eps / (2.0 * q)) <= 1e-12
        and excess > 0.005
    )
    report(8, f"high mass exceeds p(A) by {excess:.5f} within sqrt(eps) = {math.sqrt(eps)}", ok)


def test_c09_joint_cause_bounds_suite():
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(1000):
        cards = tuple(int(c) for c in rng.integers(2, 4, size=4))
        model = random_eprb_model(rng, cards, float(rng.uniform(1e-7, 1e-3)))
        rep = joint_cause_bounds_check(model)
        if not (rep.ok and rep.epsilon <= 1e-3 * (1 + 1e-9)):
            ok = False
            break
    report(9, "1000 generated joint models satisfy the joint-cause interval", ok)


def test_c10_no_signalling():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        alice = rng.uniform(0.0, 2 * PI, size=2)
        bob = rng.uniform(0.0, 2 * PI, size=2)
        res = no_signalling_residuals(outcome_tables(alice, bob))
        worst = max(worst, max(abs(r) for r in res))
    report(10, f"quantum tables signalling-free, worst residual {worst:.2e}", worst < 1e-12)


def test_c11_monte_carlo():
    start = time.perf_counter()
    cfg = sim.SimConfig(seed=1, n=10**6, theta=LOWER_THETA)
    rep = sim.test_inequality(sim.estimate(sim.sample_runs(cfg)), 0.0, 3.0)
    elapsed = time.perf_counter() - start
    err = abs(rep.value - (-1.2071067811))
    ok = err <= 4 * rep.se and elapsed < 30.0
    report(11, f"one-million-run estimate off by {err:.2e} ({err / rep.se:.2f} se) in {elapsed:.1f}s", ok)


def test_c12_angle_optimizer():
    theta_lo, val_lo = optimize_angles(mode="min", grid_size=16)
    theta_hi, val_hi = optimize_angles(mode="max", grid_size=16)
    ok = abs(val_lo - TSIRELSON_LOWER) <= 1e-9 and abs(val_hi - TSIRELSON_UPPER) <= 1e-9

    # independent dense-grid oracle, about a million aligned points
    n = 96
    g = 2 * PI * np.arange(n) / n
    gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")

    def s(t):
        return np.sin(t / 2.0) ** 2

    vals = 0.5 * (s(gy) + s(gz) + s(gx - gz) - s(gx - gy)) - 1.0
    ok = ok and abs(val_lo - float(vals.min())) <= 1e-6
    ok = ok and abs(val_hi - float(vals.max())) <= 1e-6
    report(12, f"optimizer extrema {val_lo:.12f} / {val_hi:.12f} match grid oracle", ok)


def test_c13_counterexample_search_properties():
    cfg = SearchConfig(seed=131, restarts=2, max_iters=60)
    r1 = search_counterexample(cfg)
    r2 = search_counterexample(cfg)
    ok = (
        r1.trace == r2.trace
        and r1.objective == r2.objective
        and np.array_equal(r1.model.weights, r2.model.weights)
    )
    if r1.feasible:
        ok = ok and constraint_penalty(r1.model) <= cfg.feas_tol
        ok = ok and not r1.weak_report.violated
        ok = ok and (r1.ch_value < -1.0 or r1.ch_value > 0.0)
    zero_cfg = SearchConfig(seed=7, restarts=2, max_iters=40, eps_band=(0.0, 0.0))
    zero = search_counterexample(zero_cfg)
    ok = ok and zero.feasible is False
    report(13, "search replays bit-identically and the zero band is infeasible", ok)

"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest benchmarks
(the package's own suite under tests/ does not collect these).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import run
import speed
import tracing
import workloads  # puts src/ on sys.path

import weakch  # noqa: E402
from weakch import cli, search  # noqa: E402
from weakch import common_cause as cc  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- a wrong result is a failed operation ------------------------------------


def test_flipped_mass_verdict_counts_as_failure(monkeypatch, workdir):
    real = cc.check_cause_mass_bounds

    def flipped(model, **kwargs):
        rep = real(model, **kwargs)
        return dataclasses.replace(rep, lower_ok=not rep.lower_ok)

    monkeypatch.setattr(cc, "check_cause_mass_bounds", flipped)
    tally = workloads.Tally()
    workloads.run_verify_pairwise(workloads.setup_verify(1, workdir), time.perf_counter(), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "mass bounds fail" in tally.errors[0]


def test_flipped_cli_verdict_counts_as_failure(monkeypatch, workdir):
    real = cli.evaluate_weak_ch

    def flipped(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(rep, violated_lower=not rep.violated_lower)

    monkeypatch.setattr(cli, "evaluate_weak_ch", flipped)
    commands = workloads.setup_cli(1, workdir)
    tally = workloads.Tally()
    workloads.run_cli(commands, time.perf_counter(), tally, in_process=True)
    assert tally.attempted == workloads.CLI_MIN_CALLS
    # both `check` commands now exit with the wrong code, every time round the mix
    check_calls = [commands[k % len(commands)][0] for k in range(workloads.CLI_MIN_CALLS)]
    assert tally.failed == sum(name in ("check_ok", "check_violated") for name in check_calls) == 10
    assert all("exit" in e for e in tally.errors)


def test_exception_counts_as_failure(monkeypatch, workdir):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(search, "search_counterexample", broken)
    jobs = workloads.setup_search(1, workdir)
    tally = workloads.Tally()
    workloads.run_search(jobs, time.perf_counter(), tally)
    assert (tally.attempted, tally.failed) == (len(jobs), len(jobs))


def test_wrong_estimate_counts_as_failure(monkeypatch, workdir):
    ops = workloads.setup_sample(1, workdir)[:2]  # the 10^6 runs of each source
    shifted = [(cfg, exact + 0.05, violated) for cfg, exact, violated in ops]
    tally = workloads.Tally()
    workloads.run_sample(shifted, time.perf_counter(), tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    tally = workloads.Tally()
    workloads.run_sample(ops, time.perf_counter(), tally)
    assert (tally.attempted, tally.failed) == (2, 0)


# -- printed metric names ------------------------------------------------------


def _run_bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = _run_bench("--workload", "sample", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[key])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["simulate.sample_runs.calls"] == 6
        assert 0.0 < metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]


def test_fails_without_a_result_when_weakch_is_missing():
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        (bare / "benchmarks").mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "benchmarks")
        proc = _run_bench("--workload", "sample", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- seeded inputs ---------------------------------------------------------------


def _fingerprint(workload, seed, workdir):
    inputs = workloads.SETUP[workload](seed, workdir)
    if workload == "cli":
        files = sorted((p.name, p.read_text()) for p in workdir.iterdir())
        argv = [[a.replace(str(workdir), "") for a in argv] for _, argv, _ in inputs]
        return repr((files, argv))
    if workload.startswith("verify"):
        return repr({k: v.tolist() for k, v in inputs.items()})
    if workload == "search":
        return repr([dataclasses.asdict(cfg) for cfg in inputs])
    return repr([
        (cfg.seed, cfg.n, cfg.theta, exact, violated,
         cfg.source.weights.tolist() if isinstance(cfg.source, cc.EprbModel) else cfg.source)
        for cfg, exact, violated in inputs
    ])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(workload, workdir):
    first = _fingerprint(workload, 5, workdir / "a")
    assert _fingerprint(workload, 5, workdir / "b") == first
    assert _fingerprint(workload, 6, workdir / "c") != first


# -- tracer hygiene --------------------------------------------------------------


def _bindings():
    """Identity of every object bound in weakch modules and on their classes."""
    out = {}
    for mod in tracing._weakch_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("weakch"):
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = id(member)
    return out


def test_tracer_patches_every_binding_and_restores_it():
    before = _bindings()
    original = cc.validate_loc
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cc.validate_loc is not original
        assert search.validate_loc is cc.validate_loc is weakch.validate_loc
        assert cc.EprbModel.__dict__["profile"].__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_no_function_is_left_wrapped_after_a_traced_run(workdir):
    before = _bindings()
    tally = workloads.Tally()
    raw, tracer = run.measure("verify_joint", workloads.setup_verify(2, workdir), 0.0, True, tally)
    assert tally.failed == 0
    summary = tracer.summary()
    assert summary["common_cause.validate_loc"]["calls"] == 2
    assert summary["common_cause.EprbModel.profile"]["calls"] > 0
    assert sum(r["self_s"] for r in summary.values()) <= raw["wall_s"]
    assert _bindings() == before


def test_untraced_run_installs_no_wrapper(monkeypatch, workdir):
    def refuse(self):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    tally = workloads.Tally()
    raw, tracer = run.measure("sample", workloads.setup_sample(2, workdir)[:2], 0.0, False, tally)
    assert tracer is None and tally.failed == 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    # parent [0, 10] with children [1, 3] and [4, 8]; child [4, 8] has [5, 6]
    for name, start, end, parent in [(0, 0, 10, -1), (1, 1, 3, 0), (1, 4, 8, 0), (2, 5, 6, 2)]:
        tracer.name_ix.append(name)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    s = tracer.summary()
    names = tracer.names
    assert s[names[0]] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert s[names[1]] == {"calls": 2, "self_s": 5.0, "total_s": 6.0}
    assert s[names[2]] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}


def test_importtime_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       400 |        450 |       scipy.linalg",
        "import time:       500 |        950 |     scipy.optimize",
        "import time:        70 |       1320 |   weakch.common_cause",
        "import time:        30 |       1350 | weakch",
    ])
    split = tracing.parse_importtime(stderr)
    assert split == pytest.approx({"scipy_s": 950e-6, "numpy_s": 300e-6, "weakch_self_s": 100e-6})


def test_machine_info_names_the_cpu():
    info = run.machine_info()
    assert info["nproc"] >= 1 and info["numpy"] == np.__version__ and info["cpu"]
    assert info["python"] == ".".join(map(str, sys.version_info[:3]))


def test_quartiles_leave_ten_samples_beyond_p75():
    samples = list(range(workloads.CLI_MIN_CALLS))
    _, p75 = workloads.quartiles(samples)
    assert sum(s > p75 for s in samples) >= 10


# -- speed reference -------------------------------------------------------------


def test_scaling_keeps_the_fixed_part_and_scales_the_rest():
    probe = speed.SpeedProbe(every_s=0.0)
    probe.at, probe.took = [1.0, 2.0, 3.0], [2 * speed.REF_NOMINAL_S] * 3
    # the machine ran twice as slow as nominal: the scaled part halves
    assert probe.scale([2.0, 2.5], [1.0, 1.0], [0.0, 0.4]) == pytest.approx([0.5, 0.4 + 0.3])
    assert probe.factor() == pytest.approx(2.0)


def test_local_reference_is_the_median_of_the_nearest_samples():
    probe = speed.SpeedProbe(every_s=0.0)
    probe.at = [float(t) for t in range(10)]
    probe.took = [1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 2.0, 2.0, 2.0, 2.0]
    assert probe.local_reference(0.0) == 1.0  # clipped window: samples 0 to 4
    assert probe.local_reference(5.0) == 2.0  # samples 3 to 7; the outlier 9.0 drops out
    assert probe.local_reference(99.0) == 2.0


def test_reference_calls_no_weakch_code():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        speed.reference_seconds(1)
    finally:
        tracer.uninstall()
    assert all(row["calls"] == 0 for row in tracer.summary().values())


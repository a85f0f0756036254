"""Run one benchmark workload against the weakch working tree.

    python3 benchmarks/run.py \\
        --workload {cli,verify_pairwise,verify_joint,search,sample} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. weakch is imported from ``src/`` and the
cli workload starts ``python -m weakch.cli`` processes with ``src/`` on
PYTHONPATH; nothing is installed and nothing under ``src/`` or ``tests/``
is touched. Inputs come from the seed alone. With ``--trace 0`` the run
measures the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it installs span wrappers (see tracing.py) and reports the
per-layer metrics instead. The report lines come first: machine, every
metric with its unit and sample count, the metrics named per workload,
and one ``details`` JSON line. The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when weakch or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
WORKLOADS = ("cli", "verify_pairwise", "verify_joint", "search", "sample")
# setup_s is the median of this many set-ups, this process and fresh children,
# each scaled to nominal speed (speed.py).
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def setup(workload: str, seed: int, workdir: Path):
    """Import weakch and build the workload's inputs."""
    import workloads  # imports weakch from src/, which is part of set-up

    return workloads.SETUP[workload](seed, workdir)


def at_nominal_speed(measure) -> tuple[float, float]:
    """Seconds that measure() reports, raw and scaled by the reference around it (speed.py)."""
    before = speed.reference_seconds()
    seconds = measure()
    after = speed.reference_seconds()
    return seconds, seconds * speed.REF_NOMINAL_S / (0.5 * (before + after))


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured the same way in a fresh interpreter."""
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import run\n"
        "start = time.perf_counter()\n"
        f"run.setup({workload!r}, {seed}, run.Path({str(workdir)!r}))\n"
        "print(time.perf_counter() - start)\n"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, inputs, seconds: float, trace: bool, tally):
    """Run the workload's closed loop; returns its raw results and the tracer."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    deadline = start + seconds
    try:
        if workload == "cli":
            raw = workloads.run_cli(inputs, deadline, tally, in_process=trace)
        else:
            raw = workloads.RUN[workload](inputs, deadline, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw["wall_s"] = time.perf_counter() - start
    return raw, tracer


def end_to_end(raw: dict, setup_s: list[float]) -> dict:
    """Every end-to-end metric as (value, samples); times are at nominal speed."""
    from workloads import quartiles

    op_ms = [s * 1e3 for s in raw["op_s"]]
    p50, p75 = quartiles(op_ms)
    n = len(op_ms)
    return {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (raw.get("rss_mb") or self_rss_mb(), 1),
        "op_ms_p50": (p50, n),
        "op_ms_p75": (p75, n),
        "work_per_s": (raw["work"] / sum(raw["op_s"]), n),
    }


def per_layer(raw: dict, tracer, imports: dict) -> dict:
    out = {}
    summary = tracer.summary()
    for name, row in summary.items():
        out[f"{name}.calls"] = (row["calls"], 1)
        out[f"{name}.self_s"] = (row["self_s"], row["calls"])
        out[f"{name}.total_s"] = (row["total_s"], row["calls"])
    for key, value in imports.items():
        out[f"import.{key}"] = (value, IMPORT_SAMPLES)
    out["search.accept_ratio"] = (raw.get("search.accept_ratio", 0.0), 1)
    out["search.best_excess"] = (raw.get("search.best_excess", 0.0), 1)
    out["trace.wall_s"] = (raw["wall_s"], 1)
    out["trace.self_sum_s"] = (sum(row["self_s"] for row in summary.values()), len(tracer.start))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        def setup_here():
            nonlocal inputs
            start = time.perf_counter()
            inputs = setup(args.workload, args.seed, workdir)
            return time.perf_counter() - start

        inputs = None
        try:
            setups = [at_nominal_speed(setup_here)]
        except ImportError as exc:
            print(f"benchmark: cannot import weakch from src/: {exc}", file=sys.stderr)
            return 2
        if not trace:
            setups += [
                at_nominal_speed(lambda: child_setup_seconds(args.workload, args.seed))
                for _ in range(SETUP_SAMPLES - 1)
            ]
        setup_s = [scaled for _, scaled in setups]

        import tracing
        import workloads

        tally = workloads.Tally()
        raw, tracer = measure(args.workload, inputs, args.seconds, trace, tally)
        e2e = end_to_end(raw, setup_s)
        if trace:
            metrics = per_layer(raw, tracer, tracing.import_split(workloads.SRC, IMPORT_SAMPLES))
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = e2e
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark: metrics declared but not measured: {missing}", file=sys.stderr)
        return 2
    result = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared}
    samples = {m["name"]: metrics[m["name"]][1] for m in declared}
    named = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in raw["named"].items()}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "wall_s": raw["wall_s"],
        # reference time over nominal during the loop, and the unscaled times
        "speed_factor": raw["speed_factor"],
        "raw": {
            "setup_s": statistics.median(r for r, _ in setups),
            "op_ms_p50": workloads.quartiles(raw["raw_op_s"])[0] * 1e3,
            "work_per_s": raw["work"] / math.fsum(raw["raw_op_s"]),
        },
        "metrics": {k: dict(v, samples=samples[k]) for k, v in result.items()},
        "named": named,
        # with tracing on these are the end-to-end figures under the wrappers
        "end_to_end": {k: {"value": v, "samples": n} for k, (v, n) in e2e.items()},
        "errors": tally.errors,
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    m = details["machine"]
    print(f"machine  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  cpu {m['cpu']}")
    for name, row in list(details["metrics"].items()) + list(named.items()):
        print(f"  {name:44s} {row['value']:>16.6g} {row['unit']:>6s}  n={row['samples']}")
    print(f"  speed factor {details['speed_factor']:.3f}  unscaled: " + "  ".join(
        f"{k} {v:.6g}" for k, v in details["raw"].items()))
    print(f"  operations {tally.attempted} attempted, {tally.failed} failed")
    for err in tally.errors:
        print(f"  failure: {err}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

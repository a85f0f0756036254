"""Run every workload once and print all their metrics in one table.

    python3 benchmarks/suite.py --seed 1 --seconds 20 [--traced]

Each workload runs in its own benchmarks/run.py process, so set-up and
import are measured fresh every time. The table lists every end-to-end
metric of BENCHMARK.json and the metrics named per workload, with units
and sample counts, and the operations attempted and failed. With
--traced each workload also runs traced: the table adds the traced value
of every end-to-end metric and its change, which is the tracing overhead,
and then lists the workload's per-layer metrics. The traced cli workload
calls weakch.cli.main in-process instead of starting processes, so its
change is not an overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(next(x for x in lines if x.startswith("details "))[len("details "):])
    out["result"] = json.loads(lines[-1])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        off = run_once(workload, args.seed, args.seconds, 0)
        res = off["result"]
        ok = ok and res["correct"]
        print(f"{workload}: {res['attempted']} operations, {res['failed']} failed, machine {off['machine']}")
        traced = run_once(workload, args.seed, args.seconds, 1) if args.traced else None
        on = {**traced["end_to_end"], **traced["named"]} if traced else {}
        for name, row in list(off["metrics"].items()) + list(off["named"].items()):
            line = f"  {name:24s} {row['value']:14.6g} {row['unit']:>6s}  n={row['samples']}"
            if name in on:
                value = on[name]["value"]
                line += f"  traced {value:14.6g} ({(value - row['value']) / row['value']:+.1%})"
            print(line)
        if traced:
            ok = ok and traced["result"]["correct"]
            print(f"  per-layer ({traced['result']['attempted']} operations, {traced['result']['failed']} failed):")
            for name, row in traced["metrics"].items():
                print(f"    {name:46s} {row['value']:14.6g} {row['unit']:>6s}  n={row['samples']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every benchmark workload once and record the results in one file.

    python3 tools/record_bench.py --out BENCH_<n>.json [--seconds S] [--seed N]

For each workload that BENCHMARK.json names, runs its command (the
unchanged ``bench/run.py``) with ``--seed N`` (default 1) and ``--trace 0``
and records the five end-to-end metrics, ``correct``, ``attempted`` and
``failed``, and the median host clock factor from the details file that
run writes under ``bench/results/``.  The file also holds the seed, the
run length, the machine and the Python and numpy versions of the runs.
Exits 1 unless every workload is correct with no failed operation.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def run_workload(command: list[str], name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The workload's record, and the details file of its run ({} if it failed)."""
    argv = command + ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"record_bench: {' '.join(argv)}", file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "error": f"exit {proc.returncode}"}, {}
    result = json.loads(lines[-1])
    details = json.loads((RESULTS / f"{name}-seed{seed}-trace0.json").read_text())
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "clock_factor_median": details["clock_factor_median"],
    }
    return record, details


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, metavar="FILE", help="where to write the results")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"], help="run length of each workload")
    ap.add_argument("--seed", type=int, default=1, help="seed of every workload's inputs")
    args = ap.parse_args(argv)

    workloads = {}
    # every workload runs under the same command, so any run's versions do
    versions = {"python": None, "numpy": None}
    for w in bench["workloads"]:
        record, details = run_workload(bench["command"], w["name"], args.seed, args.seconds)
        workloads[w["name"]] = record
        if details:
            versions = {"python": details["python"], "numpy": details["numpy"]}
        print(f"record_bench: {w['name']}: {json.dumps(record)}", file=sys.stderr, flush=True)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": platform.machine(),
        **versions,
        "units": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    ok = all(r["correct"] is True and r["failed"] == 0 for r in workloads.values())
    print(f"record_bench: wrote {args.out}; {'all correct' if ok else 'NOT all correct with 0 failed'}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

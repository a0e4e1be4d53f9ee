#!/usr/bin/env python3
"""Benchmark for weaktrace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds of whole passes over its seeded
inputs, checks every output against ``oracle``, and prints one JSON
object as its last line of output: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread in all: the workloads run in a single process and BLAS must
# not add threads of its own.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import clock
import inputs
import oracle
import scenario_ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / "work"

SETUP_PROBES = 7
# The kernel whose work is most like each workload's (see clock.py).
WORKLOAD_CLOCK = {"cli_scenarios": "interp", "spectral_random": "array", "weak_deep": "interp"}
TAIL_BEYOND = 10  # op_ms.tail has this many operations beyond it
CLI_SCENARIOS = (
    [("validate", s) for s in ("block_inner_arm", "custom_mzi", "pointer_site_b", "spectral_noisy", "standard")]
    + [
        ("paths", "standard"),
        ("weak", "standard"),
        ("pointer", "pointer_site_b"),
        ("spectrum", "custom_mzi"),
        ("spectrum", "spectral_noisy"),
        ("spectrum", "standard"),
        ("block", "block_inner_arm"),
        ("block", "standard"),
    ]
)


def import_program():
    """Import weaktrace from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "weaktrace" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no weaktrace sources under {src}")
    sys.path.insert(0, str(src))
    import weaktrace

    if Path(weaktrace.__file__).resolve().parent != (src / "weaktrace").resolve():
        raise SystemExit(f"run.py: imported weaktrace from {weaktrace.__file__}, not {src}")
    return weaktrace


class OpFailed(Exception):
    """The program reported failure (a non-zero CLI exit code)."""


class CliCall:
    """One ``weaktrace.cli.main`` invocation writing into its own directory."""

    def __init__(self, wt, workdir: Path, tag: str, command: str, scenario: Path, scn: dict, csv: bool):
        self.wt = wt
        self.command = command
        self.scn = scn
        self.out = workdir / f"{tag}.json"
        self.csv_dir = workdir / f"{tag}-csv" if csv else None
        self.argv = [command, str(scenario), "--out", str(self.out), "--quiet"]
        if csv:
            self.argv += ["--csv-dir", str(self.csv_dir)]

    def prepare(self):
        self.out.unlink(missing_ok=True)
        if self.csv_dir is not None:
            shutil.rmtree(self.csv_dir, ignore_errors=True)

    def run(self):
        rc = self.wt.cli.main(self.argv)
        if rc != 0:
            raise OpFailed(f"exit {rc}")

    def outputs(self) -> dict:
        files = {"report": self.out.read_text()}
        if self.csv_dir is not None and self.csv_dir.is_dir():
            for f in sorted(self.csv_dir.iterdir()):
                files[f.name] = f.read_text()
        return files


def cli_problems(call: CliCall, files: dict, series_cache: dict, stage_pairs=()) -> list:
    """Check one CLI report (and its CSV files) against the oracle."""
    doc = json.loads(files["report"])
    r = scenario_ref.resolve(call.scn, call.command)
    graph = r["graph"]
    p = checks.check_envelope(doc, call.command, r["network"])
    res = doc["result"]
    if call.command == "validate":
        p += checks.check_validate(res, graph)
    elif call.command == "paths":
        p += checks.check_paths(res, graph, r["detector"])
    elif call.command == "weak":
        p += checks.check_weak(res, graph, r["detector"], stage_pairs)
    elif call.command == "pointer":
        p += checks.check_pointer(res, graph, r["detector"], r["site"], r["sigma"])
        got = [reading["coupling"] for reading in res["readings"]]
        p.expect(got == list(r["couplings"]), f"pointer: couplings {got}")
    else:
        configs = [("", None, res)] if call.command == "spectrum" else [
            (f"{c['name']}_", c["blocked_site"], c) for c in res["configs"]
        ]
        if call.command == "block":
            names = [c["name"] for c in res["configs"]]
            p += [] if names == ["baseline"] + [f"block_{s}" for s in r["block_sites"]] else [f"block: configs {names}"]
        for prefix, blocked, sec in configs:
            g = scenario_ref.graph_of(r["network"], blocked)
            key = (json.dumps(r["network"], sort_keys=True), blocked, str(r["plan"]), json.dumps(r["noise"]))
            if key not in series_cache:
                series_cache[key] = checks.expected_series(
                    g, r["detector"], r["plan"], r["sigma"], r["samples"], r["noise"]
                )
            series = series_cache[key]
            p += checks.check_spectral_doc(sec, series, r["plan"], r["sigma"], r["samples"], r["detector"])
            if r["noise"] is None:
                p += checks.check_first_order_peaks(np.asarray(sec["power"]), g, r["detector"], r["plan"], r["sigma"])
            if blocked is not None or call.command == "block":
                p.close(f"block: static probability ({prefix})", sec["static_probability"], abs(g.total(r["detector"])) ** 2)
            if call.csv_dir is not None:
                p += checks.check_csv(files, prefix, series)
    return p


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


class CliOp:
    """Runs a list of CLI calls as one operation; checks all of them."""

    def __init__(self, name, calls, stage_pairs=None):
        self.name = name
        self.calls = calls
        self.steps = [c.run for c in calls]
        self.stage_pairs = stage_pairs or {}
        self.verified = None
        self.series_cache: dict = {}

    def prepare(self):
        for c in self.calls:
            c.prepare()

    def check(self, _value) -> list:
        outputs = [c.outputs() for c in self.calls]
        sig = [digest(o) for o in outputs]
        if self.verified is not None:
            return [] if sig == self.verified else [f"{self.name}: output differs from the verified first run"]
        problems = []
        for c, files in zip(self.calls, outputs):
            problems += [f"{self.name}: {m}" for m in cli_problems(c, files, self.series_cache, self.stage_pairs.get(c.command, ()))]
        if not problems:
            self.verified = sig
        return problems

    def bytes_written(self) -> tuple[int, int]:
        """(all bytes written, CSV bytes written) by the last run."""
        total = csv = 0
        for c in self.calls:
            total += c.out.stat().st_size if c.out.exists() else 0
            if c.csv_dir is not None and c.csv_dir.is_dir():
                n = sum(f.stat().st_size for f in c.csv_dir.iterdir())
                total += n
                csv += n
        return total, csv


class SpectralOp:
    """``run_spectral_experiment`` on one prebuilt network and plan."""

    def __init__(self, wt, inp: dict):
        self.wt = wt
        self.name = inp["name"]
        self.inp = inp
        self.net = build_network(wt, inp["network"])
        self.plan = wt.ModulationPlan(
            sites=tuple(wt.SiteModulation(s, d, b) for s, d, b in inp["plan"]),
            samples=inputs.SPECTRAL_SAMPLES,
        )
        self.sigma = inputs.SPECTRAL_SIGMA
        self.verified = None
        self.steps = [self.run]

    def prepare(self):
        pass

    def run(self):
        return self.wt.run_spectral_experiment(self.net, self.plan, self.sigma)

    def check(self, report) -> list:
        h = hashlib.sha256()
        for arr in (report.xbar, report.rate, report.power):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(report.peaks).encode())
        sig = h.hexdigest()
        if self.verified is not None:
            return [] if sig == self.verified else [f"{self.name}: output differs from the verified first run"]
        problems = [
            f"{self.name}: {m}"
            for m in checks.check_spectral_report(
                report, oracle.Graph(self.inp["network"]), "D", self.inp["plan"], self.sigma, self.plan.samples
            )
        ]
        if not problems:
            self.verified = sig
        return problems

    def bytes_written(self):
        return 0, 0


def build_network(wt, doc: dict):
    """A Network from a document, through the public constructors."""
    def matrix(rows):
        return tuple(tuple(complex(c["re"], c["im"]) for c in row) for row in rows)

    nodes = [
        wt.Node(n["id"], n["kind"], scatter=matrix(n["scatter"]) if "scatter" in n else None)
        for n in doc["nodes"]
    ]
    arms = [
        wt.Arm(
            a["id"], a["from"][0], a["from"][1], a["to"][0], a["to"][1],
            label=a.get("label"), static_phase=a.get("phase", 0.0),
        )
        for a in doc["arms"]
    ]
    return wt.build_network(nodes, arms)


def setup_workload(wt, name: str, seed: int, workdir: Path) -> list:
    """The operations of one pass, in order.  This is the timed set-up."""
    if name in ("cli_scenarios", "weak_deep"):
        importlib.import_module("weaktrace.cli")
    if name == "cli_scenarios":
        calls = []
        for csv in (False, True):
            for command, scn in CLI_SCENARIOS:
                if csv and command not in ("spectrum", "block"):
                    continue
                path = ROOT / "scenarios" / f"{scn}.json"
                tag = f"{len(calls):02d}-{command}-{scn}" + ("-csv" if csv else "")
                calls.append(CliCall(wt, workdir, tag, command, path, json.loads(path.read_text()), csv))
        return [CliOp("pass", calls)]

    if name == "spectral_random":
        return [SpectralOp(wt, inp) for inp in inputs.spectral_inputs(seed)]

    if name == "weak_deep":
        ops = []
        docs = workdir / "inputs"
        docs.mkdir()
        for inp in inputs.deep_inputs(seed):
            base = docs / f"{inp['name']}.json"
            pointer = docs / f"{inp['name']}-pointer.json"
            base.write_text(json.dumps(inp["doc"]))
            pointer.write_text(json.dumps(inp["pointer_doc"]))
            labels = {a["label"] for a in inp["doc"]["network"]["arms"] if "label" in a}
            pairs = [(s, s[:-1] + "d") for s in sorted(labels) if s.endswith("u")]
            for command in ("validate", "paths", "weak", "pointer"):
                path, scn = (pointer, inp["pointer_doc"]) if command == "pointer" else (base, inp["doc"])
                tag = f"{inp['name']}-{command}"
                call = CliCall(wt, workdir, tag, command, path, scn, False)
                ops.append(CliOp(tag, [call], {"weak": pairs}))
        return ops

    raise SystemExit(f"run.py: unknown workload {name!r}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed op."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"run.py: set-up probe failed (exit {rc})")
    return elapsed


def tail_of(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    s = sorted(latencies)
    i = len(s) - 1 - (TAIL_BEYOND if len(s) > TAIL_BEYOND else 0)
    return s[i], 100.0 * (i + 1) / len(s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cli_scenarios", "spectral_random", "weak_deep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wt = import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = setup_workload(wt, args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(wt, args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wt, args, ops) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(wt)
        tracer.install()

    # Operation times are also scaled to the host's reference speed by a
    # kernel timed around each call (clock.py); the end-to-end metrics use
    # the scaled times, the details keep both.
    op_clock = clock.Clock(WORKLOAD_CLOCK[args.workload])
    # Set-up is timed, in wall time, in fresh processes spread over the
    # run.  The traced run reports no set-up time and skips them.
    probes = 0 if tracer else SETUP_PROBES
    setup_times = [probe_setup(args.workload, args.seed)] if probes else []
    probe_every = args.seconds / SETUP_PROBES
    latencies: list[float] = []  # scaled
    wall_latencies: list[float] = []
    by_name: dict[str, list[float]] = {}
    ok_ops: list[int] = []
    problems: list[str] = []
    failures: dict[str, int] = {}
    attempted = failed = passes = 0
    timed = wall_timed = check_s = 0.0
    start = time.perf_counter()
    while True:
        for op in ops:
            op.prepare()
            gc.collect()
            if tracer:
                tracer.begin_op()
            # An operation is one or more calls into the program (its
            # steps); each is scaled by the mean of the clock read just
            # before and just after it.
            wall = scaled = 0.0
            value = error = None
            before = op_clock.factor()
            for step in op.steps:
                t0 = time.perf_counter()
                try:
                    value = step()
                except Exception as exc:  # a failed operation is counted, not fatal
                    error = exc
                t1 = time.perf_counter()
                after = op_clock.factor()
                wall += t1 - t0
                scaled += (t1 - t0) / (0.5 * (before + after))
                before = after
                if error is not None:
                    break
            attempted += 1
            timed += scaled
            wall_timed += wall
            if error is not None:
                failed += 1
                key = f"{op.name}: {type(error).__name__}"
                if key not in failures:
                    print(f"failed: {key}: {str(error)[:200]}", file=sys.stderr)
                failures[key] = failures.get(key, 0) + 1
                continue
            latencies.append(scaled)
            wall_latencies.append(wall)
            by_name.setdefault(op.name, []).append(scaled)
            if tracer:
                ok_ops.append(tracer.op)
                total, csv = op.bytes_written()
                tracer.add_op_counter("bytes_written", total)
                tracer.add_op_counter("csv_bytes_written", csv)
            c0 = time.perf_counter()
            problems += op.check(value)
            check_s += time.perf_counter() - c0
        passes += 1
        elapsed = time.perf_counter() - start
        if len(setup_times) < probes and elapsed >= probe_every * len(setup_times):
            setup_times.append(probe_setup(args.workload, args.seed))
        if elapsed >= args.seconds:
            break
    while len(setup_times) < probes:
        setup_times.append(probe_setup(args.workload, args.seed))

    for msg in problems[:20]:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    for key, n in sorted(failures.items()):
        print(f"failed: {key} x{n}", file=sys.stderr)
    if not latencies:
        print("run.py: no operation completed", file=sys.stderr)
        return 1

    tail, tail_pct = tail_of(latencies)
    clock_factor = statistics.median(op_clock.factors)
    if tracer:
        metrics = tracer.layer_metrics(ok_ops)
        metrics["host.clock_factor"] = {"value": clock_factor, "unit": "ratio"}
        metrics["wall.ops_per_s"] = {"value": len(latencies) / wall_timed, "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": len(latencies) / timed, "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
            "op_ms.tail": {"value": tail * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "result": result,
        "passes": passes,
        "timed_s": timed,
        "wall_timed_s": wall_timed,
        "clock_kernel": WORKLOAD_CLOCK[args.workload],
        "clock_factor_median": clock_factor,
        "clock_factor_quartiles": statistics.quantiles(op_clock.factors, n=4),
        "wall_ops_per_s": len(latencies) / wall_timed,
        "wall_op_ms_p50": statistics.median(wall_latencies) * 1000.0,
        "wall_op_ms_tail": tail_of(wall_latencies)[0] * 1000.0,
        "check_s": check_s,
        "loop_s": time.perf_counter() - start,
        "ops_per_pass": len(ops),
        "completed_ops": len(latencies),
        "ops_per_s": len(latencies) / timed,
        "tail_percentile": tail_pct,
        "setup_probes_s": setup_times,
        "op_median_ms": {k: statistics.median(v) * 1000.0 for k, v in by_name.items()},
        "failures": failures,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

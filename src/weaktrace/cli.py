"""Command line front end.

Subcommands take a scenario JSON file and write a report document to
stdout or --out.  Exit codes: 0 success, 2 malformed scenario (or
unreadable input, or unwritable output), 3 invalid network (or too many
routes to list or read out), 4 numeric degeneracy (or a non-finite result).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import os
import sys
from pathlib import Path

import numpy as np

from . import reports
from .errors import OutputError, SchemaError, WeakTraceError
from .pathsum import (
    arm_input_amplitudes,
    enumerate_paths,
    resolve_detector,
    terminal_amplitudes,
)
from .scenario import (
    EXPERIMENT_KINDS,
    Scenario,
    build_scenario_network,
    default_experiment,
    parse_scenario,
    scenario_echo,
)
from .spectra import SpectralReport, run_blocking_suite, run_spectral_experiment
from .weakval import (
    PointerModel,
    amplitude_split,
    pointer_shift_exact,
    projector_weak_value,
    relative_amplitudes,
    weak_values,
)

# subcommand: (experiment kind, help text)
_SUBCOMMANDS = {
    "validate": (None, "parse a scenario and validate its network"),
    "paths": ("paths", "enumerate source-to-detector paths and amplitudes"),
    "weak": ("weak_values", "relative amplitudes and projector weak values"),
    "pointer": ("pointer", "exact Gaussian pointer shifts at one site"),
    "spectrum": ("spectral", "frequency-multiplexed weak-trace spectrum"),
    "block": ("blocking", "spectral suite with arms blocked one at a time"),
}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktrace",
        description=(
            "Path amplitudes, weak values, and weak-trace spectra for "
            "single photons in beam-splitter networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        if kind in ("spectral", "blocking"):
            p.add_argument(
                "--csv-dir", metavar="DIR", help="also write time-series and spectrum CSV files"
            )
        if kind == "spectral":
            p.add_argument(
                "--seed", type=int, metavar="N", help="override the scenario noise seed"
            )
        p.add_argument("--quiet", action="store_true", help="suppress status notes on stderr")
    return parser


def _note(args, message: str):
    if not args.quiet:
        print(message, file=sys.stderr)


def _resolve_experiment(scenario: Scenario, command: str, args):
    kind = _SUBCOMMANDS[command][0]
    exp = scenario.experiment
    if exp is None:
        exp = default_experiment(scenario, kind)
    elif not isinstance(exp, EXPERIMENT_KINDS[kind]):
        raise SchemaError(
            "$.experiment.kind",
            f"scenario declares a different experiment than subcommand {command!r}",
        )
    if command == "spectrum" and args.seed is not None:
        if args.seed < 0:
            raise SchemaError("$.experiment.noise.seed", "seed must be non-negative")
        if exp.noise is not None:
            exp = dataclasses.replace(
                exp, noise=dataclasses.replace(exp.noise, seed=args.seed)
            )
        else:
            _note(args, "note: --seed ignored, scenario has no noise model")
    return exp


def _run(args) -> tuple[dict, list[tuple[str, SpectralReport, reports.Floats]]]:
    """Execute one subcommand.

    Returns the report document and the spectral reports behind it, each
    with the prefix of its CSV file names and the power its report holds.
    """
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("$", f"cannot read scenario file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"scenario file is not UTF-8 text ({exc})") from exc
    scenario = parse_scenario(text)
    command = args.command

    if command == "validate":
        net = build_scenario_network(scenario.network)
        arm_amp = arm_input_amplitudes(net)
        result = {
            "valid": True,
            "arm_input_amplitudes": {a.id: arm_amp[a.id] for a in net.arms},
        }
        return reports.envelope(command, scenario_echo(scenario), net, result), []

    exp = _resolve_experiment(scenario, command, args)
    scenario = dataclasses.replace(scenario, experiment=exp)
    net = build_scenario_network(scenario.network)
    doc = scenario_echo(scenario)
    spectral: list[tuple[str, SpectralReport, reports.Floats]] = []

    if command == "paths":
        ens = enumerate_paths(net, exp.detector)
        result = reports.paths_result(ens, terminal_amplitudes(net))

    elif command == "weak":
        ens = enumerate_paths(net, exp.detector)
        alphas = relative_amplitudes(ens)
        sites = list(exp.sites) if exp.sites is not None else None
        states: dict = {}
        values = weak_values(net, sites, ens.detector, states)
        result = reports.weak_result(ens, alphas, values, states)

    elif command == "pointer":
        amps = amplitude_split(net, exp.site, exp.detector)
        value = projector_weak_value(amps)
        readings = []
        for g in exp.couplings:
            model = PointerModel(site=exp.site, sigma=exp.sigma, coupling=g)
            readings.append((g, pointer_shift_exact(amps, model)))
        result = reports.pointer_result(
            resolve_detector(net, exp.detector), exp.site, exp.sigma, value, readings
        )

    elif command == "spectrum":
        report = run_spectral_experiment(
            net, exp.plan, exp.sigma, noise=exp.noise, detector=exp.detector
        )
        result = reports.spectral_result(report)
        spectral = [("", report, result["power"])]

    else:  # block
        suite = run_blocking_suite(
            net, exp.plan, exp.sigma, block_sites=exp.block_sites, detector=exp.detector
        )
        result = reports.blocking_result(suite)
        spectral = [
            (f"{config.name}_", config.report, section["power"])
            for config, section in zip(suite.configs, result["configs"])
            if config.report is not None
        ]

    return reports.envelope(command, doc, net, result), spectral


_PATH_SEPARATORS = frozenset(filter(None, ("/", "\0", os.sep, os.altsep)))


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path} ({exc})") from exc


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # a later write to the process's stdout, or the interpreter's flush
        # of it at exit, would fail again with a traceback (or "Exception
        # ignored" and exit 120), so file descriptor 1 now leads to the null
        # device, as Python's notes on SIGPIPE advise.  A stream a caller put
        # in its place is the caller's own, and is left as it is.
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        raise OutputError(f"cannot write the report to stdout ({exc})") from exc


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The run pauses CPython's cyclic garbage collector and restores its
    earlier state on every way out, including argparse's ``SystemExit``
    and any exception that propagates.  A run makes no reference cycles
    (the first call in a process, which builds the cached parser, and
    argparse's usage error aside), so every collection inside it would
    walk tens of thousands of live containers and free nothing.  The
    setting is process-wide: while ``main`` runs, no other thread of the
    process collects cycles either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a NaN or inf ends as a non_finite_result error document when the
        # report is rendered, so numpy's warnings would only garble stderr
        with np.errstate(all="ignore"):
            doc, spectral = _run(args)
            text = reports.render_json(doc)

        # files first, so stdout carries a report only when every write worked;
        # only spectrum and block return spectral reports and take --csv-dir
        if spectral and args.csv_dir:
            csv_dir = Path(args.csv_dir)
            # a site label is free text, but each file name stays one
            # component of csv_dir (a name holding NUL cannot be opened)
            for prefix, _, _ in spectral:
                if not _PATH_SEPARATORS.isdisjoint(prefix):
                    raise OutputError(
                        f"configuration {prefix[:-1]!r} cannot name a CSV file in {csv_dir} "
                        "(a file name may hold no path separator or NUL)"
                    )
            for prefix, report, power in spectral:
                _write_text(
                    csv_dir / f"{prefix}timeseries.csv",
                    reports.timeseries_csv(report.xbar, report.rate),
                )
                # the report's power, whose text the JSON report has already made
                _write_text(csv_dir / f"{prefix}spectrum.csv", reports.spectrum_csv(power))
            _note(args, f"{2 * len(spectral)} CSV file(s) written to {csv_dir}")
        if args.out:
            out_path = Path(args.out)
            _write_text(out_path, text)
            _note(args, f"report written to {out_path}")
        else:
            _write_stdout(text)
    except WeakTraceError as exc:
        error_doc = {"error": exc.code, "message": str(exc)}
        sys.stderr.write(reports.render_json(error_doc))
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

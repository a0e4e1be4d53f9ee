"""Command line front end.

Subcommands take a scenario JSON file and write a report document to
stdout or --out.  Exit codes: 0 success, 2 malformed scenario (or
unreadable input), 3 invalid network (or too many routes to list),
4 numeric degeneracy (or a non-finite result).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import reports
from .errors import SchemaError, WeakTraceError
from .pathsum import (
    arm_input_amplitudes,
    enumerate_paths,
    terminal_amplitudes,
)
from .scenario import (
    EXPERIMENT_KINDS,
    Scenario,
    build_scenario_network,
    default_experiment,
    parse_scenario,
    scenario_doc,
)
from .spectra import SpectralReport, run_blocking_suite, run_spectral_experiment
from .weakval import (
    PointerModel,
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


def _run(args) -> tuple[dict, list[tuple[str, SpectralReport]]]:
    """Execute one subcommand.

    Returns the report document and the spectral reports behind it, each
    with the prefix of its CSV file names.
    """
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        raise SchemaError("$", f"cannot read scenario file ({exc})") from exc
    scenario = parse_scenario(text)
    command = args.command

    if command == "validate":
        net = build_scenario_network(scenario.network)
        arm_amp = arm_input_amplitudes(net)
        result = {
            "valid": True,
            "arm_input_amplitudes": {a.id: arm_amp[a.id] for a in net.arms},
        }
        return reports.envelope(command, scenario_doc(scenario), net, result), []

    exp = _resolve_experiment(scenario, command, args)
    scenario = dataclasses.replace(scenario, experiment=exp)
    net = build_scenario_network(scenario.network)
    doc = scenario_doc(scenario)
    spectral: list[tuple[str, SpectralReport]] = []

    if command == "paths":
        ens = enumerate_paths(net, exp.detector)
        result = reports.paths_result(ens, terminal_amplitudes(net))

    elif command == "weak":
        ens = enumerate_paths(net, exp.detector)
        alphas = relative_amplitudes(ens)
        sites = list(exp.sites) if exp.sites is not None else None
        result = reports.weak_result(ens, alphas, weak_values(ens, sites))

    elif command == "pointer":
        ens = enumerate_paths(net, exp.detector)
        value = projector_weak_value(ens, exp.site)
        readings = []
        for g in exp.couplings:
            model = PointerModel(site=exp.site, sigma=exp.sigma, coupling=g)
            readings.append((g, pointer_shift_exact(ens, model)))
        result = reports.pointer_result(
            ens.detector, exp.site, exp.sigma, value, readings
        )

    elif command == "spectrum":
        report = run_spectral_experiment(
            net, exp.plan, exp.sigma, noise=exp.noise, detector=exp.detector
        )
        result = reports.spectral_result(report)
        spectral = [("", report)]

    else:  # block
        suite = run_blocking_suite(
            net, exp.plan, exp.sigma, block_sites=exp.block_sites, detector=exp.detector
        )
        result = reports.blocking_result(suite)
        spectral = [(f"{config.name}_", config.report) for config in suite.configs]

    return reports.envelope(command, doc, net, result), spectral


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a NaN or inf ends as a non_finite_result error document when the
        # report is rendered, so numpy's warnings would only garble stderr
        with np.errstate(all="ignore"):
            doc, spectral = _run(args)
            text = reports.render_json(doc)
    except WeakTraceError as exc:
        error_doc = {"error": exc.code, "message": str(exc)}
        sys.stderr.write(reports.render_json(error_doc))
        return exc.exit_code

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
        _note(args, f"report written to {out_path}")
    else:
        sys.stdout.write(text)

    # only spectrum and block return spectral reports, and only they take --csv-dir
    if spectral and args.csv_dir:
        csv_dir = Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
        for prefix, report in spectral:
            (csv_dir / f"{prefix}timeseries.csv").write_text(
                reports.timeseries_csv(report.xbar, report.rate)
            )
            (csv_dir / f"{prefix}spectrum.csv").write_text(reports.spectrum_csv(report.power))
        _note(args, f"{2 * len(spectral)} CSV file(s) written to {csv_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

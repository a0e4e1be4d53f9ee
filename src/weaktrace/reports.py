"""Report documents and their deterministic serialization.

The JSON emitter is hand-rolled for reproducibility: floats are always
rendered with %.17g, one fixed format that round-trips every double,
dictionary order is insertion order, and numeric leaf arrays are kept on
one line.
Identical inputs therefore produce byte-identical documents.  JSON and
CSV floats all pass through ``_fmt_float``, which refuses NaN and inf.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteResultError
from .netgraph import Network
from .pathsum import PathEnsemble
from .spectra import BlockingSuite, SpectralReport

VERSION = "0.1.0"

FLOAT_FORMAT = ".17g"


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteResultError(f"the result holds a non-finite value ({x!r})")
    return format(x, FLOAT_FORMAT)


def _is_scalar(v) -> bool:
    return v is None or isinstance(
        v, (bool, int, float, str, np.integer, np.floating)
    )


def _render(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, complex):
        return _render({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f":
            return "[" + ", ".join(map(_fmt_float, value.tolist())) + "]"
        return _render(value.tolist(), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            lines.append(
                f"{pad}  {json.dumps(key, ensure_ascii=True)}: "
                f"{_render(item, indent + 1)}"
            )
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(_render(v, indent + 1) for v in items) + "]"
        lines = [f"{pad}  {_render(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_json(doc: dict) -> str:
    """Serialize a report document; trailing newline included."""
    return _render(doc, 0) + "\n"


def envelope(command: str, scenario_document: dict, net: Network, result: dict) -> dict:
    return {
        "tool": "weaktrace",
        "version": VERSION,
        "command": command,
        "scenario": scenario_document,
        "network": {
            "nodes": len(net.nodes),
            "arms": len(net.arms),
            "source": net.source,
            "detectors": list(net.detectors),
            "sites": sorted(net.site_labels()),
        },
        "result": result,
    }


def paths_result(ens: PathEnsemble, terminals: dict[str, complex]) -> dict:
    return {
        "detector": ens.detector,
        "paths": [
            {
                "arms": list(p.arms),
                "sites": list(p.sites),
                "amplitude": p.amplitude,
                "blocked": p.blocked,
            }
            for p in ens.paths
        ],
        "total": ens.total,
        "probability": abs(ens.total) ** 2,
        "terminals": {
            t: {"amplitude": a, "probability": abs(a) ** 2}
            for t, a in sorted(terminals.items())
        },
        "terminal_probability_sum": sum(abs(a) ** 2 for a in terminals.values()),
    }


def weak_result(ens: PathEnsemble, alphas, values: dict[str, complex]) -> dict:
    return {
        "detector": ens.detector,
        "total": ens.total,
        "probability": abs(ens.total) ** 2,
        "paths": [
            {
                "sites": list(p.sites),
                "amplitude": p.amplitude,
                "relative_amplitude": a,
            }
            for p, a in zip(ens.paths, alphas)
        ],
        "weak_values": values,
    }


def pointer_result(
    detector: str,
    site: str,
    sigma: float,
    weak_value: complex,
    readings: list[tuple[float, float]],
) -> dict:
    return {
        "detector": detector,
        "site": site,
        "sigma": sigma,
        "weak_value": weak_value,
        "readings": [
            {
                "coupling": g,
                "shift": shift,
                "first_order": g * weak_value.real,
            }
            for g, shift in readings
        ],
    }


def spectral_result(report: SpectralReport) -> dict:
    return {
        "detector": report.detector,
        "sigma": report.sigma,
        "samples": report.samples,
        "mean_rate": report.mean_rate,
        "noise_floor": report.noise_floor,
        "peaks": [
            {
                "site": p.site,
                "bin": p.bin,
                "power": p.power,
                "classification": p.classification,
            }
            for p in report.peaks
        ],
        "power": report.power,
    }


def blocking_result(suite: BlockingSuite) -> dict:
    configs = []
    for c in suite.configs:
        doc = {
            "name": c.name,
            "blocked_site": c.blocked_site,
            "static_probability": c.static_probability,
        }
        doc.update(spectral_result(c.report))
        configs.append(doc)
    return {"configs": configs}


def _csv(header: str, *columns) -> str:
    """The header, then one row per index: the index and each column's float."""
    cols = [map(_fmt_float, np.asarray(c, dtype=float).tolist()) for c in columns]
    rows = (f"{k}," + ",".join(row) for k, row in enumerate(zip(*cols)))
    return "\n".join([header, *rows]) + "\n"


def timeseries_csv(xbar, rate) -> str:
    return _csv("k,xbar,rate", xbar, rate)


def spectrum_csv(power) -> str:
    return _csv("bin,power", power)

"""Report documents and their deterministic serialization.

The JSON emitter is hand-rolled for reproducibility: every float, in the
JSON reports and the CSV files alike, is written with the one format
``FLOAT_FORMAT`` (%.17g, which round-trips every double), dictionary
order is insertion order, and numeric leaf arrays are kept on one line.
Identical inputs therefore produce byte-identical documents.

NaN and inf are refused with ``NonFiniteResultError``, which names the
first such value.  A float array or a whole CSV table is checked with one
array-wide ``np.isfinite`` test and written with one ``%`` call on a
template that repeats ``FLOAT_FORMAT``; a lone float is checked and
written on its own, with the same format and the same message.
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

FLOAT_FORMAT = "%.17g"

# the C encoder behind json.dumps(str, ensure_ascii=True)
_encode_str = json.encoder.encode_basestring_ascii

# types that keep a list on one line (subclasses included)
_SCALARS = (bool, int, float, str, np.integer, np.floating, type(None))


def _non_finite(x) -> NonFiniteResultError:
    return NonFiniteResultError(f"the result holds a non-finite value ({float(x)!r})")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return FLOAT_FORMAT % x


def _fmt_floats(values: np.ndarray, template: str) -> str:
    """``template`` filled with every float of ``values`` in C order."""
    finite = np.isfinite(values)
    if not finite.all():
        raise _non_finite(values[~finite][0])
    return template % tuple(values.ravel().tolist())


def _render(value, indent: int) -> str:
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        return _fmt_float(value)
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            items.append(_encode_str(key) + ": " + _render(item, indent + 1))
        inner = "\n" + "  " * (indent + 1)
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * indent + "}"
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            return "[" + ", ".join(map(_encode_str, value)) + "]"
        if kinds == {float}:
            return _fmt_floats(np.array(value), "[" + ", ".join([FLOAT_FORMAT] * len(value)) + "]")
        items = [_render(v, indent + 1) for v in value]
        if all(issubclass(k, _SCALARS) for k in kinds):
            return "[" + ", ".join(items) + "]"
        inner = "\n" + "  " * (indent + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * indent + "]"
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return _render(_builtin(value), indent)


def _builtin(value):
    """The built-in value that a numpy scalar or array, a complex number, a
    tuple or a subclass of a built-in type is written as."""
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return list(value)
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
    n = len(columns[0])
    table = np.column_stack(
        [np.arange(n, dtype=float)] + [np.asarray(c, dtype=float) for c in columns]
    )
    # "%.17g" writes every index below 2**53 as its integer digits
    row = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
    return header + "\n" + _fmt_floats(table, row * n)


def timeseries_csv(xbar, rate) -> str:
    return _csv("k,xbar,rate", xbar, rate)


def spectrum_csv(power) -> str:
    return _csv("bin,power", power)

import json
import math

import numpy as np
import pytest

from weaktrace import enumerate_paths, relative_amplitudes, standard_nested_mzi
from weaktrace.netgraph import (
    BEAM_SPLITTER,
    DETECTOR,
    MIRROR,
    SINK,
    SOURCE,
    Arm,
    Node,
    build_network,
    hadamard,
)
from weaktrace.errors import NonFiniteResultError


@pytest.fixture
def std_net():
    return standard_nested_mzi()


@pytest.fixture
def std_ens(std_net):
    return enumerate_paths(std_net)


def make_dark_port_mzi():
    """A single balanced interferometer with the detector on the dark output.

    Both routes arrive with amplitudes +1/2 and -1/2, so the detector
    amplitude is exactly zero while the sink receives everything.  The
    upper route passes the labeled site X.
    """
    nodes = [
        Node("SRC", SOURCE),
        Node("BS1", BEAM_SPLITTER, scatter=hadamard()),
        Node("BS2", BEAM_SPLITTER, scatter=hadamard()),
        Node("MX", MIRROR, label="X"),
        Node("D", DETECTOR, label="D"),
        Node("K", SINK),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS1", 0),
        Arm("X", "BS1", 0, "MX", 0, label="X"),
        Arm("X_out", "MX", 0, "BS2", 0),
        Arm("ref", "BS1", 1, "BS2", 1),
        Arm("bright", "BS2", 0, "K", 0),
        Arm("dark", "BS2", 1, "D", 0),
    ]
    return build_network(nodes, arms)


@pytest.fixture
def dark_port_net():
    return make_dark_port_mzi()


def path_by_sites(ens):
    """Index an ensemble's paths by their site signature."""
    return {p.sites: p for p in ens.paths}


def route_weak_value(ens, site):
    """Weak-value oracle: the relative amplitudes of the routes through
    ``site``, summed route by route."""
    alphas = relative_amplitudes(ens)
    return complex(sum(a for a, p in zip(alphas, ens.paths) if site in p.sites))


def route_amplitude_split(ens, site):
    """(A0, A1) oracle: route amplitudes bypassing and passing ``site``."""
    a1 = sum((p.amplitude for p in ens.paths if site in p.sites), 0j)
    return ens.total - a1, a1


def _reference_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteResultError(f"the result holds a non-finite value ({x!r})")
    return format(x, ".17g")


def _reference_is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str, np.integer, np.floating))


def _reference_render(value, indent: int) -> str:
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
        return _reference_float(float(value))
    if isinstance(value, complex):
        return _reference_render({"re": value.real, "im": value.imag}, indent)
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f":
            return "[" + ", ".join(map(_reference_float, value.tolist())) + "]"
        return _reference_render(value.tolist(), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            lines.append(
                f"{pad}  {json.dumps(key, ensure_ascii=True)}: "
                f"{_reference_render(item, indent + 1)}"
            )
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_reference_is_scalar(v) for v in items):
            return "[" + ", ".join(_reference_render(v, indent + 1) for v in items) + "]"
        lines = [f"{pad}  {_reference_render(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def reference_render_json(doc: dict) -> str:
    """Report-text oracle: the emitter that formats and checks one value
    per Python call, kept to pin ``reports.render_json`` byte for byte."""
    return _reference_render(doc, 0) + "\n"


def reference_csv(header: str, *columns) -> str:
    """CSV-text oracle for ``reports.timeseries_csv`` and ``spectrum_csv``:
    one formatted row per index, one Python call per value."""
    cols = [map(_reference_float, np.asarray(c, dtype=float).tolist()) for c in columns]
    rows = (f"{k}," + ",".join(row) for k, row in enumerate(zip(*cols)))
    return "\n".join([header, *rows]) + "\n"

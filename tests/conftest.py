import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from weaktrace import (
    apply_block,
    enumerate_paths,
    netgraph,
    pathsum,
    relative_amplitudes,
    scenario,
    standard_nested_mzi,
    weakval,
)
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
from weaktrace.randomnet import random_layered_network, random_unitary_2x2
from node_passes import arms_by_port, topological_order


@pytest.fixture
def std_net():
    return standard_nested_mzi()


@pytest.fixture
def std_ens(std_net):
    return enumerate_paths(std_net)


def kernel_calls(monkeypatch, name):
    """Record each call to one of ``weakval``'s two post-selected mean
    kernels as (classes K,) for ``_pair_sums``, (K, order) for ``_moment_sums``."""
    calls = []
    kernel = getattr(weakval, name)

    def counted(amps, disp, *order):
        calls.append((amps.size, *order))
        return kernel(amps, disp, *order)

    monkeypatch.setattr(weakval, name, counted)
    return calls


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it traced beyond what was
    held when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def count_sweeps(monkeypatch):
    """Record each scalar sweep of ``pathsum``, "forward" or "backward",
    in call order."""
    calls = []
    for name in ("forward", "backward"):
        real = getattr(pathsum, f"_sweep_{name}")
        monkeypatch.setattr(pathsum, f"_sweep_{name}", lambda *a, n=name, f=real: calls.append(n) or f(*a))
    return calls


def build_calls(monkeypatch):
    """Record each network validation: one per ``standard_nested_mzi``, one
    per edit (``apply_block``, ...) and one per custom scenario network."""
    calls = []
    real = netgraph.build_network
    for module in (netgraph, scenario):
        monkeypatch.setattr(module, "build_network", lambda *a: calls.append(1) or real(*a))
    return calls


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


def hadamard_cascade_scenario(stages: int) -> dict:
    """Splitters J0..J<stages>, each joined to the next by two labeled arms:
    2**stages routes reach D.  An even number of Hadamards is the identity,
    so after every joint only port 0 can still reach D: the upper arms have
    weak value 1 and the lower ones 0."""
    h = 2**-0.5
    nodes = [{"id": "SRC", "kind": "source"}]
    nodes += [
        {"id": f"J{j}", "kind": "beam_splitter", "scatter": [[h, h], [h, -h]]}
        for j in range(stages + 1)
    ]
    nodes += [{"id": "D", "kind": "detector"}, {"id": "K", "kind": "sink"}]
    arms = [{"id": "in", "from": ["SRC", 0], "to": ["J0", 0]}]
    for s in range(stages):
        for port, side in ((0, "u"), (1, "d")):
            arms.append(
                {"id": f"s{s}{side}", "from": [f"J{s}", port], "to": [f"J{s + 1}", port],
                 "label": f"s{s}{side}"}
            )
    arms.append({"id": "out", "from": [f"J{stages}", 0], "to": ["D", 0]})
    arms.append({"id": "dump", "from": [f"J{stages}", 1], "to": ["K", 0]})
    return {"network": {"kind": "custom", "nodes": nodes, "arms": arms}}


def dead_branch_scenario(sites: int, samples: int) -> dict:
    """A splitter whose port 0 goes to D and whose port 1 runs through
    ``sites`` modulated mirror arms M1..M<sites> to a sink: every probed site
    is off the only route to D, so the spectral readout has one class."""
    h = 2**-0.5
    nodes = [
        {"id": "SRC", "kind": "source"},
        {"id": "BS", "kind": "beam_splitter", "scatter": [[h, h], [h, -h]]},
        {"id": "D", "kind": "detector"},
        *({"id": f"M{i}", "kind": "mirror"} for i in range(1, sites + 1)),
        {"id": "K", "kind": "sink"},
    ]
    ends = [["BS", 1], *([f"M{i}", 0] for i in range(1, sites + 1)), ["K", 0]]
    arms = [
        {"id": "in", "from": ["SRC", 0], "to": ["BS", 0]},
        {"id": "out", "from": ["BS", 0], "to": ["D", 0]},
        *(
            {"id": f"p{i}", "from": ends[i - 1], "to": ends[i], "label": f"S{i}",
             "modulation": {"delta": 0.01, "bin": i}}
            for i in range(1, sites + 1)
        ),
        {"id": "dump", "from": ends[-2], "to": ends[-1]},
    ]
    return {
        "network": {"kind": "custom", "nodes": nodes, "arms": arms},
        "experiment": {"kind": "spectral", "samples": samples},
    }


def uneven_runs_network(rng: np.random.Generator, splitters: int = 8):
    """A random branching network whose legs end at different depths.

    Splitters J0, J1, ... each take one or two of the three oldest open
    output ports, so the network branches nearly breadth first; a splitter
    fed by one port now and then takes, into its other input, a run of
    mirrors that no arm feeds.  The ports left open end on the detector D
    and on sinks.  Every hop runs through mirrors, 2 to 6 from a splitter's
    port 0 and 0 to 2 from its port 1 or the source; its first arm carries
    a site label, and about one hop in eight has an arm of transmission 0.
    The node and arm lists are shuffled.  So a splitter reached by a long
    run often starts its legs before one reached by a short run, an order
    that a node-at-a-time sort (``node_passes.topological_order``) reverses.
    """
    nodes = [Node("SRC", SOURCE)]
    arms = []
    open_ports = [("SRC", 0)]

    def run(src, dst, depth):
        # depth mirrors from the port src (None: no arm feeds the first) to the port dst
        n = len(arms)
        ends = [(f"M{n + i}", 0) for i in range(depth)]
        nodes.extend(Node(m, MIRROR) for m, _ in ends)
        ends = ends + [dst] if src is None else [src, *ends, dst]
        blocked = int(rng.integers(len(ends) - 1)) if rng.uniform() < 0.125 else None
        for i, (a, b) in enumerate(zip(ends, ends[1:])):
            arms.append(
                Arm(
                    f"a{n + i}",
                    *a,
                    *b,
                    label=f"s{n}" if i == 0 else None,
                    static_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
                    transmission=0.0 if i == blocked else 1.0,
                )
            )

    def hop(src):
        # the mirrors of a hop from a splitter's port 0: 2 to 6; from its port 1: 0 to 2
        return int(rng.integers(2, 7) if src[1] == 0 and src[0] != "SRC" else rng.integers(3))

    for k in range(splitters):
        nodes.append(Node(f"J{k}", BEAM_SPLITTER, scatter=random_unitary_2x2(rng)))
        two = len(open_ports) > 1 and rng.uniform() < 0.4
        for port in range(1 + two):
            src = open_ports.pop(int(rng.integers(min(3, len(open_ports)))))  # one of the oldest
            run(src, (f"J{k}", port), hop(src))
        if not two and rng.uniform() < 0.3:
            run(None, (f"J{k}", 1), int(rng.integers(1, 4)))
        open_ports += [(f"J{k}", 0), (f"J{k}", 1)]
    rng.shuffle(open_ports)
    for i, src in enumerate(open_ports):
        end = "D" if i == 0 else f"K{i}"
        nodes.append(Node(end, DETECTOR if i == 0 else SINK))
        run(src, (end, 0), hop(src))
    return build_network(
        [nodes[i] for i in rng.permutation(len(nodes))], [arms[i] for i in rng.permutation(len(arms))]
    )


SWAP = ((0j, 1 + 0j), (1 + 0j, 0j))
IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))


def with_absent_couplings(rng: np.random.Generator):
    """A random layered network with about 40 % of its splitters replaced by
    a swap or an identity, whose zero entries are absent couplings, and
    about 20 % of its labeled arms blocked; and how many were replaced."""
    net = random_layered_network(rng, 6)
    nodes = [
        dataclasses.replace(n, scatter=(SWAP, IDENTITY)[rng.integers(2)])
        if n.kind == BEAM_SPLITTER and rng.uniform() < 0.4
        else n
        for n in net.nodes
    ]
    replaced = sum(a is not b for a, b in zip(nodes, net.nodes))
    net = build_network(nodes, net.arms)
    blocked = [s for s in sorted(net.site_labels()) if rng.uniform() < 0.2]
    return apply_block(net, *blocked), replaced


def two_state_split(net, site, detector):
    """(A1, total) oracle in the two-state form: with fwd the amplitude the
    source sends into a point and bwd the amplitude a point sends on to the
    detector, A1 = fwd(arm) * factor(arm) * bwd(arm's end) for the arm
    carrying ``site``, and total = bwd at the source.  One forward loop and
    one backward loop over the nodes sorted by ``node_passes``, each
    splitter applied transposed on the way back; nothing from ``pathsum``."""
    order = topological_order(net)
    outgoing = arms_by_port(net)
    fwd_in, fwd_out = {}, {}  # amplitude at each (node, input port) / into each (node, output port)
    for node in order:
        ins = [fwd_in.get((node.id, q), 0j) for q in range(2)]
        if node.kind == SOURCE:
            fwd_out[(node.id, 0)] = 1.0 + 0j
        elif node.kind == BEAM_SPLITTER:
            for p, row in enumerate(node.scatter):
                fwd_out[(node.id, p)] = row[0] * ins[0] + row[1] * ins[1]
        elif node.kind == MIRROR:
            fwd_out[(node.id, 0)] = ins[0]
        for p in range(2):
            arm = outgoing.get((node.id, p))
            if arm is not None:
                key = (arm.to_node, arm.to_port)
                fwd_in[key] = fwd_in.get(key, 0j) + fwd_out[(node.id, p)] * arm.factor()
    bwd_in, bwd_out = {}, {}  # amplitude on to the detector from the same points
    for node in reversed(order):
        for p in range(2):
            arm = outgoing.get((node.id, p))
            if arm is not None:
                bwd_out[(node.id, p)] = arm.factor() * bwd_in[(arm.to_node, arm.to_port)]
        if node.kind == DETECTOR:
            bwd_in[(node.id, 0)] = 1.0 + 0j if node.id == detector else 0j
        elif node.kind == SINK:
            bwd_in[(node.id, 0)] = 0j
        elif node.kind == BEAM_SPLITTER:
            s = node.scatter
            for q in range(2):
                bwd_in[(node.id, q)] = s[0][q] * bwd_out[(node.id, 0)] + s[1][q] * bwd_out[(node.id, 1)]
        elif node.kind == MIRROR:
            bwd_in[(node.id, 0)] = bwd_out[(node.id, 0)]
    arm = net.labeled_arm(site)
    a1 = fwd_out[(arm.from_node, arm.from_port)] * arm.factor() * bwd_in[(arm.to_node, arm.to_port)]
    return a1, bwd_out[(net.source, 0)]


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

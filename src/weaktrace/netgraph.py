"""Directed beam-splitter networks.

A network is a DAG of optical elements joined by arms.  Beam splitters
scatter two input modes into two output modes through a 2x2 unitary;
mirrors relay a single mode and may mark a labeled site; arms carry a
static phase, an amplitude transmission factor, and optionally a slow
sinusoidal phase modulation used by the spectral readout.

Networks are immutable.  Edits (blocking a site, changing a transmission)
produce a new, revalidated instance.  A network keeps the indexes its
validation built: nodes by id, the arm leaving each output port, arms by
site label, and one topological order.  Every pass over the network reads
them, so it is sorted and indexed once, when it is built.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    CyclicGraphError,
    DanglingPortError,
    DuplicateLabelError,
    NetworkError,
    NonUnitaryScatterError,
    PortConflictError,
    UnknownLabelError,
)

SOURCE = "source"
BEAM_SPLITTER = "beam_splitter"
MIRROR = "mirror"
BLOCK = "block"
DETECTOR = "detector"
SINK = "sink"

NODE_KINDS = (SOURCE, BEAM_SPLITTER, MIRROR, BLOCK, DETECTOR, SINK)

IN_PORTS = {SOURCE: 0, BEAM_SPLITTER: 2, MIRROR: 1, BLOCK: 1, DETECTOR: 1, SINK: 1}
OUT_PORTS = {SOURCE: 1, BEAM_SPLITTER: 2, MIRROR: 1, BLOCK: 1, DETECTOR: 0, SINK: 0}

UNITARITY_TOL = 1e-12

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def hadamard() -> Matrix2:
    """The balanced real splitter, (in0 + in1, in0 - in1) / sqrt(2)."""
    h = 1.0 / math.sqrt(2.0)
    return ((h + 0j, h + 0j), (h + 0j, -h + 0j))


def as_matrix2(value) -> Matrix2:
    """Coerce a 2x2 array-like of numbers into the internal tuple form."""
    arr = np.asarray(value, dtype=complex)
    if arr.shape != (2, 2):
        raise NetworkError(f"scatter matrix must be 2x2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NetworkError("scatter matrix contains non-finite entries")
    return (
        (complex(arr[0, 0]), complex(arr[0, 1])),
        (complex(arr[1, 0]), complex(arr[1, 1])),
    )


@dataclass(frozen=True)
class Node:
    """One optical element.

    ``scatter`` is required for beam splitters and forbidden elsewhere.
    ``label`` is a display tag for mirrors and detectors; site identity
    for blocking, weak values and modulation lives on arm labels.
    """

    id: str
    kind: str
    scatter: Matrix2 | None = None
    label: str | None = None


@dataclass(frozen=True)
class Modulation:
    """Sinusoidal probe parameters attached to an arm.

    ``delta`` is the dimensionless modulation depth, ``bin`` the integer
    frequency bin it is driven at (validated by the spectral plan).
    """

    delta: float
    bin: int


@dataclass(frozen=True)
class Arm:
    """A directed mode connecting an output port to an input port."""

    id: str
    from_node: str
    from_port: int
    to_node: str
    to_port: int
    label: str | None = None
    static_phase: float = 0.0
    transmission: float = 1.0
    modulation: Modulation | None = None

    def factor(self) -> complex:
        """Amplitude transfer factor of the arm (static part only)."""
        return self.transmission * cmath.exp(1j * self.static_phase)


@dataclass(frozen=True)
class Network:
    """A validated network, made only by ``build_network``; the underscored
    fields are the indexes its validation built, outside equality."""

    nodes: tuple[Node, ...]
    arms: tuple[Arm, ...]
    source: str
    detectors: tuple[str, ...]
    _by_id: dict[str, Node] = field(compare=False, repr=False)
    _outgoing: dict[tuple[str, int], Arm] = field(compare=False, repr=False)
    _by_label: dict[str, Arm] = field(compare=False, repr=False)
    _order: tuple[Node, ...] = field(compare=False, repr=False)

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def arm(self, arm_id: str) -> Arm:
        for a in self.arms:
            if a.id == arm_id:
                return a
        raise KeyError(arm_id)

    def labeled_arm(self, label: str) -> Arm:
        """The unique arm carrying a site label.

        Raises UnknownLabelError when no arm has the label.
        """
        arm = self._by_label.get(label)
        if arm is None:
            raise UnknownLabelError(f"no arm carries site label {label!r}")
        return arm

    def site_labels(self) -> frozenset[str]:
        return frozenset(self._by_label)

    def node_map(self) -> Mapping[str, Node]:
        """Each node by id, read-only."""
        return MappingProxyType(self._by_id)

    def outgoing(self) -> Mapping[tuple[str, int], Arm]:
        """The arm leaving each (node id, output port), read-only."""
        return MappingProxyType(self._outgoing)

    def topological_order(self) -> tuple[Node, ...]:
        """Nodes sorted so every arm points forward."""
        return self._order


def _check_unitary(node: Node) -> None:
    u = np.array(node.scatter, dtype=complex)
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if dev > UNITARITY_TOL:
        raise NonUnitaryScatterError(node.id, dev)


def build_network(nodes, arms) -> Network:
    """Validate element and arm lists and assemble an immutable Network.

    Checks, in order: node well-formedness (kinds, scatter presence and
    unitarity), unique ids, port references, one arm per port, no dangling
    output ports, exactly one source, at least one detector, unique arm
    site labels, arm parameter ranges, and acyclicity.

    Parameters
    ----------
    nodes, arms : iterables of Node and Arm

    Returns
    -------
    Network
    """
    nodes = tuple(nodes)
    arms = tuple(arms)

    by_id: dict[str, Node] = {}
    for n in nodes:
        if n.kind not in NODE_KINDS:
            raise NetworkError(f"node {n.id!r} has unknown kind {n.kind!r}")
        if n.id in by_id:
            raise DuplicateLabelError(f"duplicate node id {n.id!r}")
        by_id[n.id] = n
        if n.kind == BEAM_SPLITTER:
            if n.scatter is None:
                raise NetworkError(f"beam splitter {n.id!r} has no scatter matrix")
            _check_unitary(n)
        elif n.scatter is not None:
            raise NetworkError(f"node {n.id!r} of kind {n.kind!r} cannot scatter")

    seen_arm_ids = set()
    by_label: dict[str, Arm] = {}
    outgoing: dict[tuple[str, int], Arm] = {}
    taken_in: dict[tuple[str, int], str] = {}
    indeg = dict.fromkeys(by_id, 0)
    out_arms: dict[str, list[Arm]] = {}  # per node, in arm order
    for a in arms:
        if a.id in seen_arm_ids:
            raise DuplicateLabelError(f"duplicate arm id {a.id!r}")
        seen_arm_ids.add(a.id)
        for end, node_id, port, nports in (
            ("from", a.from_node, a.from_port, OUT_PORTS),
            ("to", a.to_node, a.to_port, IN_PORTS),
        ):
            node = by_id.get(node_id)
            if node is None:
                raise PortConflictError(
                    f"arm {a.id!r} references unknown node {node_id!r}"
                )
            if not 0 <= port < nports[node.kind]:
                raise PortConflictError(
                    f"arm {a.id!r} uses {end}-port {port} of {node_id!r}, "
                    f"which has {nports[node.kind]} such ports"
                )
        key = (a.from_node, a.from_port)
        if key in outgoing:
            raise PortConflictError(
                f"output port {key} feeds both arms {outgoing[key].id!r} and {a.id!r}"
            )
        outgoing[key] = a
        key = (a.to_node, a.to_port)
        if key in taken_in:
            raise PortConflictError(
                f"input port {key} is fed by both arms {taken_in[key]!r} and {a.id!r}"
            )
        taken_in[key] = a.id
        indeg[a.to_node] += 1
        out_arms.setdefault(a.from_node, []).append(a)
        if a.label is not None:
            if a.label in by_label:
                raise DuplicateLabelError(f"site label {a.label!r} on multiple arms")
            by_label[a.label] = a
        # chained comparisons are False for NaN, so they also reject non-finite values
        if not 0.0 <= a.transmission <= 1.0:
            raise NetworkError(
                f"arm {a.id!r} transmission {a.transmission!r} outside [0, 1]"
            )
        if not math.isfinite(a.static_phase):
            raise NetworkError(f"arm {a.id!r} has non-finite static phase")
        if a.modulation is not None and not 0.0 <= a.modulation.delta < math.inf:
            raise NetworkError(f"arm {a.id!r} modulation depth {a.modulation.delta!r} invalid")

    # Every output port of an amplitude-carrying element must lead somewhere;
    # unfed beam-splitter inputs are legitimate vacuum ports.
    for n in nodes:
        for port in range(OUT_PORTS[n.kind]):
            if (n.id, port) not in outgoing:
                raise DanglingPortError(
                    f"output port {port} of node {n.id!r} is not connected"
                )

    sources = [n for n in nodes if n.kind == SOURCE]
    if len(sources) != 1:
        raise NetworkError(f"expected exactly one source, found {len(sources)}")
    detectors = tuple(n.id for n in nodes if n.kind == DETECTOR)
    if not detectors:
        raise NetworkError("network has no detector")

    # Kahn's algorithm: a node is ready once every arm into it has been
    # passed.  Nodes on or behind a cycle never get ready.
    order = [n for n in nodes if not indeg[n.id]]
    for n in order:  # the list grows as nodes become ready
        for a in out_arms.get(n.id, ()):
            indeg[a.to_node] -= 1
            if not indeg[a.to_node]:
                order.append(by_id[a.to_node])
    if len(order) != len(nodes):
        stuck = sorted(node_id for node_id, left in indeg.items() if left)
        raise CyclicGraphError(f"cycle through nodes {stuck}")

    return Network(nodes, arms, sources[0].id, detectors, by_id, outgoing, by_label, tuple(order))


def standard_nested_mzi(bs1=None, bs2=None, bs3=None, bs4=None) -> Network:
    """The nested two-level interferometer used throughout the package.

    An outer interferometer (BS1, BS4) encloses an inner one (BS2, BS3)
    on its upper path.  Site labels: E on the arm from BS1 into the inner
    loop, A and B on the two inner arms, F on the arm rejoining the outer
    loop, C on the lower reference arm.  Each labeled arm ends on a mirror;
    the inner loop is tuned so that, with balanced splitters, the arm F
    carries no amplitude while A and B interfere destructively toward it
    only in pairs, and the detector D sees the C and F contributions.

    Splitter matrices default to the balanced real splitter and can be
    overridden per splitter with any 2x2 unitary (array-like).

    Returns
    -------
    Network
        13 nodes: source, four splitters, five site mirrors, detector D,
        and two sinks absorbing the unused splitter outputs.
    """
    mats = {}
    for name, override in (("BS1", bs1), ("BS2", bs2), ("BS3", bs3), ("BS4", bs4)):
        mats[name] = hadamard() if override is None else as_matrix2(override)

    nodes = [
        Node("SRC", SOURCE),
        Node("BS1", BEAM_SPLITTER, scatter=mats["BS1"]),
        Node("BS2", BEAM_SPLITTER, scatter=mats["BS2"]),
        Node("BS3", BEAM_SPLITTER, scatter=mats["BS3"]),
        Node("BS4", BEAM_SPLITTER, scatter=mats["BS4"]),
        Node("M_A", MIRROR, label="A"),
        Node("M_B", MIRROR, label="B"),
        Node("M_C", MIRROR, label="C"),
        Node("M_E", MIRROR, label="E"),
        Node("M_F", MIRROR, label="F"),
        Node("D", DETECTOR, label="D"),
        Node("SINK1", SINK),
        Node("SINK2", SINK),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS1", 0),
        Arm("E", "BS1", 0, "M_E", 0, label="E"),
        Arm("E_out", "M_E", 0, "BS2", 0),
        Arm("C", "BS1", 1, "M_C", 0, label="C"),
        Arm("C_out", "M_C", 0, "BS4", 1),
        Arm("A", "BS2", 0, "M_A", 0, label="A"),
        Arm("A_out", "M_A", 0, "BS3", 0),
        Arm("B", "BS2", 1, "M_B", 0, label="B"),
        Arm("B_out", "M_B", 0, "BS3", 1),
        Arm("dump1", "BS3", 0, "SINK1", 0),
        Arm("F", "BS3", 1, "M_F", 0, label="F"),
        Arm("F_out", "M_F", 0, "BS4", 0),
        Arm("out", "BS4", 0, "D", 0),
        Arm("dump2", "BS4", 1, "SINK2", 0),
    ]
    return build_network(nodes, arms)


def set_transmission(net: Network, site: str, value: float) -> Network:
    """A copy of ``net`` with the labeled arm's transmission replaced."""
    target = net.labeled_arm(site)
    arms = tuple(
        dataclasses.replace(a, transmission=value) if a.id == target.id else a
        for a in net.arms
    )
    return build_network(net.nodes, arms)


def apply_block(net: Network, site: str) -> Network:
    """A copy of ``net`` with the labeled arm fully absorbing."""
    return set_transmission(net, site, 0.0)


def set_modulation(net: Network, site: str, delta: float, bin: int) -> Network:
    """A copy of ``net`` with a sinusoidal probe on the labeled arm."""
    target = net.labeled_arm(site)
    mod = Modulation(delta=float(delta), bin=int(bin))
    arms = tuple(
        dataclasses.replace(a, modulation=mod) if a.id == target.id else a
        for a in net.arms
    )
    return build_network(net.nodes, arms)

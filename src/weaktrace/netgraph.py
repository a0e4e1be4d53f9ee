"""Directed beam-splitter networks.

A network is a DAG of optical elements joined by arms: one source,
beam splitters, mirrors, detectors and sinks.  Beam splitters scatter two
input modes into two output modes through a 2x2 unitary; mirrors relay a
single mode and may mark a labeled site; arms carry a static phase, an
amplitude transmission factor, and optionally a slow sinusoidal phase
modulation used by the spectral readout.  The one absorber is an arm of
transmission 0: blocking a site sets its arm's transmission to 0.

Node and Arm, like ``pathsum.Path``, are frozen dataclasses with their own
``__init__``, which stores every field with one ``self.__dict__.update``:
the generated one makes an ``object.__setattr__`` call per field, and
takes twice as long.  The price is memory, about 175 bytes more per record
on CPython 3.11 (an Arm with its id string holds 393 B against 218 B), as
the instance then keeps a dict of its own.  Storing the fields one key at
a time would make every later attribute read slower.

Networks are immutable.  Edits (blocking a site, changing a transmission)
produce a new, revalidated instance.  A network keeps the indexes its
validation built: nodes by id, arms by site label, and the legs.  A leg
is the run of arms from one output port of the source, of a beam
splitter or of a mirror that no arm feeds, through fed mirrors, up to
the next node that is not a mirror, with each arm's factor computed
once.  Every pass over the network reads the legs, so it is sorted and
cut into legs once, when it is built, in one walk: Kahn's queue holds
only the nodes that start or end legs, and each output port of a node
taken from it starts a leg that is walked to its end at once.  The legs
come in a topological order; on networks whose mirror runs have uneven
lengths it can differ from the one that earlier versions, queueing one
node at a time, gave.  The walk reads every output port of every node
it reaches, so when it reaches every node no port dangles and there is
no cycle; the per-port check runs only when it stops short, to name the
fault.
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
DETECTOR = "detector"
SINK = "sink"

NODE_KINDS = (SOURCE, BEAM_SPLITTER, MIRROR, DETECTOR, SINK)

IN_PORTS = {SOURCE: 0, BEAM_SPLITTER: 2, MIRROR: 1, DETECTOR: 1, SINK: 1}
OUT_PORTS = {SOURCE: 1, BEAM_SPLITTER: 2, MIRROR: 1, DETECTOR: 0, SINK: 0}

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


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, id: str, kind: str, scatter: Matrix2 | None = None, label: str | None = None
    ):
        self.__dict__.update(id=id, kind=kind, scatter=scatter, label=label)


@dataclass(frozen=True)
class Modulation:
    """Sinusoidal probe parameters attached to an arm.

    ``delta`` is the dimensionless modulation depth, ``bin`` the integer
    frequency bin it is driven at (validated by the spectral plan).
    """

    delta: float
    bin: int


@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        id: str,
        from_node: str,
        from_port: int,
        to_node: str,
        to_port: int,
        label: str | None = None,
        static_phase: float = 0.0,
        transmission: float = 1.0,
        modulation: Modulation | None = None,
    ):
        self.__dict__.update(
            id=id,
            from_node=from_node,
            from_port=from_port,
            to_node=to_node,
            to_port=to_port,
            label=label,
            static_phase=static_phase,
            transmission=transmission,
            modulation=modulation,
        )

    def factor(self) -> complex:
        """Amplitude transfer factor of the arm (static part only)."""
        return self.transmission * cmath.exp(1j * self.static_phase)


class Leg:
    """The arms from one output port through fed mirrors up to the next node
    that is not a mirror, in order.

    Per arm, ``ids`` holds its id, ``ends`` the (node, input port) it
    feeds and ``factors`` its ``Arm.factor()``; the last of ``ends`` is
    where the leg ends.  ``sites`` lists the site labels of its arms, and
    ``blocked`` is whether one of its arms has transmission 0.
    """

    __slots__ = ("ids", "ends", "factors", "sites", "blocked")

    def __init__(self):
        self.ids: list[str] = []
        self.ends: list[tuple[str, int]] = []
        self.factors: list[complex] = []
        self.sites: list[str] = []
        self.blocked = False


@dataclass(frozen=True)
class Network:
    """A validated network, made only by ``build_network``; the underscored
    fields are the indexes its validation built, outside equality."""

    nodes: tuple[Node, ...]
    arms: tuple[Arm, ...]
    source: str
    detectors: tuple[str, ...]
    _by_id: dict[str, Node] = field(compare=False, repr=False)
    _by_label: dict[str, Arm] = field(compare=False, repr=False)
    _legs: dict[str, tuple[Node, tuple[Leg, ...]]] = field(compare=False, repr=False)

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

    def legs(self) -> Mapping[str, tuple[Node, tuple[Leg, ...]]]:
        """(node, its legs by output port) for each node that starts legs:
        the source, every beam splitter and every mirror that no arm feeds,
        keyed by node id in topological order; read-only."""
        return MappingProxyType(self._legs)


def _check_unitary(node: Node) -> None:
    # the largest entry of u^H u - I, in plain complex arithmetic: on a 2x2,
    # numpy's set-up costs ten times the sums
    (a, b), (c, d) = node.scatter
    # a NaN deviation passes the test below, and max may drop a NaN entry
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise NetworkError(f"scatter matrix of node {node.id!r} has a non-finite entry")
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    dev = max(
        abs(ac * a + cc * c - 1),
        abs(ac * b + cc * d),
        abs(bc * a + dc * c),
        abs(bc * b + dc * d - 1),
    )
    if dev > UNITARITY_TOL:
        raise NonUnitaryScatterError(node.id, dev)


def _cut_legs(order, by_id, outgoing, indeg):
    """Kahn's algorithm over the nodes that are not fed mirrors, cutting
    the arms into legs as it goes.

    ``order`` starts with the nodes that no arm feeds and grows as nodes
    become ready, once every arm into them has been passed; nodes on or
    behind a cycle never do.  Each output port of a node taken from it
    starts a leg, walked at once arm by arm through the fed mirrors it
    meets, up to the next node that is not a mirror, whose in-degree then
    drops.  Returns (legs, relayed): each taken node's legs by output port,
    keyed by node id in topological order, and the number of fed mirrors
    they pass; or None at the first output port that has no arm.
    """
    legs: dict[str, tuple[Node, tuple[Leg, ...]]] = {}
    relayed = 0
    get = outgoing.get
    for n in order:  # the list grows as nodes become ready
        if not OUT_PORTS[n.kind]:
            continue
        ports = tuple(Leg() for _ in range(OUT_PORTS[n.kind]))
        for port, leg in enumerate(ports):
            a = get((n.id, port))
            while a is not None:
                to = a.to_node
                end = (to, a.to_port)
                leg.ids.append(a.id)
                leg.ends.append(end)
                leg.factors.append(a.factor())
                if a.label is not None:
                    leg.sites.append(a.label)
                if a.transmission == 0.0:
                    leg.blocked = True
                node = by_id[to]
                if node.kind != MIRROR:
                    indeg[to] -= 1
                    if not indeg[to]:
                        order.append(node)
                    break
                a = get(end)  # a mirror's output port 0 has the key of its input
            else:
                return None
            relayed += len(leg.ends) - 1
        legs[n.id] = (n, ports)
    return legs, relayed


def build_network(nodes, arms) -> Network:
    """Validate element and arm lists and assemble an immutable Network.

    Checks node well-formedness (kinds, scatter presence and unitarity)
    and unique ids node by node, then port references, one arm per port,
    unique arm site labels and arm parameter ranges arm by arm; then it
    cuts the legs (``_cut_legs``) and names the first fault of: a dangling
    output port, in node and port order; the number of sources (exactly
    one) and of detectors (at least one); a cycle, listing the nodes the
    walk never reached.  The dangling-port loop runs only when the walk
    stopped at a port with no arm or left nodes out.

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
    for a in arms:
        if a.id in seen_arm_ids:
            raise DuplicateLabelError(f"duplicate arm id {a.id!r}")
        seen_arm_ids.add(a.id)
        head = by_id.get(a.from_node)
        if head is None:
            raise PortConflictError(
                f"arm {a.id!r} references unknown node {a.from_node!r}"
            )
        if not 0 <= a.from_port < OUT_PORTS[head.kind]:
            raise PortConflictError(
                f"arm {a.id!r} uses from-port {a.from_port} of {a.from_node!r}, "
                f"which has {OUT_PORTS[head.kind]} such ports"
            )
        tail = by_id.get(a.to_node)
        if tail is None:
            raise PortConflictError(
                f"arm {a.id!r} references unknown node {a.to_node!r}"
            )
        if not 0 <= a.to_port < IN_PORTS[tail.kind]:
            raise PortConflictError(
                f"arm {a.id!r} uses to-port {a.to_port} of {a.to_node!r}, "
                f"which has {IN_PORTS[tail.kind]} such ports"
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

    order = [n for n in nodes if not indeg[n.id]]
    cut = _cut_legs(order, by_id, outgoing, indeg)
    # The walk read every output port of every node it reached, so a fault
    # is left to name only when it stopped at a port with no arm or left
    # nodes out.  Every output port of an amplitude-carrying element must
    # lead somewhere; unfed beam-splitter inputs are legitimate vacuum ports.
    if cut is None or len(order) + cut[1] < len(nodes):
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

    legs, relayed = cut
    if len(order) + relayed < len(nodes):  # nodes on or behind a cycle
        reached = {n.id for n in order}
        reached.update(end for _, ports in legs.values() for leg in ports for end, _ in leg.ends[:-1])
        stuck = sorted(node_id for node_id in by_id if node_id not in reached)
        more = f" and {len(stuck) - 10} more" if len(stuck) > 10 else ""
        raise CyclicGraphError(f"cycle through nodes {stuck[:10]}{more}")

    return Network(nodes, arms, sources[0].id, detectors, by_id, by_label, legs)


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


def _replace_arms(net: Network, sites, **changes) -> Network:
    """A copy of ``net`` with ``changes`` made to the arm of each labeled
    site, validated once; an unknown site raises UnknownLabelError first."""
    targets = {net.labeled_arm(site).id for site in sites}
    arms = tuple(dataclasses.replace(a, **changes) if a.id in targets else a for a in net.arms)
    return build_network(net.nodes, arms)


def set_transmission(net: Network, site: str, value: float) -> Network:
    """A copy of ``net`` with the labeled arm's transmission replaced."""
    return _replace_arms(net, (site,), transmission=value)


def apply_block(net: Network, *sites: str) -> Network:
    """A copy of ``net`` with the arm of each labeled site fully absorbing."""
    return _replace_arms(net, sites, transmission=0.0)


def set_modulation(net: Network, site: str, delta: float, bin: int) -> Network:
    """A copy of ``net`` with a sinusoidal probe on the labeled arm."""
    return _replace_arms(net, (site,), modulation=Modulation(delta=float(delta), bin=int(bin)))

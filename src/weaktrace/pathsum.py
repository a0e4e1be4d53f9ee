"""Amplitude propagation and exhaustive path enumeration.

One forward engine, route enumeration for the route tables of ``paths``
and ``weak`` and as an oracle.  ``_forward`` pushes amplitudes through
the network once, in topological order, keeping them per signature: the
probed site labels a route has passed.  With no probed sites that is
plain mode propagation (``propagate``, ``terminal_amplitudes``,
``arm_input_amplitudes``); with probed sites it yields the summed
amplitude of every signature class (``signature_amplitudes``), which is
all the spectral readout and the weak values need.
``enumerate_paths`` walks every source-to-detector route and assigns it
the product of splitter entries and arm factors along the way.  For a
valid network the summed path amplitudes reproduce the propagated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooManyRoutesError, UnknownLabelError
from .netgraph import (
    BEAM_SPLITTER,
    BLOCK,
    DETECTOR,
    MIRROR,
    OUT_PORTS,
    SINK,
    SOURCE,
    Network,
)

# bound on the depth-first steps of one enumeration; routes double with
# every cascaded splitter, so this keeps `paths` from running unbounded
MAX_ROUTE_STEPS = 1_000_000


@dataclass(frozen=True)
class Path:
    """One source-to-detector route.

    ``arms`` lists traversed arm ids in order, ``sites`` the labels of the
    labeled arms among them.  ``blocked`` marks a geometrically present
    route whose amplitude was forced to zero by an absorber.
    """

    arms: tuple[str, ...]
    sites: tuple[str, ...]
    amplitude: complex
    blocked: bool


@dataclass(frozen=True)
class PathEnsemble:
    """All routes from the source to one detector, and their sum."""

    source: str
    detector: str
    paths: tuple[Path, ...]
    total: complex


def _forward(net: Network, probed=frozenset()):
    """Propagate the unit source amplitude through every node, by signature.

    A route's signature is the tuple of ``probed`` site labels it passes,
    in route order (one order per site set, since the graph is acyclic).
    Every port and arm carries a map {signature: summed amplitude of the
    routes with that signature}; with nothing probed, each map holds at
    most the empty signature.  Returns (in_amp, arm_in): the maps arriving
    at each (node, port) and entering each arm (before its own factor
    applies).

    Each map-entry update is one step; past ``MAX_ROUTE_STEPS`` steps the
    pass raises TooManyRoutesError.
    """
    outgoing = net.outgoing()
    in_amp: dict[tuple[str, int], dict[tuple[str, ...], complex]] = {}
    arm_in: dict[str, dict[tuple[str, ...], complex]] = {}
    steps = 0
    for node in net.topological_order():
        if node.kind == SOURCE:
            outs = [{(): 1.0 + 0j}]
        elif node.kind == BEAM_SPLITTER:
            m0 = in_amp.get((node.id, 0), {})
            m1 = in_amp.get((node.id, 1), {})
            sigs = {**m0, **m1}  # signatures in first-seen order
            outs = [
                {sig: row[0] * m0.get(sig, 0j) + row[1] * m1.get(sig, 0j) for sig in sigs}
                for row in node.scatter
            ]
        elif node.kind == MIRROR:
            outs = [in_amp.get((node.id, 0), {})]
        elif node.kind == BLOCK:
            # blocked routes keep their signature with amplitude zero
            outs = [dict.fromkeys(in_amp.get((node.id, 0), {}), 0j)]
        else:  # detectors and sinks only absorb
            continue
        for port, amps in enumerate(outs):
            arm = outgoing[(node.id, port)]
            arm_in[arm.id] = amps
            steps += len(amps)
            if steps > MAX_ROUTE_STEPS:
                raise TooManyRoutesError(
                    f"amplitude propagation passed {MAX_ROUTE_STEPS} steps; "
                    f"the network has too many probed-site signatures"
                )
            factor = arm.factor()
            site = (arm.label,) if arm.label in probed else ()
            dest = in_amp.setdefault((arm.to_node, arm.to_port), {})
            for sig, amp in amps.items():
                key = sig + site
                dest[key] = dest.get(key, 0j) + amp * factor
    return in_amp, arm_in


def _unprobed(amps: dict) -> complex:
    """The amplitude of a map from a pass with no probed sites."""
    return amps.get((), 0j)


def propagate(net: Network) -> dict[str, complex]:
    """Detection amplitude at every detector for a unit source emission."""
    in_amp, _ = _forward(net)
    return {d: _unprobed(in_amp.get((d, 0), {})) for d in net.detectors}


def terminal_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitudes absorbed at every terminal node (detectors and sinks).

    The squared magnitudes sum to one for a lossless unblocked network,
    which makes this the natural probability-conservation check.
    """
    in_amp, _ = _forward(net)
    terminals = [n.id for n in net.nodes if n.kind in (DETECTOR, SINK)]
    return {t: _unprobed(in_amp.get((t, 0), {})) for t in terminals}


def arm_input_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitude entering each arm, keyed by arm id."""
    _, arm_in = _forward(net)
    return {arm: _unprobed(amps) for arm, amps in arm_in.items()}


def signature_amplitudes(net: Network, sites, detector: str | None = None) -> dict:
    """Summed amplitude per probed-site signature class at one detector.

    Routes to the detector are grouped by the tuple of ``sites`` they
    pass, in route order, and their amplitudes summed within each group:
    one forward pass, no route enumeration.  Classes of blocked routes
    are present with amplitude zero; an empty result means no route
    reaches the detector.  Raises UnknownLabelError for a site no arm
    carries and TooManyRoutesError past ``MAX_ROUTE_STEPS`` map updates.
    """
    target = resolve_detector(net, detector)
    sites = tuple(sites)
    for site in sites:
        net.labeled_arm(site)  # raises UnknownLabelError for an unknown site
    in_amp, _ = _forward(net, frozenset(sites))
    return in_amp.get((target, 0), {})


def resolve_detector(net: Network, detector: str | None) -> str:
    """The target detector id, defaulting when the network has only one."""
    if detector is not None:
        if detector not in net.detectors:
            raise UnknownLabelError(f"no detector with id {detector!r}")
        return detector
    if len(net.detectors) != 1:
        raise UnknownLabelError(
            "network has several detectors; name one explicitly"
        )
    return net.detectors[0]


def enumerate_paths(net: Network, detector: str | None = None) -> PathEnsemble:
    """Exhaustively enumerate source-to-detector routes.

    Routes through absorbers (block nodes or zero-transmission arms) are
    kept, flagged as blocked, and carry amplitude exactly zero, so the
    geometric path set is independent of which arms are blocked.  The walk
    raises TooManyRoutesError after ``MAX_ROUTE_STEPS`` steps.

    Parameters
    ----------
    net : Network
    detector : str, optional
        Detector node id; may be omitted when the network has exactly one.

    Returns
    -------
    PathEnsemble
        Paths in depth-first order (output port 0 explored first).
    """
    target = resolve_detector(net, detector)
    nodes = net.node_map()
    outgoing = net.outgoing()
    paths: list[Path] = []

    # depth-first walk; each entry is a partial route arriving at a node:
    # (node id, input port, amplitude, arm ids, site labels, blocked)
    stack = [(net.source, 0, 1.0 + 0j, (), (), False)]
    steps = 0
    while stack:
        steps += 1
        if steps > MAX_ROUTE_STEPS:
            raise TooManyRoutesError(
                f"route enumeration passed {MAX_ROUTE_STEPS} steps "
                f"with {len(paths)} routes found; the network has too many routes to list"
            )
        node_id, in_port, amp, arms_so_far, sites_so_far, blocked = stack.pop()
        node = nodes[node_id]
        if node.kind == DETECTOR:
            if node_id == target:
                paths.append(
                    Path(
                        arms=arms_so_far,
                        sites=sites_so_far,
                        amplitude=amp if not blocked else 0j,
                        blocked=blocked,
                    )
                )
            continue
        if node.kind == SINK:
            continue
        hops = []
        for port in range(OUT_PORTS[node.kind]):
            if node.kind == SOURCE:
                out_amp, out_blocked = amp, blocked
            elif node.kind == BEAM_SPLITTER:
                entry = node.scatter[port][in_port]
                if entry == 0:
                    # a structurally absent coupling, not an absorber
                    continue
                out_amp, out_blocked = amp * entry, blocked
            elif node.kind == MIRROR:
                out_amp, out_blocked = amp, blocked
            else:  # BLOCK
                out_amp, out_blocked = 0j, True
            arm = outgoing[(node_id, port)]
            hops.append(
                (
                    arm.to_node,
                    arm.to_port,
                    out_amp * arm.factor(),
                    arms_so_far + (arm.id,),
                    sites_so_far + ((arm.label,) if arm.label is not None else ()),
                    out_blocked or arm.transmission == 0.0,
                )
            )
        # pushed in reverse so output port 0 is explored first
        stack.extend(reversed(hops))

    total = sum((p.amplitude for p in paths), 0j)
    return PathEnsemble(
        source=net.source,
        detector=target,
        paths=tuple(paths),
        total=total,
    )


def detection_probability(ens: PathEnsemble) -> float:
    """Probability of a click, the squared magnitude of the summed amplitude."""
    return abs(ens.total) ** 2

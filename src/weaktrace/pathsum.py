"""Amplitude sweeps, the signature pass, and exhaustive path enumeration.

Three passes over a network's stored topological order serve different
readers:

- ``_sweep_forward`` carries one amplitude per port from the source:
  ``propagate``, ``terminal_amplitudes`` and ``arm_input_amplitudes``,
  and the forward state of the weak values.
- ``_sweep_backward`` carries, per port, the amplitude that point sends on
  to one detector, applying each splitter transposed.  With the forward
  sweep it gives every site's two-state weak value
  (``weakval.weak_values``) and the split of ``weakval.amplitude_split``.
- ``_forward`` keeps one amplitude per signature, the probed site labels
  a route has passed, and so yields the summed amplitude of every
  signature class (``signature_amplitudes``), which the spectral readout
  needs.  With nothing probed it is the forward sweep bit for bit, and it
  serves the tests as that sweep's oracle.

A sweep costs one update per arm, so it needs no step bound.  The
signature pass costs one per arm and class, which can double with every
cascaded splitter, so it stops past ``MAX_ROUTE_STEPS`` updates.
``enumerate_paths`` walks every source-to-detector route for the route
tables of ``paths`` and ``weak`` and as an oracle, and assigns it the
product of splitter entries and arm factors along the way.  For a valid
network the summed path amplitudes reproduce the propagated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooManyRoutesError, UnknownLabelError
from .netgraph import (
    BEAM_SPLITTER,
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
    route that passes an arm of transmission 0; its amplitude is zero.
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
    most the empty signature.  As in ``enumerate_paths``, no route takes a
    zero splitter entry.  Returns (in_amp, arm_in): the maps arriving at
    each (node, port) and entering each arm (before its own factor applies).

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
                {
                    sig: row[0] * m0.get(sig, 0j) + row[1] * m1.get(sig, 0j)
                    for sig in (sigs if row[0] and row[1] else m0 if row[0] else m1)
                }
                for row in node.scatter
            ]
        elif node.kind == MIRROR:
            outs = [in_amp.get((node.id, 0), {})]
        else:  # detectors and sinks end routes
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
            # an arm of transmission 0 zeroes its routes but keeps their signatures
            factor = arm.factor()
            site = (arm.label,) if arm.label in probed else ()
            dest = in_amp.setdefault((arm.to_node, arm.to_port), {})
            for sig, amp in amps.items():
                key = sig + site
                dest[key] = dest.get(key, 0j) + amp * factor
    return in_amp, arm_in


def _sweep_forward(net: Network):
    """Propagate the unit source amplitude through every node, one scalar
    per port: ``_forward`` with nothing probed, bit for bit.

    Returns (fwd, arm_in): the amplitude arriving at each (node, input
    port) that a route reaches, and the amplitude entering each arm
    (before its own factor applies), 0j where no route enters it.  As in
    ``_forward``, no route takes a zero splitter entry, and each sum is
    taken in the same order, so signs of zero match too.
    """
    outgoing = net.outgoing()
    fwd: dict[tuple[str, int], complex] = {}
    arm_in: dict[str, complex] = {}
    get = fwd.get
    for node in net.topological_order():
        kind = node.kind
        if kind == MIRROR:
            outs = (get((node.id, 0)),)
        elif kind == BEAM_SPLITTER:
            k0, k1 = (node.id, 0), (node.id, 1)
            a0, a1 = get(k0, 0j), get(k1, 0j)
            in0, in1 = k0 in fwd, k1 in fwd
            outs = [
                r0 * a0 + r1 * a1 if ((in0 or in1) if r0 and r1 else in0 if r0 else in1) else None
                for r0, r1 in node.scatter
            ]
        elif kind == SOURCE:
            outs = (1.0 + 0j,)
        else:  # detectors and sinks end routes
            continue
        for port, amp in enumerate(outs):
            arm = outgoing[(node.id, port)]
            if amp is None:
                arm_in[arm.id] = 0j
            else:
                arm_in[arm.id] = amp
                fwd[(arm.to_node, arm.to_port)] = 0j + amp * arm.factor()
    return fwd, arm_in


def _sweep_backward(net: Network, detector: str) -> dict[tuple[str, int], complex]:
    """The amplitude a unit amplitude at each point sends on to ``detector``.

    Runs over the topological order reversed: each arm applies its factor
    and each splitter its transpose.  Keyed by (node, input port); the
    source, which has no input, is keyed by port 0, and its value is the
    summed detection amplitude.
    """
    outgoing = net.outgoing()
    bwd = {(detector, 0): 1.0 + 0j}
    get = bwd.get
    for node in reversed(net.topological_order()):
        kind = node.kind
        if kind == MIRROR or kind == SOURCE:
            arm = outgoing[(node.id, 0)]
            bwd[(node.id, 0)] = arm.factor() * get((arm.to_node, arm.to_port), 0j)
        elif kind == BEAM_SPLITTER:
            arm0, arm1 = outgoing[(node.id, 0)], outgoing[(node.id, 1)]
            out0 = arm0.factor() * get((arm0.to_node, arm0.to_port), 0j)
            out1 = arm1.factor() * get((arm1.to_node, arm1.to_port), 0j)
            (s00, s01), (s10, s11) = node.scatter
            bwd[(node.id, 0)] = s00 * out0 + s10 * out1
            bwd[(node.id, 1)] = s01 * out0 + s11 * out1
    return bwd


def propagate(net: Network) -> dict[str, complex]:
    """Detection amplitude at every detector for a unit source emission."""
    fwd, _ = _sweep_forward(net)
    return {d: fwd.get((d, 0), 0j) for d in net.detectors}


def terminal_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitudes absorbed at every terminal node (detectors and sinks).

    The squared magnitudes sum to one for a lossless unblocked network,
    which makes this the natural probability-conservation check.
    """
    fwd, _ = _sweep_forward(net)
    return {n.id: fwd.get((n.id, 0), 0j) for n in net.nodes if n.kind in (DETECTOR, SINK)}


def arm_input_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitude entering each arm, keyed by arm id."""
    return _sweep_forward(net)[1]


def signature_amplitudes(net: Network, sites, detector: str | None = None) -> dict:
    """Summed amplitude per probed-site signature class at one detector.

    Routes to the detector are grouped by the tuple of ``sites`` they
    pass, in route order, and their amplitudes summed within each group:
    one forward pass, no route enumeration.  Classes of blocked routes
    are present with amplitude zero, a zero splitter entry adds no class,
    and an empty result means no route reaches the detector.  Raises
    UnknownLabelError for a site no arm carries and TooManyRoutesError
    past ``MAX_ROUTE_STEPS`` map updates.
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

    A route is blocked exactly when it passes an arm of transmission 0.
    Blocked routes are kept, flagged, and carry amplitude exactly zero, so
    the geometric path set is independent of which arms are blocked.  A
    zero splitter entry is a structurally absent coupling, not an
    absorber, and no route takes it.  The walk raises TooManyRoutesError
    after ``MAX_ROUTE_STEPS`` steps.

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

    # depth-first walk that builds one route in place; each entry is a
    # partial route arriving at a node: (lengths of the arm and site lists
    # it extends, the arm it arrives by or None at the source, node id,
    # input port, amplitude, blocked).  A route's tuples are made only at
    # the detector, so it costs steps in proportion to its length.
    arm_ids: list[str] = []
    sites: list[str] = []
    stack = [(0, 0, None, net.source, 0, 1.0 + 0j, False)]
    steps = 0
    while stack:
        steps += 1
        if steps > MAX_ROUTE_STEPS:
            raise TooManyRoutesError(
                f"route enumeration passed {MAX_ROUTE_STEPS} steps "
                f"with {len(paths)} routes found; the network has too many routes to list"
            )
        n_arms, n_sites, arm, node_id, in_port, amp, blocked = stack.pop()
        del arm_ids[n_arms:], sites[n_sites:]
        if arm is not None:
            arm_ids.append(arm.id)
            if arm.label is not None:
                sites.append(arm.label)
        node = nodes[node_id]
        if node.kind == DETECTOR:
            if node_id == target:
                paths.append(
                    Path(
                        arms=tuple(arm_ids),
                        sites=tuple(sites),
                        amplitude=amp if not blocked else 0j,
                        blocked=blocked,
                    )
                )
            continue
        # pushed in reverse port order so output port 0 is explored first;
        # sinks have no output ports
        n_arms, n_sites = len(arm_ids), len(sites)
        for port in reversed(range(OUT_PORTS[node.kind])):
            out_amp = amp  # sources and mirrors relay it unchanged
            if node.kind == BEAM_SPLITTER:
                entry = node.scatter[port][in_port]
                if entry == 0:  # a structurally absent coupling
                    continue
                out_amp = amp * entry
            arm = outgoing[(node_id, port)]
            stack.append(
                (
                    n_arms,
                    n_sites,
                    arm,
                    arm.to_node,
                    arm.to_port,
                    out_amp * arm.factor(),
                    blocked or arm.transmission == 0.0,
                )
            )

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

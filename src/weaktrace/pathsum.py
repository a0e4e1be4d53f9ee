"""Amplitude propagation and exhaustive path enumeration.

Two independent views of the same physics: ``propagate`` pushes mode
amplitudes through the network in topological order, while
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
    known_sites: frozenset[str]

    def require_sites(self, sites) -> None:
        """Raise UnknownLabelError for the first site no arm carries."""
        for site in sites:
            if site not in self.known_sites:
                raise UnknownLabelError(f"no arm carries site label {site!r}")

    def site_amplitude(self, site: str) -> complex:
        """Summed amplitude of the routes passing through a site."""
        self.require_sites([site])
        return sum((p.amplitude for p in self.paths if site in p.sites), 0j)


def _forward(net: Network):
    """Propagate the unit source amplitude through every node.

    Returns (in_amp, arm_in): amplitudes arriving at each (node, port)
    and amplitudes entering each arm (before its own factor applies).
    """
    outgoing = net.outgoing()
    in_amp: dict[tuple[str, int], complex] = {}
    arm_in: dict[str, complex] = {}
    for node in net.topological_order():
        if node.kind == SOURCE:
            outs = [1.0 + 0j]
        elif node.kind == BEAM_SPLITTER:
            v0 = in_amp.get((node.id, 0), 0j)
            v1 = in_amp.get((node.id, 1), 0j)
            s = node.scatter
            outs = [s[0][0] * v0 + s[0][1] * v1, s[1][0] * v0 + s[1][1] * v1]
        elif node.kind == MIRROR:
            outs = [in_amp.get((node.id, 0), 0j)]
        elif node.kind == BLOCK:
            outs = [0j]
        else:  # detectors and sinks only absorb
            continue
        for port, amp in enumerate(outs):
            arm = outgoing[(node.id, port)]
            arm_in[arm.id] = amp
            key = (arm.to_node, arm.to_port)
            in_amp[key] = in_amp.get(key, 0j) + amp * arm.factor()
    return in_amp, arm_in


def propagate(net: Network) -> dict[str, complex]:
    """Detection amplitude at every detector for a unit source emission."""
    in_amp, _ = _forward(net)
    return {d: in_amp.get((d, 0), 0j) for d in net.detectors}


def terminal_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitudes absorbed at every terminal node (detectors and sinks).

    The squared magnitudes sum to one for a lossless unblocked network,
    which makes this the natural probability-conservation check.
    """
    in_amp, _ = _forward(net)
    terminals = [n.id for n in net.nodes if n.kind in (DETECTOR, SINK)]
    return {t: in_amp.get((t, 0), 0j) for t in terminals}


def arm_input_amplitudes(net: Network) -> dict[str, complex]:
    """Amplitude entering each arm, keyed by arm id."""
    _, arm_in = _forward(net)
    return dict(arm_in)


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
    outgoing = net.outgoing()
    by_id = {n.id: n for n in net.nodes}
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
        node = by_id[node_id]
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
        known_sites=net.site_labels(),
    )


def detection_probability(ens: PathEnsemble) -> float:
    """Probability of a click, the squared magnitude of the summed amplitude."""
    return abs(ens.total) ** 2

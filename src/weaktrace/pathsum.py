"""Amplitude sweeps, the signature pass, and exhaustive path enumeration.

Every pass runs over the legs that ``build_network`` cut the network
into (``Network.legs``): the run of arms from one output port of the
source, of a splitter or of an unfed mirror, through fed mirrors, to the
next node that is not a mirror, each arm with its factor computed once.
A pass works out what enters each leg at the node that starts it, then
carries it along the leg's arms with the arithmetic, in the order, that
one step per node would take, so every value and sign of zero is the one
a node-by-node pass gives.  Three passes serve different readers:

- ``_sweep_forward`` carries one amplitude per port from the source:
  ``propagate``, ``terminal_amplitudes`` and ``arm_input_amplitudes``,
  and the forward state of the weak values.
- ``_sweep_backward`` carries, per port, the amplitude that point sends on
  to one detector, applying each splitter transposed.  With the forward
  sweep it gives every site's two-state weak value
  (``weakval.weak_values``) and the split of ``weakval.amplitude_split``.
- ``_forward`` keeps one amplitude per signature, an int mask of the
  probed sites a route has passed, and so yields the summed amplitude of
  every signature class: the spectral readout takes the masks as they
  are, and ``signature_amplitudes`` turns them into site tuples.  With
  nothing probed it is the forward sweep bit for bit, and it serves the
  tests as that sweep's oracle.

A sweep costs one update per arm, so it needs no step bound.  The
signature pass costs one per arm and class, which can double with every
cascaded splitter, so it stops past ``MAX_ROUTE_STEPS`` updates.
``enumerate_paths`` walks every source-to-detector route for the route
tables of ``paths`` and ``weak`` and as an oracle, a leg per step, and
assigns it the product of splitter entries and arm factors along the
way.  Its step bound counts one step for the source and one per arm of
each leg it takes: an arrival at every node a route reaches.  For a
valid network the summed path amplitudes reproduce the propagated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, repeat
from operator import mul

from .errors import TooManyRoutesError, UnknownLabelError
from .netgraph import BEAM_SPLITTER, DETECTOR, SINK, SOURCE, Network

# bound on the depth-first steps of one enumeration; routes double with
# every cascaded splitter, so this keeps `paths` from running unbounded
MAX_ROUTE_STEPS = 1_000_000


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, arms: tuple[str, ...], sites: tuple[str, ...], amplitude: complex, blocked: bool
    ):
        self.__dict__.update(arms=arms, sites=sites, amplitude=amplitude, blocked=blocked)


@dataclass(frozen=True)
class PathEnsemble:
    """All routes from the source to one detector, and their sum."""

    source: str
    detector: str
    paths: tuple[Path, ...]
    total: complex


def _forward(net: Network, probed=()):
    """Propagate the unit source amplitude through every leg, by signature.

    A route's signature is an int mask: bit i is set when the route passes
    ``probed[i]``, a sequence of distinct site labels.  Every port and arm
    carries a map {signature: summed amplitude of the routes with that
    signature}, in first-seen order; with nothing probed, each map holds at
    most the mask 0.  As in ``enumerate_paths``, no route takes a zero
    splitter entry.  Returns (in_amp, arm_in): the maps arriving at each
    (node, port) and entering each arm (before its own factor applies).
    ``build_network`` lets one arm at most feed an input port, so the map
    an arm delivers is the whole map of the port it ends at.

    Each map-entry update is one step; past ``MAX_ROUTE_STEPS`` steps the
    pass raises TooManyRoutesError.  A probed site that no arm carries
    raises UnknownLabelError, for the first such site in ``probed``.
    """
    in_amp: dict[tuple[str, int], dict[int, complex]] = {}
    arm_in: dict[str, dict[int, complex]] = {}
    # the bit each probed arm sets in a signature
    probed_arms = {net.labeled_arm(s).id: 1 << i for i, s in enumerate(probed)}
    steps = 0
    for node, legs in net.legs().values():
        if node.kind == BEAM_SPLITTER:
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
        elif node.kind == SOURCE:
            outs = [{0: 1.0 + 0j}]
        else:  # a mirror that no arm feeds
            outs = [{}]
        for leg, amps in zip(legs, outs):
            for arm_id, end, factor in zip(leg.ids, leg.ends, leg.factors):
                arm_in[arm_id] = amps
                steps += len(amps)
                if steps > MAX_ROUTE_STEPS:
                    raise TooManyRoutesError(
                        f"amplitude propagation passed {MAX_ROUTE_STEPS} steps; "
                        f"the network has too many probed-site signatures"
                    )
                # an arm of transmission 0 zeroes its routes but keeps their signatures;
                # a fed mirror relays what reaches it
                bit = probed_arms.get(arm_id, 0)
                amps = in_amp[end] = {sig | bit: 0j + amp * factor for sig, amp in amps.items()}
    return in_amp, arm_in


def _sweep_forward(net: Network):
    """Propagate the unit source amplitude through every leg, one scalar
    per port: ``_forward`` with nothing probed, bit for bit.

    Returns (fwd, arm_in): the amplitude arriving at each (node, input
    port) that a route reaches, and the amplitude entering each arm
    (before its own factor applies), 0j where no route enters it.  As in
    ``_forward``, no route takes a zero splitter entry, and each sum is
    taken in the same order, so signs of zero match too.
    """
    fwd: dict[tuple[str, int], complex] = {}
    arm_in: dict[str, complex] = {}
    get = fwd.get
    for node, legs in net.legs().values():
        kind = node.kind
        if kind == BEAM_SPLITTER:
            k0, k1 = (node.id, 0), (node.id, 1)
            a0, a1 = get(k0, 0j), get(k1, 0j)
            in0, in1 = k0 in fwd, k1 in fwd
            outs = [
                r0 * a0 + r1 * a1 if ((in0 or in1) if r0 and r1 else in0 if r0 else in1) else None
                for r0, r1 in node.scatter
            ]
        elif kind == SOURCE:
            outs = (1.0 + 0j,)
        else:  # a mirror that no arm feeds
            outs = (None,)
        for leg, amp in zip(legs, outs):
            if amp is None:
                arm_in.update(zip(leg.ids, repeat(0j)))
                continue
            for arm_id, end, factor in zip(leg.ids, leg.ends, leg.factors):
                arm_in[arm_id] = amp
                amp = 0j + amp * factor
                fwd[end] = amp
    return fwd, arm_in


def _sweep_backward(net: Network, detector: str) -> dict[tuple[str, int], complex]:
    """The amplitude a unit amplitude at each point sends on to ``detector``.

    Runs over the legs backward, in the topological order reversed: each
    arm applies its factor and each splitter its transpose.  Keyed by
    (node, input port); the source, which has no input, is keyed by port
    0, and its value is the summed detection amplitude.
    """
    bwd = {(detector, 0): 1.0 + 0j}
    get = bwd.get
    for node, legs in reversed(net.legs().values()):
        outs = []
        for leg in legs:
            ends, factors = leg.ends, leg.factors
            out = get(ends[-1], 0j)
            # each fed mirror of the leg, last first, with the factor of the arm it starts
            for end, factor in zip(islice(reversed(ends), 1, None), reversed(factors)):
                out = factor * out
                bwd[end] = out
            outs.append(factors[0] * out)
        if node.kind == BEAM_SPLITTER:
            out0, out1 = outs
            (s00, s01), (s10, s11) = node.scatter
            bwd[(node.id, 0)] = s00 * out0 + s10 * out1
            bwd[(node.id, 1)] = s01 * out0 + s11 * out1
        else:  # the source or a mirror that no arm feeds
            bwd[(node.id, 0)] = outs[0]
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
    """Amplitude entering each arm, keyed by arm id, in leg order: the
    legs of each node that starts legs, in topological order, each leg's
    arms in turn.  For the standard network that is its arm order."""
    return _sweep_forward(net)[1]


def signature_amplitudes(net: Network, sites, detector: str | None = None) -> dict:
    """Summed amplitude per probed-site signature class at one detector.

    Routes to the detector are grouped by the tuple of ``sites`` they
    pass, in route order, and their amplitudes summed within each group:
    one forward pass, no route enumeration.  A site listed twice counts
    once.  Classes of blocked routes are present with amplitude zero, a
    zero splitter entry adds no class, and an empty result means no route
    reaches the detector.  Raises UnknownLabelError for the first site no
    arm carries and TooManyRoutesError past ``MAX_ROUTE_STEPS`` map
    updates.
    """
    target = resolve_detector(net, detector)
    sites = tuple(sites)
    for site in sites:
        net.labeled_arm(site)  # raises UnknownLabelError for an unknown site
    # the probed sites in leg order, which every route passes them in
    wanted = set(sites)
    order = [s for _, legs in net.legs().values() for leg in legs for s in leg.sites if s in wanted]
    in_amp, _ = _forward(net, order)
    return {
        tuple(s for i, s in enumerate(order) if sig >> i & 1): amp
        for sig, amp in in_amp.get((target, 0), {}).items()
    }


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
    starts = net.legs()
    paths: list[Path] = []

    # depth-first walk that builds one route in place, a leg per step; each
    # entry is a partial route that has run a leg to its end: (lengths of
    # the arm and site lists it extends, the leg, the amplitude at its end,
    # blocked).  A route's tuples are made only at the detector, and each
    # leg counts one step per arm, as many as the arrivals it stands for.
    arm_ids: list[str] = []
    sites: list[str] = []
    _, (leg,) = starts[net.source]
    stack = [(0, 0, leg, reduce(mul, leg.factors, 1.0 + 0j), leg.blocked)]
    steps = 1  # the arrival at the source
    while stack:
        n_arms, n_sites, leg, amp, blocked = stack.pop()
        steps += len(leg.ids)
        if steps > MAX_ROUTE_STEPS:
            raise TooManyRoutesError(
                f"route enumeration passed {MAX_ROUTE_STEPS} steps "
                f"with {len(paths)} routes found; the network has too many routes to list"
            )
        del arm_ids[n_arms:], sites[n_sites:]
        arm_ids += leg.ids
        sites += leg.sites
        node_id, in_port = leg.ends[-1]
        start = starts.get(node_id)
        if start is None:  # a detector or a sink ends the route
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
        # a leg ends at a splitter otherwise; its legs are pushed in reverse
        # port order so output port 0 is explored first
        node, legs = start
        n_arms, n_sites = len(arm_ids), len(sites)
        for port in (1, 0):
            entry = node.scatter[port][in_port]
            if entry == 0:  # a structurally absent coupling
                continue
            leg = legs[port]
            # the leg's factors in arm order, as the arms pass the amplitude on
            out_amp = reduce(mul, leg.factors, amp * entry)
            stack.append((n_arms, n_sites, leg, out_amp, blocked or leg.blocked))

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

"""Node-by-node passes: the reference for ``pathsum``'s leg passes.

The forward sweep, the backward sweep, the signature pass and the route
walk taken one node at a time (one stack entry per arm for the walk),
dispatching on each node's kind and looking up each arm and its factor
as they go.  They sort the nodes and index the arms by output port
themselves, from ``Network.nodes`` and ``Network.arms``, not from the
legs.  ``pathsum`` takes a leg at a time with the same arithmetic in the
same order, so the two must agree repr for repr, key by key: values and
signs of zero, not dict order.  The CI deep-chain step compares them too.
"""

from __future__ import annotations

from weaktrace import pathsum
from weaktrace.errors import TooManyRoutesError
from weaktrace.netgraph import BEAM_SPLITTER, DETECTOR, MIRROR, OUT_PORTS, SOURCE
from weaktrace.pathsum import Path, PathEnsemble, resolve_detector


def topological_order(net):
    """The nodes sorted so that every arm points forward (Kahn's algorithm)."""
    nodes = net.node_map()
    indeg = dict.fromkeys(nodes, 0)
    ends = {}
    for arm in net.arms:
        indeg[arm.to_node] += 1
        ends.setdefault(arm.from_node, []).append(arm.to_node)
    order = [n for n in net.nodes if not indeg[n.id]]
    for node in order:  # the list grows as nodes become ready
        for to in ends.get(node.id, ()):
            indeg[to] -= 1
            if not indeg[to]:
                order.append(nodes[to])
    return order


def arms_by_port(net):
    """The arm leaving each (node id, output port)."""
    return {(arm.from_node, arm.from_port): arm for arm in net.arms}


def forward(net, probed=frozenset()):
    """``pathsum._forward``: (in_amp, arm_in), one map per port and arm of
    {signature: summed amplitude}; raises past ``MAX_ROUTE_STEPS`` map updates."""
    outgoing = arms_by_port(net)
    in_amp = {}
    arm_in = {}
    steps = 0
    for node in topological_order(net):
        if node.kind == SOURCE:
            outs = [{(): 1.0 + 0j}]
        elif node.kind == BEAM_SPLITTER:
            m0 = in_amp.get((node.id, 0), {})
            m1 = in_amp.get((node.id, 1), {})
            sigs = {**m0, **m1}
            outs = [
                {
                    sig: row[0] * m0.get(sig, 0j) + row[1] * m1.get(sig, 0j)
                    for sig in (sigs if row[0] and row[1] else m0 if row[0] else m1)
                }
                for row in node.scatter
            ]
        elif node.kind == MIRROR:
            outs = [in_amp.get((node.id, 0), {})]
        else:
            continue
        for port, amps in enumerate(outs):
            arm = outgoing[(node.id, port)]
            arm_in[arm.id] = amps
            steps += len(amps)
            if steps > pathsum.MAX_ROUTE_STEPS:
                raise TooManyRoutesError("too many steps")
            factor = arm.factor()
            site = (arm.label,) if arm.label in probed else ()
            dest = in_amp.setdefault((arm.to_node, arm.to_port), {})
            for sig, amp in amps.items():
                key = sig + site
                dest[key] = dest.get(key, 0j) + amp * factor
    return in_amp, arm_in


def sweep_forward(net):
    """``pathsum._sweep_forward``: (fwd, arm_in), one scalar per reached
    input port and per arm."""
    outgoing = arms_by_port(net)
    fwd = {}
    arm_in = {}
    get = fwd.get
    for node in topological_order(net):
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
        else:
            continue
        for port, amp in enumerate(outs):
            arm = outgoing[(node.id, port)]
            if amp is None:
                arm_in[arm.id] = 0j
            else:
                arm_in[arm.id] = amp
                fwd[(arm.to_node, arm.to_port)] = 0j + amp * arm.factor()
    return fwd, arm_in


def sweep_backward(net, detector):
    """``pathsum._sweep_backward``: the amplitude each point sends on to
    ``detector``, keyed by (node, input port), the source by port 0."""
    outgoing = arms_by_port(net)
    bwd = {(detector, 0): 1.0 + 0j}
    get = bwd.get
    for node in reversed(topological_order(net)):
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


def enumerate_paths(net, detector=None):
    """``pathsum.enumerate_paths``: every route to the detector, port 0
    first, one stack entry per arm; raises past ``MAX_ROUTE_STEPS`` entries."""
    target = resolve_detector(net, detector)
    nodes = net.node_map()
    outgoing = arms_by_port(net)
    paths = []
    arm_ids = []
    sites = []
    stack = [(0, 0, None, net.source, 0, 1.0 + 0j, False)]
    steps = 0
    while stack:
        steps += 1
        if steps > pathsum.MAX_ROUTE_STEPS:
            raise TooManyRoutesError("too many steps")
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
        n_arms, n_sites = len(arm_ids), len(sites)
        for port in reversed(range(OUT_PORTS[node.kind])):
            out_amp = amp
            if node.kind == BEAM_SPLITTER:
                entry = node.scatter[port][in_port]
                if entry == 0:
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
    return PathEnsemble(source=net.source, detector=target, paths=tuple(paths), total=total)

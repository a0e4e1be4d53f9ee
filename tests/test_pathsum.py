import cmath

import numpy as np
import pytest

import node_passes
from conftest import path_by_sites, uneven_runs_network, with_absent_couplings
from weaktrace import (
    amplitude_split,
    apply_block,
    pathsum,
    arm_input_amplitudes,
    detection_probability,
    enumerate_paths,
    propagate,
    random_layered_network,
    set_transmission,
    signature_amplitudes,
    terminal_amplitudes,
)
from weaktrace.errors import TooManyRoutesError, UnknownLabelError
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

# Hand-derived amplitudes for the standard layout with balanced splitters
# (rows of the scatter matrix are output ports).  The route through the
# inner upper arm collects four +1/sqrt(2) entries: +1/4.  The inner lower
# route picks up -1/sqrt(2) entering arm F (BS3 row 1, column 1): -1/4.
# The reference route passes two splitters: +1/2.
EAF = 0.25
EBF = -0.25
CREF = 0.5


def test_exactly_three_paths(std_ens):
    assert len(std_ens.paths) == 3
    assert set(p.sites for p in std_ens.paths) == {
        ("E", "A", "F"),
        ("E", "B", "F"),
        ("C",),
    }


def test_hand_derived_amplitudes(std_ens):
    by_sites = path_by_sites(std_ens)
    assert by_sites[("E", "A", "F")].amplitude == pytest.approx(EAF, abs=1e-12)
    assert by_sites[("E", "B", "F")].amplitude == pytest.approx(EBF, abs=1e-12)
    assert by_sites[("C",)].amplitude == pytest.approx(CREF, abs=1e-12)
    assert std_ens.total == pytest.approx(0.5, abs=1e-12)
    assert detection_probability(std_ens) == pytest.approx(0.25, abs=1e-12)


def test_no_path_is_blocked_by_default(std_ens):
    assert not any(p.blocked for p in std_ens.paths)


def test_propagation_agrees_with_enumeration(std_net, std_ens):
    amp = propagate(std_net)["D"]
    assert abs(amp - std_ens.total) < 1e-12


def test_terminal_conservation(std_net):
    terms = terminal_amplitudes(std_net)
    probs = {t: abs(a) ** 2 for t, a in terms.items()}
    assert probs["D"] == pytest.approx(0.25, abs=1e-12)
    assert probs["SINK1"] == pytest.approx(0.5, abs=1e-12)
    assert probs["SINK2"] == pytest.approx(0.25, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_arm_input_amplitudes(std_net):
    amp = arm_input_amplitudes(std_net)
    h = 1 / np.sqrt(2)
    assert amp["E"] == pytest.approx(h, abs=1e-12)
    assert amp["C"] == pytest.approx(h, abs=1e-12)
    assert amp["A"] == pytest.approx(0.5, abs=1e-12)
    assert amp["B"] == pytest.approx(0.5, abs=1e-12)
    # the inner loop interferes destructively toward BS4
    assert amp["F"] == 0.0


def test_blocking_keeps_path_geometry(std_net):
    blocked = apply_block(std_net, "A")
    ens = enumerate_paths(blocked)
    assert len(ens.paths) == 3
    by_sites = path_by_sites(ens)
    assert by_sites[("E", "A", "F")].blocked
    assert by_sites[("E", "A", "F")].amplitude == 0j
    assert not by_sites[("C",)].blocked
    # lose the +1/4 route: total drops to 1/4, probability to 1/16
    assert ens.total == pytest.approx(0.25, abs=1e-12)
    assert detection_probability(ens) == pytest.approx(1 / 16, abs=1e-12)


def test_blocking_E_leaves_rate_unchanged(std_net):
    # the two inner routes cancel, so removing both changes nothing at D
    ens = enumerate_paths(apply_block(std_net, "E"))
    assert detection_probability(ens) == pytest.approx(0.25, abs=1e-12)


def test_partial_transmission(std_net):
    damped = set_transmission(std_net, "A", 0.5)
    ens = enumerate_paths(damped)
    by_sites = path_by_sites(ens)
    p = by_sites[("E", "A", "F")]
    assert not p.blocked
    assert p.amplitude == pytest.approx(EAF * 0.5, abs=1e-12)
    assert ens.total == pytest.approx(0.5 - 0.125, abs=1e-12)


def test_static_phase_rotates_amplitude():
    phi = 0.7
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=hadamard()),
        Node("D", DETECTOR),
        Node("K", SINK),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS", 0),
        Arm("out", "BS", 0, "D", 0, static_phase=phi),
        Arm("dump", "BS", 1, "K", 0),
    ]
    ens = enumerate_paths(build_network(nodes, arms))
    expected = cmath.exp(1j * phi) / np.sqrt(2)
    assert ens.paths[0].amplitude == pytest.approx(expected, abs=1e-12)


def test_detector_must_be_named_when_ambiguous():
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=hadamard()),
        Node("D1", DETECTOR),
        Node("D2", DETECTOR),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS", 0),
        Arm("o1", "BS", 0, "D1", 0),
        Arm("o2", "BS", 1, "D2", 0),
    ]
    net = build_network(nodes, arms)
    with pytest.raises(UnknownLabelError):
        enumerate_paths(net)
    ens = enumerate_paths(net, "D2")
    assert ens.detector == "D2"
    assert ens.total == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(UnknownLabelError):
        enumerate_paths(net, "SINK1")


def test_site_amplitude(std_net):
    # (A0, A1): the routes bypassing and passing the site, from one pass
    assert amplitude_split(std_net, "A") == pytest.approx((CREF + EBF, EAF), abs=1e-12)
    assert amplitude_split(std_net, "E") == pytest.approx((CREF, 0.0), abs=1e-12)
    assert amplitude_split(std_net, "C") == pytest.approx((0.0, CREF), abs=1e-12)
    with pytest.raises(UnknownLabelError):
        amplitude_split(std_net, "Z")


def test_random_networks_oracle_equivalence():
    """Path enumeration and mode propagation are independent routes to the
    same amplitudes; they must agree on every detector of every network."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        net = random_layered_network(rng)
        amps = propagate(net)
        for det in net.detectors:
            ens = enumerate_paths(net, det)
            assert abs(ens.total - amps[det]) < 1e-10, (seed, det)
        total_prob = sum(
            abs(a) ** 2 for a in terminal_amplitudes(net).values()
        )
        assert abs(total_prob - 1.0) < 1e-10, seed


def test_random_networks_blocking_never_adds_paths():
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        net = random_layered_network(rng)
        det = net.detectors[0]
        base = enumerate_paths(net, det)
        sites = sorted(net.site_labels())
        if not sites:
            continue
        blocked = enumerate_paths(apply_block(net, sites[0]), det)
        assert len(blocked.paths) == len(base.paths)
        assert sum(p.blocked for p in blocked.paths) >= sum(
            p.blocked for p in base.paths
        )


def test_signature_classes_are_the_routes_grouped_by_sites():
    """No route takes a zero splitter entry, so the signature pass adds no
    class for it: its classes are the walk's routes grouped by the sites
    they pass, blocked routes included, with the same summed amplitudes."""
    replaced = 0
    for seed in range(120):
        net, count = with_absent_couplings(np.random.default_rng(5000 + seed))
        replaced += count
        sites = sorted(net.site_labels())
        for det in net.detectors:
            routes = {}
            for p in enumerate_paths(net, det).paths:
                routes[p.sites] = routes.get(p.sites, 0j) + p.amplitude
            classes = signature_amplitudes(net, sites, det)
            assert classes.keys() == routes.keys(), (seed, det)
            for sig, amp in routes.items():
                assert abs(classes[sig] - amp) < 1e-12, (seed, det, sig)
    assert replaced > 100


def by_sites(maps, probed):
    """The signature pass's maps with each mask turned into the tuple of the
    sites whose bits it sets, in ``probed`` order: the keys of
    ``node_passes.forward`` when ``probed`` is in route order."""
    return {
        where: {tuple(s for i, s in enumerate(probed) if sig >> i & 1): amp for sig, amp in amps.items()}
        for where, amps in maps.items()
    }


def test_sweeps_are_the_unprobed_signature_pass():
    """The forward sweep is the signature pass with nothing probed, bit for
    bit (repr pins signs of zero), absent couplings and unfed splitter
    inputs included; the backward sweep's value at the source is the
    amplitude the forward sweep brings to each detector."""
    for seed in range(120):
        net, _ = with_absent_couplings(np.random.default_rng(5000 + seed))
        in_amp, arm_in = (by_sites(maps, ()) for maps in pathsum._forward(net))
        assert repr(arm_input_amplitudes(net)) == repr(
            {arm: amps.get((), 0j) for arm, amps in arm_in.items()}
        ), seed
        terminals = {
            n.id: in_amp.get((n.id, 0), {}).get((), 0j)
            for n in net.nodes
            if n.kind in (DETECTOR, SINK)
        }
        assert repr(terminal_amplitudes(net)) == repr(terminals), seed
        for det, amp in propagate(net).items():
            assert abs(pathsum._sweep_backward(net, det)[(net.source, 0)] - amp) < 1e-12, seed


def _mirror_runs(depth=6):
    """Three networks whose legs run through several mirrors: an unfed
    mirror run feeding a splitter's second input, an arm of transmission
    0 in the middle of a leg, and a network with two detectors."""
    h = hadamard()

    def chain(name, start, end, labels=(), blocked=(), unfed=False):
        # ``depth`` mirrors from the port ``start`` to the port ``end``; with
        # ``unfed``, no arm feeds the first mirror and ``start`` is unused
        mirrors = [Node(f"{name}{i}", MIRROR) for i in range(depth)]
        ports = [(m.id, 0) for m in mirrors]
        froms, tos = (ports, ports[1:] + [end]) if unfed else ([start] + ports, ports + [end])
        arms = [
            Arm(
                f"{name}_a{i}",
                *src,
                *dst,
                label=f"{name}{i}" if i in labels else None,
                static_phase=0.3 * i - 0.5,
                transmission=0.0 if i in blocked else 1.0,
            )
            for i, (src, dst) in enumerate(zip(froms, tos))
        ]
        return mirrors, arms

    base = [Node("SRC", SOURCE), Node("J0", BEAM_SPLITTER, scatter=h), Node("J1", BEAM_SPLITTER, scatter=h)]
    nets = []

    # an unfed run into J0's second input: that input carries no route,
    # but the backward sweep reaches the run
    unfed_m, unfed_a = chain("u", None, ("J0", 1), labels=(0, 3), unfed=True)
    up_m, up_a = chain("p", ("J0", 0), ("J1", 0), labels=(2,))
    lo_m, lo_a = chain("q", ("J0", 1), ("J1", 1), labels=(1,))
    nodes = base + unfed_m + up_m + lo_m + [Node("D", DETECTOR), Node("K", SINK)]
    arms = [Arm("in", "SRC", 0, "J0", 0), *unfed_a, *up_a, *lo_a]
    arms += [Arm("out", "J1", 0, "D", 0), Arm("dump", "J1", 1, "K", 0)]
    nets.append(build_network(nodes, arms))

    # an arm of transmission 0 in the middle of the upper leg
    up_m, up_a = chain("p", ("J0", 0), ("J1", 0), labels=(0, 5), blocked=(3,))
    lo_m, lo_a = chain("q", ("J0", 1), ("J1", 1), labels=(2,))
    nodes = base + up_m + lo_m + [Node("D", DETECTOR), Node("K", SINK)]
    arms = [Arm("in", "SRC", 0, "J0", 0), *up_a, *lo_a]
    arms += [Arm("out", "J1", 0, "D", 0), Arm("dump", "J1", 1, "K", 0)]
    nets.append(build_network(nodes, arms))

    # two detectors, each at the end of a mirror run
    up_m, up_a = chain("p", ("J0", 0), ("J1", 0), labels=(1,))
    lo_m, lo_a = chain("q", ("J0", 1), ("J1", 1), labels=(4,))
    d1_m, d1_a = chain("r", ("J1", 0), ("D1", 0), labels=(0,))
    d2_m, d2_a = chain("s", ("J1", 1), ("D2", 0), labels=(2,))
    nodes = base + up_m + lo_m + d1_m + d2_m + [Node("D1", DETECTOR), Node("D2", DETECTOR)]
    arms = [Arm("in", "SRC", 0, "J0", 0), *up_a, *lo_a, *d1_a, *d2_a]
    nets.append(build_network(nodes, arms[::-1]))
    return nets


def _same(leg_pass, node_pass, where):
    """Two dicts with the same keys and, key by key, the same repr."""
    assert leg_pass.keys() == node_pass.keys(), where
    for key, value in node_pass.items():
        assert repr(leg_pass[key]) == repr(value), (where, key)


def test_leg_passes_are_the_node_by_node_passes():
    """Each pass takes a leg in one step with the node-by-node arithmetic
    in its order: the same values, signs of zero included, on random
    networks, on networks with absent couplings and blocked arms, on
    branching networks whose legs end at different depths, and on networks
    whose legs run through several mirrors."""
    nets = [random_layered_network(np.random.default_rng(seed)) for seed in range(25)]
    nets += [with_absent_couplings(np.random.default_rng(5000 + seed))[0] for seed in range(120)]
    nets += [uneven_runs_network(np.random.default_rng(7000 + seed)) for seed in range(60)]
    nets += _mirror_runs()
    for n, net in enumerate(nets):
        fwd, arm_in = pathsum._sweep_forward(net)
        ref_fwd, ref_arm_in = node_passes.sweep_forward(net)
        _same(fwd, ref_fwd, n)
        _same(arm_in, ref_arm_in, n)
        # the sites in the order a node-at-a-time sort reaches their arms,
        # which is route order along every route
        rank = {node.id: i for i, node in enumerate(node_passes.topological_order(net))}
        in_route_order = sorted(net.site_labels(), key=lambda s: rank[net.labeled_arm(s).from_node])
        for probed in ([], in_route_order):
            in_amp, arm_maps = (by_sites(maps, probed) for maps in pathsum._forward(net, probed))
            ref_in_amp, ref_arm_maps = node_passes.forward(net, frozenset(probed))
            _same(in_amp, ref_in_amp, n)
            _same(arm_maps, ref_arm_maps, n)
        for det in net.detectors:
            _same(pathsum._sweep_backward(net, det), node_passes.sweep_backward(net, det), n)
            assert repr(enumerate_paths(net, det)) == repr(node_passes.enumerate_paths(net, det)), n
    unfed, blocked, two = (net.legs() for net in nets[-3:])
    assert len(unfed["u0"][1][0].ids) == 6
    assert blocked["J0"][1][0].blocked and not blocked["J0"][1][1].blocked
    assert len(two["J1"][1][1].ids) == 7


def test_route_enumeration_is_bounded(std_net, monkeypatch):
    # the standard network's walk takes 22 steps, sink arrivals included
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 22)
    assert len(enumerate_paths(std_net).paths) == 3
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 21)
    with pytest.raises(TooManyRoutesError) as err:
        enumerate_paths(std_net)
    assert err.value.code == "too_many_routes"
    assert err.value.exit_code == 3


def test_require_sites_names_the_first_unknown_site(std_net):
    signature_amplitudes(std_net, ["A", "E"])
    with pytest.raises(UnknownLabelError, match="no arm carries site label 'Z'"):
        signature_amplitudes(std_net, iter(["A", "Z", "Y"]))
    # the signature pass itself refuses a probed site that no arm carries
    with pytest.raises(UnknownLabelError, match="no arm carries site label 'Z'"):
        pathsum._forward(std_net, frozenset({"A", "Z"}))


def test_signature_amplitudes_keep_their_contract(std_net):
    """Keys are tuples of the requested sites in route order, whatever order
    the sites are asked in and however often, and classes come in
    first-seen order; a blocked class stays at amplitude 0, and a detector
    that no route reaches has no classes."""
    assert repr(signature_amplitudes(std_net, "FCEBA")) == (
        "{('E', 'A', 'F'): (0.24999999999999992+0j), ('E', 'B', 'F'): (-0.24999999999999992+0j), "
        "('C',): (0.4999999999999999+0j)}"
    )
    assert repr(signature_amplitudes(std_net, ["F", "A", "F"])) == (
        "{('A', 'F'): (0.24999999999999992+0j), ('F',): (-0.24999999999999992+0j), "
        "(): (0.4999999999999999+0j)}"
    )
    assert repr(signature_amplitudes(apply_block(std_net, "A"), ["A", "E", "A"])) == (
        "{('E', 'A'): 0j, ('E',): (-0.24999999999999992+0j), (): (0.4999999999999999+0j)}"
    )
    assert repr(signature_amplitudes(apply_block(std_net, "E"), ["C", "A"])) == (
        "{('A',): 0j, (): 0j, ('C',): (0.4999999999999999+0j)}"
    )
    dark = build_network(std_net.nodes + (Node("D2", DETECTOR),), std_net.arms)
    assert signature_amplitudes(dark, ["A", "E"], "D2") == {}
    with pytest.raises(UnknownLabelError, match="no arm carries site label 'Z'"):
        signature_amplitudes(std_net, ["A", "A", "Z", "Y", "Z"])

    rng = np.random.default_rng(28)
    for seed in range(40):
        net = with_absent_couplings(np.random.default_rng(5000 + seed))[0]
        sites = sorted(net.site_labels())
        for det in net.detectors:
            wanted = set(sites[::2])
            classes = signature_amplitudes(net, sorted(wanted), det)
            routes = {tuple(s for s in p.sites if s in wanted) for p in enumerate_paths(net, det).paths}
            assert classes.keys() == routes, (seed, det)
            shuffled = [str(s) for s in rng.permutation(sorted(wanted) * 2)]
            assert repr(signature_amplitudes(net, shuffled, det)) == repr(classes), (seed, det)


def test_propagation_is_the_unprobed_signature_pass(std_net):
    # frozen from the scalar forward pass that the signature-carrying pass
    # replaced; repr pins every bit, signs of zero included.  The arms come
    # in leg order, which for the standard network is its arm order.
    assert repr(propagate(std_net)) == "{'D': (0.4999999999999999+0j)}"
    assert repr(arm_input_amplitudes(std_net)) == (
        "{'in': (1+0j), 'E': (0.7071067811865475+0j), 'E_out': (0.7071067811865475+0j), "
        "'C': (0.7071067811865475+0j), 'C_out': (0.7071067811865475+0j), "
        "'A': (0.4999999999999999+0j), 'A_out': (0.4999999999999999+0j), "
        "'B': (0.4999999999999999+0j), 'B_out': (0.4999999999999999+0j), "
        "'dump1': (0.7071067811865474+0j), 'F': 0j, 'F_out': 0j, "
        "'out': (0.4999999999999999+0j), 'dump2': (-0.4999999999999999+0j)}"
    )
    assert list(arm_input_amplitudes(std_net)) == [a.id for a in std_net.arms]
    assert signature_amplitudes(std_net, []) == {(): propagate(std_net)["D"]}


def test_propagation_is_bounded(std_net, monkeypatch):
    # a scalar sweep costs one update per arm, so only the signature pass
    # counts steps: 14 map-entry updates with nothing probed
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 14)
    assert signature_amplitudes(std_net, []) == {(): propagate(std_net)["D"]}
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 13)
    with pytest.raises(TooManyRoutesError):
        signature_amplitudes(std_net, [])
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 0)
    assert len(arm_input_amplitudes(std_net)) == 14
    assert abs(propagate(std_net)["D"] - 0.5) < 1e-15
    assert len(terminal_amplitudes(std_net)) == 3


def test_deep_routes_are_listed_in_chain_order():
    # one interferometer with 5000 mirrors on each arm, far past the
    # recursion limit; every 1000th arm of a chain carries a site label
    depth = 5000
    nodes = [Node("SRC", SOURCE), Node("D", DETECTOR), Node("K", SINK)]
    nodes += [Node(j, BEAM_SPLITTER, scatter=hadamard()) for j in ("J0", "J1")]
    arms = [Arm("in", "SRC", 0, "J0", 0), Arm("out", "J1", 0, "D", 0), Arm("dump", "J1", 1, "K", 0)]
    chains = {}
    for port in (0, 1):
        chain = []
        for i in range(depth + 1):
            start = ("J0", port) if i == 0 else (f"M{port}_{i - 1}", 0)
            end = ("J1", port) if i == depth else (f"M{port}_{i}", 0)
            if i < depth:
                nodes.append(Node(end[0], MIRROR))
            label = f"s{port}_{i}" if i % 1000 == 0 else None
            chain.append(Arm(f"a{port}_{i}", *start, *end, label=label, static_phase=1e-3 * i))
        chains[port] = chain
    net = build_network(nodes, arms + chains[1][::-1] + chains[0][::-1])
    ens = enumerate_paths(net)
    assert [p.arms for p in ens.paths] == [
        ("in", *(a.id for a in chains[port]), "out") for port in (0, 1)
    ]
    assert [p.sites for p in ens.paths] == [
        tuple(f"s{port}_{i}" for i in range(0, depth + 1, 1000)) for port in (0, 1)
    ]
    assert abs(ens.total - propagate(net)["D"]) < 1e-12

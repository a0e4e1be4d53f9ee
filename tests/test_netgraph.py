import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from conftest import build_calls, uneven_runs_network
from node_passes import topological_order
from weaktrace import (
    Modulation,
    apply_block,
    arm_input_amplitudes,
    build_network,
    enumerate_paths,
    netgraph,
    propagate,
    set_modulation,
    set_transmission,
    signature_amplitudes,
    spectra,
    terminal_amplitudes,
    weak_values,
)
from weaktrace.errors import (
    CyclicGraphError,
    DanglingPortError,
    DuplicateLabelError,
    NetworkError,
    NonUnitaryScatterError,
    PortConflictError,
    UnknownLabelError,
)
from weaktrace.netgraph import (
    BEAM_SPLITTER,
    DETECTOR,
    MIRROR,
    SINK,
    SOURCE,
    Arm,
    Node,
    as_matrix2,
    hadamard,
    standard_nested_mzi,
)
from weaktrace.pathsum import Path
from weaktrace.randomnet import random_layered_network


def test_standard_network_shape(std_net):
    assert len(std_net.nodes) == 13
    assert len(std_net.arms) == 14
    assert std_net.source == "SRC"
    assert std_net.detectors == ("D",)
    assert std_net.site_labels() == frozenset("ABCEF")
    kinds = [n.kind for n in std_net.nodes]
    assert kinds.count(BEAM_SPLITTER) == 4
    assert kinds.count(MIRROR) == 5
    assert kinds.count(SINK) == 2


def test_standard_network_revalidates(std_net):
    rebuilt = build_network(std_net.nodes, std_net.arms)
    assert rebuilt == std_net


def test_hadamard_is_unitary():
    u = np.array(hadamard())
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_scatter_override_applies():
    swap = ((0j, 1 + 0j), (1 + 0j, 0j))
    net = standard_nested_mzi(bs2=swap)
    assert net.node_map()["BS2"].scatter == swap
    assert net.node_map()["BS1"].scatter == hadamard()


@pytest.mark.parametrize(
    "value, message",
    [
        (np.eye(3), r"must be 2x2, got shape \(3, 3\)"),
        ([[1.0, math.nan], [0.0, 1.0]], "non-finite entries"),
    ],
)
def test_as_matrix2_refuses(value, message):
    with pytest.raises(NetworkError, match=message):
        as_matrix2(value)


def test_non_unitary_scatter_rejected():
    bad = [[1.0, 0.0], [0.5, 1.0]]
    with pytest.raises(NonUnitaryScatterError) as err:
        standard_nested_mzi(bs2=bad)
    assert err.value.node_id == "BS2"
    assert err.value.deviation > 0.1


def test_unitarity_tolerance_is_loose_enough_for_roundoff():
    h = 1.0 / np.sqrt(2.0)
    nearly = [[h + 1e-13, h], [h, -h]]
    standard_nested_mzi(bs1=nearly)  # must not raise
    with pytest.raises(NonUnitaryScatterError):
        standard_nested_mzi(bs1=[[h + 1e-5, h], [h, -h]])


def test_unitarity_deviation_is_numpys(monkeypatch):
    """A splitter's deviation from unitarity, the largest entry of
    u^H u - I, is taken in plain complex arithmetic: on near-unitary
    matrices it is numpy's expression within 1e-15, and the verdict is
    numpy's wherever that deviation is not within a factor 2 of the
    tolerance."""
    rng = np.random.default_rng(25)
    matrices, expected = [], []
    for _ in range(4000):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = q + 10 ** rng.uniform(-17, -9) * noise
        matrices.append(as_matrix2(u))
        expected.append(float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
    near = 0
    for m, dev in zip(matrices, expected):
        node = Node("BS", BEAM_SPLITTER, scatter=m)
        with monkeypatch.context() as patch:
            patch.setattr(netgraph, "UNITARITY_TOL", -1.0)  # every check reports its deviation
            with pytest.raises(NonUnitaryScatterError) as err:
                netgraph._check_unitary(node)
        assert abs(err.value.deviation - dev) <= 1e-15
        if 0.5e-12 <= dev <= 2e-12:
            near += 1
            continue
        if dev > netgraph.UNITARITY_TOL:
            with pytest.raises(NonUnitaryScatterError):
                netgraph._check_unitary(node)
        else:
            netgraph._check_unitary(node)
    assert 0 < near < 1000  # both sides of the tolerance are well covered


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("part", range(8))
def test_non_finite_scatter_entry_rejected(part, bad):
    # a NaN makes the deviation NaN, which no tolerance test refuses; the
    # entry is refused, in any of the 8 real and imaginary parts, before
    # the deviation is taken
    h = 0.5**0.5
    parts = [h, 0.0, h, 0.0, h, 0.0, -h, 0.0]
    parts[part] = bad
    entries = [complex(parts[i], parts[i + 1]) for i in range(0, 8, 2)]
    scatter = (tuple(entries[:2]), tuple(entries[2:]))
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=scatter),
        Node("D", DETECTOR),
        Node("K", SINK),
    ]
    arms = [Arm("in", "SRC", 0, "BS", 0), Arm("out", "BS", 0, "D", 0), Arm("dump", "BS", 1, "K", 0)]
    with pytest.raises(NetworkError) as err:
        build_network(nodes, arms)
    assert type(err.value) is NetworkError
    assert str(err.value) == "scatter matrix of node 'BS' has a non-finite entry"


def _tiny(arms_extra=(), nodes_extra=()):
    nodes = [Node("SRC", SOURCE), Node("D", DETECTOR)] + list(nodes_extra)
    arms = [Arm("in", "SRC", 0, "D", 0)] + list(arms_extra)
    return nodes, arms


def test_feedback_loop_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=hadamard()),
        Node("M", MIRROR),
        Node("D", DETECTOR),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS", 0),
        Arm("loop_out", "BS", 0, "M", 0),
        Arm("loop_back", "M", 0, "BS", 1),
        Arm("out", "BS", 1, "D", 0),
    ]
    # D sits behind the cycle and is reported with it
    with pytest.raises(CyclicGraphError, match=r"cycle through nodes \['BS', 'D', 'M'\]"):
        build_network(nodes, arms)


def test_dangling_splitter_output_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=hadamard()),
        Node("D", DETECTOR),
    ]
    arms = [Arm("in", "SRC", 0, "BS", 0), Arm("out", "BS", 0, "D", 0)]
    with pytest.raises(DanglingPortError):
        build_network(nodes, arms)  # BS output 1 goes nowhere


def test_unfed_splitter_input_is_vacuum(std_net):
    # BS1 and BS2 of the standard layout only receive one input each.
    fed = {(a.to_node, a.to_port) for a in std_net.arms}
    assert ("BS1", 1) not in fed
    assert ("BS2", 1) not in fed


def test_output_port_conflict_rejected():
    nodes, arms = _tiny(
        nodes_extra=[Node("D2", DETECTOR)],
        arms_extra=[Arm("dup", "SRC", 0, "D2", 0)],
    )
    with pytest.raises(PortConflictError):
        build_network(nodes, arms)


def test_input_port_conflict_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER, scatter=hadamard()),
        Node("D", DETECTOR),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS", 0),
        Arm("o1", "BS", 0, "D", 0),
        Arm("o2", "BS", 1, "D", 0),  # same detector input twice
    ]
    with pytest.raises(PortConflictError):
        build_network(nodes, arms)


def test_unknown_node_reference_rejected():
    nodes, arms = _tiny(arms_extra=[Arm("ghost", "NOPE", 0, "D", 0)])
    with pytest.raises(PortConflictError):
        build_network(nodes, arms)


def test_out_of_range_port_rejected():
    nodes, arms = _tiny()
    arms[0] = Arm("in", "SRC", 1, "D", 0)  # sources have a single output 0
    with pytest.raises(PortConflictError):
        build_network(nodes, arms)


def test_duplicate_node_id_rejected():
    nodes, arms = _tiny(nodes_extra=[Node("SRC", SINK)])
    with pytest.raises(DuplicateLabelError):
        build_network(nodes, arms)


def test_duplicate_arm_label_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("M1", MIRROR),
        Node("M2", MIRROR),
        Node("D", DETECTOR),
    ]
    arms = [
        Arm("a1", "SRC", 0, "M1", 0, label="X"),
        Arm("a2", "M1", 0, "M2", 0, label="X"),
        Arm("a3", "M2", 0, "D", 0),
    ]
    with pytest.raises(DuplicateLabelError):
        build_network(nodes, arms)


def test_missing_source_rejected():
    nodes = [Node("D", DETECTOR)]
    with pytest.raises(NetworkError):
        build_network(nodes, [])


def test_two_sources_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("SRC2", SOURCE),
        Node("D", DETECTOR),
        Node("D2", DETECTOR),
    ]
    arms = [Arm("a", "SRC", 0, "D", 0), Arm("b", "SRC2", 0, "D2", 0)]
    with pytest.raises(NetworkError):
        build_network(nodes, arms)


def test_missing_detector_rejected():
    nodes = [Node("SRC", SOURCE), Node("K", SINK)]
    with pytest.raises(NetworkError):
        build_network(nodes, [Arm("a", "SRC", 0, "K", 0)])


def test_splitter_without_scatter_rejected():
    nodes = [
        Node("SRC", SOURCE),
        Node("BS", BEAM_SPLITTER),
        Node("D", DETECTOR),
        Node("K", SINK),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS", 0),
        Arm("o1", "BS", 0, "D", 0),
        Arm("o2", "BS", 1, "K", 0),
    ]
    with pytest.raises(NetworkError):
        build_network(nodes, arms)


def test_scatter_on_mirror_rejected():
    nodes, arms = _tiny()
    nodes.append(Node("M", MIRROR, scatter=hadamard()))
    with pytest.raises(NetworkError):
        build_network(nodes, arms)


def _splitters(*ids):
    return [Node(i, BEAM_SPLITTER, scatter=hadamard()) for i in ids]


# on several faults build_network names the one its checks meet first:
# from-end before to-end, each arm in turn, then the dangling ports in node
# and port order, then the source and detector counts, then a cycle
FIRST_FAULTS = {
    "two dangling ports, first in node order": (
        [Node("SRC", SOURCE), *_splitters("BS2", "BS1"), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "BS1", 0), Arm("a", "BS1", 1, "BS2", 0)],
        DanglingPortError,
        "output port 0 of node 'BS2' is not connected",
    ),
    "two dangling ports, first in port order": (
        [Node("SRC", SOURCE), *_splitters("BS2", "BS1"), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "BS1", 0), Arm("a", "BS1", 0, "BS2", 0), Arm("b", "BS2", 0, "D", 0)],
        DanglingPortError,
        "output port 1 of node 'BS2' is not connected",
    ),
    "a dangling port and a transmission out of range": (
        [Node("SRC", SOURCE), *_splitters("BS"), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "BS", 0, transmission=1.5), Arm("out", "BS", 0, "D", 0)],
        NetworkError,
        "arm 'in' transmission 1.5 outside [0, 1]",
    ),
    "a bad from-port and an unknown to-node": (
        [Node("SRC", SOURCE), Node("D", DETECTOR)],
        [Arm("in", "SRC", 1, "NOPE", 0)],
        PortConflictError,
        "arm 'in' uses from-port 1 of 'SRC', which has 1 such ports",
    ),
    "a bad to-port after a good from-port": (
        [Node("SRC", SOURCE), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "D", 1)],
        PortConflictError,
        "arm 'in' uses to-port 1 of 'D', which has 1 such ports",
    ),
    "a duplicate output port and a dangling port": (
        [Node("SRC", SOURCE), *_splitters("BS"), Node("D", DETECTOR), Node("D2", DETECTOR)],
        [Arm("in", "SRC", 0, "BS", 0), Arm("o1", "BS", 0, "D", 0), Arm("o2", "BS", 0, "D2", 0)],
        PortConflictError,
        "output port ('BS', 0) feeds both arms 'o1' and 'o2'",
    ),
    "a dangling port behind a cycle": (
        [Node("SRC", SOURCE), *_splitters("BS"), Node("M", MIRROR), *_splitters("X"), Node("D", DETECTOR)],
        [
            Arm("in", "SRC", 0, "BS", 0),
            Arm("loop", "BS", 0, "M", 0),
            Arm("back", "M", 0, "BS", 1),
            Arm("on", "BS", 1, "X", 0),
            Arm("out", "X", 0, "D", 0),
        ],
        DanglingPortError,
        "output port 1 of node 'X' is not connected",
    ),
    "a dangling mirror output in the middle of a leg": (
        [Node("SRC", SOURCE), Node("M1", MIRROR), Node("M2", MIRROR), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "M1", 0), Arm("a", "M1", 0, "M2", 0)],
        DanglingPortError,
        "output port 0 of node 'M2' is not connected",
    ),
    "a dangling port and two sources": (
        [Node("SRC", SOURCE), Node("SRC2", SOURCE), Node("D", DETECTOR)],
        [Arm("in", "SRC", 0, "D", 0)],
        DanglingPortError,
        "output port 0 of node 'SRC2' is not connected",
    ),
    "a cycle and no detector": (
        [Node("SRC", SOURCE), *_splitters("BS"), Node("M", MIRROR), Node("K", SINK)],
        [
            Arm("in", "SRC", 0, "BS", 0),
            Arm("loop", "BS", 0, "M", 0),
            Arm("back", "M", 0, "BS", 1),
            Arm("dump", "BS", 1, "K", 0),
        ],
        NetworkError,
        "network has no detector",
    ),
    "a pure-mirror cycle off the route": (
        [Node("SRC", SOURCE), *(Node(m, MIRROR) for m in ("M0", "M1", "M2")), Node("D", DETECTOR)],
        [
            Arm("in", "SRC", 0, "M0", 0),
            Arm("out", "M0", 0, "D", 0),
            Arm("a", "M1", 0, "M2", 0),
            Arm("b", "M2", 0, "M1", 0),
        ],
        CyclicGraphError,
        "cycle through nodes ['M1', 'M2']",
    ),
    "a 50-mirror cycle off the route: ten named, the rest counted": (
        [Node("SRC", SOURCE), Node("D", DETECTOR), *(Node(f"R{i:02d}", MIRROR) for i in range(50))],
        [Arm("in", "SRC", 0, "D", 0), *(Arm(f"r{i}", f"R{i:02d}", 0, f"R{(i + 1) % 50:02d}", 0) for i in range(50))],
        CyclicGraphError,
        "cycle through nodes ['R00', 'R01', 'R02', 'R03', 'R04', 'R05', 'R06', 'R07', 'R08', 'R09'] and 40 more",
    ),
}


@pytest.mark.parametrize("case", FIRST_FAULTS.values(), ids=FIRST_FAULTS)
def test_the_first_fault_is_named(case):
    nodes, arms, error, message = case
    with pytest.raises(error) as caught:
        build_network(nodes, arms)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_transmission_out_of_range_rejected(std_net):
    for value in (1.5, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(NetworkError, match="outside"):
            set_transmission(std_net, "A", value)
    arm = std_net.labeled_arm("A")
    for phase in (math.nan, math.inf):
        bad = dataclasses.replace(arm, static_phase=phase)
        arms = tuple(bad if a.id == arm.id else a for a in std_net.arms)
        with pytest.raises(NetworkError, match="non-finite static phase"):
            build_network(std_net.nodes, arms)


def test_apply_block_is_functional(std_net):
    blocked = apply_block(std_net, "B")
    assert blocked.labeled_arm("B").transmission == 0.0
    # the original instance is untouched
    assert std_net.labeled_arm("B").transmission == 1.0
    # idempotent
    assert apply_block(blocked, "B") == blocked


def test_apply_block_blocks_several_sites_in_one_rebuild(std_net, monkeypatch):
    calls = build_calls(monkeypatch)
    blocked = apply_block(std_net, "A", "C", "A")
    assert len(calls) == 1
    assert [a.id for a in blocked.arms if a.transmission == 0.0] == ["C", "A"]
    # the first unknown site is named, before anything is rebuilt
    with pytest.raises(UnknownLabelError, match="'Z'"):
        apply_block(std_net, "A", "Z", "Y")
    assert len(calls) == 1
    assert blocked == apply_block(apply_block(std_net, "C"), "A")


def test_duplicate_arm_id_rejected(std_net):
    with pytest.raises(DuplicateLabelError, match="duplicate arm id 'E'"):
        build_network(std_net.nodes, std_net.arms + (std_net.arms[1],))


def test_unknown_label_raises(std_net):
    with pytest.raises(UnknownLabelError):
        apply_block(std_net, "Z")
    with pytest.raises(UnknownLabelError):
        std_net.labeled_arm("Q")


def test_set_modulation(std_net):
    net = set_modulation(std_net, "A", delta=0.02, bin=11)
    mod = net.labeled_arm("A").modulation
    assert (mod.delta, mod.bin) == (0.02, 11)
    assert std_net.labeled_arm("A").modulation is None


def test_negative_modulation_depth_rejected(std_net):
    arm = std_net.labeled_arm("A")
    for delta in (-0.1, math.nan, math.inf):
        bad = dataclasses.replace(arm, modulation=Modulation(delta=delta, bin=5))
        arms = tuple(bad if a.id == arm.id else a for a in std_net.arms)
        with pytest.raises(NetworkError, match="modulation depth"):
            build_network(std_net.nodes, arms)


def test_topological_order_respects_arms(std_net):
    rng = np.random.default_rng(7)
    nets = [std_net, apply_block(std_net, "A", "C")] + [random_layered_network(rng) for _ in range(20)]
    uneven = [uneven_runs_network(np.random.default_rng(seed)) for seed in range(60)]
    # a topological order, though on most of these networks not the one a
    # node-at-a-time sort gives
    fifo = [[n.id for n in topological_order(net) if n.id in net.legs()] for net in uneven]
    assert sum(list(net.legs()) != order for net, order in zip(uneven, fifo)) >= 40
    for net in nets + uneven:
        for n in net.nodes:
            assert net.node_map()[n.id] is n

        # the legs take each arm once: from a port of the source, a splitter
        # or an unfed mirror, through fed mirrors, to a node that is not one
        nodes, arms = net.node_map(), {a.id: a for a in net.arms}
        fed = {a.to_node for a in net.arms}
        taken = []
        for node_id, (node, ports) in net.legs().items():
            assert node.kind in (SOURCE, BEAM_SPLITTER) or node.kind == MIRROR and node_id not in fed
            for port, leg in enumerate(ports):
                legs_arms = [arms[i] for i in leg.ids]
                assert (legs_arms[0].from_node, legs_arms[0].from_port) == (node_id, port)
                assert leg.ends == [(a.to_node, a.to_port) for a in legs_arms]
                assert [nodes[n].kind for n, _ in leg.ends[:-1]] == [MIRROR] * (len(leg.ends) - 1)
                assert nodes[leg.ends[-1][0]].kind != MIRROR
                assert list(map(repr, leg.factors)) == [repr(a.factor()) for a in legs_arms]
                assert leg.sites == [a.label for a in legs_arms if a.label is not None]
                assert leg.blocked == any(a.transmission == 0.0 for a in legs_arms)
                taken += leg.ids
        assert sorted(taken) == sorted(arms)
        # in topological order: a leg that ends on a node starting legs comes first
        pos = {node_id: i for i, node_id in enumerate(net.legs())}
        for node_id, (_, ports) in net.legs().items():
            for leg in ports:
                end = leg.ends[-1][0]
                assert end not in pos or pos[node_id] < pos[end]


class _Unlisted(tuple):
    """An element list that refuses to be walked."""

    def __iter__(self):
        raise AssertionError("a pass walked the arm list to sort or map the network again")


def _with_arms_unlisted(net):
    # a fresh network made by build_network, altered here only so that any
    # sort or port map rebuilt from its arm list fails
    object.__setattr__(net, "arms", _Unlisted(net.arms))
    return net


def test_passes_read_the_index_built_with_the_network(monkeypatch):
    """A network is sorted and indexed once, in build_network.  Every pass
    over it reads that index: with the arm list unwalkable, the passes
    still give the results they give on the plain network."""
    plain = standard_nested_mzi()
    net = _with_arms_unlisted(standard_nested_mzi())
    with pytest.raises(AssertionError):
        list(net.arms)
    assert propagate(net) == propagate(plain)
    assert terminal_amplitudes(net) == terminal_amplitudes(plain)
    assert arm_input_amplitudes(net) == arm_input_amplitudes(plain)
    assert signature_amplitudes(net, "AB") == signature_amplitudes(plain, "AB")
    assert weak_values(net) == weak_values(plain)
    assert enumerate_paths(net) == enumerate_paths(plain)

    # a blocking configuration builds (and so sorts) its blocked network
    # once; its readout pass, like the baseline's, reads the index
    monkeypatch.setattr(
        spectra, "apply_block", lambda _, site: _with_arms_unlisted(apply_block(plain, site))
    )
    suite = spectra.run_blocking_suite(net, spectra.default_plan(samples=64))
    expected = spectra.run_blocking_suite(plain, spectra.default_plan(samples=64))
    assert [c.static_probability for c in suite.configs] == [
        c.static_probability for c in expected.configs
    ]


RECORDS = [
    Node("BS", BEAM_SPLITTER, scatter=hadamard(), label="splitter"),
    Arm("a", "S", 0, "M", 0, label="A", static_phase=0.5, transmission=0.25,
        modulation=Modulation(delta=0.1, bin=3)),
    Path(arms=("a", "b"), sites=("A",), amplitude=0.5 - 0.5j, blocked=False),
]


def _generated_signature(cls) -> inspect.Signature:
    """The signature of the ``__init__`` that ``dataclasses`` generates for
    the fields of ``cls``."""
    specs = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return inspect.signature(dataclasses.make_dataclass(cls.__name__, specs, frozen=True))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_keep_the_frozen_dataclass_contract(record):
    """Node, Arm and Path store their fields in one step of their own
    ``__init__``, and behave as the generated one made them."""
    cls = type(record)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(record, name) for name in names]
    assert inspect.signature(cls).parameters == _generated_signature(cls).parameters
    assert list(vars(record)) == names  # every field is stored, and nothing else
    assert vars(cls(*values)) == vars(cls(**dict(zip(names, values)))) == vars(record)

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert list(vars(record).values()) == values

    twin = cls(*values)
    assert twin == record and twin is not record and hash(twin) == hash(record)
    assert cls(*values[:-1], "other") != record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert cls.__match_args__ == tuple(names)

    changed = dataclasses.replace(record, **{names[0]: "z"})
    assert type(changed) is cls and vars(changed) == {**vars(record), names[0]: "z"}
    assert dataclasses.asdict(record) == {
        n: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for n, v in zip(names, values)
    }
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and vars(copied) == vars(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copied, names[0], "z")

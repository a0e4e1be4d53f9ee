import numpy as np
import pytest

from weaktrace import apply_block, build_network, set_modulation, set_transmission
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
    hadamard,
    standard_nested_mzi,
)


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
    assert net.node("BS2").scatter == swap
    assert net.node("BS1").scatter == hadamard()


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


def test_transmission_out_of_range_rejected(std_net):
    with pytest.raises(NetworkError):
        set_transmission(std_net, "A", 1.5)
    with pytest.raises(NetworkError):
        set_transmission(std_net, "A", -0.1)


def test_apply_block_is_functional(std_net):
    blocked = apply_block(std_net, "B")
    assert blocked.labeled_arm("B").transmission == 0.0
    # the original instance is untouched
    assert std_net.labeled_arm("B").transmission == 1.0
    # idempotent
    assert apply_block(blocked, "B") == blocked


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
    import dataclasses

    from weaktrace import Modulation

    bad = dataclasses.replace(arm, modulation=Modulation(delta=-0.1, bin=5))
    arms = tuple(bad if a.id == arm.id else a for a in std_net.arms)
    with pytest.raises(NetworkError):
        build_network(std_net.nodes, arms)


def test_topological_order_respects_arms(std_net):
    pos = {n.id: i for i, n in enumerate(std_net.topological_order())}
    assert len(pos) == len(std_net.nodes)
    for arm in std_net.arms:
        assert pos[arm.from_node] < pos[arm.to_node]

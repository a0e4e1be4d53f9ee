import cmath

import numpy as np
import pytest

from conftest import path_by_sites
from weaktrace import (
    apply_block,
    pathsum,
    arm_input_amplitudes,
    detection_probability,
    enumerate_paths,
    propagate,
    random_layered_network,
    set_transmission,
    terminal_amplitudes,
)
from weaktrace.errors import TooManyRoutesError, UnknownLabelError
from weaktrace.netgraph import (
    BEAM_SPLITTER,
    DETECTOR,
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


def test_site_amplitude(std_ens):
    assert std_ens.site_amplitude("A") == pytest.approx(EAF, abs=1e-12)
    assert std_ens.site_amplitude("E") == pytest.approx(0.0, abs=1e-12)
    assert std_ens.site_amplitude("C") == pytest.approx(CREF, abs=1e-12)
    with pytest.raises(UnknownLabelError):
        std_ens.site_amplitude("Z")


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


def test_route_enumeration_is_bounded(std_net, monkeypatch):
    # the standard network's walk takes 22 steps, sink arrivals included
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 22)
    assert len(enumerate_paths(std_net).paths) == 3
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 21)
    with pytest.raises(TooManyRoutesError) as err:
        enumerate_paths(std_net)
    assert err.value.code == "too_many_routes"
    assert err.value.exit_code == 3


def test_require_sites_names_the_first_unknown_site(std_ens):
    std_ens.require_sites(["A", "E"])
    with pytest.raises(UnknownLabelError, match="no arm carries site label 'Z'"):
        std_ens.require_sites(iter(["A", "Z", "Y"]))

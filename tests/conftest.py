import pytest

from weaktrace import enumerate_paths, relative_amplitudes, standard_nested_mzi
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


@pytest.fixture
def std_net():
    return standard_nested_mzi()


@pytest.fixture
def std_ens(std_net):
    return enumerate_paths(std_net)


def make_dark_port_mzi():
    """A single balanced interferometer with the detector on the dark output.

    Both routes arrive with amplitudes +1/2 and -1/2, so the detector
    amplitude is exactly zero while the sink receives everything.  The
    upper route passes the labeled site X.
    """
    nodes = [
        Node("SRC", SOURCE),
        Node("BS1", BEAM_SPLITTER, scatter=hadamard()),
        Node("BS2", BEAM_SPLITTER, scatter=hadamard()),
        Node("MX", MIRROR, label="X"),
        Node("D", DETECTOR, label="D"),
        Node("K", SINK),
    ]
    arms = [
        Arm("in", "SRC", 0, "BS1", 0),
        Arm("X", "BS1", 0, "MX", 0, label="X"),
        Arm("X_out", "MX", 0, "BS2", 0),
        Arm("ref", "BS1", 1, "BS2", 1),
        Arm("bright", "BS2", 0, "K", 0),
        Arm("dark", "BS2", 1, "D", 0),
    ]
    return build_network(nodes, arms)


@pytest.fixture
def dark_port_net():
    return make_dark_port_mzi()


def path_by_sites(ens):
    """Index an ensemble's paths by their site signature."""
    return {p.sites: p for p in ens.paths}


def route_weak_value(ens, site):
    """Weak-value oracle: the relative amplitudes of the routes through
    ``site``, summed route by route."""
    alphas = relative_amplitudes(ens)
    return complex(sum(a for a, p in zip(alphas, ens.paths) if site in p.sites))


def route_amplitude_split(ens, site):
    """(A0, A1) oracle: route amplitudes bypassing and passing ``site``."""
    a1 = sum((p.amplitude for p in ens.paths if site in p.sites), 0j)
    return ens.total - a1, a1

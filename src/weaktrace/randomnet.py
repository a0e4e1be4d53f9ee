"""Random layered network generation for self-checks and fuzzing.

The construction only ever wires new elements onto currently open output
ports, so the result is acyclic by construction and every network passes
full validation.
"""

from __future__ import annotations

import numpy as np

from .netgraph import (
    BEAM_SPLITTER,
    DETECTOR,
    MIRROR,
    SINK,
    SOURCE,
    Arm,
    Matrix2,
    Network,
    Node,
    as_matrix2,
    build_network,
)

MIRROR_PROB = 0.35


def random_unitary_2x2(rng: np.random.Generator) -> Matrix2:
    """A Haar-ish random 2x2 unitary from three angles.

    The mixing angle is drawn so the power splitting ratio is uniform;
    the two phases are uniform on the circle.  Global phase is fixed,
    which is irrelevant for any observable this package computes.
    """
    theta = np.arcsin(np.sqrt(rng.uniform()))
    phi, psi = rng.uniform(0.0, 2.0 * np.pi, size=2)
    c, s = np.cos(theta), np.sin(theta)
    return as_matrix2(
        (
            (c * np.exp(1j * phi), s * np.exp(1j * psi)),
            (-s * np.exp(-1j * psi), c * np.exp(-1j * phi)),
        )
    )


def random_layered_network(rng: np.random.Generator, max_beam_splitters: int = 8) -> Network:
    """Grow a random acyclic splitter network.

    Starting from the source's single output, repeatedly take one or two
    open outputs and feed them into a fresh beam splitter with a random
    unitary; sprinkle labeled mirrors (chance MIRROR_PROB per hop); finally
    terminate every remaining open output on a detector or a sink (at
    least one detector is guaranteed).  Arms get random static phases and
    unit transmission, so the whole network is lossless.
    """
    nodes = [Node("SRC", SOURCE)]
    arms = []
    counters = {"bs": 0, "m": 0, "arm": 0, "site": 0}
    open_ports: list[tuple[str, int]] = [("SRC", 0)]

    def connect(src: tuple[str, int], dst: tuple[str, int], label=None):
        counters["arm"] += 1
        arms.append(
            Arm(
                f"a{counters['arm']}",
                src[0],
                src[1],
                dst[0],
                dst[1],
                label=label,
                static_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
        )

    def feed(src: tuple[str, int], dst: tuple[str, int]):
        # Optionally interpose a labeled mirror, making the hop a site.
        if rng.uniform() < MIRROR_PROB:
            counters["m"] += 1
            counters["site"] += 1
            mid = f"M{counters['m']}"
            site = f"s{counters['site']}"
            nodes.append(Node(mid, MIRROR, label=site))
            connect(src, (mid, 0), label=site)
            connect((mid, 0), dst)
        else:
            connect(src, dst)

    n_bs = int(rng.integers(1, max_beam_splitters + 1))
    for _ in range(n_bs):
        counters["bs"] += 1
        bid = f"BS{counters['bs']}"
        nodes.append(Node(bid, BEAM_SPLITTER, scatter=random_unitary_2x2(rng)))
        n_in = 1 if len(open_ports) == 1 or rng.uniform() < 0.3 else 2
        for in_port in range(n_in):
            k = int(rng.integers(len(open_ports)))
            feed(open_ports.pop(k), (bid, in_port))
        open_ports.extend([(bid, 0), (bid, 1)])

    order = rng.permutation(len(open_ports))
    n_det = 0
    for rank, idx in enumerate(order):
        src = open_ports[int(idx)]
        last = rank == len(order) - 1
        if (last and n_det == 0) or rng.uniform() < 0.4:
            n_det += 1
            did = f"D{n_det}"
            nodes.append(Node(did, DETECTOR, label=did))
            feed(src, (did, 0))
        else:
            nodes.append(Node(f"K{rank}", SINK))
            feed(src, (f"K{rank}", 0))

    return build_network(nodes, arms)

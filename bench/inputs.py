"""Seeded inputs for the benchmark workloads.

Every network here is built by the benchmark itself, never with
``weaktrace.randomnet``, so a change to that module cannot change a
workload.  Networks are plain documents in the scenario file format
(``{"kind": "custom", "nodes": [...], "arms": [...]}``); the workloads
hand them to the program either as scenario files or through the public
constructors (``Node``, ``Arm``, ``build_network``).

The generators fix the shape of every network (route count, signature
classes, depth, node count) and draw only splitter matrices, phases,
label placement and probe bins from the seed, so every seed gives the
same amount of work.
"""

from __future__ import annotations

import cmath
import math
import random

from oracle import Graph

H = 1.0 / math.sqrt(2.0)

# A generated network is redrawn until its click probability is at least
# this, which keeps the total amplitude, the post-selected rates and the
# pointer norms many orders above the program's 1e-14 tolerances.
MIN_CLICK_PROBABILITY = 0.05

SPECTRAL_SAMPLES = 1024
SPECTRAL_DELTA = 0.002
SPECTRAL_SIGMA = 1.0


def cdoc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def hadamard_doc() -> list:
    return [[cdoc(H), cdoc(H)], [cdoc(H), cdoc(-H)]]


def random_unitary_doc(rng: random.Random) -> list:
    """A random 2x2 unitary whose power splitting stays within [0.2, 0.8]."""
    theta = math.asin(math.sqrt(rng.uniform(0.2, 0.8)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    m = (
        (c * cmath.exp(1j * phi), s * cmath.exp(1j * psi)),
        (-s * cmath.exp(-1j * psi), c * cmath.exp(-1j * phi)),
    )
    return [[cdoc(z) for z in row] for row in m]


class NetworkDoc:
    """Accumulates nodes and arms in scenario-document form."""

    def __init__(self):
        self.nodes: list[dict] = []
        self.arms: list[dict] = []

    def node(self, node_id, kind, scatter=None):
        nd = {"id": node_id, "kind": kind}
        if scatter is not None:
            nd["scatter"] = scatter
        self.nodes.append(nd)

    def arm(self, src, dst, label=None, phase=0.0, arm_id=None):
        ad = {"id": arm_id or f"a{len(self.arms)}", "from": list(src), "to": list(dst)}
        if label is not None:
            ad["label"] = label
        if phase:
            ad["phase"] = phase
        self.arms.append(ad)

    def doc(self) -> dict:
        return {"kind": "custom", "nodes": self.nodes, "arms": self.arms}


def standard_network_doc() -> dict:
    """The nested interferometer of ``weaktrace.standard_nested_mzi``.

    Written out from its description (outer BS1/BS4 around an inner
    BS2/BS3 on the E arm, mirrors on the labelled arms, balanced real
    splitters), so checks of the "standard" scenarios do not lean on the
    program's own builder.
    """
    b = NetworkDoc()
    b.node("SRC", "source")
    for name in ("BS1", "BS2", "BS3", "BS4"):
        b.node(name, "beam_splitter", hadamard_doc())
    for site in "ABCEF":
        b.node(f"M_{site}", "mirror")
    b.node("D", "detector")
    b.node("SINK1", "sink")
    b.node("SINK2", "sink")
    wiring = [
        ("in", ("SRC", 0), ("BS1", 0), None),
        ("E", ("BS1", 0), ("M_E", 0), "E"),
        ("E_out", ("M_E", 0), ("BS2", 0), None),
        ("C", ("BS1", 1), ("M_C", 0), "C"),
        ("C_out", ("M_C", 0), ("BS4", 1), None),
        ("A", ("BS2", 0), ("M_A", 0), "A"),
        ("A_out", ("M_A", 0), ("BS3", 0), None),
        ("B", ("BS2", 1), ("M_B", 0), "B"),
        ("B_out", ("M_B", 0), ("BS3", 1), None),
        ("dump1", ("BS3", 0), ("SINK1", 0), None),
        ("F", ("BS3", 1), ("M_F", 0), "F"),
        ("F_out", ("M_F", 0), ("BS4", 0), None),
        ("out", ("BS4", 0), ("D", 0), None),
        ("dump2", ("BS4", 1), ("SINK2", 0), None),
    ]
    for arm_id, src, dst, label in wiring:
        b.arm(src, dst, label, arm_id=arm_id)
    return b.doc()


def _click_probability(doc: dict) -> float:
    return abs(Graph(doc).total("D")) ** 2


def cascade_doc(rng: random.Random, stages: int, mirrors: int, random_optics=True) -> dict:
    """S interferometer stages in series, ``mirrors`` mirrors on every arm.

    Joint splitters J0..JS; each stage joins the two outputs of one joint
    to the two inputs of the next through a chain of mirrors.  The first
    arm of each chain carries a site label (``s<stage>u`` / ``s<stage>d``),
    so every route visits exactly one labelled arm per stage.  2**S routes
    reach the detector D, each through S * (mirrors + 1) + 3 nodes.
    """
    while True:
        b = NetworkDoc()
        b.node("SRC", "source")
        for j in range(stages + 1):
            b.node(f"J{j}", "beam_splitter", random_unitary_doc(rng) if random_optics else hadamard_doc())
        b.node("D", "detector")
        b.node("K", "sink")

        def phase():
            return rng.uniform(0.0, 2.0 * math.pi) if random_optics else 0.0

        b.arm(("SRC", 0), ("J0", 0), phase=phase())
        for s in range(stages):
            for p, side in ((0, "u"), (1, "d")):
                prev = (f"J{s}", p)
                for m in range(mirrors):
                    mid = f"M{s}{side}{m}"
                    b.node(mid, "mirror")
                    b.arm(prev, (mid, 0), f"s{s}{side}" if m == 0 else None, phase())
                    prev = (mid, 0)
                b.arm(prev, (f"J{s + 1}", p), phase=phase())
        b.arm((f"J{stages}", 0), ("D", 0))
        b.arm((f"J{stages}", 1), ("K", 0))
        doc = b.doc()
        if _click_probability(doc) >= MIN_CLICK_PROBABILITY:
            return doc


def layered_doc(rng: random.Random, stage_kinds: list[int], labelled: list[bool]) -> dict:
    """A layered network whose route count and signature classes are fixed.

    Joints J0..JS are random splitters.  A 2-stage joins joint s to joint
    s+1 with two mirrored arms (2 routes); a 3-stage passes through two
    extra splitters X, Y and loses one Y output to a sink (3 routes:
    J->X->J', J->X->Y->J', J->Y->J').  A labelled stage puts one site on
    each of its routes, so it splits every signature class 2 or 3 ways;
    an unlabelled stage splits none.  Routes = product of the stage
    kinds; classes = product over labelled stages.
    """
    while True:
        b = NetworkDoc()
        b.node("SRC", "source")
        n = len(stage_kinds)
        for j in range(n + 1):
            b.node(f"J{j}", "beam_splitter", random_unitary_doc(rng))
        b.node("D", "detector")
        b.node("K", "sink")

        def phase():
            return rng.uniform(0.0, 2.0 * math.pi)

        b.arm(("SRC", 0), ("J0", 0), phase=phase())
        for s, (kind, lab) in enumerate(zip(stage_kinds, labelled)):
            a, z = f"J{s}", f"J{s + 1}"
            if kind == 2:
                for p in (0, 1):
                    mid = f"M{s}_{p}"
                    b.node(mid, "mirror")
                    b.arm((a, p), (mid, 0), f"s{s}{'ud'[p]}" if lab else None, phase())
                    b.arm((mid, 0), (z, p), phase=phase())
            else:
                x, y, k = f"X{s}", f"Y{s}", f"K{s}"
                b.node(x, "beam_splitter", random_unitary_doc(rng))
                b.node(y, "beam_splitter", random_unitary_doc(rng))
                b.node(k, "sink")
                b.arm((a, 0), (x, 0), phase=phase())
                b.arm((a, 1), (y, 0), f"s{s}c" if lab else None, phase())
                b.arm((x, 0), (z, 0), f"s{s}a" if lab else None, phase())
                b.arm((x, 1), (y, 1), f"s{s}b" if lab else None, phase())
                b.arm((y, 0), (z, 1), phase=phase())
                b.arm((y, 1), (k, 0))
        b.arm((f"J{n}", 0), ("D", 0))
        b.arm((f"J{n}", 1), ("K", 0))
        doc = b.doc()
        if _click_probability(doc) >= MIN_CLICK_PROBABILITY:
            return doc


# (name, 2-stages, 3-stages, labelled 2-stages, labelled 3-stages).
# Routes P = 2**twos * 3**threes, classes K = 2**l2 * 3**l3.  Both kinds
# of network are present: routes collapsing into few probed-site
# signatures (P >> K) and routes that stay distinct (P = K).  Readout
# cost grows with P, and the shapes come in three equal groups (P <= 64,
# P = 96, P >= 128), so the median falls in the middle of the P = 96
# group and the tail inside the P >= 128 group.
SPECTRAL_SHAPES = (
    ("p32_k32", 5, 0, 5, 0),
    ("p48_k12", 4, 1, 2, 1),
    ("p64_k8", 6, 0, 3, 0),
    ("p96_k6", 5, 1, 1, 1),
    ("p96_k24", 5, 1, 3, 1),
    ("p96_k96", 5, 1, 5, 1),
    ("p128_k4", 7, 0, 2, 0),
    ("p128_k64", 7, 0, 6, 0),
    ("p144_k36", 4, 2, 2, 2),
)


def spectral_inputs(seed: int) -> list[dict]:
    """One layered network and probe plan per entry of SPECTRAL_SHAPES.

    The seed draws the stage order, which stages carry labels, every
    splitter and phase, and the probe bins.
    """
    rng = random.Random(f"spectral_random/{seed}")
    out = []
    for name, twos, threes, l2, l3 in SPECTRAL_SHAPES:
        stages = [(2, i < l2) for i in range(twos)] + [(3, i < l3) for i in range(threes)]
        rng.shuffle(stages)
        doc = layered_doc(rng, [k for k, _ in stages], [lab for _, lab in stages])
        sites = sorted(a["label"] for a in doc["arms"] if "label" in a)
        bins = rng.sample(range(3, SPECTRAL_SAMPLES // 2 - 2), len(sites))
        plan = [(site, SPECTRAL_DELTA, b) for site, b in zip(sites, bins)]
        out.append({"name": name, "network": doc, "plan": plan})
    return out


# Weak-value workload: (name, stages, mirrors per arm).  Depth of the
# deepest route is stages * (mirrors + 1) + 3 nodes; every one of these
# stays well under the interpreter's default recursion limit of 1000.
DEEP_SHAPES = (
    ("cascade_s10", 10, 1),
    ("cascade_s6_m24", 6, 24),
    ("chain_m450", 1, 450),
)

# One chain deeper than the recursion limit: 1000 mirrors on each arm,
# 2005 nodes, 1004 on a route.  It is fixed (balanced splitters, no phases), not drawn from
# the seed, because today ``paths``, ``weak`` and ``pointer`` fail on it
# every time with RecursionError; ``validate`` succeeds.
OVERLIMIT_NAME = "chain_m1000"
OVERLIMIT_MIRRORS = 1000

POINTER_COUPLINGS = (0.1, 0.01, 0.001)


def deep_inputs(seed: int) -> list[dict]:
    """Scenario documents for the weak-value workload.

    Each entry has ``doc`` (network only, for validate/paths/weak) and
    ``pointer_doc`` (the same network with a pointer experiment on one
    labelled arm).
    """
    rng = random.Random(f"weak_deep/{seed}")
    nets = [(name, cascade_doc(rng, s, m)) for name, s, m in DEEP_SHAPES]
    nets.append((OVERLIMIT_NAME, cascade_doc(random.Random(0), 1, OVERLIMIT_MIRRORS, random_optics=False)))
    out = []
    for name, net in nets:
        sites = sorted(a["label"] for a in net["arms"] if "label" in a)
        site = sites[0] if name == OVERLIMIT_NAME else rng.choice(sites)
        pointer = {"kind": "pointer", "site": site, "sigma": 1.0, "couplings": list(POINTER_COUPLINGS)}
        out.append({"name": name, "doc": {"network": net}, "pointer_doc": {"network": net, "experiment": pointer}})
    return out

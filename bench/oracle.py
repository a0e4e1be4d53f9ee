"""Independent reference computations for checking the program's outputs.

Nothing here imports ``weaktrace``.  A network document is read into a
plain graph and every quantity the workloads check is computed a second
way:

* amplitudes by a forward pass and a backward (detector-to-source) pass,
  so the amplitude through an arm is fwd * factor * bwd and its weak value
  that over the total -- the two-state picture, not a sum over routes;
* route counts and probed-site signature classes by a forward pass that
  carries a signature-keyed map per port, with no route enumeration;
* pointer readings by numerical quadrature of the summed Gaussian pointer
  state, not by the closed-form overlaps the program uses;
* spectra with ``numpy.fft`` rather than the program's radix-2 transform.

All traversals are iterative, so the over-limit chain is handled too.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SOURCE, BEAM_SPLITTER, MIRROR, BLOCK, DETECTOR, SINK = (
    "source", "beam_splitter", "mirror", "block", "detector", "sink",
)
OUT_PORTS = {SOURCE: 1, BEAM_SPLITTER: 2, MIRROR: 1, BLOCK: 1, DETECTOR: 0, SINK: 0}


def _complex(v) -> complex:
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


class Graph:
    """A network document as adjacency maps, with some sites blocked."""

    def __init__(self, network: dict, blocked=()):
        self.kind = {}
        self.scatter = {}
        for n in network["nodes"]:
            self.kind[n["id"]] = n["kind"]
            if "scatter" in n:
                self.scatter[n["id"]] = [[_complex(c) for c in row] for row in n["scatter"]]
        blocked = set(blocked) | set(network.get("blocks", ()))
        self.arms = {}
        self.out = {}
        self.label_arm = {}
        for a in network["arms"]:
            label = a.get("label")
            t = 0.0 if label in blocked else a.get("transmission", 1.0)
            arm = {
                "id": a["id"],
                "src": tuple(a["from"]),
                "dst": tuple(a["to"]),
                "label": label,
                "factor": t * cmath.exp(1j * a.get("phase", 0.0)),
            }
            self.arms[a["id"]] = arm
            self.out[arm["src"]] = arm
            if label is not None:
                self.label_arm[label] = arm
        indeg = {nid: 0 for nid in self.kind}
        for arm in self.arms.values():
            indeg[arm["dst"][0]] += 1
        ready = [nid for nid, d in indeg.items() if d == 0]
        self.order = []
        while ready:
            nid = ready.pop()
            self.order.append(nid)
            for port in range(OUT_PORTS[self.kind[nid]]):
                nxt = self.out[(nid, port)]["dst"][0]
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(self.order) != len(self.kind):
            raise ValueError("network document has a cycle")
        self.source = next(nid for nid, k in self.kind.items() if k == SOURCE)
        self._fwd = None
        self._bwd = {}

    def _transfer(self, nid, out_port, in_port) -> complex:
        """Amplitude factor of a node from one input port to one output port."""
        kind = self.kind[nid]
        if kind == BEAM_SPLITTER:
            return self.scatter[nid][out_port][in_port]
        if kind == MIRROR:
            return 1.0
        return 0.0  # blocks absorb

    def forward(self):
        """(arm_in, node_in): amplitude entering each arm and each input port."""
        if self._fwd is None:
            node_in: dict = {}
            arm_in: dict = {}
            for nid in self.order:
                kind = self.kind[nid]
                for port in range(OUT_PORTS[kind]):
                    if kind == SOURCE:
                        amp = 1.0 + 0j
                    else:
                        amp = sum(
                            (self._transfer(nid, port, p) * node_in.get((nid, p), 0j) for p in range(2)),
                            0j,
                        )
                    arm = self.out[(nid, port)]
                    arm_in[arm["id"]] = amp
                    node_in[arm["dst"]] = node_in.get(arm["dst"], 0j) + amp * arm["factor"]
            self._fwd = (arm_in, node_in)
        return self._fwd

    def backward(self, detector: str) -> dict:
        """Amplitude from each (node, input port) on to the detector."""
        if detector not in self._bwd:
            bwd = {}
            for nid in reversed(self.order):
                kind = self.kind[nid]
                for p in range(2 if kind == BEAM_SPLITTER else 1):
                    if kind in (DETECTOR, SINK):
                        bwd[(nid, p)] = 1.0 + 0j if nid == detector else 0j
                        continue
                    total = 0j
                    for port in range(OUT_PORTS[kind]):
                        arm = self.out[(nid, port)]
                        total += self._transfer(nid, port, p) * arm["factor"] * bwd[arm["dst"]]
                    bwd[(nid, p)] = total
            self._bwd[detector] = bwd
        return self._bwd[detector]

    def total(self, detector: str) -> complex:
        return self.forward()[1].get((detector, 0), 0j)

    def terminals(self) -> dict:
        node_in = self.forward()[1]
        return {nid: node_in.get((nid, 0), 0j) for nid, k in self.kind.items() if k in (DETECTOR, SINK)}

    def through(self, label: str, detector: str) -> complex:
        """Summed amplitude of the routes to the detector through a site."""
        arm = self.label_arm[label]
        return self.forward()[0][arm["id"]] * arm["factor"] * self.backward(detector)[arm["dst"]]

    def weak_value(self, label: str, detector: str) -> complex:
        return self.through(label, detector) / self.total(detector)

    def classes(self, detector: str, probed) -> tuple[int, dict]:
        """(route count, {signature: summed amplitude}) for routes to the detector.

        A signature is the frozenset of probed site labels a route visits.
        Routes through absorbers count, with amplitude zero.
        """
        probed = set(probed)
        maps: dict = {}  # (node, in_port) -> {signature: [routes, amplitude]}

        def add(key, sig, routes, amp):
            slot = maps.setdefault(key, {}).setdefault(sig, [0, 0j])
            slot[0] += routes
            slot[1] += amp

        for nid in self.order:
            kind = self.kind[nid]
            if kind == SOURCE:
                arriving = [(0, frozenset(), 1, 1.0 + 0j)]
            else:
                arriving = [
                    (p, sig, r, a)
                    for p in range(2)
                    for sig, (r, a) in maps.get((nid, p), {}).items()
                ]
            for port in range(OUT_PORTS[kind]):
                arm = self.out[(nid, port)]
                label = arm["label"]
                for p, sig, r, a in arriving:
                    t = 1.0 if kind == SOURCE else self._transfer(nid, port, p)
                    if kind == BEAM_SPLITTER and t == 0:
                        continue  # structurally absent coupling, no route
                    out_sig = sig | {label} if label in probed else sig
                    add(arm["dst"], out_sig, r, a * t * arm["factor"])
        final = maps.get((detector, 0), {})
        routes = sum(r for r, _ in final.values())
        return routes, {sig: a for sig, (_, a) in final.items()}

    def route_amplitude(self, arm_ids) -> complex | None:
        """Product of transfers along a list of arms, or None if not a route."""
        amp = 1.0 + 0j
        at = (self.source, None)
        for aid in arm_ids:
            arm = self.arms.get(aid)
            if arm is None or arm["src"][0] != at[0]:
                return None
            if at[1] is not None:
                amp *= self._transfer(at[0], arm["src"][1], at[1])
            amp *= arm["factor"]
            at = arm["dst"]
        return amp if self.kind[at[0]] == DETECTOR else None


def gaussian(x, sigma: float):
    """Pointer amplitude profile whose square integrates to one."""
    return (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-(x**2) / (4.0 * sigma**2))


def pointer_moments(amps, shifts, sigma: float):
    """(norm, mean) of the state sum_c amps[c] G(x - shifts[..., c]) by quadrature.

    ``shifts`` has shape (..., C); the trapezoid rule on a grid reaching
    12 sigma past the outermost copy converges far below double rounding
    for Gaussians.
    """
    amps = np.asarray(amps, dtype=complex)
    shifts = np.asarray(shifts, dtype=float)
    lo = float(shifts.min()) - 12.0 * sigma
    hi = float(shifts.max()) + 12.0 * sigma
    x = np.linspace(lo, hi, 801)
    dx = x[1] - x[0]
    psi = np.einsum("c,...cx->...x", amps, gaussian(x - shifts[..., None], sigma))
    dens = np.abs(psi) ** 2
    w = np.full(x.size, dx)
    w[0] = w[-1] = dx / 2
    norm = dens @ w
    mean = (dens * x) @ w / norm
    return norm, mean


def pointer_shift(a_site: complex, total: complex, g: float, sigma: float) -> float:
    """Post-selected mean pointer shift when the site's routes move it by g."""
    _, mean = pointer_moments([total - a_site, a_site], [0.0, g], sigma)
    return float(mean)


def readout(classes: dict, plan, sigma: float, samples: int, ks):
    """(rate, xbar) at sample indices ``ks`` from the class amplitudes.

    ``plan`` is a list of (site, delta, bin).  A class's pointer copy is
    displaced by the sum of delta*sigma*sin(2 pi bin k / N) over the
    probed sites in its signature.
    """
    sigs = list(classes)
    amps = np.array([classes[s] for s in sigs], dtype=complex)
    member = np.array([[site in sig for site, _, _ in plan] for sig in sigs], dtype=float)
    depth = np.array([d for _, d, _ in plan]) * sigma
    bins = np.array([b for _, _, b in plan], dtype=float)
    ks = np.asarray(ks)
    rate = np.empty(ks.size)
    xbar = np.empty(ks.size)
    chunk = max(1, 256 // max(1, len(sigs)))
    for lo in range(0, ks.size, chunk):
        k = ks[lo : lo + chunk].astype(float)
        waves = depth * np.sin(2.0 * np.pi * np.outer(k, bins) / samples)
        rate[lo : lo + chunk], xbar[lo : lo + chunk] = pointer_moments(amps, waves @ member.T, sigma)
    return rate, xbar


def power_spectrum(series) -> np.ndarray:
    """One-sided power, a*sin at an interior bin giving a**2; DC zeroed."""
    n = len(series)
    power = np.abs(np.fft.fft(np.asarray(series, dtype=float))[: n // 2]) ** 2 * (2.0 / n) ** 2
    power[0] = 0.0
    return power


def first_order_peak_error(plan, classes: dict, total: complex, sigma: float) -> float:
    """Bound on |amplitude at a probe bin - delta*sigma*Re w| from third order.

    The mean reading is odd in the depths, so the first correction is
    cubic: at most (largest displacement)**3 / sigma**2 times the cube of
    sum_c |A_c| / |total|, which bounds every weighted sum of class
    amplitudes over the total that can appear in it.
    """
    span = sum(d for _, d, _ in plan) * sigma
    scale = sum(abs(a) for a in classes.values()) / abs(total)
    return span**3 / sigma**2 * scale**3

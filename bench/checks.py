"""Checks of the program's outputs against the reference computations.

Each ``check_*`` function takes a parsed report (or a library result) and
the benchmark's own description of the input, and returns a list of
problems; an empty list means the output is correct.  The expected
numbers come from ``oracle``, never from stored program output.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

RTOL = 1e-9
ATOL = 1e-12

# Documented defaults of the scenario format, written out here so that the
# expected spectra do not depend on the program resolving them.
STANDARD_PLAN = [("A", 0.01, 13), ("B", 0.01, 17), ("C", 0.01, 19), ("E", 0.01, 23), ("F", 0.01, 29)]
DEFAULT_SAMPLES = 4096
DEFAULT_BLOCK_SITES = ("E", "F")
ABSENT_POWER_TOL = 1e-20
NOISE_FLOOR_FACTOR = 5.0


def close(a, b, rtol=RTOL, atol=ATOL) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def amp(doc) -> complex:
    return complex(doc["re"], doc["im"])


class Problems(list):
    def expect(self, ok: bool, message: str):
        if not ok:
            self.append(message)

    def close(self, what: str, got, want, rtol=RTOL, atol=ATOL):
        self.expect(close(got, want, rtol, atol), f"{what}: got {got!r}, expected {want!r}")


def check_envelope(doc: dict, command: str, network: dict) -> Problems:
    p = Problems()
    p.expect(doc.get("tool") == "weaktrace", "envelope: tool is not weaktrace")
    p.expect(doc.get("command") == command, f"envelope: command {doc.get('command')!r}")
    net = doc["network"]
    sites = sorted({a["label"] for a in network["arms"] if a.get("label")})
    p.expect(net["nodes"] == len(network["nodes"]), "envelope: node count")
    p.expect(net["arms"] == len(network["arms"]), "envelope: arm count")
    p.expect(net["sites"] == sites, "envelope: site labels")
    return p


def check_validate(result: dict, graph: oracle.Graph) -> Problems:
    p = Problems()
    p.expect(result["valid"] is True, "validate: not valid")
    arm_in = graph.forward()[0]
    got = result["arm_input_amplitudes"]
    p.expect(set(got) == set(arm_in), "validate: arm set differs")
    for aid, want in arm_in.items():
        if aid in got:
            p.close(f"validate: amplitude into {aid}", amp(got[aid]), want)
    return p


def check_paths(result: dict, graph: oracle.Graph, detector: str) -> Problems:
    """Routes are real, distinct and complete; their sum is the propagated total."""
    p = Problems()
    routes, _ = graph.classes(detector, ())
    total = graph.total(detector)
    paths = result["paths"]
    p.expect(len(paths) == routes, f"paths: {len(paths)} routes, expected {routes}")
    seen = set()
    acc = 0j
    for i, route in enumerate(paths):
        arms = tuple(route["arms"])
        want = graph.route_amplitude(arms)
        if want is None:
            p.append(f"paths: route {i} is not a source-to-detector route")
            continue
        seen.add(arms)
        labels = [graph.arms[a]["label"] for a in arms if graph.arms[a]["label"] is not None]
        p.expect(route["sites"] == labels, f"paths: route {i} sites")
        p.close(f"paths: route {i} amplitude", amp(route["amplitude"]), want)
        acc += amp(route["amplitude"])
    p.expect(len(seen) == len(paths), "paths: repeated route")
    p.close("paths: sum of route amplitudes", acc, total)
    p.close("paths: total", amp(result["total"]), total)
    p.close("paths: probability", result["probability"], abs(total) ** 2)
    terminals = graph.terminals()
    p.expect(set(result["terminals"]) == set(terminals), "paths: terminal set")
    for t, a in terminals.items():
        if t in result["terminals"]:
            p.close(f"paths: terminal {t}", amp(result["terminals"][t]["amplitude"]), a)
    if all(abs(arm["factor"]) == 1.0 for arm in graph.arms.values()):
        p.close("paths: terminal probabilities sum", result["terminal_probability_sum"], 1.0)
    return p


def check_weak(result: dict, graph: oracle.Graph, detector: str, stage_pairs=()) -> Problems:
    """Weak values from the forward/backward walk; stage arm pairs sum to 1."""
    p = Problems()
    total = graph.total(detector)
    p.close("weak: total", amp(result["total"]), total)
    got = {s: amp(v) for s, v in result["weak_values"].items()}
    p.expect(sorted(got) == sorted(graph.label_arm), "weak: site set")
    for site, w in got.items():
        p.close(f"weak: weak value of {site}", w, graph.weak_value(site, detector))
    for a, b in stage_pairs:
        p.close(f"weak: W({a}) + W({b})", got.get(a, 0j) + got.get(b, 0j), 1.0)
    for i, route in enumerate(result["paths"]):
        p.close(f"weak: relative amplitude {i}", amp(route["relative_amplitude"]), amp(route["amplitude"]) / total)
    return p


def check_pointer(result: dict, graph: oracle.Graph, detector: str, site: str, sigma: float) -> Problems:
    """Shifts by quadrature; they approach g Re(w) as g -> 0.

    Expanding the exact shift in the overlap 1 - exp(-g^2 / 8 sigma^2)
    bounds |shift/g - Re w| by (g^2 / 4 sigma^2) |w| (1 + |w|) (1 + 2|w|).
    """
    p = Problems()
    w = graph.weak_value(site, detector)
    p.close("pointer: weak value", amp(result["weak_value"]), w)
    a_site, total = graph.through(site, detector), graph.total(detector)
    for r in result["readings"]:
        g = r["coupling"]
        p.close(f"pointer: shift at g={g}", r["shift"], oracle.pointer_shift(a_site, total, g, sigma), 1e-8, 1e-13)
        p.close(f"pointer: first order at g={g}", r["first_order"], g * w.real)
        if g:
            bound = (g / sigma) ** 2 / 4 * abs(w) * (1 + abs(w)) * (1 + 2 * abs(w))
            p.expect(
                abs(r["shift"] / g - w.real) <= bound + 1e-9,
                f"pointer: shift/g at g={g} is {abs(r['shift'] / g - w.real):.3e} from Re w (bound {bound:.3e})",
            )
    return p


def expected_series(graph, detector, plan, sigma, samples, noise=None):
    """(rate, xbar, power) over every sample, by quadrature of class states."""
    _, classes = graph.classes(detector, [s for s, _, _ in plan])
    rate, xbar = oracle.readout(classes, plan, sigma, samples, np.arange(samples))
    if noise is not None and noise["std"] > 0.0:
        xbar = xbar + np.random.default_rng(noise.get("seed", 0)).normal(0.0, noise["std"], size=samples)
    return rate, xbar, oracle.power_spectrum(xbar)


def check_first_order_peaks(power, graph, detector, plan, sigma) -> Problems:
    """Probe-bin power matches (delta sigma Re w_s)^2 up to third order."""
    p = Problems()
    total = graph.total(detector)
    _, classes = graph.classes(detector, [s for s, _, _ in plan])
    err = oracle.first_order_peak_error(plan, classes, total, sigma)
    for site, delta, b in plan:
        a = delta * sigma * graph.weak_value(site, detector).real
        got = math.sqrt(power[b])
        p.expect(abs(got - abs(a)) <= err, f"spectrum: {site} peak amplitude {got:.6e} vs first order {abs(a):.6e}")
    return p


def check_spectral_doc(doc: dict, series, plan, sigma: float, samples: int, detector: str) -> Problems:
    """A spectral report section against the expected series."""
    p = Problems()
    rate, _xbar, power = series
    p.expect(doc["detector"] == detector, "spectrum: detector")
    p.expect(doc["samples"] == samples, "spectrum: samples")
    p.close("spectrum: sigma", doc["sigma"], sigma)
    p.close("spectrum: mean rate", doc["mean_rate"], float(np.mean(rate)))
    got = np.asarray(doc["power"], dtype=float)
    scale = float(np.max(power))
    p.expect(got.shape == power.shape, "spectrum: length of power")
    if got.shape == power.shape:
        worst = float(np.max(np.abs(got - power)))
        p.expect(worst <= 1e-8 * scale, f"spectrum: power off by {worst:.3e} (scale {scale:.3e})")
    bins = {b for _, _, b in plan}
    off = [b for b in range(1, samples // 2) if b not in bins]
    floor = NOISE_FLOOR_FACTOR * float(np.median(power[off]))
    p.close("spectrum: noise floor", doc["noise_floor"], floor, 1e-6, 1e-8 * scale)
    peaks = {pk["site"]: pk for pk in doc["peaks"]}
    p.expect(sorted(peaks) == sorted(s for s, _, _ in plan), "spectrum: peak sites")
    for site, _delta, b in plan:
        pk = peaks.get(site)
        if pk is None:
            continue
        p.expect(pk["bin"] == b, f"spectrum: bin of {site}")
        p.close(f"spectrum: power of {site}", pk["power"], float(power[b]), 1e-6, 1e-8 * scale)
        # the documented rule, applied to the report's own numbers
        if pk["power"] < ABSENT_POWER_TOL:
            want = "absent"
        elif pk["power"] > doc["noise_floor"]:
            want = "strong"
        else:
            want = "below_threshold"
        p.expect(pk["classification"] == want, f"spectrum: {site} classified {pk['classification']}")
    return p


def check_spectral_report(report, graph, detector, plan, sigma, samples) -> Problems:
    """A library SpectralReport: static limit, quadrature samples, first order."""
    p = Problems()
    total = graph.total(detector)
    p.close("readout: rate[0] vs |total|^2", float(report.rate[0]), abs(total) ** 2)
    scale = sum(d for _, d, _ in plan) * sigma
    p.expect(abs(float(report.xbar[0])) <= 1e-15 * scale, f"readout: xbar[0] = {report.xbar[0]!r}")
    _, classes = graph.classes(detector, [s for s, _, _ in plan])
    ks = np.array([samples // 7, samples // 3 + 1, samples // 2 + 3, (3 * samples) // 4 + 5, samples - 3])
    rate, xbar = oracle.readout(classes, plan, sigma, samples, ks)
    for k, r, x in zip(ks, rate, xbar):
        p.close(f"readout: rate[{k}]", float(report.rate[k]), r, 1e-10, 0.0)
        p.close(f"readout: xbar[{k}]", float(report.xbar[k]), x, 1e-9, 1e-12 * scale)
    power = np.asarray(report.power)
    want = oracle.power_spectrum(report.xbar)
    p.expect(
        float(np.max(np.abs(power - want))) <= 1e-9 * float(np.max(want)),
        "spectrum: power is not the spectrum of xbar",
    )
    p.extend(check_first_order_peaks(power, graph, detector, plan, sigma))
    for pk, (site, _d, b) in zip(report.peaks, plan):
        p.expect(pk.site == site and pk.bin == b, f"spectrum: peak order at {site}")
        p.close(f"spectrum: peak power of {site}", pk.power, float(power[b]), 0.0, 0.0)
    return p


def parse_csv(text: str):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def check_csv(files: dict, prefix: str, series) -> Problems:
    """timeseries.csv and spectrum.csv against the expected series."""
    p = Problems()
    rate, xbar, power = series
    ts = files.get(f"{prefix}timeseries.csv")
    sp = files.get(f"{prefix}spectrum.csv")
    if ts is None or sp is None:
        p.append(f"csv: {prefix}timeseries.csv or {prefix}spectrum.csv missing")
        return p
    head, ts = parse_csv(ts)
    p.expect(head == ["k", "xbar", "rate"], "csv: timeseries header")
    p.expect(ts.shape == (rate.size, 3), "csv: timeseries shape")
    if ts.shape == (rate.size, 3):
        p.expect(np.array_equal(ts[:, 0], np.arange(rate.size)), "csv: sample index column")
        p.expect(np.allclose(ts[:, 2], rate, rtol=1e-10, atol=0), "csv: rate column")
        scale = float(np.max(np.abs(xbar)))
        p.expect(np.allclose(ts[:, 1], xbar, rtol=1e-8, atol=1e-11 * scale), "csv: xbar column")
    head, sp = parse_csv(sp)
    p.expect(head == ["bin", "power"], "csv: spectrum header")
    p.expect(sp.shape == (power.size, 2), "csv: spectrum shape")
    if sp.shape == (power.size, 2):
        p.expect(float(np.max(np.abs(sp[:, 1] - power))) <= 1e-8 * float(np.max(power)), "csv: power column")
    return p

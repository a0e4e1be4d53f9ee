"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  Tolerances are part
of the contract and are asserted exactly as stated; where a stated bound
is provably not what the model produces, the test carries a strict xfail
with the measured behavior in its reason string, and a companion test
pins the true behavior.
"""

import json

import numpy as np
import pytest
import scipy.integrate

from weaktrace import (
    NoiseModel,
    PointerModel,
    amplitude_split,
    arm_input_amplitudes,
    default_plan,
    enumerate_paths,
    pointer_profile,
    pointer_shift_exact,
    projector_weak_value,
    propagate,
    random_layered_network,
    relative_amplitudes,
    run_blocking_suite,
    run_spectral_experiment,
    standard_nested_mzi,
    terminal_amplitudes,
    weak_values,
)
from weaktrace.cli import main


@pytest.fixture(scope="module")
def net():
    return standard_nested_mzi()


@pytest.fixture(scope="module")
def ens(net):
    return enumerate_paths(net)


def test_criterion_1_dark_port(net):
    leak = abs(arm_input_amplitudes(net)["F"])
    print(f"criterion 1: |amplitude entering F| = {leak:.3e} (< 1e-12)")
    assert leak < 1e-12


def test_criterion_2_three_path_decomposition(ens):
    assert len(ens.paths) == 3
    amp = {p.sites: p.amplitude for p in ens.paths}
    assert amp[("C",)] == pytest.approx(0.5, abs=1e-12)
    assert amp[("E", "A", "F")] == pytest.approx(0.25, abs=1e-12)
    assert amp[("E", "B", "F")] == pytest.approx(-0.25, abs=1e-12)
    print("criterion 2: 3 paths, amplitudes (1/2, 1/4, -1/4) within 1e-12")


def test_criterion_3_relative_amplitude_tuning(ens):
    alphas = dict(zip((p.sites for p in ens.paths), relative_amplitudes(ens)))
    a_eaf = alphas[("E", "A", "F")]
    a_ebf = alphas[("E", "B", "F")]
    assert abs(a_eaf + a_ebf) < 1e-12
    assert alphas[("C",)] == pytest.approx(1.0, abs=1e-12)
    assert a_eaf == pytest.approx(0.5, abs=1e-12)
    assert a_ebf == pytest.approx(-0.5, abs=1e-12)
    print(f"criterion 3: alpha_EBF + alpha_EAF = {abs(a_eaf + a_ebf):.3e} (< 1e-12)")


def test_criterion_4_weak_trace_pattern(net):
    w = weak_values(net)
    assert abs(w["E"]) < 1e-12
    assert abs(w["F"]) < 1e-12
    for site in "ABC":
        assert abs(w[site]) > 0.4
    total = w["A"] + w["B"] + w["C"]
    assert total == pytest.approx(1.0, abs=1e-12)
    print(
        "criterion 4: W_E, W_F < 1e-12; |W_A|,|W_B|,|W_C| > 0.4; "
        f"W_A+W_B+W_C = {total.real:.12f}"
    )


def test_criterion_5_oracle_equivalence():
    worst_amp, worst_prob = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rand_net = random_layered_network(rng)
        forward = propagate(rand_net)
        for det in rand_net.detectors:
            delta = abs(enumerate_paths(rand_net, det).total - forward[det])
            worst_amp = max(worst_amp, delta)
        total = sum(abs(a) ** 2 for a in terminal_amplitudes(rand_net).values())
        worst_prob = max(worst_prob, abs(total - 1.0))
    print(
        f"criterion 5: 100 networks, worst |pathsum - propagate| = {worst_amp:.2e}, "
        f"worst |sum prob - 1| = {worst_prob:.2e} (both < 1e-10)"
    )
    assert worst_amp < 1e-10
    assert worst_prob < 1e-10


def _quadrature_shift(ens, site, sigma, g):
    a1 = sum((p.amplitude for p in ens.paths if site in p.sites), 0j)
    a0 = ens.total - a1
    x = np.linspace(-12.0 * sigma - abs(g), 12.0 * sigma + abs(g), 8001)
    psi = a0 * pointer_profile(x, sigma) + a1 * pointer_profile(x - g, sigma)
    w = np.abs(psi) ** 2
    return scipy.integrate.simpson(w * x, x=x) / scipy.integrate.simpson(w, x=x)


def test_criterion_6_pointer_weak_limit(net, ens):
    sigma = 1.0
    w_a = projector_weak_value(amplitude_split(net, "A")).real
    errors = []
    for g in (sigma / 8, sigma / 16, sigma / 32):
        shift = pointer_shift_exact(amplitude_split(net, "A"), PointerModel("A", sigma, g))
        errors.append(abs(shift / g - w_a))
    if max(errors) < 1e-13:
        # At site A the through and bypass amplitudes are equal, so the
        # exact shift is g/2 for every g and the residual against the weak
        # value is zero to machine precision at all three couplings; the
        # fourfold-shrinkage ratio is 0/0 there.  Machine-zero residuals
        # satisfy the convergence requirement in its strongest form.
        print(
            "criterion 6: residuals at site A all at machine precision "
            f"(max {max(errors):.2e}); shift(g) = g/2 exactly"
        )
    else:
        for a, b in zip(errors, errors[1:]):
            assert 3.0 <= a / b <= 5.0
        print(f"criterion 6: residual ratios {[f'{a/b:.2f}' for a, b in zip(errors, errors[1:])]}")
    for site in ("A", "B"):
        model = PointerModel(site, sigma, sigma / 2)
        exact = pointer_shift_exact(amplitude_split(net, site), model)
        quad = _quadrature_shift(ens, site, sigma, sigma / 2)
        assert abs(exact - quad) < 1e-8
    print("criterion 6: closed form matches quadrature at g = sigma/2 (< 1e-8)")


def test_criterion_7_spectral_pattern(net):
    report = run_spectral_experiment(net, default_plan(0.01), sigma=1.0)
    peak = {p.site: p.power for p in report.peaks}
    for site in "ABC":
        assert peak[site] > report.noise_floor
    assert peak["A"] / peak["C"] == pytest.approx(0.25, rel=0.05)
    assert peak["B"] / peak["C"] == pytest.approx(0.25, rel=0.05)
    assert 0.0 < peak["E"] <= 1e-3 * peak["C"]
    assert 0.0 < peak["F"] <= 1e-3 * peak["C"]
    halved = run_spectral_experiment(net, default_plan(0.005), sigma=1.0)
    hpeak = {p.site: p.power for p in halved.peaks}
    for site in "ABC":
        ratio = peak[site] / hpeak[site]
        assert 4.0 * 0.95 <= ratio <= 4.0 * 1.05
    print(
        f"criterion 7: A:C = {peak['A'] / peak['C']:.4f}, B:C = {peak['B'] / peak['C']:.4f}; "
        f"E/C = {peak['E'] / peak['C']:.2e}; A,B,C halving ratios ~4 within 5%"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the E and F bins carry no first-order signal (zero weak value) and are "
        "fed by third-order mixing, so their power scales as depth^6: halving "
        "the depths divides it by ~64 (measured 63.98/63.98), never by 16"
    ),
)
def test_criterion_7_ef_halving_as_stated(net):
    full = run_spectral_experiment(net, default_plan(0.01), sigma=1.0)
    halved = run_spectral_experiment(net, default_plan(0.005), sigma=1.0)
    p1 = {p.site: p.power for p in full.peaks}
    p2 = {p.site: p.power for p in halved.peaks}
    for site in "EF":
        ratio = p1[site] / p2[site]
        print(f"criterion 7 (E/F halving as stated): {site} ratio = {ratio:.2f}")
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2


def test_criterion_7_ef_halving_measured(net):
    # companion to the xfail above: pin the actual sixth-order scaling
    full = run_spectral_experiment(net, default_plan(0.01), sigma=1.0)
    halved = run_spectral_experiment(net, default_plan(0.005), sigma=1.0)
    p1 = {p.site: p.power for p in full.peaks}
    p2 = {p.site: p.power for p in halved.peaks}
    for site in "EF":
        assert 64.0 * 0.9 <= p1[site] / p2[site] <= 64.0 * 1.1


def test_criterion_8_blocking_counterfactuals(net):
    delta = 0.01
    suite = run_blocking_suite(net, default_plan(delta), sigma=1.0)
    base = suite.config("baseline")
    for name in ("block_E", "block_F"):
        cfg = suite.config(name)
        peaks = {p.site: p.power for p in cfg.report.peaks}
        assert peaks["A"] < 1e-20
        assert peaks["B"] < 1e-20
        assert cfg.static_probability == pytest.approx(0.25, abs=1e-12)
    rate_change = abs(
        suite.config("block_F").report.mean_rate - base.report.mean_rate
    )
    assert rate_change <= 10 * delta**2
    print(
        "criterion 8: blocked A/B peaks < 1e-20, static probability 0.25, "
        f"mean-rate change {rate_change:.2e} <= {10 * delta**2:.0e}"
    )


def test_criterion_9_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "network": "standard",
                "experiment": {"kind": "spectral", "noise": {"std": 1e-4, "seed": 0}},
            }
        )
    )
    runs = []
    for i in range(2):
        out = tmp_path / f"r{i}" / "report.json"
        csv = tmp_path / f"r{i}" / "csv"
        code = main(
            ["spectrum", str(scenario), "--out", str(out), "--csv-dir", str(csv), "--quiet"]
        )
        assert code == 0
        runs.append(
            (
                out.read_bytes(),
                (csv / "timeseries.csv").read_bytes(),
                (csv / "spectrum.csv").read_bytes(),
            )
        )
    assert runs[0] == runs[1]

    block_scn = tmp_path / "block.json"
    block_scn.write_text('{"network": "standard"}')
    block_runs = []
    for i in range(2):
        out = tmp_path / f"b{i}" / "report.json"
        csv = tmp_path / f"b{i}" / "csv"
        code = main(
            ["block", str(block_scn), "--out", str(out), "--csv-dir", str(csv), "--quiet"]
        )
        assert code == 0
        block_runs.append(
            (out.read_bytes(), (csv / "block_E_spectrum.csv").read_bytes())
        )
    assert block_runs[0] == block_runs[1]
    print("criterion 9: repeated CLI runs byte-identical (report and CSV)")

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kernel_calls, make_dark_port_mzi
from weaktrace import (
    ModulationPlan,
    NoiseModel,
    SiteModulation,
    apply_block,
    default_plan,
    enumerate_paths,
    pathsum,
    plan_from_network,
    random_layered_network,
    random_unitary_2x2,
    readout_timeseries,
    run_blocking_suite,
    run_spectral_experiment,
    set_modulation,
    signature_amplitudes,
    spectra,
    spectrum,
    standard_nested_mzi,
    weak_values,
    weakval,
)
from weaktrace.errors import DegeneratePointerError, TooManyRoutesError, UnknownLabelError
from weaktrace.netgraph import BEAM_SPLITTER, DETECTOR, SINK, SOURCE, Arm, Node, build_network
from weaktrace.scenario import (
    BlockingExperiment,
    SpectralExperiment,
    build_scenario_network,
    default_experiment,
    parse_scenario,
)
from weaktrace.spectra import (
    ABSENT,
    ABSENT_POWER_TOL,
    BELOW_THRESHOLD,
    STRONG,
)

BINS = {"A": 13, "B": 17, "C": 19, "E": 23, "F": 29}


def plan_with(deltas, samples=4096):
    return ModulationPlan(
        sites=tuple(SiteModulation(s, d, BINS[s]) for s, d in deltas.items()),
        samples=samples,
    )


# ---------------------------------------------------------------- plans


def test_default_plan():
    plan = default_plan()
    assert plan.samples == 4096
    assert [(sm.site, sm.bin) for sm in plan.sites] == [
        ("A", 13),
        ("B", 17),
        ("C", 19),
        ("E", 23),
        ("F", 29),
    ]
    assert all(sm.delta == 0.01 for sm in plan.sites)


@pytest.mark.parametrize(
    "sites,samples",
    [
        ((("A", 0.01, 13), ("B", 0.01, 13)), 4096),  # bin collision
        ((("A", 0.01, 13), ("A", 0.01, 17)), 4096),  # site twice
        ((("A", 0.01, 0),), 4096),  # DC bin
        ((("A", 0.01, 2048),), 4096),  # at Nyquist
        ((("A", -0.01, 13),), 4096),  # negative depth
        ((("A", 0.01, 13),), 1000),  # not a power of two
        ((("A", 0.01, 13),), 2),  # too short
        ((("A", 0.01, 13),), 2 * spectra.MAX_SAMPLES),  # too long
    ],
)
def test_plan_validation_rejects(sites, samples):
    with pytest.raises(ValueError):
        ModulationPlan(
            sites=tuple(SiteModulation(*s) for s in sites), samples=samples
        )


def test_plan_from_network_roundtrip():
    net = standard_nested_mzi()
    net = set_modulation(net, "A", delta=0.02, bin=11)
    net = set_modulation(net, "C", delta=0.01, bin=7)
    plan = plan_from_network(net, samples=512)
    assert plan == ModulationPlan(
        sites=(SiteModulation("A", 0.02, 11), SiteModulation("C", 0.01, 7)),
        samples=512,
    )


# ---------------------------------------------------------------- FFT


def direct_power(x):
    """spectrum() by the O(N^2) DFT sum, a few hundred bins at a time."""
    n = x.size
    j = np.arange(n)
    coeff = np.empty(n // 2, dtype=complex)
    for lo in range(0, n // 2, 256):
        b = np.arange(lo, min(lo + 256, n // 2))
        # reduce b*j mod n before scaling so the phase stays exact
        coeff[b] = np.exp(-2j * np.pi * (np.outer(b, j) % n) / n) @ x
    power = np.abs(coeff) ** 2 * (2.0 / n) ** 2
    power[0] = 0.0
    return power


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fft_matches_numpy(data):
    n = 2 ** data.draw(st.integers(2, 9))
    values = data.draw(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    )
    x = np.asarray(values)
    ref = direct_power(x)
    scale = max(1.0, float(np.max(ref)))
    assert np.max(np.abs(spectrum(x) - ref)) < 1e-9 * scale


def test_fft_fixed_random_vectors():
    rng = np.random.default_rng(42)
    for n in (4, 64, 1024, 4096):
        x = rng.normal(size=n)
        ref = direct_power(x)
        assert np.allclose(spectrum(x), ref, rtol=1e-9, atol=1e-12 * np.max(ref))


def test_spectrum_pure_sinusoid_is_exact():
    n = 1024
    k = np.arange(n)
    for amp, b in ((1.0, 5), (0.25, 100), (3e-4, 511)):
        power = spectrum(amp * np.sin(2 * np.pi * b * k / n))
        assert power[b] == pytest.approx(amp**2, rel=1e-12)
        others = np.delete(power, b)
        assert np.max(others) < 1e-24 * amp**2
    assert power[0] == 0.0


def test_spectrum_rejects_bad_lengths():
    with pytest.raises(ValueError):
        spectrum(np.zeros(100))
    with pytest.raises(ValueError):
        spectrum(np.zeros(2))


# ---------------------------------------------------------------- readout


def test_readout_static_limit(std_net):
    plan = plan_with({"A": 0.0, "B": 0.0, "C": 0.0, "E": 0.0, "F": 0.0}, samples=256)
    xbar, rate = readout_timeseries(std_net, plan, sigma=1.0)
    assert np.all(xbar == 0.0)
    assert rate == pytest.approx(np.full(256, 0.25), abs=1e-12)


def test_readout_time_antisymmetry(std_net):
    # displacements are sums of sines, odd under k -> N-k, and the mean
    # reading inherits that parity while the rate is even
    xbar, rate = readout_timeseries(std_net, default_plan(0.01, 512), sigma=1.0)
    assert np.max(np.abs(xbar[1:] + xbar[:0:-1])) < 1e-12
    assert np.max(np.abs(rate[1:] - rate[:0:-1])) < 1e-12


def test_readout_first_order_peaks(std_net):
    # for tiny depths the reading reduces to delta*sigma*Re(W_site) at the
    # site's own bin; second-order corrections are ~delta^2 smaller
    delta, sigma = 1e-3, 1.3
    xbar, _ = readout_timeseries(std_net, default_plan(delta), sigma=sigma)
    power = spectrum(xbar)
    assert power[BINS["A"]] == pytest.approx((delta * sigma * 0.5) ** 2, rel=1e-3)
    assert power[BINS["B"]] == pytest.approx((delta * sigma * 0.5) ** 2, rel=1e-3)
    assert power[BINS["C"]] == pytest.approx((delta * sigma * 1.0) ** 2, rel=1e-3)


def test_second_order_mixing_bins_are_parity_forbidden(std_net):
    xbar, _ = readout_timeseries(std_net, default_plan(0.01), sigma=1.0)
    power = spectrum(xbar)
    # sum and difference bins of A(13), B(17), C(19) carry second-order
    # products, which an odd-parity readout cannot sustain
    for b in (4, 6, 30, 32, 36):
        assert power[b] < 1e-30
    # third-order mixing is allowed and visible well above machine noise
    for b in (7, 11, 25):
        assert power[b] > 1e-15


def test_probes_on_dark_arms_alone_leave_no_signal(std_net):
    # both inner routes traverse E and F together with opposite amplitudes,
    # so their pointer displacements coincide and cancel exactly in the
    # post-selected mean: the readout is identically zero, to the bit
    plan = plan_with({"E": 0.01, "F": 0.01})
    xbar, _ = readout_timeseries(std_net, plan, sigma=1.0)
    assert np.all(xbar == 0.0)
    assert np.all(spectrum(xbar) == 0.0)


def test_readout_unknown_site(std_net):
    with pytest.raises(UnknownLabelError):
        readout_timeseries(std_net, plan_with({"A": 0.01}), sigma=1.0, detector="D5")
    plan = ModulationPlan(sites=(SiteModulation("Z", 0.01, 13),))
    with pytest.raises(UnknownLabelError):
        readout_timeseries(std_net, plan, sigma=1.0)


def test_readout_degenerate_rate():
    net = make_dark_port_mzi()
    with pytest.raises(DegeneratePointerError):
        readout_timeseries(
            net,
            ModulationPlan(sites=(SiteModulation("X", 0.01, 13),), samples=256),
            sigma=1.0,
        )


def test_readout_rejects_bad_sigma(std_net):
    with pytest.raises(ValueError):
        readout_timeseries(std_net, default_plan(), sigma=0.0)


def test_readout_work_is_bounded(std_net, monkeypatch):
    plan = default_plan(0.01, samples=64)
    pairs = 64 * len(signature_amplitudes(std_net, [sm.site for sm in plan.sites])) ** 2
    monkeypatch.setattr(spectra, "MAX_READOUT_PAIRS", pairs)
    readout_timeseries(std_net, plan, sigma=1.0)
    monkeypatch.setattr(spectra, "MAX_READOUT_PAIRS", pairs - 1)
    with pytest.raises(TooManyRoutesError) as err:
        readout_timeseries(std_net, plan, sigma=1.0)
    assert err.value.exit_code == 3


# ---------------------------------------------------------------- spectra


def test_noise_free_peak_powers(std_net):
    # frozen from an independent run of the overlap model; the leading
    # behavior is power ~ (delta*sigma*Re W)^2 with W = 1/2, 1/2, 1
    report = run_spectral_experiment(std_net, default_plan(0.01), sigma=1.0)
    peak = {p.site: p.power for p in report.peaks}
    assert peak["A"] == pytest.approx(2.499531e-05, rel=1e-5)
    assert peak["B"] == pytest.approx(2.499484e-05, rel=1e-5)
    assert peak["C"] == pytest.approx(9.999250e-05, rel=1e-5)
    assert peak["E"] == pytest.approx(2.196520e-13, rel=1e-4)
    assert peak["F"] == pytest.approx(1.076237e-13, rel=1e-4)
    assert {p.classification for p in report.peaks} == {STRONG}
    assert report.mean_rate - 0.25 == pytest.approx(1e-4 / 64, abs=1e-9)


def test_intermodulation_feeds_silent_site_bins(std_net):
    # with the inner-arm probes switched off, the bin assigned to E still
    # shows third-order mixing of the A/B/C probes (17+19-13 = 23), while
    # bin 29 has no third-order combination and drops to the noise floor
    plan = plan_with({"A": 0.01, "B": 0.01, "C": 0.01, "E": 0.0, "F": 0.0})
    report = run_spectral_experiment(std_net, plan, sigma=1.0)
    peak = {p.site: p for p in report.peaks}
    assert peak["E"].power == pytest.approx(8.7879e-15, rel=1e-3)
    assert peak["F"].power < 1e-20
    assert peak["F"].classification == ABSENT


def test_noise_classification_frozen_seed(std_net):
    report = run_spectral_experiment(
        std_net, default_plan(0.01), sigma=1.0, noise=NoiseModel(std=1e-4, seed=0)
    )
    cls = {p.site: p.classification for p in report.peaks}
    assert cls == {
        "A": STRONG,
        "B": STRONG,
        "C": STRONG,
        "E": BELOW_THRESHOLD,
        "F": BELOW_THRESHOLD,
    }
    # white noise of std s spreads 4 s^2 / N per bin; the floor is five
    # times the median of that exponential distribution
    assert 1e-11 < report.noise_floor < 1e-10


def test_peak_power_scaling_under_depth_halving(std_net):
    strong = run_spectral_experiment(std_net, default_plan(0.01), sigma=1.0)
    halved = run_spectral_experiment(std_net, default_plan(0.005), sigma=1.0)
    p1 = {p.site: p.power for p in strong.peaks}
    p2 = {p.site: p.power for p in halved.peaks}
    for site in "ABC":
        assert 3.8 < p1[site] / p2[site] < 4.2
    # the E/F bins are fed by third-order mixing, so their power falls
    # as the sixth power of the depths: a factor 64 per halving
    for site in "EF":
        assert 57.6 < p1[site] / p2[site] < 70.4


def test_spectral_determinism(std_net):
    noise = NoiseModel(std=1e-4, seed=12345)
    a = run_spectral_experiment(std_net, default_plan(0.01), 1.0, noise=noise)
    b = run_spectral_experiment(std_net, default_plan(0.01), 1.0, noise=noise)
    assert np.array_equal(a.xbar, b.xbar)
    assert np.array_equal(a.power, b.power)
    assert a.peaks == b.peaks
    assert a.noise_floor == b.noise_floor
    c = run_spectral_experiment(
        std_net, default_plan(0.01), 1.0, noise=NoiseModel(std=1e-4, seed=12346)
    )
    assert not np.array_equal(a.xbar, c.xbar)


def test_noise_model_rejects_negative_seed():
    assert NoiseModel(std=1e-4, seed=0).seed == 0
    with pytest.raises(ValueError, match="seed"):
        NoiseModel(std=1e-4, seed=-1)


def test_report_is_self_consistent(std_net):
    report = run_spectral_experiment(
        std_net, default_plan(0.01), 1.0, noise=NoiseModel(std=1e-5, seed=3)
    )
    assert np.array_equal(spectrum(report.xbar), report.power)
    assert report.samples == 4096
    assert report.detector == "D"
    assert report.power.shape == (2048,)


# ---------------------------------------------------------------- blocking


def test_blocking_suite_standard(std_net):
    suite = run_blocking_suite(std_net, default_plan(0.01), sigma=1.0)
    assert [c.name for c in suite.configs] == ["baseline", "block_E", "block_F"]

    base = suite.config("baseline")
    assert base.blocked_site is None
    assert base.static_probability == pytest.approx(0.25, abs=1e-12)
    assert {p.classification for p in base.report.peaks} == {STRONG}

    for name in ("block_E", "block_F"):
        cfg = suite.config(name)
        # the click rate does not budge when the blocked arm carried no net
        # amplitude, yet the inner-arm peaks disappear entirely
        assert cfg.static_probability == pytest.approx(0.25, abs=1e-12)
        peaks = {p.site: p for p in cfg.report.peaks}
        for site in ("A", "B", "E", "F"):
            assert peaks[site].power < 1e-20
            assert peaks[site].classification == ABSENT
        assert peaks["C"].classification == STRONG
        assert peaks["C"].power == pytest.approx(1e-4, rel=1e-3)


def test_blocking_inner_arm_changes_rate(std_net):
    suite = run_blocking_suite(
        std_net, default_plan(0.01), sigma=1.0, block_sites=("A",)
    )
    cfg = suite.config("block_A")
    # removing the +1/4 route leaves total 1/4: probability 1/16
    assert cfg.static_probability == pytest.approx(1 / 16, abs=1e-12)
    peaks = {p.site: p for p in cfg.report.peaks}
    # B no longer cancels against A, so E and F now carry first-order power
    assert peaks["B"].power > 1e-6
    assert peaks["E"].power > 1e-6
    assert peaks["F"].power > 1e-6
    # the blocked arm's own first-order signal is gone, but its bin still
    # picks up third-order mixing of the surviving probes (17 + 19 - 23 = 13),
    # which dwarfs the noise-free floor
    assert peaks["A"].power < 1e-10
    assert peaks["A"].power > 1e-14
    assert peaks["A"].power < 1e-6 * peaks["B"].power


def test_blocking_dark_arm_mean_rate_shift(std_net):
    suite = run_blocking_suite(std_net, default_plan(0.01), sigma=1.0)
    base = suite.config("baseline").report.mean_rate
    blocked = suite.config("block_F").report.mean_rate
    assert abs(blocked - base) <= 10 * 0.01**2
    assert blocked == pytest.approx(0.25, abs=1e-12)


def test_blocked_site_must_exist(std_net):
    with pytest.raises(UnknownLabelError):
        run_blocking_suite(std_net, default_plan(0.01), 1.0, block_sites=("Q",))


def test_readout_scales_with_sigma(std_net):
    # displacements are delta * sigma * sin(...), so the overlaps depend only
    # on delta and the reading is sigma times the sigma = 1 reading, down to
    # widths whose square under- or overflows (at 1e-300 the smallest
    # readings are subnormal, hence the absolute tolerance)
    plan = default_plan(0.01, 256)
    xbar1, rate1 = readout_timeseries(std_net, plan, sigma=1.0)
    for sigma in (1e-300, 1e-3, 7.5, 1e300):
        xbar, rate = readout_timeseries(std_net, plan, sigma=sigma)
        assert np.array_equal(rate, rate1)
        assert np.allclose(xbar / sigma, xbar1, rtol=1e-15, atol=1e-18)


def test_noise_free_floor_is_absent_power_tol(std_net):
    # a median of roundoff powers would move with the FFT; the floor of a
    # noise-free run is pinned to machine-level power instead
    report = run_spectral_experiment(std_net, default_plan(0.01), sigma=1.0)
    assert report.noise_floor == ABSENT_POWER_TOL
    suite = run_blocking_suite(std_net, default_plan(0.01), sigma=1.0)
    assert {c.report.noise_floor for c in suite.configs} == {ABSENT_POWER_TOL}


# ---------------------------------------------------------------- class readout

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _pair_sum_reference(net, plan, sigma, detector=None):
    """readout_timeseries by the O(N P^2) sum over pairs of enumerated routes.

    Every route i carries its own pointer copy, displaced by D_i; the
    rate is sum_ij w_ij ov_ij and the mean reading
    sum_ij w_ij (D_i + D_j)/2 ov_ij over the rate.
    """
    ens = enumerate_paths(net, detector)
    amps = np.array([p.amplitude for p in ens.paths], dtype=complex)
    member = np.array(
        [[sm.site in p.sites for sm in plan.sites] for p in ens.paths], dtype=float
    )
    deltas = np.array([sm.delta for sm in plan.sites])
    bins = np.array([sm.bin for sm in plan.sites], dtype=float)
    k = np.arange(plan.samples, dtype=float)
    waves = deltas * np.sin(2.0 * np.pi * bins * k[:, None] / plan.samples)
    disp = waves @ member.T
    weights = np.real(np.outer(amps, amps.conj()))
    diff = disp[:, :, None] - disp[:, None, :]
    mid = 0.5 * (disp[:, :, None] + disp[:, None, :])
    ov = np.exp(-(diff**2) / 8.0)
    rate = np.einsum("ij,kij->k", weights, ov)
    xbar = np.einsum("ij,kij->k", weights, mid * ov) / rate * sigma
    return xbar, rate


def _assert_matches_reference(net, plan, sigma=1.0, detector=None):
    xbar, rate = readout_timeseries(net, plan, sigma, detector)
    ref_xbar, ref_rate = _pair_sum_reference(net, plan, sigma, detector)
    assert np.max(np.abs(rate - ref_rate)) <= 1e-12 * np.max(np.abs(ref_rate))
    assert np.max(np.abs(xbar - ref_xbar)) <= 1e-12 * np.max(np.abs(ref_xbar))


def _scenario_spectral_configs():
    """(network, plan, sigma, detector) of every spectral run in scenarios/."""
    configs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = parse_scenario(path.read_text())
        net = build_scenario_network(scenario.network)
        for kind, cls in (("spectral", SpectralExperiment), ("blocking", BlockingExperiment)):
            exp = scenario.experiment
            if exp is None:
                exp = default_experiment(scenario, kind)
            elif not isinstance(exp, cls):
                continue
            variants = [("", net)]
            if kind == "blocking":
                variants += [(f"_block_{s}", apply_block(net, s)) for s in exp.block_sites]
            for suffix, net_c in variants:
                configs.append(
                    pytest.param(
                        net_c, exp.plan, exp.sigma, exp.detector, id=f"{path.stem}/{kind}{suffix}"
                    )
                )
    return configs


@pytest.mark.parametrize("net,plan,sigma,detector", _scenario_spectral_configs())
def test_class_readout_matches_pair_sum_on_scenarios(net, plan, sigma, detector):
    _assert_matches_reference(net, plan, sigma, detector)


def test_class_readout_matches_pair_sum_on_random_networks():
    rng_plan = np.random.default_rng(2024)
    checked = 0
    for seed in range(100):
        net = random_layered_network(np.random.default_rng(seed))
        sites = sorted(net.site_labels())
        if not sites:
            continue
        bins = rng_plan.choice(np.arange(1, 32), size=len(sites), replace=False)
        plan = ModulationPlan(
            sites=tuple(
                SiteModulation(s, float(rng_plan.uniform(0.0, 0.5)), int(b))
                for s, b in zip(sites, bins)
            ),
            samples=64,
        )
        for det in net.detectors:
            ref_rate = _pair_sum_reference(net, plan, 1.0, det)[1]
            if np.min(ref_rate) < 1e-14:
                with pytest.raises(DegeneratePointerError):
                    readout_timeseries(net, plan, 1.0, det)
                continue
            _assert_matches_reference(net, plan, 1.0, det)
            checked += 1
    assert checked >= 100


def test_signature_classes_collapse_or_not(std_net):
    # probing all five sites keeps the three routes apart (K = P); probing
    # only E and F leaves the reference route alone in one class and merges
    # the two inner routes, which pass both E and F, into another (K < P)
    routes = enumerate_paths(std_net).paths
    every = default_plan(0.05, 256)
    dark = plan_with({"E": 0.05, "F": 0.05}, samples=256)
    assert len(signature_amplitudes(std_net, [sm.site for sm in every.sites])) == len(routes)
    classes = signature_amplitudes(std_net, ["E", "F"])
    assert list(classes) == [("E", "F"), ()]
    assert classes[("E", "F")] == 0j
    assert classes[()] == pytest.approx(0.5, abs=1e-15)
    for plan in (every, dark):
        _assert_matches_reference(std_net, plan)

    net = random_layered_network(np.random.default_rng(7), max_beam_splitters=12)
    det = net.detectors[0]
    routes = enumerate_paths(net, det).paths
    sites = sorted(net.site_labels())[:3]
    classes = signature_amplitudes(net, sites, det)
    assert 1 < len(classes) < len(routes)
    plan = ModulationPlan(
        sites=tuple(SiteModulation(s, 0.2, b) for s, b in zip(sites, (3, 5, 11))),
        samples=64,
    )
    _assert_matches_reference(net, plan, 1.0, det)


def test_signature_classes_sum_the_routes():
    for seed in range(20):
        net = random_layered_network(np.random.default_rng(seed))
        sites = sorted(net.site_labels())[::2]
        for det in net.detectors:
            grouped = {}
            for p in enumerate_paths(net, det).paths:
                sig = tuple(s for s in p.sites if s in sites)
                grouped[sig] = grouped.get(sig, 0j) + p.amplitude
            classes = signature_amplitudes(net, sites, det)
            assert set(classes) == set(grouped), seed
            for sig, amp in grouped.items():
                assert abs(classes[sig] - amp) < 1e-12, (seed, det, sig)


def test_readout_enumerates_no_routes(std_net, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spectral readout enumerated routes")

    monkeypatch.setattr(pathsum, "enumerate_paths", refuse)
    assert not hasattr(spectra, "enumerate_paths")
    readout_timeseries(std_net, default_plan(0.01, 256), sigma=1.0)
    run_blocking_suite(std_net, default_plan(0.01, 256), sigma=1.0)


def test_signature_pass_is_bounded(std_net, monkeypatch):
    # with all five sites probed the pass makes 21 map-entry updates
    sites = [sm.site for sm in default_plan().sites]
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 21)
    assert len(signature_amplitudes(std_net, sites)) == 3
    monkeypatch.setattr(pathsum, "MAX_ROUTE_STEPS", 20)
    with pytest.raises(TooManyRoutesError):
        readout_timeseries(std_net, default_plan(0.01, 256), sigma=1.0)


def test_readout_with_no_route_to_the_detector():
    # a detector with no incoming arm is valid, and no route reaches it
    net = make_dark_port_mzi()
    net = build_network(net.nodes + (Node("D2", DETECTOR),), net.arms)
    plan = ModulationPlan(sites=(SiteModulation("X", 0.01, 13),), samples=64)
    assert signature_amplitudes(net, ["X"], "D2") == {}
    with pytest.raises(DegeneratePointerError, match="no paths reach detector 'D2'"):
        readout_timeseries(net, plan, sigma=1.0, detector="D2")


# ------------------------------------------------------- moment-series readout


def _cascade(widths, seed=0):
    """A chain of stages, each fanning one arm out into ``width`` (2 or 3)
    routes, all but one through their own labeled arm, and back into one.

    The stage signatures multiply: the routes fall into prod(widths)
    signature classes when every label is probed.
    """
    rng = np.random.default_rng(seed)
    nodes = [Node("SRC", SOURCE), Node("D", DETECTOR)]
    arms = []

    def splitter(name):
        nodes.append(Node(name, BEAM_SPLITTER, scatter=random_unitary_2x2(rng)))

    def arm(src, dst, label=None):
        arms.append(Arm(f"a{len(arms)}", src[0], src[1], dst[0], dst[1], label=label))

    def sink(src):
        nodes.append(Node(f"K{len(nodes)}", SINK))
        arm(src, (nodes[-1].id, 0))

    prev = ("SRC", 0)
    for s, width in enumerate(widths):
        a, c = f"S{s}a", f"S{s}c"
        splitter(a)
        splitter(c)
        arm(prev, (a, 0))
        if width == 2:
            arm((a, 0), (c, 0), label=f"s{s}")
            arm((a, 1), (c, 1))
        else:
            b, d = f"S{s}b", f"S{s}d"
            splitter(b)
            splitter(d)
            arm((a, 0), (c, 0), label=f"s{s}u")
            arm((a, 1), (b, 0))
            arm((b, 0), (d, 0), label=f"s{s}v")
            arm((b, 1), (d, 1))
            arm((d, 0), (c, 1))
            sink((d, 1))
        sink((c, 1))
        prev = (c, 0)
    arm(prev, ("D", 0))
    return build_network(nodes, arms)


def test_series_readout_matches_pair_sum_on_random_networks(monkeypatch):
    # probe depths as small as the benchmark's keep t = max|d|^2 / 4 below
    # 1e-3, so the series needs M <= 6 terms and K >= 7 classes take it
    calls = kernel_calls(monkeypatch, "_moment_sums")
    rng_plan = np.random.default_rng(2025)
    checked = 0
    for bs in (8, 10, 12):
        for seed in range(60):
            net = random_layered_network(np.random.default_rng(seed), max_beam_splitters=bs)
            sites = sorted(net.site_labels())
            for det in net.detectors:
                if len(signature_amplitudes(net, sites, det)) < 7:
                    continue
                bins = rng_plan.choice(np.arange(1, 32), size=len(sites), replace=False)
                plan = ModulationPlan(
                    sites=tuple(
                        SiteModulation(s, float(rng_plan.uniform(0.001, 0.005)), int(b))
                        for s, b in zip(sites, bins)
                    ),
                    samples=64,
                )
                if np.min(_pair_sum_reference(net, plan, 1.0, det)[1]) < 1e-14:
                    continue
                del calls[:]
                _assert_matches_reference(net, plan, 1.0, det)
                checked += len(calls)
    assert checked >= 80


def test_wide_readout_takes_the_series(monkeypatch):
    # the benchmark's widest input has 96 classes at 1024 samples; its
    # readout never forms the K^2 pair overlaps
    def refuse(*args):
        raise AssertionError("the readout summed the class pairs")

    calls = kernel_calls(monkeypatch, "_moment_sums")
    monkeypatch.setattr(weakval, "_pair_sums", refuse)
    net = _cascade([2, 2, 2, 2, 2, 3])
    sites = sorted(net.site_labels())
    plan = ModulationPlan(
        sites=tuple(SiteModulation(s, 0.002, 3 + 7 * i) for i, s in enumerate(sites)),
        samples=1024,
    )
    assert len(signature_amplitudes(net, sites)) == 96
    xbar, rate = readout_timeseries(net, plan, sigma=1.0)
    assert calls == [(96, 4)]
    assert np.all(np.isfinite(xbar)) and np.min(rate) > 0.0
    # the first-order reading: sum over probes of delta * Re(w) * sin(...)
    w = weak_values(net, sites)
    k = np.arange(1024)
    first = sum(
        sm.delta * w[sm.site].real * np.sin(2 * np.pi * sm.bin * k / 1024) for sm in plan.sites
    )
    assert np.max(np.abs(xbar - first)) < 1e-3 * np.max(np.abs(first))

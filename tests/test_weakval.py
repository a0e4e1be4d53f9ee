import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_sweeps,
    kernel_calls,
    path_by_sites,
    route_amplitude_split,
    route_weak_value,
    two_state_split,
)
from weaktrace import (
    PointerModel,
    amplitude_split,
    build_network,
    enumerate_paths,
    pathsum,
    pointer_profile,
    pointer_shift_exact,
    projector_weak_value,
    random_layered_network,
    relative_amplitudes,
    reports,
    signature_amplitudes,
    weak_observable,
    weak_values,
    weakval,
)
from weaktrace.errors import (
    DegeneratePointerError,
    UnknownLabelError,
    VanishingTotalError,
)


def test_relative_amplitudes_sum_to_one(std_ens):
    alphas = relative_amplitudes(std_ens)
    assert np.sum(alphas) == pytest.approx(1.0, abs=1e-12)


def test_relative_amplitudes_values(std_ens):
    by_sites = dict(zip((p.sites for p in std_ens.paths), relative_amplitudes(std_ens)))
    assert by_sites[("E", "A", "F")] == pytest.approx(0.5, abs=1e-12)
    assert by_sites[("E", "B", "F")] == pytest.approx(-0.5, abs=1e-12)
    assert by_sites[("C",)] == pytest.approx(1.0, abs=1e-12)


def test_inner_routes_cancel(std_ens):
    by_sites = dict(zip((p.sites for p in std_ens.paths), relative_amplitudes(std_ens)))
    assert by_sites[("E", "A", "F")] + by_sites[("E", "B", "F")] == pytest.approx(
        0.0, abs=1e-12
    )


def test_weak_values_standard(std_net):
    w = weak_values(std_net)
    assert w["A"] == pytest.approx(0.5, abs=1e-12)
    assert w["B"] == pytest.approx(-0.5, abs=1e-12)
    assert w["C"] == pytest.approx(1.0, abs=1e-12)
    assert abs(w["E"]) < 1e-12
    assert abs(w["F"]) < 1e-12


def test_weak_values_partition_sums(std_net):
    w = weak_values(std_net)
    # every path passes exactly one of {A, B, C}, and one of {E, C}
    assert w["A"] + w["B"] + w["C"] == pytest.approx(1.0, abs=1e-12)
    assert w["E"] + w["C"] == pytest.approx(1.0, abs=1e-12)


def test_weak_values_normalise_once(std_net, monkeypatch):
    # every weak value is A1 over the one total of the two sweeps; no route
    # is listed or normalised
    monkeypatch.setattr(weakval, "relative_amplitudes", None)
    states = {}
    w = weak_values(std_net, states=states)
    total, found = weakval._two_state(std_net)
    assert states == found
    assert w == {s: found[s]["through"] / total for s in "ABCEF"}
    with pytest.raises(UnknownLabelError):
        weak_values(std_net, ["A", "Q"])


def test_weak_values_and_pointer_make_two_sweeps(std_net, monkeypatch):
    # one forward and one backward sweep for every site, and no signature pass
    def refuse(*args):
        raise AssertionError("a signature pass ran")

    monkeypatch.setattr(pathsum, "_forward", refuse)
    sweeps = count_sweeps(monkeypatch)
    assert len(weak_values(std_net)) == 5
    assert sweeps == ["forward", "backward"]
    sweeps.clear()
    model = PointerModel(site="B", sigma=1.0, coupling=0.125)
    pointer_shift_exact(amplitude_split(std_net, "B"), model)
    assert sweeps == ["forward", "backward"]


def test_unknown_site(std_net):
    with pytest.raises(UnknownLabelError):
        projector_weak_value(amplitude_split(std_net, "Q"))


def test_vanishing_total(dark_port_net):
    ens = enumerate_paths(dark_port_net)
    assert ens.total == 0j
    with pytest.raises(VanishingTotalError):
        relative_amplitudes(ens)
    with pytest.raises(VanishingTotalError):
        projector_weak_value(amplitude_split(dark_port_net, "X"))


@given(st.floats(-np.pi, np.pi))
@settings(max_examples=25, deadline=None)
def test_global_phase_leaves_weak_values_alone(phi):
    from weaktrace import standard_nested_mzi

    net = standard_nested_mzi()
    arm_in = next(a for a in net.arms if a.id == "in")
    rotated = tuple(
        dataclasses.replace(a, static_phase=phi) if a.id == "in" else a
        for a in net.arms
    )
    w = weak_values(build_network(net.nodes, rotated))
    assert w["A"] == pytest.approx(0.5, abs=1e-10)
    assert w["C"] == pytest.approx(1.0, abs=1e-10)
    assert abs(w["E"]) < 1e-10
    assert arm_in.static_phase == 0.0


@given(
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=3, max_size=3),
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=3, max_size=3),
    st.complex_numbers(max_magnitude=5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_weak_observable_is_linear(b1, b2, scale):
    alphas = np.array([0.5, -0.5, 1.0], dtype=complex)
    b1 = np.array(b1)
    b2 = np.array(b2)
    lhs = weak_observable(alphas, b1 + scale * b2)
    rhs = weak_observable(alphas, b1) + scale * weak_observable(alphas, b2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_weak_observable_of_indicator_is_projector_weak_value(std_net, std_ens):
    alphas = relative_amplitudes(std_ens)
    for site in "ABCEF":
        indicator = [1.0 if site in p.sites else 0.0 for p in std_ens.paths]
        assert weak_observable(alphas, indicator) == pytest.approx(
            projector_weak_value(amplitude_split(std_net, site)), abs=1e-12
        )


def test_weak_observable_shape_mismatch():
    with pytest.raises(ValueError):
        weak_observable([1.0, 0.5], [1.0])


def test_pointer_profile_is_normalized():
    for sigma in (0.3, 1.0, 2.5):
        x = np.linspace(-14 * sigma, 14 * sigma, 6001)
        total = scipy.integrate.simpson(pointer_profile(x, sigma) ** 2, x=x)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_pointer_model_validation():
    with pytest.raises(ValueError):
        PointerModel(site="A", sigma=0.0, coupling=0.1)
    with pytest.raises(ValueError):
        PointerModel(site="A", sigma=-1.0, coupling=0.1)
    with pytest.raises(ValueError):
        PointerModel(site="A", sigma=1.0, coupling=float("inf"))


def test_pointer_model_rejects_overflowing_displacement():
    # g / sigma overflows to inf, and the readout would turn it into NaN
    with pytest.raises(ValueError, match="coupling / width must be finite"):
        PointerModel(site="A", sigma=1e-300, coupling=1e308)


def _quadrature_shift(ens, site, sigma, g):
    """Independent pointer-mean oracle: integrate the final pointer state."""
    a0, a1 = route_amplitude_split(ens, site)
    half = 12.0 * sigma + abs(g)
    x = np.linspace(-half, half, 8001)
    psi = a0 * pointer_profile(x, sigma) + a1 * pointer_profile(x - g, sigma)
    weight = np.abs(psi) ** 2
    return scipy.integrate.simpson(weight * x, x=x) / scipy.integrate.simpson(
        weight, x=x
    )


@pytest.mark.parametrize("site", ["A", "B", "C"])
@pytest.mark.parametrize("sigma,g", [(1.0, 0.5), (1.0, 0.125), (0.7, 0.35), (2.0, 1.0)])
def test_pointer_shift_matches_quadrature(std_net, std_ens, site, sigma, g):
    model = PointerModel(site=site, sigma=sigma, coupling=g)
    exact = pointer_shift_exact(amplitude_split(std_net, site), model)
    assert exact == pytest.approx(
        _quadrature_shift(std_ens, site, sigma, g), abs=1e-10
    )


def test_pointer_shift_site_A_is_exactly_half_g(std_net):
    # The through-site and bypass amplitudes at A are both 1/4, so the
    # two displaced pointer copies carry equal weight and the mean sits at
    # g/2 for every coupling strength, not merely in the weak limit.
    for g in (0.9, 0.5, 0.125, 0.03125):
        model = PointerModel(site="A", sigma=1.0, coupling=g)
        assert abs(pointer_shift_exact(amplitude_split(std_net, "A"), model) - g / 2) < 1e-15


def test_pointer_weak_limit_converges_at_generic_site(std_net):
    # Site B has unequal through/bypass amplitudes, so the shift has a
    # genuine second-order correction: the first-order residual must fall
    # about fourfold per halving of g.
    amps = amplitude_split(std_net, "B")
    w = projector_weak_value(amps).real
    errors = []
    for g in (0.125, 0.0625, 0.03125):
        model = PointerModel(site="B", sigma=1.0, coupling=g)
        errors.append(abs(pointer_shift_exact(amps, model) / g - w))
    assert errors[0] > 1e-4
    for a, b in zip(errors, errors[1:]):
        assert 3.0 < a / b < 5.0


def test_pointer_first_order_prediction(std_net):
    # the pointer report is the one owner of the first-order g * Re(w)
    amps = amplitude_split(std_net, "B")
    exact = pointer_shift_exact(amps, PointerModel(site="B", sigma=1.0, coupling=0.01))
    doc = reports.pointer_result("D", "B", 1.0, projector_weak_value(amps), [(0.01, exact)])
    first = doc["readings"][0]["first_order"]
    assert first == pytest.approx(-0.005, abs=1e-12)
    assert exact == pytest.approx(first, abs=5e-5)


def test_degenerate_pointer_raises(dark_port_net):
    amps = amplitude_split(dark_port_net, "X")
    where = r"^pointer at site 'X' with coupling 0\.0: post-selected rate dips to .* at reading 0,"
    with pytest.raises(DegeneratePointerError, match=where):
        pointer_shift_exact(amps, PointerModel(site="X", sigma=1.0, coupling=0.0))


def test_dark_port_pointer_with_coupling_is_finite(dark_port_net):
    # With the two routes cancelling, post-selection succeeds only through
    # the probe disturbance itself; by symmetry the conditioned mean sits
    # at g/2 even though no photon "should" be there.
    amps = amplitude_split(dark_port_net, "X")
    shift = pointer_shift_exact(amps, PointerModel(site="X", sigma=1.0, coupling=0.5))
    assert shift == pytest.approx(0.25, abs=1e-12)


def test_pointer_unknown_site(std_net):
    with pytest.raises(UnknownLabelError):
        pointer_shift_exact(
            amplitude_split(std_net, "Z"), PointerModel(site="Z", sigma=1.0, coupling=0.1)
        )


@pytest.mark.parametrize("sigma", [1e-300, 1e-3, 1e300])
def test_pointer_shift_depends_on_coupling_over_width(std_net, sigma):
    # the overlap is a function of g / sigma alone, so scaling both scales
    # the shift; sigma**2 itself would under- or overflow at these widths
    amps = amplitude_split(std_net, "B")
    for g in (0.5, 0.125):
        ref = pointer_shift_exact(amps, PointerModel(site="B", sigma=1.0, coupling=g))
        model = PointerModel(site="B", sigma=sigma, coupling=g * sigma)
        assert pointer_shift_exact(amps, model) / sigma == pytest.approx(ref, rel=1e-14)


def test_pointer_shift_far_beyond_the_width(std_net):
    # g / sigma = 1e300: the displaced copies no longer overlap at all
    model = PointerModel(site="A", sigma=1e-300, coupling=1.0)
    shift = pointer_shift_exact(amplitude_split(std_net, "A"), model)
    assert shift == pytest.approx(0.5, abs=1e-15)


def test_one_site_passes_match_the_route_sum_on_random_networks():
    cases = 0
    for seed in range(100):
        net = random_layered_network(np.random.default_rng(seed))
        for det in net.detectors:
            ens = enumerate_paths(net, det)
            if abs(ens.total) <= weakval.VANISHING_TOTAL_TOL:
                continue
            w = weak_values(net, detector=det)
            for site in sorted(net.site_labels()):
                assert abs(w[site] - route_weak_value(ens, site)) < 1e-12, (seed, det, site)
                # the one-site signature pass
                classes = signature_amplitudes(net, [site], det)
                one_site = classes.get((site,), 0j) / sum(classes.values())
                assert abs(w[site] - one_site) < 1e-12, (seed, det, site)
                # the two-state product fwd * factor * bwd over bwd at the source
                a1, total = two_state_split(net, site, det)
                assert abs(total - ens.total) < 1e-12, (seed, det)
                assert abs(a1 - amplitude_split(net, site, det)[1]) < 1e-12, (seed, det, site)
                assert abs(a1 / total - w[site]) < 1e-12, (seed, det, site)
                model = PointerModel(site=site, sigma=1.0, coupling=0.5)
                shift = pointer_shift_exact(amplitude_split(net, site, det), model)
                oracle = pointer_shift_exact(route_amplitude_split(ens, site), model)
                assert abs(shift - oracle) < 1e-12, (seed, det, site)
                cases += 1
    assert cases > 500


# ------------------------------------------------------- post-selected mean kernels


def _kernel_case(seed, classes, t):
    """Random class amplitudes and 8 readings whose widest displacement is
    exactly 2 sqrt(t), so max|d|^2 / 4 = t."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=classes) + 1j * rng.normal(size=classes)
    disp = rng.uniform(-1.0, 1.0, size=(8, classes))
    disp /= np.max(np.abs(disp))
    disp *= 2.0 * np.sqrt(t)
    return amps, disp


@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(1e-6, weakval.SERIES_MAX_T),
    side=st.sampled_from(["below", "above", "pairs", "series"]),
)
@settings(max_examples=60, deadline=None)
def test_kernels_agree_at_the_switch_points(seed, t, side):
    # t just below and just above SERIES_MAX_T at K = 30, where the series
    # runs below the bound, and K = M + 2 (pairs) or M + 3 (series) below it
    if side in ("below", "above"):
        t = weakval.SERIES_MAX_T * (1.0 - 1e-12 if side == "below" else 1.0 + 1e-12)
        classes, series = 30, side == "below"
    else:
        classes, series = weakval._series_order(t) + (3 if side == "series" else 2), side == "series"
    amps, disp = _kernel_case(seed, classes, t)
    mean, rate = weakval.post_selected_mean(amps, disp)

    order = weakval._series_order(t)
    pair_num, pair_rate = weakval._pair_sums(amps, disp)
    series_num, series_rate = weakval._moment_sums(amps, disp, order)
    num, expected = (series_num, series_rate) if series else (pair_num, pair_rate)
    assert np.array_equal(rate, expected)
    assert np.array_equal(mean, num / expected)
    # both kernels agree to roundoff on the scale (sum_i |A_i|)^2 of the rate
    scale = np.sum(np.abs(amps)) ** 2
    reach = 2.0 * np.sqrt(t)
    assert np.max(np.abs(series_rate - pair_rate)) <= 1e-13 * scale
    assert np.max(np.abs(series_num - pair_num)) <= 1e-13 * scale * reach


def test_series_order_bounds_the_remainder():
    # the first M with t^M / M! * e^t <= 1e-18
    assert weakval._series_order(0.0) == 1
    assert weakval._series_order(3e-5) == 4
    assert weakval._series_order(1.0) == 21
    for t in (1e-4, 0.01, 0.3, 1.0):
        m = weakval._series_order(t)
        bound = [t**k / math.factorial(k) * math.exp(t) for k in (m - 1, m)]
        assert bound[1] <= weakval.SERIES_TOL < bound[0]


def test_series_branch_raises_degenerate_pointer(monkeypatch):
    # eight classes whose amplitudes cancel: the undisplaced reading 2 has
    # rate 0, the others a rate of order d^2
    series = kernel_calls(monkeypatch, "_moment_sums")
    amps = np.array([1.0, -1.0, 1j, -1j, 0.5, -0.5, 2.0, -2.0])
    disp = np.tile(np.linspace(-0.01, 0.01, 8), (4, 1))
    disp[2] = 0.0
    with pytest.raises(DegeneratePointerError, match="post-selected rate dips to .* at reading 2,"):
        weakval.post_selected_mean(amps, disp)
    assert series == [(8, 4)]


def test_small_kernels_stay_on_the_pair_sums(monkeypatch, std_net):
    # a pointer shift (K = 2) and three classes, as on the standard network,
    # sum their pairs even where the series would need a single term
    series = kernel_calls(monkeypatch, "_moment_sums")
    pairs = kernel_calls(monkeypatch, "_pair_sums")
    amps = amplitude_split(std_net, "B")
    pointer_shift_exact(amps, PointerModel(site="B", sigma=1.0, coupling=1e-3))
    weakval.post_selected_mean(np.ones(3), np.zeros((4, 3)))
    assert series == [] and pairs == [(2,), (3,)]


@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(1, 40),
    t=st.sampled_from([0.0, 1e-6, 0.3, 1.0, 1.0 + 1e-12, 4.0]) | st.floats(0.0, 4.0),
    shrink=st.sampled_from([1.0, 0.5, 0.0]) | st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_readout_work_never_charges_less_than_the_kernel_runs(seed, classes, t, shrink):
    # readings within a reach of 2 sqrt(t), and perhaps well inside it
    amps, disp = _kernel_case(seed, classes, t)
    disp *= shrink
    with pytest.MonkeyPatch.context() as mp:
        series = kernel_calls(mp, "_moment_sums")
        pairs = kernel_calls(mp, "_pair_sums")
        try:
            weakval.post_selected_mean(amps, disp)
        except DegeneratePointerError:
            pass
    assert len(series) + len(pairs) == 1
    ran = 8 * classes * (series[0][1] + 1) if series else 8 * classes**2
    assert weakval.readout_work(8, classes, 2.0 * math.sqrt(t)) >= ran

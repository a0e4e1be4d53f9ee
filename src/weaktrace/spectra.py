"""Frequency-multiplexed weak probing of many sites at once.

Each probed site oscillates the pointer displacement of the paths through
it at its own integer frequency bin.  The post-selected mean pointer
reading, sampled over one period of the slow drive, is Fourier analyzed;
a site leaves a peak at its bin with power proportional to the square of
(coupling times the real part of its weak value), to leading order.

The transform is numpy's real FFT over a power-of-two sample count.
Identical inputs give bit-identical spectra on one numpy build; other
builds may differ in the last digits of the powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointerError, UnknownLabelError
from .netgraph import Network, apply_block
from .pathsum import enumerate_paths, propagate, resolve_detector
from .weakval import DEGENERATE_NORM_TOL

ABSENT_POWER_TOL = 1e-20
NOISE_FLOOR_FACTOR = 5.0

STRONG = "strong"
BELOW_THRESHOLD = "below_threshold"
ABSENT = "absent"

DEFAULT_SITE_BINS = (("A", 13), ("B", 17), ("C", 19), ("E", 23), ("F", 29))
DEFAULT_SAMPLES = 4096
# the standard network's dark arms, blocked one at a time by default
STANDARD_BLOCK_SITES = ("E", "F")


@dataclass(frozen=True)
class SiteModulation:
    """One probe: a site, its depth, and its frequency bin."""

    site: str
    delta: float
    bin: int


@dataclass(frozen=True)
class ModulationPlan:
    """The full multiplexing schedule.

    Invariants enforced on construction: a power-of-two sample count,
    distinct sites, and distinct integer bins strictly between 0 and the
    Nyquist bin so every probe lands on a resolvable line.
    """

    sites: tuple[SiteModulation, ...]
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        n = self.samples
        if n < 4 or n & (n - 1):
            raise ValueError(f"sample count {n} is not a power of two >= 4")
        seen_sites = set()
        seen_bins = set()
        for sm in self.sites:
            if sm.site in seen_sites:
                raise ValueError(f"site {sm.site!r} modulated twice")
            seen_sites.add(sm.site)
            if not isinstance(sm.bin, int) or not 0 < sm.bin < n // 2:
                raise ValueError(
                    f"bin {sm.bin!r} for site {sm.site!r} outside (0, {n // 2})"
                )
            if sm.bin in seen_bins:
                raise ValueError(f"frequency bin {sm.bin} assigned twice")
            seen_bins.add(sm.bin)
            if not (math.isfinite(sm.delta) and sm.delta >= 0.0):
                raise ValueError(f"depth {sm.delta!r} for site {sm.site!r} invalid")


def default_plan(delta: float = 0.01, samples: int = DEFAULT_SAMPLES) -> ModulationPlan:
    """Equal-depth probes on the five standard sites at spread-out bins."""
    return ModulationPlan(
        sites=tuple(SiteModulation(s, delta, b) for s, b in DEFAULT_SITE_BINS),
        samples=samples,
    )


def plan_from_network(net: Network, samples: int = DEFAULT_SAMPLES) -> ModulationPlan:
    """Collect per-arm modulations declared on the network into a plan.

    Only ``net.arms`` is read.  Every modulated arm must carry a site
    label, since the plan (and the spectral report) addresses probes by
    site.
    """
    site_mods = []
    for arm in net.arms:
        if arm.modulation is None:
            continue
        if arm.label is None:
            raise UnknownLabelError(
                f"modulated arm {arm.id!r} has no site label"
            )
        site_mods.append(
            SiteModulation(arm.label, arm.modulation.delta, arm.modulation.bin)
        )
    site_mods.sort(key=lambda sm: sm.site)
    return ModulationPlan(sites=tuple(site_mods), samples=samples)


def readout_timeseries(
    net: Network,
    plan: ModulationPlan,
    sigma: float,
    detector: str | None = None,
):
    """Post-selected mean pointer reading over one drive period.

    At sample k, every path i accumulates the displacement
    D_i(k) = sum over its probed sites of delta * sigma * sin(2 pi b k / N).
    The mean reading and the (relative) detection rate follow from the
    pairwise Gaussian overlaps of the displaced pointer copies; both are
    exact in the depths, no weak expansion is made.

    Returns
    -------
    (xbar, rate) : two float arrays of length plan.samples
        ``rate`` is normalized to the unblocked static click probability
        scale, i.e. it equals |total amplitude|^2 when all depths vanish.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ValueError(f"pointer width must be positive, got {sigma!r}")
    ens = enumerate_paths(net, detector)
    ens.require_sites(sm.site for sm in plan.sites)

    n = plan.samples
    amps = np.array([p.amplitude for p in ens.paths], dtype=complex)
    if amps.size == 0:
        raise DegeneratePointerError(
            f"no paths reach detector {ens.detector!r}"
        )
    member = np.array(
        [[sm.site in p.sites for sm in plan.sites] for p in ens.paths],
        dtype=float,
    )
    deltas = np.array([sm.delta for sm in plan.sites], dtype=float)
    bins = np.array([sm.bin for sm in plan.sites], dtype=float)

    k = np.arange(n, dtype=float)
    # per-site displacement waveforms in units of sigma, shape (n, n_sites);
    # the overlaps depend only on these, and xbar is scaled back at the end
    waves = deltas[None, :] * np.sin(2.0 * np.pi * bins[None, :] * k[:, None] / n)
    disp = waves @ member.T  # (n, n_paths)

    weights = np.real(np.outer(amps, amps.conj()))  # symmetric, (P, P)

    xbar = np.empty(n)
    rate = np.empty(n)
    step = max(1, 262144 // max(1, amps.size**2))
    for lo in range(0, n, step):
        d = disp[lo : lo + step]
        diff = d[:, :, None] - d[:, None, :]
        ov = np.exp(-(diff**2) * 0.125)
        mid = 0.5 * (d[:, :, None] + d[:, None, :])
        rate[lo : lo + step] = np.einsum("ij,kij->k", weights, ov)
        xbar[lo : lo + step] = np.einsum("ij,kij->k", weights, mid * ov)

    if float(np.min(rate)) < DEGENERATE_NORM_TOL:
        raise DegeneratePointerError(
            f"post-selected rate dips to {np.min(rate):.3e}, below "
            f"{DEGENERATE_NORM_TOL:g}; pointer mean is undefined there"
        )
    xbar /= rate
    xbar *= sigma
    return xbar, rate


def spectrum(series) -> np.ndarray:
    """One-sided power spectrum of a real series of power-of-two length.

    Normalized so a pure sinusoid a*sin(2 pi b k / N) at an interior
    integer bin b yields power a**2 at that bin.  The DC entry is zeroed;
    the mean of the series carries no probe information.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 4 or n & (n - 1):
        raise ValueError(f"series length {n} is not a power of two >= 4")
    coeff = np.fft.rfft(series)
    power = np.abs(coeff[: n // 2]) ** 2 * (2.0 / n) ** 2
    power[0] = 0.0
    return power


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian readout noise on the pointer mean."""

    std: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.std) and self.std >= 0.0):
            raise ValueError(f"noise std {self.std!r} invalid")


@dataclass(frozen=True)
class SitePeak:
    site: str
    bin: int
    power: float
    classification: str


@dataclass(frozen=True)
class SpectralReport:
    """Everything the spectral run measured.

    ``xbar`` is the analyzed series (noise included when modeled), so the
    report is self-consistent: spectrum(xbar) reproduces ``power``.
    """

    detector: str
    samples: int
    sigma: float
    power: np.ndarray
    peaks: tuple[SitePeak, ...]
    noise_floor: float
    mean_rate: float
    xbar: np.ndarray
    rate: np.ndarray


def _classify(power: float, floor: float) -> str:
    if power < ABSENT_POWER_TOL:
        return ABSENT
    if power > floor:
        return STRONG
    return BELOW_THRESHOLD


def run_spectral_experiment(
    net: Network,
    plan: ModulationPlan,
    sigma: float = 1.0,
    noise: NoiseModel | None = None,
    detector: str | None = None,
) -> SpectralReport:
    """Drive the plan, Fourier analyze the reading, classify the peaks.

    The noise floor is five times the median power over all interior bins
    not assigned to a probe, but never below machine-level power (1e-20),
    so a noise-free run reports exactly 1e-20 rather than a multiple of
    roundoff.  A site peak above the floor is ``strong``; below 1e-20 it
    is ``absent``; in between it is ``below_threshold``, present in
    principle but not resolvable against this noise background.
    """
    target = resolve_detector(net, detector)
    xbar, rate = readout_timeseries(net, plan, sigma, target)
    if noise is not None and noise.std > 0.0:
        rng = np.random.default_rng(noise.seed)
        xbar = xbar + rng.normal(0.0, noise.std, size=xbar.size)
    power = spectrum(xbar)

    site_bins = {sm.bin for sm in plan.sites}
    off = np.array(
        [b for b in range(1, plan.samples // 2) if b not in site_bins],
        dtype=np.intp,
    )
    median = float(np.median(power[off])) if off.size else 0.0
    floor = max(NOISE_FLOOR_FACTOR * median, ABSENT_POWER_TOL)

    peaks = tuple(
        SitePeak(
            site=sm.site,
            bin=sm.bin,
            power=float(power[sm.bin]),
            classification=_classify(float(power[sm.bin]), floor),
        )
        for sm in plan.sites
    )
    return SpectralReport(
        detector=target,
        samples=plan.samples,
        sigma=sigma,
        power=power,
        peaks=peaks,
        noise_floor=floor,
        mean_rate=float(np.mean(rate)),
        xbar=xbar,
        rate=rate,
    )


@dataclass(frozen=True)
class BlockingConfig:
    """One arm-blocking counterfactual and its spectral outcome."""

    name: str
    blocked_site: str | None
    static_probability: float
    report: SpectralReport


@dataclass(frozen=True)
class BlockingSuite:
    configs: tuple[BlockingConfig, ...]

    def config(self, name: str) -> BlockingConfig:
        for c in self.configs:
            if c.name == name:
                return c
        raise KeyError(name)


def run_blocking_suite(
    net: Network,
    plan: ModulationPlan,
    sigma: float = 1.0,
    block_sites=STANDARD_BLOCK_SITES,
    detector: str | None = None,
) -> BlockingSuite:
    """Baseline spectrum plus one rerun per blocked site, noise free.

    Each configuration records the static click probability alongside the
    spectral report, so presence of peaks can be compared against how
    little the overall rate moved.
    """
    target = resolve_detector(net, detector)
    configs = []
    variants = [("baseline", None)] + [(f"block_{s}", s) for s in block_sites]
    for name, site in variants:
        net_c = apply_block(net, site) if site is not None else net
        report = run_spectral_experiment(net_c, plan, sigma, noise=None, detector=target)
        amp = propagate(net_c)[target]
        configs.append(
            BlockingConfig(
                name=name,
                blocked_site=site,
                static_probability=abs(amp) ** 2,
                report=report,
            )
        )
    return BlockingSuite(configs=tuple(configs))

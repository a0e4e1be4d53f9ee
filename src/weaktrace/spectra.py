"""Frequency-multiplexed weak probing of many sites at once.

Each probed site oscillates the pointer displacement of the paths through
it at its own integer frequency bin.  The post-selected mean pointer
reading, sampled over one period of the slow drive, is Fourier analyzed;
a site leaves a peak at its bin with power proportional to the square of
(coupling times the real part of its weak value), to leading order.

A route's displacement depends only on which probed sites it passes, so
the readout works on signature classes, the routes grouped by that site
set with their amplitudes summed, taken from one forward pass over the
network.  Each class is keyed by an int mask, bit i for the plan's i-th
site, and the masks give the classes x sites membership matrix that maps
the site waveforms to class displacements.  The reading is
``weakval.post_selected_mean`` of the classes, as a ``pointer`` shift is
of two.  Its cost is O(N K min(K, M)) in samples N, classes K and terms M
of its moment series, and that work is bounded, as are N K and N times
the probed sites, the size of the plan's waveform table, which a plan
builds on its first readout and keeps, computing each site's sine over
the whole row of samples at once.

The transform is numpy's real FFT over a power-of-two sample count.
Identical inputs give bit-identical spectra on one numpy build; other
builds may differ in the last digits of the powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import pathsum
from .errors import DegeneratePointerError, TooManyRoutesError, UnknownLabelError
from .netgraph import Network, apply_block
from .pathsum import resolve_detector
from .weakval import post_selected_mean, readout_work

if TYPE_CHECKING:
    from .scenario import NetworkSection

ABSENT_POWER_TOL = 1e-20
NOISE_FLOOR_FACTOR = 5.0

STRONG = "strong"
BELOW_THRESHOLD = "below_threshold"
ABSENT = "absent"

DEFAULT_SITE_BINS = (("A", 13), ("B", 17), ("C", 19), ("E", 23), ("F", 29))
DEFAULT_SAMPLES = 4096
# the readout holds a few samples x classes arrays; 2**20 samples is 8 MB per class
MAX_SAMPLES = 2**20
# bound on the work of the readout's kernel (weakval.readout_work): samples x
# classes x (M + 1) moment terms on the series branch, samples x classes^2
# pair overlaps on the pair branch.  Over 100 times the largest benchmark or
# test input.
MAX_READOUT_WORK = 2**30
# bound on samples x classes and on samples x probed sites, the size of each
# array the readout holds (256 MB of displacements, or of site waveforms): the
# work bound alone would let a series readout's arrays pass a gigabyte, and a
# probed site that no route to the detector passes adds a waveform but no class
MAX_READOUT_CELLS = 2**25
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

    Invariants enforced on construction: a power-of-two sample count no
    larger than ``MAX_SAMPLES``, distinct sites, and distinct integer bins
    strictly between 0 and the Nyquist bin so every probe lands on a
    resolvable line.

    The waveform table, read only by ``readout_timeseries``, is built on
    the first readout and kept, read-only, while the plan lives; it is
    computed sites-major and stored as (samples, sites).  It is not a
    field, so it takes no part in equality, hash or repr, and a pickled or
    copied plan carries only its fields and builds its own table.
    """

    sites: tuple[SiteModulation, ...]
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        n = self.samples
        if n < 4 or n > MAX_SAMPLES or n & (n - 1):
            raise ValueError(f"sample count {n} is not a power of two in [4, {MAX_SAMPLES}]")
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

    def __getstate__(self):
        # the fields alone: a copy or an unpickled plan builds its own table
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _waves(self) -> np.ndarray:
        """Per-site displacement waveforms in units of sigma, shape (samples, sites).

        The sines are computed sites-major, a row of samples per site, and
        stored as their C-ordered (samples, sites) transpose, the same bits.
        """
        n = self.samples
        deltas = np.array([sm.delta for sm in self.sites], dtype=float)
        bins = np.array([sm.bin for sm in self.sites], dtype=float)
        k = np.arange(n, dtype=float)
        waves = deltas[:, None] * np.sin(2.0 * np.pi * bins[:, None] * k / n)  # (sites, samples)
        waves = np.ascontiguousarray(waves.T)
        waves.flags.writeable = False
        return waves


def default_plan(delta: float = 0.01, samples: int = DEFAULT_SAMPLES) -> ModulationPlan:
    """Equal-depth probes on the five standard sites at spread-out bins."""
    return ModulationPlan(
        sites=tuple(SiteModulation(s, delta, b) for s, b in DEFAULT_SITE_BINS),
        samples=samples,
    )


def plan_from_network(net: Network | NetworkSection, samples: int = DEFAULT_SAMPLES) -> ModulationPlan:
    """Collect per-arm modulations declared on the network into a plan.

    Only ``net.arms`` is read, so a built ``Network`` and a parsed
    ``scenario.NetworkSection`` both serve.  Every modulated arm must carry
    a site label, since the plan (and the spectral report) addresses probes
    by site.
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

    At sample k, every route through the probed sites S accumulates the
    displacement D_S(k) = sum over S of delta * sigma * sin(2 pi b k / N).
    The displacement depends on the route only through S, its signature,
    so the routes are summed into one amplitude per signature class by a
    single forward pass (``pathsum._forward`` over the plan's sites), and
    no route is ever enumerated.  The pass keys each class by the mask of
    its sites, bit i for ``plan.sites[i]``, and the masks' bits, unpacked
    in numpy for any number of sites, are the membership matrix that sums
    the site waveforms into class displacements.  A plan site that no arm
    carries raises UnknownLabelError, for the first such site.
    ``weakval.post_selected_mean`` of the K classes gives the reading,
    exact in the depths up to a series remainder below 1e-18, at a cost of
    O(N K M) from M + 1 amplitude moments per sample while the
    displacements stay within twice the width and K > M + 2, else
    O(N K^2) from the class pairs.  TooManyRoutesError is raised
    before any samples-sized array exists when N K passes
    ``MAX_READOUT_CELLS``, or the kernel's work passes ``MAX_READOUT_WORK``
    (the work is charged from the plan, whose summed depths bound every
    displacement), or N times the plan's S probed sites, the size of its
    waveform table, passes ``MAX_READOUT_CELLS``.

    Returns
    -------
    (xbar, rate) : two float arrays of length plan.samples
        ``rate`` is normalized to the unblocked static click probability
        scale, i.e. it equals |total amplitude|^2 when all depths vanish.
    """
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise ValueError(f"pointer width must be positive, got {sigma!r}")
    target = resolve_detector(net, detector)
    in_amp, _ = pathsum._forward(net, [sm.site for sm in plan.sites])
    classes = in_amp.get((target, 0), {})
    if not classes:
        raise DegeneratePointerError(f"no paths reach detector {target!r}")
    n, k = plan.samples, len(classes)
    # every displacement is a sum of depths times sines, so the sum of the
    # depths bounds it; the margin covers the rounding of up to one term per site
    deltas = [sm.delta for sm in plan.sites]
    reach = math.fsum(deltas) * (1.0 + len(deltas) * 2.0**-52)
    work = readout_work(n, k, reach)
    if n * k > MAX_READOUT_CELLS or work > MAX_READOUT_WORK:
        raise TooManyRoutesError(
            f"{k} signature classes at {n} samples exceed the readout bounds of "
            f"{MAX_READOUT_CELLS} samples x classes and {MAX_READOUT_WORK} units "
            f"of kernel work (here {work})"
        )
    if n * len(deltas) > MAX_READOUT_CELLS:
        raise TooManyRoutesError(
            f"{len(deltas)} probed sites at {n} samples exceed the readout bound of "
            f"{MAX_READOUT_CELLS} samples x sites"
        )

    # bit i of each mask, from its little-endian bytes: (classes, sites)
    width = (len(deltas) + 7) // 8
    masks = b"".join(sig.to_bytes(width, "little") for sig in classes)
    bits = np.frombuffer(masks, dtype=np.uint8).reshape(k, width)
    member = np.unpackbits(bits, axis=1, count=len(deltas), bitorder="little").astype(float)
    xbar, rate = post_selected_mean(list(classes.values()), plan._waves @ member.T)
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
        if self.seed < 0:
            raise ValueError(f"noise seed {self.seed!r} is negative")


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

    # the interior bins below Nyquist that no probe drives
    half = plan.samples // 2
    off = np.ones(half, dtype=bool)
    off[0] = False
    off[[sm.bin for sm in plan.sites]] = False
    median = float(np.median(power[:half][off])) if off.any() else 0.0
    floor = max(NOISE_FLOOR_FACTOR * median, ABSENT_POWER_TOL)

    powers = power[[sm.bin for sm in plan.sites]].tolist()
    peaks = tuple(
        SitePeak(site=sm.site, bin=sm.bin, power=p, classification=_classify(p, floor))
        for sm, p in zip(plan.sites, powers)
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
    """One arm-blocking counterfactual and its spectral outcome.

    A configuration whose readout is degenerate has no report and no
    static probability; ``error`` holds the readout's message instead.
    """

    name: str
    blocked_site: str | None
    static_probability: float | None
    report: SpectralReport | None
    error: str | None = None


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

    Each configuration is one ``run_spectral_experiment`` call with the
    given plan, so every readout reads the plan's one waveform table.
    Each configuration records the static click probability alongside the
    spectral report, so presence of peaks can be compared against how
    little the overall rate moved.  A blocked configuration whose readout
    is degenerate keeps its place in the suite with the error's message;
    a degenerate baseline raises DegeneratePointerError naming it.
    """
    target = resolve_detector(net, detector)
    configs = []
    variants = [("baseline", None)] + [(f"block_{s}", s) for s in block_sites]
    for name, site in variants:
        net_c = apply_block(net, site) if site is not None else net
        try:
            report = run_spectral_experiment(net_c, plan, sigma, detector=target)
        except DegeneratePointerError as exc:
            if site is None:
                raise DegeneratePointerError(f"configuration {name!r}: {exc}") from exc
            configs.append(
                BlockingConfig(name, site, static_probability=None, report=None, error=str(exc))
            )
            continue
        configs.append(
            BlockingConfig(
                name=name,
                blocked_site=site,
                # sample 0 displaces no class, so its rate is |sum of classes|^2
                static_probability=float(report.rate[0]),
                report=report,
            )
        )
    return BlockingSuite(configs=tuple(configs))

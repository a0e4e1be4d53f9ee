"""Weak values from two states, and the Gaussian pointer.

With A1 the summed amplitude of the routes to a detector through a site
and A0 that of the rest, the weak value of the projector onto the site is
A1 / (A0 + A1).  ``weak_values`` takes A1 at every site from one forward
and one backward sweep of ``pathsum``: the amplitude the source sends
into the site's arm, times the arm's factor, times the amplitude the
arm's end sends on to the detector.  The total is the backward amplitude
at the source.  That is the two-state weak value <phi|P|psi> / <phi|psi>;
summed route by route, it is the relative amplitude of the routes through
the site.  ``amplitude_split`` gives (total - A1, A1); an A0 found by
subtraction carries the rounding of the total.  Relative amplitudes of
single routes, A_i / sum_j A_j, serve the per-route table of ``weak``.

A Gaussian pointer of width sigma, displaced by its own amount on each
class of routes, reads the post-selected mean that ``post_selected_mean``
computes exactly, not to first order in the coupling: from the pair
overlaps of the displaced copies, or, for many classes displaced by less
than twice the width, from the power series of those overlaps in the
displacements, summed until its remainder is below 1e-18.  Term m of the
series is the m-th order of the weak expansion, and its first term is
the first-order weak-value reading.  ``pointer_shift_exact`` is its
two-class case, (A0, A1) displaced by 0 and g; the spectral readout is
its K-class case, one reading per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pathsum
from .errors import DegeneratePointerError, VanishingTotalError
from .netgraph import Network
from .pathsum import PathEnsemble

VANISHING_TOTAL_TOL = 1e-14
# smallest post-selected rate (pointer norm) that still defines a mean
# reading, checked in post_selected_mean alone
DEGENERATE_NORM_TOL = 1e-14
# post_selected_mean sums its moment series while t = max|d|^2 / 4 stays
# at or below this: every g_i is at least e^-1/2, the series needs at most
# 21 terms, and at K > M + 2 it costs less than the K^2 pair overlaps
SERIES_MAX_T = 1.0
# bound on the remainder of the truncated series, relative to its scale
SERIES_TOL = 1e-18


def _require_total(total: complex) -> None:
    if abs(total) <= VANISHING_TOTAL_TOL:
        raise VanishingTotalError(
            f"summed detection amplitude |{total:.3e}| is below "
            f"{VANISHING_TOTAL_TOL:g}; relative amplitudes are undefined"
        )


def relative_amplitudes(ens: PathEnsemble) -> np.ndarray:
    """Path amplitudes normalized by their sum, in path order.

    Raises VanishingTotalError when the paths interfere to (numerically)
    nothing at the detector, making the normalization meaningless.
    """
    total = ens.total
    _require_total(total)
    return np.array([p.amplitude / total for p in ens.paths], dtype=complex)


def _two_state(net: Network, sites=None, detector: str | None = None):
    """(total, states) from one forward and one backward sweep.

    ``states`` maps each site to its "forward" amplitude, the one the
    source sends into the site's arm, its "backward" amplitude, the one the
    arm's end sends on to the detector, and "through", their product with
    the arm's factor: A1, the summed amplitude of the routes through the
    site.  ``total`` is the backward amplitude at the source, the summed
    amplitude of every route.  ``sites`` defaults to every labeled site in
    the network, sorted.  Raises UnknownLabelError for an unknown site or
    detector before either sweep.
    """
    target = pathsum.resolve_detector(net, detector)
    if sites is None:
        sites = sorted(net.site_labels())
    arms = {site: net.labeled_arm(site) for site in sites}
    _, arm_in = pathsum._sweep_forward(net)
    bwd = pathsum._sweep_backward(net, target)
    states = {}
    for site, arm in arms.items():
        forward = arm_in[arm.id]
        backward = bwd.get((arm.to_node, arm.to_port), 0j)
        through = forward * arm.factor() * backward
        states[site] = {"forward": forward, "backward": backward, "through": through}
    return bwd[(net.source, 0)], states


def amplitude_split(net: Network, site: str, detector: str | None = None):
    """(A0, A1): summed amplitudes of the routes to a detector that bypass
    and that pass ``site``, in the two-state form (total - A1, A1).

    A0 by subtraction carries the rounding of the total, so its relative
    accuracy falls where |A0| is far below |A1|.  Raises UnknownLabelError
    for an unknown site or detector.
    """
    total, states = _two_state(net, [site], detector)
    a1 = states[site]["through"]
    return total - a1, a1


def projector_weak_value(amps: tuple[complex, complex]) -> complex:
    """Weak value A1 / (A0 + A1) of the projector onto a site's routes.

    Raises VanishingTotalError when A0 + A1 (numerically) vanishes.
    """
    a0, a1 = amps
    total = a0 + a1
    _require_total(total)
    return complex(a1 / total)


def weak_values(
    net: Network, sites=None, detector: str | None = None, states: dict | None = None
) -> dict[str, complex]:
    """Projector weak values A1 / total at one detector, every site from one
    forward and one backward sweep.

    ``sites`` defaults to every labeled site in the network, sorted.  Every
    site is checked before any weak value is formed, so an unknown site
    raises UnknownLabelError even when the total vanishes; a vanishing
    total raises VanishingTotalError when any site is asked for.  A dict
    passed as ``states`` receives the two states behind each weak value,
    {site: {"forward", "backward", "through"}}, as ``weak`` reports them.
    """
    total, found = _two_state(net, sites, detector)
    if states is not None:
        states.update(found)
    if found:
        _require_total(total)
    return {site: state["through"] / total for site, state in found.items()}


def weak_observable(alphas, eigenvalues) -> complex:
    """Mean weak reading of a path-diagonal observable.

    Both arguments are sequences over paths, in path order; the result is
    sum_i B_i alpha_i.  Linear in the eigenvalues by construction.
    """
    alphas = np.asarray(alphas, dtype=complex)
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    if alphas.shape != eigenvalues.shape:
        raise ValueError("alphas and eigenvalues must have matching shapes")
    return complex(np.sum(eigenvalues * alphas))


@dataclass(frozen=True)
class PointerModel:
    """A Gaussian meter coupled to one site.

    Attributes
    ----------
    site : str
        Label of the probed arm.
    sigma : float
        Pointer width; must be positive.
    coupling : float
        Displacement g imprinted on paths through the site; g / sigma
        must be finite.
    """

    site: str
    sigma: float
    coupling: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"pointer width must be positive, got {self.sigma!r}")
        if not math.isfinite(self.coupling / self.sigma):
            raise ValueError(
                f"pointer coupling / width must be finite, got {self.coupling!r} / {self.sigma!r}"
            )


def pointer_profile(x, sigma: float):
    """Normalized Gaussian amplitude profile of width ``sigma``.

    The squared profile integrates to one.
    """
    x = np.asarray(x, dtype=float)
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    return norm * np.exp(-(x**2) / (4.0 * sigma**2))


def _pair_sums(amps: np.ndarray, disp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and rate of ``post_selected_mean`` from the K^2 pair overlaps.

    The sums run over sample-major chunks: each chunk's displacements are
    copied to (K, s), its overlaps form a (K, K, s) block, and the sums over
    j, then over i, go in index order, a whole row of s samples at a time.
    For K <= 7 the bits, signs of zero included, equal those of the
    (s, K, K) form that sums each reading's K^2 terms; from K = 8 numpy
    sums those terms pairwise, so the two differ in the last bits.
    """
    weights = np.real(np.outer(amps, amps.conj()))[:, :, None]  # symmetric, (K, K, 1)
    num, rate = np.empty((2, disp.shape[0]))
    # chunks of about 512 kB of pair overlaps, which stay in cache
    step = max(1, 65536 // amps.size**2)
    for lo in range(0, disp.shape[0], step):
        d = disp[lo : lo + step].T.copy()  # (K, s), one chunk at a time
        ov = d[:, None, :] - d[None, :, :]
        ov *= ov
        ov *= -0.125
        np.exp(ov, out=ov)
        ov *= weights
        rows = ov.sum(axis=1)  # r_i per reading, (K, s)
        rows.sum(axis=0, out=rate[lo : lo + step])
        rows *= d
        rows.sum(axis=0, out=num[lo : lo + step])
    return num, rate


def _series_order(t: float) -> int:
    """First M with t^M / M! * e^t <= SERIES_TOL.

    With |d_i d_j| / 4 <= t, that bounds the remainder of the series of
    exp(d_i d_j / 4) after its terms m < M.
    """
    term, order = math.exp(t), 0
    while term > SERIES_TOL:
        order += 1
        term *= t / order
    return order


def _series_terms(t: float, classes: int) -> int | None:
    """The order M of the moment series that ``post_selected_mean`` sums for
    ``classes`` amplitudes at t = max|d|^2 / 4, or None when it sums the
    pair overlaps instead."""
    if t > SERIES_MAX_T:
        return None
    order = _series_order(t)
    return order if classes > order + 2 else None


def readout_work(samples: int, classes: int, reach: float) -> int:
    """The work of ``post_selected_mean`` on ``classes`` amplitudes and
    ``samples`` readings whose displacements stay within ``reach`` (in
    units of sigma): samples x classes x (M + 1) moment terms when the
    series runs, samples x classes^2 pair overlaps otherwise.

    The kernel is chosen as ``post_selected_mean`` chooses it, from
    t = reach^2 / 4.  A reach at or above the largest displacement
    charges at least the work of the kernel that runs: the series order
    grows with t, and at K > M + 2 the series costs less than the pairs.
    """
    order = _series_terms(reach * reach / 4.0, classes)
    return samples * classes * (classes if order is None else order + 1)


def _moment_sums(amps: np.ndarray, disp: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and rate of ``post_selected_mean`` from the amplitude moments
    S_m = sum_i A_i g_i d_i^m, m <= order, of each reading."""
    parts = amps.view(float).reshape(-1, 2)  # (K, 2): Re, Im
    coef = np.array([1.0 / (4.0**m * math.factorial(m)) for m in range(order)])
    num, rate = np.empty((2, disp.shape[0]))
    # chunks of about 256 kB of (step, K) moment terms, which stay in cache
    step = max(1, 32768 // amps.size)
    moments = np.empty((order + 1, min(step, disp.shape[0]), 2))  # (Re, Im) S_m
    for lo in range(0, disp.shape[0], step):
        d = disp[lo : lo + step]
        s = moments[:, : d.shape[0]]
        term = d * d
        term *= -0.125
        np.exp(term, out=term)  # g_i d_i^0
        np.matmul(term, parts, out=s[0])
        for m in range(1, order + 1):
            term *= d
            np.matmul(term, parts, out=s[m])
        rate[lo : lo + step] = np.einsum("m,mkc,mkc->k", coef, s[:-1], s[:-1])
        num[lo : lo + step] = np.einsum("m,mkc,mkc->k", coef, s[1:], s[:-1])
    return num, rate


def post_selected_mean(amps, disp) -> tuple[np.ndarray, np.ndarray]:
    """Exact post-selected mean pointer reading and rate of displaced copies.

    ``amps`` holds the summed amplitudes A_i of K route classes and ``disp``
    their displacements d_i in units of sigma, an (n, K) array with one row
    per reading; the pointer ends in sum_i A_i G(x - d_i sigma).  With
    weights w_ij = Re(A_i conj A_j) and overlaps ov_ij = exp(-(d_i - d_j)^2 / 8)
    of the copies, the rate (post-selected norm) is sum_ij w_ij ov_ij and the
    mean, a pair sum over the midpoints (d_i + d_j) / 2, is
    sum_ij w_ij ov_ij d_i / rate.

    Two kernels evaluate these sums.  With g_i = exp(-d_i^2 / 8),
    ov_ij = g_i g_j exp(d_i d_j / 4), and the power series of the last
    factor splits the pair sums into moments S_m = sum_i A_i g_i d_i^m:
    with c_m = 1 / (4^m m!), the rate is sum_m c_m |S_m|^2 and the
    numerator sum_m c_m Re(S_{m+1} conj S_m).  Moment m is the m-th order
    of the weak expansion, and m <= 1 is the first-order weak-value
    reading.  With t = max|d|^2 / 4, the series stops at the first M with
    t^M / M! * e^t <= SERIES_TOL, which bounds the remainder, at a cost of
    O(n K M).  It runs when t <= SERIES_MAX_T and K > M + 2; otherwise the
    K^2 pair overlaps are summed directly, at a cost of O(n K^2), over
    sample-major chunks whose bits equal those of the (n, K, K) form of
    the overlaps for K <= 7.

    Returns (mean, rate), arrays of length n, the mean in units of sigma.
    Raises DegeneratePointerError when a rate is below DEGENERATE_NORM_TOL,
    naming the reading (row of ``disp``) with the smallest rate.
    """
    amps = np.ascontiguousarray(amps, dtype=complex)  # the series views it as (K, 2) floats
    reach = max(float(np.max(disp)), -float(np.min(disp)))
    order = _series_terms(reach * reach / 4.0, amps.size)
    # a separation far beyond the width squares to inf, and exp(-inf) = 0
    with np.errstate(over="ignore"):
        if order is not None:
            mean, rate = _moment_sums(amps, disp, order)
        else:
            mean, rate = _pair_sums(amps, disp)
    low = int(np.argmin(rate))
    if rate[low] < DEGENERATE_NORM_TOL:
        raise DegeneratePointerError(
            f"post-selected rate dips to {rate[low]:.3e} at reading {low}, below "
            f"{DEGENERATE_NORM_TOL:g}; pointer mean is undefined there"
        )
    mean /= rate
    return mean, rate


def pointer_shift_exact(amps: tuple[complex, complex], model: PointerModel) -> float:
    """Exact post-selected mean pointer displacement at the model's site.

    ``amps`` is (A0, A1) as ``amplitude_split`` returns it; the routes
    through the site move the pointer by g and the rest leave it: the
    two-class, one-reading case of ``post_selected_mean``, whose
    DegeneratePointerError names the model's site and coupling.
    """
    try:
        mean, _ = post_selected_mean(amps, np.array([[0.0, model.coupling / model.sigma]]))
    except DegeneratePointerError as exc:
        raise DegeneratePointerError(
            f"pointer at site {model.site!r} with coupling {model.coupling!r}: {exc}"
        ) from None
    return float(mean[0]) * model.sigma

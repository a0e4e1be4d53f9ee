"""Weak values from summed amplitudes, and the Gaussian pointer.

With A1 the summed amplitude of the routes to a detector through a site
and A0 that of the rest, both from one forward pass, the weak value of
the projector onto the site is A1 / (A0 + A1).  Relative amplitudes of
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

from .errors import DegeneratePointerError, VanishingTotalError
from .netgraph import Network
from .pathsum import PathEnsemble, signature_amplitudes

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


def amplitude_split(net: Network, site: str, detector: str | None = None):
    """(A0, A1): summed amplitudes of the routes to a detector that bypass
    and that pass ``site``, from one forward pass probing only that site.

    Raises UnknownLabelError for an unknown site or detector.
    """
    classes = signature_amplitudes(net, [site], detector)
    return classes.get((), 0j), classes.get((site,), 0j)


def projector_weak_value(amps: tuple[complex, complex]) -> complex:
    """Weak value A1 / (A0 + A1) of the projector onto a site's routes.

    Raises VanishingTotalError when A0 + A1 (numerically) vanishes.
    """
    a0, a1 = amps
    total = a0 + a1
    _require_total(total)
    return complex(a1 / total)


def weak_values(net: Network, sites=None, detector: str | None = None) -> dict[str, complex]:
    """Projector weak values at one detector, one one-site pass per site.

    ``sites`` defaults to every labeled site in the network, sorted.  Every
    site is checked before any weak value is formed, so an unknown site
    raises UnknownLabelError even when the total vanishes.
    """
    if sites is None:
        sites = sorted(net.site_labels())
    amps = {site: amplitude_split(net, site, detector) for site in sites}
    return {site: projector_weak_value(pair) for site, pair in amps.items()}


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
    """Numerator and rate of ``post_selected_mean`` from the K^2 pair overlaps."""
    weights = np.real(np.outer(amps, amps.conj()))  # symmetric, (K, K)
    num, rate = np.empty((2, disp.shape[0]))
    # chunks of about 512 kB of pair overlaps, which stay in cache
    step = max(1, 65536 // amps.size**2)
    for lo in range(0, disp.shape[0], step):
        d = disp[lo : lo + step]
        ov = d[:, :, None] - d[:, None, :]
        ov *= ov
        ov *= -0.125
        np.exp(ov, out=ov)
        rows = np.einsum("kij,ij->ki", ov, weights)  # r_i per reading, (step, K)
        rate[lo : lo + step] = rows.sum(axis=1)
        num[lo : lo + step] = (d * rows).sum(axis=1)
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


def _moment_sums(amps: np.ndarray, disp: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and rate of ``post_selected_mean`` from the amplitude moments
    S_m = sum_i A_i g_i d_i^m, m <= order, of each reading."""
    parts = np.stack([amps.real, amps.imag], axis=1)  # (K, 2)
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
    K^2 pair overlaps are summed directly, at a cost of O(n K^2).

    Returns (mean, rate), arrays of length n, the mean in units of sigma.
    Raises DegeneratePointerError when a rate is below DEGENERATE_NORM_TOL.
    """
    amps = np.asarray(amps, dtype=complex)
    reach = max(float(np.max(disp)), -float(np.min(disp)))
    t = reach * reach / 4.0
    order = _series_order(t) if t <= SERIES_MAX_T else None
    # a separation far beyond the width squares to inf, and exp(-inf) = 0
    with np.errstate(over="ignore"):
        if order is not None and amps.size > order + 2:
            mean, rate = _moment_sums(amps, disp, order)
        else:
            mean, rate = _pair_sums(amps, disp)
    if float(np.min(rate)) < DEGENERATE_NORM_TOL:
        raise DegeneratePointerError(
            f"post-selected rate dips to {np.min(rate):.3e}, below "
            f"{DEGENERATE_NORM_TOL:g}; pointer mean is undefined there"
        )
    mean /= rate
    return mean, rate


def pointer_shift_exact(amps: tuple[complex, complex], model: PointerModel) -> float:
    """Exact post-selected mean pointer displacement at the model's site.

    ``amps`` is (A0, A1) as ``amplitude_split`` returns it; the routes
    through the site move the pointer by g and the rest leave it: the
    two-class, one-reading case of ``post_selected_mean``.
    """
    mean, _ = post_selected_mean(amps, np.array([[0.0, model.coupling / model.sigma]]))
    return float(mean[0]) * model.sigma

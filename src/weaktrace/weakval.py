"""Relative amplitudes, projector weak values, and the Gaussian pointer.

Given the path ensemble reaching a detector, each path i contributes a
relative amplitude alpha_i = A_i / sum_j A_j.  The weak value of the
projector onto a site is the sum of alpha_i over paths through that site,
and the mean reading of any site-diagonal probe is the corresponding
alpha-weighted sum of its eigenvalues.

The pointer model treats one site's probe exactly, with no weak-coupling
expansion: a Gaussian profile of width sigma is displaced by g on the
paths through the site, and the post-selected mean displacement follows
from two Gaussian overlap integrals in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointerError, VanishingTotalError
from .pathsum import PathEnsemble

VANISHING_TOTAL_TOL = 1e-14
# smallest post-selected pointer norm (or spectral detection rate) that
# still defines a mean reading
DEGENERATE_NORM_TOL = 1e-14


def relative_amplitudes(ens: PathEnsemble) -> np.ndarray:
    """Path amplitudes normalized by their sum, in path order.

    Raises VanishingTotalError when the paths interfere to (numerically)
    nothing at the detector, making the normalization meaningless.
    """
    total = ens.total
    if abs(total) <= VANISHING_TOTAL_TOL:
        raise VanishingTotalError(
            f"summed detection amplitude |{total:.3e}| is below "
            f"{VANISHING_TOTAL_TOL:g}; relative amplitudes are undefined"
        )
    return np.array([p.amplitude / total for p in ens.paths], dtype=complex)


def projector_weak_value(ens: PathEnsemble, site: str) -> complex:
    """Weak value of the projector onto the routes through ``site``."""
    return weak_values(ens, [site])[site]


def weak_values(ens: PathEnsemble, sites=None) -> dict[str, complex]:
    """Projector weak values for several sites at once.

    ``sites`` defaults to every labeled site in the network, sorted.  The
    relative amplitudes are computed once and shared by all sites.
    """
    if sites is None:
        sites = sorted(ens.known_sites)
    ens.require_sites(sites)
    alphas = relative_amplitudes(ens)
    return {
        site: complex(sum(a for a, p in zip(alphas, ens.paths) if site in p.sites))
        for site in sites
    }


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
        Displacement g imprinted on paths through the site.
    """

    site: str
    sigma: float
    coupling: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"pointer width must be positive, got {self.sigma!r}")
        if not math.isfinite(self.coupling):
            raise ValueError("pointer coupling must be finite")


def pointer_profile(x, sigma: float):
    """Normalized Gaussian amplitude profile of width ``sigma``.

    The squared profile integrates to one.
    """
    x = np.asarray(x, dtype=float)
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    return norm * np.exp(-(x**2) / (4.0 * sigma**2))


def pointer_shift_exact(ens: PathEnsemble, model: PointerModel) -> float:
    """Exact post-selected mean pointer displacement.

    Paths through the model's site displace the pointer by g, the rest
    leave it centered.  With A1 the summed amplitude through the site and
    A0 the rest, the final pointer state is A0 G(x) + A1 G(x - g) up to
    normalization, and the mean of x follows from the Gaussian overlap
    exp(-g^2 / (8 sigma^2)) with no small-g approximation.

    Raises DegeneratePointerError when the post-selected norm vanishes.
    """
    a1 = ens.site_amplitude(model.site)
    a0 = ens.total - a1
    g = model.coupling
    # the overlap depends only on g / sigma; r * r overflows to inf, not an error
    r = g / model.sigma
    ov = math.exp(-(r * r) / 8.0)
    cross = (a0.conjugate() * a1).real
    norm = abs(a0) ** 2 + abs(a1) ** 2 + 2.0 * cross * ov
    if norm < DEGENERATE_NORM_TOL:
        raise DegeneratePointerError(
            f"post-selected pointer norm {norm:.3e} below "
            f"{DEGENERATE_NORM_TOL:g} for site {model.site!r}"
        )
    mean = (abs(a1) ** 2) * g + 2.0 * cross * (g / 2.0) * ov
    return mean / norm


def pointer_shift_weak(ens: PathEnsemble, model: PointerModel) -> float:
    """First-order prediction g * Re(weak value) for comparison."""
    return model.coupling * projector_weak_value(ens, model.site).real

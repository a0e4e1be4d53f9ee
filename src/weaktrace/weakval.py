"""Weak values from summed amplitudes, and the Gaussian pointer.

With A1 the summed amplitude of the routes to a detector through a site
and A0 that of the rest, both from one forward pass, the weak value of
the projector onto the site is A1 / (A0 + A1).  Relative amplitudes of
single routes, A_i / sum_j A_j, serve the per-route table of ``weak``.

The pointer model treats one site's probe exactly, with no weak-coupling
expansion: a Gaussian profile of width sigma is displaced by g on the
routes through the site, and the post-selected mean displacement follows
from (A0, A1) in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointerError, VanishingTotalError
from .netgraph import Network
from .pathsum import PathEnsemble, signature_amplitudes

VANISHING_TOTAL_TOL = 1e-14
# smallest post-selected pointer norm (or spectral detection rate) that
# still defines a mean reading
DEGENERATE_NORM_TOL = 1e-14


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


def pointer_shift_exact(amps: tuple[complex, complex], model: PointerModel) -> float:
    """Exact post-selected mean pointer displacement.

    ``amps`` is (A0, A1) for the model's site, as ``amplitude_split``
    returns it.  Routes through the site displace the pointer by g, the
    rest leave it centered, so the final pointer state is
    A0 G(x) + A1 G(x - g) up to normalization, and the mean of x follows
    from the Gaussian overlap exp(-g^2 / (8 sigma^2)) with no small-g
    approximation.

    Raises DegeneratePointerError when the post-selected norm vanishes.
    """
    a0, a1 = amps
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

"""Low-finesse optical resonator design math.

Covers the figures of merit for a resonator built around an atomic ensemble,
described only by its round trip: the outcoupler transmission ``T``, the
residual loss ``L`` and the length.  From these follow the finesse, free
spectral range and linewidth, the escape probability of an intracavity
photon, the emission enhancement into the resonant mode, and the spectral
overlap of a finite-bandwidth pulse with the resonance.

The optimal outcoupler and the overlap integral come from
``muxmem._numerics``: Brent's bounded minimizer with scipy's bits, and an
adaptive quadrature whose first pass is QUADPACK's ``dqagpe`` with
``scipy.integrate.quad``'s bits, bisecting beyond it without extrapolation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Speed of light in vacuum, m/s (exact in the SI).
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class CavityParams:
    """Outcoupler transmission, residual round-trip loss, round-trip length (m)."""

    transmission: float
    loss: float
    roundtrip_length: float = 0.877

    def __post_init__(self):
        if not 0.0 < self.transmission < 1.0:
            raise ValueError(f"transmission must lie in (0, 1), got {self.transmission}")
        if not 0.0 < self.loss < 1.0:
            raise ValueError(f"loss must lie in (0, 1), got {self.loss}")
        if not self.roundtrip_length > 0.0:
            raise ValueError(f"roundtrip_length must be positive, got {self.roundtrip_length}")


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian pulse described by its intensity FWHM in seconds."""

    duration_fwhm: float

    def __post_init__(self):
        if not self.duration_fwhm > 0.0:
            raise ValueError(f"duration_fwhm must be positive, got {self.duration_fwhm}")

    @property
    def spectral_fwhm(self) -> float:
        """Power-spectrum FWHM in Hz, 2 ln2 / (pi * duration_fwhm)."""
        return 2.0 * math.log(2.0) / (math.pi * self.duration_fwhm)


def finesse(cav: CavityParams) -> float:
    """Finesse of a resonator with outcoupler transmission T and round-trip loss L.

        F = pi * ((1 - T)(1 - L))^(1/4) / (1 - ((1 - T)(1 - L))^(1/2))
    """
    return _figures(cav.transmission, cav.loss)[0]


def escape_efficiency(cav: CavityParams) -> float:
    """Probability that an intracavity photon leaves through the outcoupler, T / (T + L)."""
    return _figures(cav.transmission, cav.loss)[1]


def enhancement_factor(cav: CavityParams) -> float:
    """Emission enhancement into the resonant mode, 2 F / pi."""
    return enhancement_from_finesse(finesse(cav))


def enhancement_from_finesse(f: float) -> float:
    """Emission enhancement 2 F / pi for a given (possibly measured) finesse."""
    if not f > 0.0:
        raise ValueError("finesse must be positive")
    return 2.0 * f / math.pi


def rate_gain(cav: CavityParams) -> float:
    """Usable rate gain over free space: enhancement times escape efficiency.

    (2 F / pi) * T / (T + L).  Larger T widens the line (lower enhancement)
    but wins more of the intracavity light, so the product has an interior
    optimum near T = L.
    """
    return _figures(cav.transmission, cav.loss)[2]


def _figures(transmission: float, loss: float) -> tuple[float, float, float]:
    """Finesse, escape efficiency and rate gain from T and L, each computed once.

    The one implementation of the three, and a scan row of ``cavity-design``,
    which builds no ``CavityParams`` per row.
    """
    x = (1.0 - transmission) * (1.0 - loss)
    f = math.pi * x ** 0.25 / (1.0 - math.sqrt(x))
    escape = transmission / (transmission + loss)
    return f, escape, enhancement_from_finesse(f) * escape


def optimal_outcoupler(loss: float) -> tuple[float, float]:
    """Outcoupler transmission maximizing :func:`rate_gain` at fixed loss.

    Returns (T_opt, gain_max), searched over 1e-4 <= T <= 0.9999 by Brent's
    bounded minimizer (Brent, *Algorithms for Minimization without
    Derivatives*, 1973) to an x tolerance of 1e-10, with the bits of
    ``scipy.optimize.minimize_scalar(method="bounded")``.  The loss is
    checked once, with CavityParams' message; each step evaluates
    ``_figures`` and builds no CavityParams.
    """
    from ._numerics import bounded_minimum

    CavityParams(1e-4, loss)
    t_opt, neg_max = bounded_minimum(lambda t: -_figures(t, loss)[2], 1e-4, 0.9999, 1e-10)
    return t_opt, -neg_max


def fsr(cav: CavityParams) -> float:
    """Free spectral range in Hz, c / roundtrip_length."""
    return SPEED_OF_LIGHT / cav.roundtrip_length


def linewidth(cav: CavityParams) -> float:
    """Resonance FWHM in Hz, FSR / finesse."""
    return fsr(cav) / finesse(cav)


def effective_enhancement(
    cav: CavityParams, pulse: PulseSpec, cavity_detuning: float = 0.0
) -> float:
    """Enhancement after averaging the pulse spectrum over the cavity line.

    The pulse's normalized Gaussian power spectrum (FWHM ``pulse.spectral_fwhm``,
    centred at zero) is integrated against the Lorentzian resonance shifted by
    ``cavity_detuning``; the overlap in [0, 1] scales :func:`enhancement_factor`.
    In the narrow-band limit (and |detuning| << FSR/2) this reduces to
    enhancement / (1 + (2 detuning / linewidth)^2).

    The integral is :func:`muxmem._numerics.qagp` at ``scipy.integrate.quad``'s
    settings (absolute tolerance 1.49e-8, relative 1e-8, at most 400
    intervals).  Its first pass is QUADPACK's ``dqagpe`` with ``quad``'s
    bits, and every overlap at the scenarios' default and golden configs
    stops there; beyond it, the interval of largest error is bisected
    without QUADPACK's extrapolation.
    If it does not converge, a ``UserWarning`` names why.  A pulse so long
    (beyond about 1.8e153 s) that the spectral variance 2 sigma^2 is not a
    normal double raises a ValueError naming ``duration_fwhm``.

    Scalars only: each detuning needs a quadrature of its own, so a scan
    makes one call per detuning.
    """
    if not math.isfinite(cavity_detuning):
        raise ValueError(f"cavity_detuning must be finite, got {cavity_detuning}")
    from ._numerics import qagp

    f = finesse(cav)
    gamma = fsr(cav) / f
    sigma = pulse.spectral_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    delta = cavity_detuning
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    two_var = 2.0 * sigma * sigma
    if two_var < sys.float_info.min:
        raise ValueError(f"duration_fwhm is too long for the overlap integral: "
                         f"the spectral variance underflows, got {pulse.duration_fwhm}")

    # Finite span with subdivision points at both peaks: an adaptive rule on
    # an infinite interval misses the Gaussian spike when it is orders
    # narrower than the Lorentzian (and vice versa).
    span = 10.0 * sigma + 4.0 * gamma + abs(delta)
    raw = (-8 * sigma, -4 * sigma, -sigma, 0.0, sigma, 4 * sigma, 8 * sigma,
           delta - gamma, delta, delta + gamma)
    points = sorted(p for p in set(raw) if -span < p < span)
    # 2 (nu - delta) / gamma rounds as (nu - delta) / (gamma / 2): both
    # divide exact values with the same quotient.
    coef = (norm, two_var, delta, gamma / 2.0)
    overlap = qagp(coef, -span, span, points, epsabs=1.49e-8, epsrel=1e-8, limit=400)
    return enhancement_from_finesse(f) * min(overlap, 1.0)

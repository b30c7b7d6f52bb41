"""Quantized phonons and the frozen density-contrast spectrum in quasi-2D.

The flat quartic case (D = N = 2) scales perfectly: expressed in co-moving
coordinates, background and fluctuations evolve identically before and during
the free expansion, so the relative density correlation spectrum measured
after the modes freeze equals the spectrum of the initially trapped cloud.
Everything here therefore quantizes the initial state: at scale factor b the
diluted cloud (mu -> mu/b^2, wavenumber -> kappa/b) gives, after the b^2
Fourier-measure factor, the same density_spectrum_2d at co-moving kappa.

Conventions. Spectra follow C(kappa) = integral d^D rho e^{i kappa rho}
<drho(0) drho(rho)> / rho0^2, with mode amplitudes per unit quantization
volume, so no volume factor survives in any reported spectrum. Interaction
inputs are SI; hbar conversions happen inside.

bogoliubov_frequency and density_spectrum_2d take a scalar or an array for
k or kappa (every element checked) and return a NumPy scalar or an array.
The module computes only; the run pipeline in scenarios writes the spectrum
to spectrum.csv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condensate import check_positive
from .constants import HBAR


def bogoliubov_frequency(k, mu: float, m: float):
    """Phonon dispersion omega^2 = mu k^2/m + hbar^2 k^4/(4 m^2), in rad/s.

    Linear (sound-like) below 1/xi, quadratic (free-particle) above; the
    quantum-pressure term is kept, so the curve is valid through k xi ~ 1.
    """
    check_positive(allow_zero=True, k=k)
    check_positive(mu=mu, m=m)
    return np.sqrt(mu * np.float_power(k, 2) / m
                   + HBAR**2 * np.float_power(k, 4) / (4.0 * m**2))


def density_spectrum_2d(kappa, g2d: float, mu: float, m: float):
    """Frozen relative density-contrast spectrum, units m^2.

    C(kappa) = g2d kappa / (mu sqrt(4 m mu / hbar^2 + kappa^2)), evaluated on
    the initial trapped state. Perfect scaling makes this the post-expansion
    spectrum at co-moving wavenumber kappa.
    """
    check_positive(allow_zero=True, kappa=kappa)
    check_positive(g2d=g2d, mu=mu, m=m)
    return g2d * kappa / (mu * np.sqrt(4.0 * m * mu / HBAR**2 + np.float_power(kappa, 2)))


def windowed_contrast(kappa: float, xi: float, g2d: float, mu: float,
                      m: float) -> float:
    """Dimensionless density contrast C(kappa)/xi^2 inside a patch of area xi^2.

    The real-space two-point function diverges logarithmically at small
    separations, so pointwise real-space values are never reported; this
    windowed ratio is the observable.
    """
    check_positive(xi=xi)
    return density_spectrum_2d(kappa, g2d, mu, m) / xi**2


@dataclass(frozen=True)
class Spectrum:
    """Frozen spectrum on a co-moving wavenumber grid."""
    kappa_grid: np.ndarray
    values: np.ndarray


def spectrum_2d_grid(kappa, g2d: float, mu: float, m: float) -> Spectrum:
    kappa = np.asarray(kappa, dtype=float)
    return Spectrum(kappa_grid=kappa, values=density_spectrum_2d(kappa, g2d, mu, m))

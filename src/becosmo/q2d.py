"""Quantized phonons and the frozen density-contrast spectrum in quasi-2D.

The flat quartic case (D = N = 2) scales perfectly: expressed in co-moving
coordinates, background and fluctuations evolve identically before and during
the free expansion, so the relative density correlation spectrum measured
after the modes freeze equals the spectrum of the initially trapped cloud.
Everything here therefore quantizes the initial state.

Conventions. Spectra follow C(kappa) = integral d^D rho e^{i kappa rho}
<drho(0) drho(rho)> / rho0^2. Mode amplitudes are stored per unit
quantization volume, so phase_amplitude * density_amplitude = 1/2 for every
mode (the canonical pairing) and no volume factor survives in any reported
spectrum. Interaction inputs are SI; hbar conversions happen inside.

bogoliubov_frequency, density_spectrum_2d and thermal_occupation take a
scalar or an array for k, kappa or temperature (every element checked) and
return a NumPy scalar or an array. The module computes only; the run
pipeline in scenarios writes the spectrum to spectrum.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B

# Occupation below which vacuum noise dominates a mode.
_QUANTUM_THRESHOLD = 0.01


def bogoliubov_frequency(k, mu: float, m: float):
    """Phonon dispersion omega^2 = mu k^2/m + hbar^2 k^4/(4 m^2), in rad/s.

    Linear (sound-like) below 1/xi, quadratic (free-particle) above; the
    quantum-pressure term is kept, so the curve is valid through k xi ~ 1.
    """
    if np.any(np.asarray(k) < 0.0):
        raise ValueError("k must be non-negative")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return np.sqrt(mu * np.float_power(k, 2) / m
                   + HBAR**2 * np.float_power(k, 4) / (4.0 * m**2))


@dataclass(frozen=True)
class BogoliubovMode:
    """One quantized phonon mode of the trapped cloud (per unit volume)."""
    wavenumber: float
    frequency: float
    phase_amplitude: float      # prefactor of (a + a^dag) in the phase mode
    density_amplitude: float    # prefactor of i(a - a^dag) in the density mode
    quantization: str = "per unit volume"


def bogoliubov_mode(k: float, mu: float, m: float, rho0: float,
                    g2d: float) -> BogoliubovMode:
    """Diagonalize one k-mode of the trapped condensate.

    Uses natural units internally (g -> g/hbar, m -> m/hbar); the stiffness
    g + k^2/(4 m rho0) and the frequency then give the canonical pair of
    amplitudes with product exactly 1/2.
    """
    omega = bogoliubov_frequency(k, mu, m)
    g_nat = g2d / HBAR
    m_nat = m / HBAR
    stiffness = g_nat + k**2 / (4.0 * m_nat * rho0)
    return BogoliubovMode(
        wavenumber=k,
        frequency=omega,
        phase_amplitude=math.sqrt(stiffness / (2.0 * omega)),
        density_amplitude=math.sqrt(omega / (2.0 * stiffness)),
    )


def density_spectrum_2d(kappa, g2d: float, mu: float, m: float):
    """Frozen relative density-contrast spectrum, units m^2.

    C(kappa) = g2d kappa / (mu sqrt(4 m mu / hbar^2 + kappa^2)), evaluated on
    the initial trapped state. Perfect scaling makes this the post-expansion
    spectrum at co-moving wavenumber kappa.
    """
    if np.any(np.asarray(kappa) < 0.0):
        raise ValueError("kappa must be non-negative")
    return g2d * kappa / (mu * np.sqrt(4.0 * m * mu / HBAR**2 + np.float_power(kappa, 2)))


def comoving_spectrum_during_expansion(kappa: float, b: float, g2d: float,
                                       mu: float, m: float) -> float:
    """Co-moving spectrum at scale factor b: laboratory spectrum of the
    diluted cloud (mu -> mu/b^2, wavenumber -> kappa/b) divided by the b^2
    Fourier-measure factor. Equal to the initial spectrum for every b."""
    if b <= 0.0:
        raise ValueError("scale factor must be positive")
    return density_spectrum_2d(kappa / b, g2d, mu / b**2, m) / b**2


def subtracted_spectrum_2d(kappa: float, g2d: float, mu: float, m: float) -> float:
    """Spectrum minus its local (contact) part g2d/mu.

    Negative definite, approaching -2 g2d m / (hbar kappa)^2 ... i.e. the
    magnitude falls off as 1/kappa^2 at large kappa.
    """
    return density_spectrum_2d(kappa, g2d, mu, m) - g2d / mu


def windowed_contrast(kappa: float, xi: float, g2d: float, mu: float,
                      m: float) -> float:
    """Dimensionless density contrast C(kappa)/xi^2 inside a patch of area xi^2.

    The real-space two-point function diverges logarithmically at small
    separations, so pointwise real-space values are never reported; this
    windowed ratio is the observable.
    """
    return density_spectrum_2d(kappa, g2d, mu, m) / xi**2


@dataclass(frozen=True)
class ThermalOccupation:
    occupation: float | np.ndarray
    quantum_dominated: bool | np.ndarray


def thermal_occupation(k: float, temperature, mu: float, m: float) -> ThermalOccupation:
    """Bose-Einstein occupation of mode k and whether vacuum noise dominates
    (occupation below 0.01)."""
    temperature = np.asarray(temperature, dtype=float)
    if np.any(temperature < 0.0):
        raise ValueError("temperature must be non-negative")
    omega = bogoliubov_frequency(k, mu, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = HBAR * omega / (K_B * temperature)
        # T = 0 and x > 700 (where exp would overflow) both leave n = 0
        n = np.where((temperature == 0.0) | (x > 700.0), 0.0, 1.0 / np.expm1(x))
    return ThermalOccupation(n[()], (n < _QUANTUM_THRESHOLD)[()])


@dataclass(frozen=True)
class Spectrum:
    """Frozen spectrum on a co-moving wavenumber grid."""
    kappa_grid: np.ndarray
    values: np.ndarray


def spectrum_2d_grid(kappas, g2d: float, mu: float, m: float) -> Spectrum:
    kappas = np.asarray(kappas, dtype=float)
    return Spectrum(kappa_grid=kappas, values=density_spectrum_2d(kappas, g2d, mu, m))

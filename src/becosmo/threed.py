"""Mode evolution and frozen spectra for the expanding 3D condensate.

Quartic 3D expansion does not scale perfectly, so the frozen fluctuations
must be evolved. In co-moving space the phase mode of wavenumber kappa obeys

    phi'' + 3 (bdot/b) phi' + c0^2 kappa^2 / b^5 phi = 0,

a progressively over-damped oscillator: deep inside the horizon the mode
oscillates at the adiabatic frequency c0 kappa / b^(5/2); after crossing it
freezes at a constant amplitude. On the late-time linear background
b = alpha t the equation is solved exactly by (1/t) H^(1,2)_{2/3}(z) with
z = (2/3) (c0 kappa / alpha^(5/2)) t^(-3/2), and z is proportional to the
remaining co-moving proper time.

Normalization: the positive-frequency member (early-time e^{-i omega tau}
behaviour, the H^(1) branch) carries the per-volume prefactor
sqrt(pi g / (6 alpha^3)) fixed by the canonical commutator through the
Wronskian of the Hankel pair. This choice reproduces the closed-form frozen
spectra below; couplings are in natural units (g/hbar when starting from SI).

Everything here is hydrodynamic: quoted spectra apply to wavelengths far
above the healing length, enforced through the kappa_max band edge.

analytic_mode(_derivative), frozen_phase_variance and density_spectrum_3d
take a scalar or an array for t or kappa (every element checked) and return
a NumPy scalar or an array. The module computes only: a ModeEvolution keeps
its history as arrays, and the run pipeline in scenarios writes the 3D
spectrum to spectrum.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import specfun

_NU = 2.0 / 3.0
_FREEZE_CRITERION = 1e-6       # |phi'| t / |phi| below which a mode is frozen
_DEPTH_FACTOR = 20.0           # required omega_ad / H at the start of a mode
_MODE_SAMPLES = 400            # output samples of an integrated mode


class ModeIntegrationError(RuntimeError):
    """Mode integration could not be started or did not converge."""


def hankel_argument(kappa: float, t: float, alpha: float, c0: float = 1.0) -> float:
    """z(t) = (2/3) c0 kappa alpha^(-5/2) t^(-3/2) on the linear background."""
    return (2.0 / 3.0) * c0 * kappa * alpha ** (-2.5) * np.float_power(t, -1.5)


def adiabatic_frequency(kappa: float, b: float, c0: float = 1.0) -> float:
    """Instantaneous mode frequency omega_ad = c0 kappa / b^(5/2)."""
    return c0 * kappa / b**2.5


def mode_normalization(coupling: float, alpha: float) -> float:
    """Per-volume vacuum prefactor sqrt(pi g / (6 alpha^3)).

    Fixed by the equal-time commutator of phase and density: the Hankel pair
    has b^3-weighted Wronskian 6 i alpha^3 / pi, and matching it to
    i g (per unit volume) gives this amplitude for the H^(1) branch.
    """
    return math.sqrt(math.pi * coupling / (6.0 * alpha**3))


def mode_ode_rhs(t: float, phi: complex, phidot: complex, kappa: float,
                 background, c0: float = 1.0) -> complex:
    """Acceleration of the co-moving phase mode at time t."""
    b = float(background.b(t))
    bdot = float(background.bdot(t))
    return -3.0 * (bdot / b) * phidot - c0**2 * kappa**2 / b**5 * phi


def _positive_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive on the linear background")
    return t


def analytic_mode(kappa: float, t, alpha: float, c0: float = 1.0):
    """Both basis solutions (1/t) H^(1,2)_{2/3}(z(t)) on b = alpha t."""
    t = _positive_times(t)
    h1 = specfun.hankel1(_NU, hankel_argument(kappa, t, alpha, c0))
    return (h1 / t)[()], (h1.conjugate() / t)[()]


def analytic_mode_derivative(kappa: float, t, alpha: float, c0: float = 1.0):
    """Time derivatives of the two basis solutions."""
    t = _positive_times(t)
    z = hankel_argument(kappa, t, alpha, c0)
    h1 = specfun.hankel1(_NU, z)
    dh1 = specfun.hankel1p(_NU, z)
    zdot = -1.5 * z / t
    d1 = (-h1 / t**2 + dh1 * zdot / t)[()]
    return d1, d1.conjugate()


def basis_wronskian(kappa: float, t: float, alpha: float, c0: float = 1.0) -> complex:
    """b^3-weighted Wronskian of the basis pair; identically 6 i alpha^3 / pi."""
    u1, u2 = analytic_mode(kappa, t, alpha, c0)
    d1, d2 = analytic_mode_derivative(kappa, t, alpha, c0)
    return (alpha * t) ** 3 * (u1 * d2 - u2 * d1)


def freezing_time(kappa: float, alpha: float, c0: float = 1.0) -> float:
    """Time at which |phi'| t / |phi| decays to the freezing criterion 1e-6.

    From the small-argument expansion of the frozen mode:
    |phi'| t / |phi| = 2 (beta/2)^(4/3) Gamma(1/3)/Gamma(5/3) t^-2.
    """
    beta_half = c0 * kappa / (3.0 * alpha**2.5)
    factor = 2.0 * specfun.gamma(1.0 / 3.0) / specfun.gamma(5.0 / 3.0)
    return beta_half ** (2.0 / 3.0) * math.sqrt(factor / _FREEZE_CRITERION)


@dataclass
class ModeEvolution:
    """History of one co-moving mode: (t, phi, phidot) plus the frozen value."""
    kappa: float
    times: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    frozen_value: float | None
    frozen_time: float | None
    source: str                      # "numeric" or "analytic"
    wkb_residual_start: float
    warnings: list[str] = field(default_factory=list)


def integrate_mode(kappa: float, background, t_start: float, t_end: float,
                   tolerance: float = 1e-10, c0: float = 1.0,
                   coupling: float = 1.0) -> ModeEvolution:
    """Evolve one mode from adiabatic-vacuum initial data.

    Initial amplitude and derivative are matched to the positive-frequency
    Hankel solution on the background's linear asymptote at t_start, which
    must still be deep inside the horizon: omega_ad >= 20 bdot/b. The mode is
    sampled at 400 log-spaced times, and the frozen value is recorded once
    |phi'| t / |phi| < 1e-6.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    alpha = background.asymptotic_velocity
    shift = background.linear_offset or 0.0
    b0 = float(background.b(t_start))
    hubble = float(background.bdot(t_start)) / b0
    omega0_ad = adiabatic_frequency(kappa, b0, c0)
    if omega0_ad < _DEPTH_FACTOR * hubble:
        raise ModeIntegrationError(
            f"mode kappa={kappa:g} is not deep inside the horizon at "
            f"t_start={t_start:g} (omega_ad/H = {omega0_ad / hubble:.2f} "
            f"< {_DEPTH_FACTOR:g}); it is already crossing or frozen")

    ts_shift = t_start - shift
    if ts_shift <= 0.0:
        raise ModeIntegrationError("t_start precedes the linear-regime origin")
    norm = mode_normalization(coupling, alpha)
    u1, _ = analytic_mode(kappa, ts_shift, alpha, c0)
    d1, _ = analytic_mode_derivative(kappa, ts_shift, alpha, c0)
    phi0 = norm * u1
    phidot0 = norm * d1
    wkb_residual = abs(phidot0 + 1j * omega0_ad * phi0) / (omega0_ad * abs(phi0))

    warnings = []
    if wkb_residual > 1e-3:
        warnings.append(f"WKB residual {wkb_residual:.2e} above 1e-3 at start")

    def rhs(t, y):
        return [y[1], mode_ode_rhs(t, y[0], y[1], kappa, background, c0)]

    t_eval = np.geomspace(t_start, t_end, _MODE_SAMPLES)
    scale = abs(phi0)
    atol = np.array([scale, omega0_ad * scale]) * tolerance * 1e-3
    sol = solve_ivp(rhs, (t_start, t_end), [phi0, phidot0], method="DOP853",
                    rtol=tolerance, atol=atol, dense_output=False,
                    t_eval=t_eval)
    if not sol.success:
        raise ModeIntegrationError(f"mode integration failed: {sol.message}")

    phi = sol.y[0]
    phidot = sol.y[1]
    frozen_value = None
    frozen_time = None
    tail = abs(phidot[-1]) * t_eval[-1] / abs(phi[-1])
    if tail < _FREEZE_CRITERION:
        frozen_value = float(abs(phi[-1]))
        frozen_time = float(t_eval[-1])
    else:
        warnings.append(f"not frozen by t_end (|phi'| t/|phi| = {tail:.2e})")

    return ModeEvolution(kappa=kappa, times=t_eval, phi=phi, phidot=phidot,
                         frozen_value=frozen_value, frozen_time=frozen_time,
                         source="numeric", wkb_residual_start=float(wkb_residual),
                         warnings=warnings)


def analytic_evolution(kappa: float, times, alpha: float, c0: float = 1.0,
                       coupling: float = 1.0) -> ModeEvolution:
    """Exact positive-frequency evolution on the pure linear background."""
    times = np.asarray(times, dtype=float)
    norm = mode_normalization(coupling, alpha)
    phi = norm * analytic_mode(kappa, times, alpha, c0)[0]
    phidot = norm * analytic_mode_derivative(kappa, times, alpha, c0)[0]
    omega0_ad = adiabatic_frequency(kappa, float(alpha * times[0]), c0)
    residual = abs(phidot[0] + 1j * omega0_ad * phi[0]) / (omega0_ad * abs(phi[0]))
    return ModeEvolution(kappa=kappa, times=times, phi=phi, phidot=phidot,
                         frozen_value=float(abs(phi[-1])), frozen_time=float(times[-1]),
                         source="analytic", wkb_residual_start=float(residual))


def frozen_phase_variance(kappa, coupling: float, alpha: float, c0: float = 1.0):
    """Closed-form frozen phase-phase spectrum, per-volume convention:

    <phi_kappa^2> = (g / 6 pi) Gamma(2/3)^2 3^(4/3) alpha^(1/3) c0^(-4/3)
                    kappa^(-4/3).
    """
    g23 = specfun.gamma(2.0 / 3.0)
    return (coupling / (6.0 * math.pi) * g23**2 * 3.0 ** (4.0 / 3.0)
            * alpha ** (1.0 / 3.0) * c0 ** (-4.0 / 3.0)
            * np.float_power(kappa, -4.0 / 3.0))


def density_spectrum_3d(kappa, xi: float, c0: float, rho0: float, alpha: float):
    """Closed-form frozen relative density spectrum, units m^3:

    C(kappa) = (Gamma(1/3)^2 3^(2/3) / 6 pi) (xi c0^(1/3) / (rho0 alpha^(1/3)))
               kappa^(4/3),

    with all right-hand-side quantities taken on the initial state.
    """
    g13 = specfun.gamma(1.0 / 3.0)
    return (g13**2 * 3.0 ** (2.0 / 3.0) / (6.0 * math.pi)
            * xi * c0 ** (1.0 / 3.0) / (rho0 * alpha ** (1.0 / 3.0))
            * np.float_power(kappa, 4.0 / 3.0))


def density_contrast_from_mode(evolution: ModeEvolution, background,
                               coupling: float, rho0_initial: float) -> float:
    """Relative density spectrum from an evolved mode via drho = -phi'/g.

    Evaluated at the final sample; |phi'|^2 and rho0(t)^2 = (rho0/b^3)^2 decay
    together, so the ratio converges to the frozen value.
    """
    t = float(evolution.times[-1])
    b = float(background.b(t))
    return abs(evolution.phidot[-1]) ** 2 * b**6 / (coupling**2 * rho0_initial**2)


def kappa_band_edge(xi: float, alpha: float, omega_xi: float) -> float:
    """Largest co-moving wavenumber still hydrodynamic through freezing:
    kappa_max = (1/xi) (alpha/omega_xi)^(1/4)."""
    return (1.0 / xi) * (alpha / omega_xi) ** 0.25


@dataclass(frozen=True)
class MaxContrastEstimate:
    value: float                 # kappa^3 C at the band edge
    prefactor: float             # dimensionless, ~30.3 for quartic 3D
    kappa_max: float
    expansion_ratio: float       # omega_xi / omega0
    short_linear_window: bool    # True flags omega_xi/omega0 < 10


def max_contrast_estimate(scattering_length: float, rho0: float, omega0: float,
                          omega_xi: float, alpha: float,
                          xi: float) -> MaxContrastEstimate:
    """Peak density contrast kappa^3 C(kappa_max).

    kappa^3 C = prefactor * sqrt(a_s^3 rho0) * (omega_xi/omega0)^(-3/4) with
    prefactor = 4 sqrt(pi) Gamma(1/3)^2 (alpha/omega0)^(3/4) / 3^(1/3). The
    estimate needs a long linear-expansion window, omega_xi/omega0 >> 1.
    """
    g13 = specfun.gamma(1.0 / 3.0)
    alpha_tilde = alpha / omega0
    prefactor = (4.0 * math.sqrt(math.pi) * g13**2 * alpha_tilde**0.75
                 / 3.0 ** (1.0 / 3.0))
    ratio = omega_xi / omega0
    value = prefactor * math.sqrt(scattering_length**3 * rho0) * ratio ** (-0.75)
    return MaxContrastEstimate(
        value=value,
        prefactor=prefactor,
        kappa_max=kappa_band_edge(xi, alpha, omega_xi),
        expansion_ratio=ratio,
        short_linear_window=ratio < 10.0,
    )


def projection_suppression(xi: float, l_z: float) -> float:
    """Column-averaging suppression xi / l_z of a projective image.

    The spectrum shape is unchanged; only the amplitude is reduced.
    """
    if l_z <= xi:
        raise ValueError("projection length must exceed the healing length")
    return xi / l_z


@dataclass(frozen=True)
class FrozenSpectrum3D:
    kappa_grid: np.ndarray
    phase_variance: np.ndarray
    density_values: np.ndarray
    in_band: np.ndarray
    parameters: dict


def spectrum_3d_grid(kappas, xi: float, c0: float, rho0: float, alpha: float,
                     coupling: float, omega_xi: float,
                     scenario: str = "") -> FrozenSpectrum3D:
    """Closed-form frozen spectra on a wavenumber grid with band flags.

    Values beyond kappa_max are still computed but flagged out of band.
    """
    kappas = np.asarray(kappas, dtype=float)
    kmax = kappa_band_edge(xi, alpha, omega_xi)
    return FrozenSpectrum3D(
        kappa_grid=kappas,
        phase_variance=frozen_phase_variance(kappas, coupling, alpha, c0),
        density_values=density_spectrum_3d(kappas, xi, c0, rho0, alpha),
        in_band=kappas <= kmax,
        parameters={"xi_m": xi, "c0_m_per_s": c0, "rho0_per_m3": rho0,
                    "alpha_rad_per_s": alpha, "kappa_max_per_m": kmax,
                    "scenario": scenario},
    )

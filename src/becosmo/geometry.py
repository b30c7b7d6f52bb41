"""Effective acoustic geometry and horizon analysis.

Long-wavelength phonons on the expanding background propagate in an
effective metric of Painleve-Gullstrand-Lemaitre form, conformally scaled
by A = (c/g_N)^(2/(D-1)), D = 2 or 3. This module builds the metric and
evaluates the two horizon notions: the apparent horizon (flow speed = sound
speed, g00 = 0 in laboratory slicing) and the co-moving particle horizon
(total remaining reach of sound signals). Both read the sound-speed decay
from the trajectory's horizon exponent s, and the release sound speed c0
must be positive and finite.

All horizon statements apply to wavelengths well above the healing length;
below it, dispersion takes over and the geometric picture dissolves.

apparent_horizon and particle_horizon take a scalar or an array of times
(each within the sampled range), and horizon_crossing_time a scalar or an
array of co-moving wavenumbers; all return a NumPy scalar or an array. A
crossing time is 0.0 for a mode already outside the particle horizon at
release and inf for one that does not cross by the end of the trajectory.
The module needs numpy only. It computes only; the run pipeline in
scenarios writes horizons.csv.
"""

from __future__ import annotations

import math

import numpy as np

from .scaling import ScaleTrajectory


def conformal_factor(sound_speed: float, coupling: float, dimension: int) -> float:
    """A = (c/g_N)^(2/(D-1)) for D = 2 or 3."""
    if sound_speed <= 0.0 or coupling <= 0.0:
        raise ValueError("sound speed and coupling must be positive")
    return (sound_speed / coupling) ** (2.0 / (dimension - 1.0))


def metric_components(conformal: float, sound_speed: float, velocity):
    """Covariant and contravariant effective metric at one spacetime point.

    velocity is the local flow vector (length D); returns a pair of
    (D+1) x (D+1) arrays whose product is the identity.
    """
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    d = v.size
    c2 = sound_speed**2
    v2 = float(v @ v)

    cov = np.zeros((d + 1, d + 1))
    cov[0, 0] = conformal * (c2 - v2)
    cov[0, 1:] = conformal * v
    cov[1:, 0] = conformal * v
    cov[1:, 1:] = -conformal * np.eye(d)

    contra = np.zeros((d + 1, d + 1))
    contra[0, 0] = 1.0
    contra[0, 1:] = v
    contra[1:, 0] = v
    contra[1:, 1:] = np.outer(v, v) - c2 * np.eye(d)
    contra /= conformal * c2
    return cov, contra


def flatness_exponent(dimension: int, exponent: float) -> float:
    """Scaling exponent of the co-moving metric factor A b^2, D = 2 or 3.

    Zero, a flat co-moving metric, exactly when N = 1 + 2/D (see
    scaling.is_flat_case).
    """
    return 2.0 + dimension * (exponent - 3.0) / (dimension - 1.0)


def _check_c0(c0: float) -> None:
    if not 0.0 < c0 < math.inf:
        raise ValueError(f"sound speed c0={c0} must be positive and finite")


def particle_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Co-moving particle horizon: remaining reach of sound emitted at t.

    Evaluates c0 * integral_t^inf b^-s dt' with s = 1 + D(N-1)/2, numerically
    up to the trajectory end plus the closed-form tail on the linear
    asymptote. Returns inf when the expansion never reaches the linear regime
    (e.g. trap held on).
    """
    _check_c0(c0)
    return c0 * (trajectory.horizon_integral_infinity - trajectory.horizon_integral(t))


def apparent_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Laboratory radius where the outward flow reaches the sound speed.

    r = c(t) b / bdot = c0 b^(2 - s) / bdot, with c(t) = c0 b^(1 - s) and
    s the horizon exponent; infinite while bdot <= 0.
    """
    _check_c0(c0)
    b = trajectory.b(t)
    bdot = trajectory.bdot(t)
    power = 2.0 - trajectory.s
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = c0 * np.float_power(b, power) / bdot
    return np.where(bdot > 0.0, radius, math.inf)[()]


def settled_apparent_horizon(trajectory: ScaleTrajectory,
                             c0: float = 1.0) -> float | None:
    """Late-time limit of the apparent horizon, when it exists.

    Flat cases settle at c0/alpha; steeper sound-speed decay drives the
    horizon to zero, shallower decay to infinity (returned as None).
    """
    _check_c0(c0)
    alpha = trajectory.asymptotic_velocity
    if alpha <= 0.0:
        return None
    power = 2.0 - trajectory.s
    if math.isclose(power, 0.0, abs_tol=1e-12):
        return c0 / alpha
    return 0.0 if power < 0.0 else None


def horizon_crossing_time(kappa, trajectory: ScaleTrajectory, c0: float = 1.0):
    """Earliest time the co-moving wavelength 2 pi / kappa exceeds the
    particle horizon, for a scalar or an array of kappa > 0.

    The particle horizon is used (rather than the apparent one) because it is
    slicing-independent; it decreases monotonically, so larger kappa crosses
    later, and every kappa is bisected at once on [0, t_max] down to
    1e-14 t_max. A wavelength already beyond the horizon at t = 0 gives 0.0;
    one still inside it at t_max gives inf, as does every kappa when the
    horizon is infinite (trap held on, or no linear regime reached).
    """
    _check_c0(c0)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all(kappa > 0.0):
        raise ValueError("kappa must be positive")
    wavelength = 2.0 * math.pi / kappa
    t_max = trajectory.t_max
    lo = np.zeros_like(wavelength)
    hi = np.full_like(wavelength, t_max)
    width = t_max
    while width > 1e-14 * t_max:
        mid = 0.5 * (lo + hi)
        crossed = particle_horizon(trajectory, mid, c0) <= wavelength
        hi = np.where(crossed, mid, hi)
        lo = np.where(crossed, lo, mid)
        width *= 0.5
    times = np.where(particle_horizon(trajectory, t_max, c0) > wavelength,
                     math.inf, 0.5 * (lo + hi))
    return np.where(particle_horizon(trajectory, 0.0, c0) <= wavelength,
                    0.0, times)[()]

"""Effective acoustic geometry and horizon analysis.

Long-wavelength phonons on the expanding background propagate in an
effective metric of Painleve-Gullstrand-Lemaitre form, conformally scaled
by A = (c/g_N)^(2/(D-1)), D = 2 or 3. This module gives that factor and
evaluates the two horizon notions: the apparent horizon (flow speed = sound
speed, g00 = 0 in laboratory slicing) and the co-moving particle horizon
(total remaining reach of sound signals). Both read the sound-speed decay
c = c0 b^(-D/2), with the release sound speed c0, from the trajectory's D.

All horizon statements apply to wavelengths well above the healing length;
below it, dispersion takes over and the geometric picture dissolves.

apparent_horizon and particle_horizon take a scalar or an array of times
(each within the sampled range), and horizon_crossing_time a scalar or an
array of co-moving wavenumbers; all return a NumPy scalar or an array. A
crossing time is 0.0 for a mode already outside the particle horizon at
release and inf for one that does not cross by the end of the trajectory
(every mode of a held trap). The module needs numpy only. It computes only;
the run pipeline in scenarios writes horizons.csv.
"""

from __future__ import annotations

import math

import numpy as np

from .condensate import check_positive
from .scaling import ScaleTrajectory


def conformal_factor(sound_speed: float, coupling: float, dimension: int) -> float:
    """A = (c/g_N)^(2/(D-1)) for D = 2 or 3."""
    check_positive(sound_speed=sound_speed, coupling=coupling)
    return (sound_speed / coupling) ** (2.0 / (dimension - 1.0))


def particle_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Co-moving particle horizon: remaining reach of sound emitted at t.

    c0 times the trajectory's remaining horizon integral, integral_t^inf
    b^-s dt' with s = 1 + D/2. After release the first integral makes this
    one arcsin, (2 c0/(D alpha)) arcsin(b(t)^(-D/2)), finite from t = 0 on,
    however short the run; a held trap gives inf.
    """
    check_positive(c0=c0)
    return c0 * trajectory.horizon_integral(t)


def apparent_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Laboratory radius where the outward flow reaches the sound speed.

    r = c(t) b / bdot = c0 b^(1 - D/2) / bdot, with c(t) = c0 b^(-D/2);
    infinite while bdot <= 0.
    """
    check_positive(c0=c0)
    b = trajectory.b(t)
    bdot = trajectory.bdot(t)
    power = 1.0 - trajectory.dimension / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = c0 * np.float_power(b, power) / bdot
    return np.where(bdot > 0.0, radius, math.inf)[()]


def settled_apparent_horizon(trajectory: ScaleTrajectory,
                             c0: float = 1.0) -> float | None:
    """Late-time limit of the apparent horizon, None when the trap is held.

    In quasi-2D the horizon settles at c0/alpha; in 3D the faster
    sound-speed decay drives it to zero.
    """
    check_positive(c0=c0)
    alpha = trajectory.asymptotic_velocity
    if alpha <= 0.0:
        return None
    return c0 / alpha if trajectory.dimension == 2 else 0.0


def horizon_crossing_time(kappa, trajectory: ScaleTrajectory, c0: float = 1.0):
    """Earliest time the co-moving wavelength 2 pi / kappa exceeds the
    particle horizon, for a scalar or an array of kappa > 0.

    The particle horizon is used (rather than the apparent one) because it is
    slicing-independent; it decreases monotonically, so larger kappa crosses
    later. Setting (2 c0/(D alpha)) arcsin(b^(-D/2)) = 2 pi/kappa gives the
    crossing in closed form at b_c = sin(pi D alpha/(c0 kappa))^(-2/D), at
    the time the trajectory reaches b_c. A wavelength already beyond the
    horizon at t = 0 (kappa <= 2 D alpha/c0) gives 0.0; one still inside it
    at t_max gives inf, as does every kappa when the trap is held on (an
    infinite horizon).
    """
    check_positive(kappa=kappa, c0=c0)
    kappa = np.asarray(kappa, dtype=float)
    alpha, D = trajectory.asymptotic_velocity, trajectory.dimension
    if alpha == 0.0:
        return np.full_like(kappa, math.inf)[()]
    angle = np.minimum(math.pi * D * alpha / (c0 * kappa), math.pi / 2.0)
    with np.errstate(divide="ignore", over="ignore"):  # kappa -> inf: b_c = inf
        t_c = trajectory.time_at(np.float_power(np.sin(angle), -2.0 / D))
    return np.where(kappa <= 2.0 * D * alpha / c0, 0.0,
                    np.where(t_c > trajectory.t_max, math.inf, t_c))[()]

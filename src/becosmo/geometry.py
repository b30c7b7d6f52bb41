"""Effective acoustic geometry and horizon analysis.

Long-wavelength phonons on the expanding background propagate in an
effective metric of Painleve-Gullstrand-Lemaitre form, conformally scaled
by A = (c/g_N)^(2/(D-1)). This module builds the metric, classifies the
flat co-moving cases, and evaluates the two horizon notions: the apparent
horizon (flow speed = sound speed, g00 = 0 in laboratory slicing) and the
co-moving particle horizon (total remaining reach of sound signals).

All horizon statements apply to wavelengths well above the healing length;
below it, dispersion takes over and the geometric picture dissolves.

apparent_horizon and particle_horizon take a scalar or an array of times
(each within the sampled range) and return a NumPy scalar or an array. The
module computes only; the run pipeline in scenarios writes horizons.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scaling import ScaleTrajectory, is_flat_case


def conformal_factor(sound_speed: float, coupling: float, dimension: int) -> float:
    """A = (c/g_N)^(2/(D-1)); for D=1 the factor is arbitrary and set to 1.

    The D=1 case only admits an effective metric when c/g_N stays constant
    along the trajectory (N=3 with constant g); callers are responsible for
    that, see metric_history.
    """
    if dimension == 1:
        return 1.0
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


@dataclass(frozen=True)
class EffectiveMetric:
    """Effective geometry at a spacetime point."""
    conformal_factor: float
    sound_speed: float
    flow_velocity: np.ndarray
    dimension: int
    exponent: float

    def covariant(self):
        return metric_components(self.conformal_factor, self.sound_speed,
                                 self.flow_velocity)[0]

    def contravariant(self):
        return metric_components(self.conformal_factor, self.sound_speed,
                                 self.flow_velocity)[1]

    @property
    def g00(self) -> float:
        v = np.atleast_1d(self.flow_velocity)
        return self.conformal_factor * (self.sound_speed**2 - float(v @ v))


@dataclass(frozen=True)
class FlatnessResult:
    exponent: float | None     # exponent of b in A b^2; None for D=1
    is_flat: bool


def flatness_exponent(dimension: int, exponent: float) -> FlatnessResult:
    """Scaling exponent of the co-moving metric factor A b^2 and the flat flag.

    Flat (exponent zero) exactly when N = 1 + 2/D. D=1 is the conformal
    special case: flat for N=3, no metric otherwise.
    """
    if dimension == 1:
        return FlatnessResult(None, is_flat_case(1, exponent))
    e = 2.0 + dimension * (exponent - 3.0) / (dimension - 1.0)
    return FlatnessResult(e, is_flat_case(dimension, exponent))


def sound_speed_history(trajectory: ScaleTrajectory,
                        c0: float = 1.0) -> Callable[[float], float]:
    """c(t) = c0 b^(-D(N-1)/2) along the trajectory."""
    power = -trajectory.dimension * (trajectory.exponent - 1.0) / 2.0
    def c_of_t(t):
        return c0 * trajectory.b(t) ** power
    return c_of_t


def particle_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Co-moving particle horizon: remaining reach of sound emitted at t.

    Evaluates c0 * integral_t^inf b^-(1 + D(N-1)/2) dt', numerically up to the
    trajectory end plus the closed-form tail on the linear asymptote. Returns
    inf when the expansion never reaches the linear regime (e.g. trap held on).
    """
    return c0 * (trajectory.horizon_integral_infinity - trajectory.horizon_integral(t))


def apparent_horizon(trajectory: ScaleTrajectory, t, c0: float = 1.0):
    """Laboratory radius where the outward flow reaches the sound speed.

    r = c(t) b / bdot = c0 b^(1 - D(N-1)/2) / bdot; infinite while bdot <= 0.
    """
    b = trajectory.b(t)
    bdot = trajectory.bdot(t)
    power = 1.0 - trajectory.dimension * (trajectory.exponent - 1.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = c0 * np.float_power(b, power) / bdot
    return np.where(bdot > 0.0, radius, math.inf)[()]


def settled_apparent_horizon(trajectory: ScaleTrajectory,
                             c0: float = 1.0) -> float | None:
    """Late-time limit of the apparent horizon, when it exists.

    Flat cases settle at c0/alpha; steeper sound-speed decay drives the
    horizon to zero, shallower decay to infinity (returned as None).
    """
    alpha = trajectory.asymptotic_velocity
    if alpha <= 0.0:
        return None
    power = 1.0 - trajectory.dimension * (trajectory.exponent - 1.0) / 2.0
    if math.isclose(power, 0.0, abs_tol=1e-12):
        return c0 / alpha
    return 0.0 if power < 0.0 else None


def horizon_crossing_time(kappa: float, trajectory: ScaleTrajectory,
                          c0: float = 1.0) -> float | None:
    """Earliest time the co-moving wavelength 2 pi / kappa exceeds the
    particle horizon. None when no crossing occurs within the sampled range.

    The particle horizon is used (rather than the apparent one) because it is
    slicing-independent; it decreases monotonically, so larger kappa crosses
    later. scipy is imported here, so importing the package does not load it.
    """
    from scipy.optimize import brentq

    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    wavelength = 2.0 * math.pi / kappa
    if particle_horizon(trajectory, 0.0, c0) <= wavelength:
        return 0.0
    if particle_horizon(trajectory, trajectory.t_max, c0) > wavelength:
        return None
    return brentq(lambda t: particle_horizon(trajectory, t, c0) - wavelength,
                  0.0, trajectory.t_max, xtol=1e-14 * trajectory.t_max)

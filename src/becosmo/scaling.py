"""Scale-factor dynamics of the released condensate.

The whole expansion is carried by a single scale factor b(t) obeying

    b'' = -omega_ext(t)^2 b + omega0^2 / b^p,      p = D(N-1) + 1,

with b(0) = 1, b'(0) = 0. The generalized exponent p reproduces the quartic
2D case (p = 3) and the quartic 3D case (p = 4). Alongside b the integrator
accumulates the two improper-integral kernels everything downstream needs:
the co-moving clock integral of b^q (proper time up to a constant prefactor)
and the horizon integral of b^-s. The module computes only; the run pipeline
in scenarios writes the sampled history to trajectory.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


class NumericalError(RuntimeError):
    """Integration failed (step-size underflow or tolerance not met)."""


def scale_exponent(dimension: int, exponent: float) -> float:
    """Restoring-force exponent p = D(N-1) + 1 of the scale-factor equation."""
    return dimension * (exponent - 1.0) + 1.0


def horizon_exponent(dimension: int, exponent: float) -> float:
    """Integrand exponent s in the horizon integral of b^-s: s = 1 + D(N-1)/2."""
    return 1.0 + dimension * (exponent - 1.0) / 2.0


def is_flat_case(dimension: int, exponent: float) -> bool:
    """True when the co-moving metric is flat, i.e. N = 1 + 2/D."""
    return math.isclose(exponent, 1.0 + 2.0 / dimension, rel_tol=1e-12)


def clock_exponent(dimension: int, exponent: float) -> float:
    """Integrand exponent q in the co-moving clock integral of b^q.

    Flat cases have q = -2 exactly. For D >= 2 the general value combines the
    conformal-factor and sound-speed scalings. D = 1 is only defined for the
    conformal N = 3 coupling.
    """
    if dimension == 1:
        if is_flat_case(1, exponent):
            return -2.0
        raise ValueError("co-moving clock undefined for D=1 unless N=3")
    return (dimension * (exponent - 3.0) / (2.0 * (dimension - 1.0))
            - dimension * (exponent - 1.0) / 2.0)


@dataclass(frozen=True)
class ExpansionProtocol:
    """Trap schedule. The default releases the trap instantaneously at t = 0;
    a held trap stays on at omega0 forever."""
    initial_frequency: float          # omega0, rad/s
    held: bool = False

    def __post_init__(self):
        if not 0.0 < self.initial_frequency < math.inf:
            raise ValueError("initial frequency must be positive and finite")

    def omega_ext(self, t: float) -> float:
        return self.initial_frequency if self.held else 0.0

    @classmethod
    def free_expansion(cls, omega0: float) -> "ExpansionProtocol":
        return cls(omega0)

    @classmethod
    def hold(cls, omega0: float) -> "ExpansionProtocol":
        """Trap kept on forever; b stays at 1."""
        return cls(omega0, held=True)


def scale_ode_rhs(b: float, t: float, protocol: ExpansionProtocol,
                  dimension: int, exponent: float) -> float:
    """Acceleration b'' at scale factor b and time t."""
    if b <= 0.0:
        raise ValueError(f"scale factor b={b} must be positive")
    p = scale_exponent(dimension, exponent)
    w_ext = protocol.omega_ext(t)
    return -w_ext**2 * b + protocol.initial_frequency**2 / b**p


def analytic_scale_2d(t: float, omega0: float) -> tuple[float, float]:
    """Closed-form free expansion for the flat quartic 2D case."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    b = math.sqrt(1.0 + omega0**2 * t**2)
    return b, omega0**2 * t / b


class ScaleTrajectory:
    """Integrated expansion history; immutable once constructed.

    Exposes dense-output lookups b(t), bdot(t), the co-moving clock integral
    and the horizon integral, plus the late-time linear-regime fit
    b ~ alpha (t - linear_offset) used to close the improper integrals. Each
    lookup takes a scalar or an array of times within [0, t_max]. p, q and s
    are the exponents of b'' and of the clock and horizon integrands.
    """

    def __init__(self, protocol, dimension, exponent, tolerance, dense,
                 ts, ys, interpolation, p, q, s, clock_valid):
        self.protocol = protocol
        self.dimension = dimension
        self.exponent = exponent
        self.omega0 = protocol.initial_frequency
        self.tolerance = tolerance
        self.t_max = float(ts[-1])
        self.interpolation = interpolation
        self._dense = dense
        self.ts = ts
        self.bs = ys[0]
        self.bdots = ys[1]
        self.clocks = ys[2]
        self.horizon_integrals = ys[3]
        self.p, self.q, self.s = p, q, s
        self.clock_valid = clock_valid
        self._fit_asymptote()

    # -- linear-regime bookkeeping -------------------------------------------

    def _fit_asymptote(self):
        t_f = self.t_max
        b_f = float(self.b(t_f))
        bd_f = float(self.bdot(t_f))
        released = self.protocol.omega_ext(t_f) == 0.0
        if released:
            # first integral of b'' = omega0^2/b^p after release
            self.asymptotic_velocity = math.sqrt(
                bd_f**2 + 2.0 * self.omega0**2 / ((self.p - 1.0) * b_f ** (self.p - 1.0)))
        else:
            self.asymptotic_velocity = bd_f
        accel = abs(-self.protocol.omega_ext(t_f)**2 * b_f
                    + self.omega0**2 / b_f**self.p)
        self.alpha_converged = bd_f > 0.0 and accel * b_f / bd_f**2 <= self.tolerance

        self.linear_offset = None
        self.linear_onset = None
        alpha = self.asymptotic_velocity
        if released and alpha > 0.0 and bd_f > 0.0:
            decade = self.ts >= self.t_max / 10.0
            if np.any(decade):
                self.linear_offset = float(np.mean(self.ts[decade]
                                                   - self.bs[decade] / alpha))
                resid = np.abs(self.bs - alpha * (self.ts - self.linear_offset))
                ok = resid <= 1e-3 * self.bs
                if ok[-1]:
                    onset_idx = len(ok) - np.argmin(ok[::-1])  # after last failure
                    self.linear_onset = float(self.ts[min(onset_idx, len(ok) - 1)])

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.t_max * (1 + 1e-12)):
            raise ValueError(f"t outside sampled range [0, {self.t_max}]")
        return t

    # -- dense lookups ---------------------------------------------------------

    def b(self, t):
        return self._dense(self._check_range(t))[0]

    def bdot(self, t):
        return self._dense(self._check_range(t))[1]

    def clock(self, t):
        """Co-moving clock integral of b^q from 0 to t (prefactor-free)."""
        return self._dense(self._check_range(t))[2]

    def horizon_integral(self, t):
        """Integral of b^-s from 0 to t."""
        return self._dense(self._check_range(t))[3]

    # -- improper-integral tails ----------------------------------------------

    def _tail(self, exponent_e: float) -> float:
        """Closed-form integral of b^-e over [t_max, inf) on the linear asymptote."""
        if self.linear_onset is None or self.linear_offset is None:
            return math.inf
        if exponent_e <= 1.0:
            return math.inf
        alpha = self.asymptotic_velocity
        span = self.t_max - self.linear_offset
        return span ** (1.0 - exponent_e) / (alpha**exponent_e * (exponent_e - 1.0))

    @property
    def clock_infinity(self) -> float:
        return float(self.clocks[-1]) + self._tail(-self.q)

    @property
    def horizon_integral_infinity(self) -> float:
        return float(self.horizon_integrals[-1]) + self._tail(self.s)


def integrate_scale_factor(protocol: ExpansionProtocol, dimension: int,
                           exponent: float, t_max: float,
                           tolerance: float = 1e-10,
                           n_samples: int = 400) -> ScaleTrajectory:
    """Integrate the scale-factor equation with dense output.

    tolerance is the local relative error target, restricted to
    (1e-14, 1e-4) so the embedded Runge-Kutta error control stays honest.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if not 1e-14 < tolerance < 1e-4:
        raise ValueError("tolerance must lie in (1e-14, 1e-4)")
    p = scale_exponent(dimension, exponent)
    s = horizon_exponent(dimension, exponent)
    try:
        q, clock_valid = clock_exponent(dimension, exponent), True
    except ValueError:
        q, clock_valid = -2.0, False  # placeholder; the clock channel is unusable
    omega0 = protocol.initial_frequency

    def rhs(t, y):
        b = y[0]
        if b <= 0.0:
            raise NumericalError(f"scale factor collapsed to b={b} at t={t}")
        return [y[1], scale_ode_rhs(b, t, protocol, dimension, exponent),
                b**q, b**(-s)]

    ts = np.linspace(0.0, t_max, n_samples)
    rtol = max(tolerance / 20.0, 1e-13)
    atol = np.array([1.0, omega0, 1.0 / omega0, 1.0 / omega0]) * tolerance * 1e-4
    # Overflow, 0/0 or a division by zero inside the solver is a failed
    # integration, not a warning.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = solve_ivp(rhs, (0.0, t_max), [1.0, 0.0, 0.0, 0.0], method="DOP853",
                            rtol=rtol, atol=atol, dense_output=True, t_eval=ts)
    except FloatingPointError as exc:
        raise NumericalError(f"scale-factor integration failed: {exc}") from exc
    if not sol.success:
        raise NumericalError(f"scale-factor integration failed: {sol.message}")
    descriptor = f"dop853-dense rtol={rtol:g}"
    return ScaleTrajectory(protocol, dimension, exponent, tolerance,
                           sol.sol, ts, sol.y, descriptor,
                           p=p, q=q, s=s, clock_valid=clock_valid)


class LinearExpansion:
    """Pure linear background b = alpha t, for late-time mode analysis."""

    def __init__(self, alpha: float):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        self.asymptotic_velocity = alpha
        self.linear_offset = 0.0

    def b(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("linear background defined for t > 0 only")
        return self.asymptotic_velocity * t

    def bdot(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.asymptotic_velocity)


class _ProperTime:
    def __init__(self, trajectory, prefactor):
        self._traj = trajectory
        self._prefactor = prefactor

    def __call__(self, t):
        return self._prefactor * self._traj.clock(t)

    @property
    def infinity(self) -> float:
        return self._prefactor * self._traj.clock_infinity


def proper_time(trajectory: ScaleTrajectory, prefactor: float | None = None):
    """Co-moving proper time as a function of laboratory time.

    Flat cases (N = 1 + 2/D) use the bare 1/b^2 integrand, making tau a real
    time. The general branch multiplies the b^q clock by the caller-supplied
    prefactor sqrt(A(0)) c(0); D=1 without N=3 has no co-moving clock at all.
    """
    if not trajectory.clock_valid:
        raise ValueError("proper time undefined for D=1 unless N=3")
    if prefactor is None:
        prefactor = 1.0
    return _ProperTime(trajectory, prefactor)


@dataclass(frozen=True)
class BackgroundFields:
    density: float
    velocity: object          # same shape as the position argument
    comoving_position: object


def background_fields(trajectory: ScaleTrajectory, t: float, r,
                      rho0_initial: float = 1.0) -> BackgroundFields:
    """Background density, velocity field and co-moving position at (t, r)."""
    b = float(trajectory.b(t))
    bdot = float(trajectory.bdot(t))
    r = np.asarray(r, dtype=float)
    return BackgroundFields(
        density=rho0_initial / b**trajectory.dimension,
        velocity=(bdot / b) * r,
        comoving_position=r / b,
    )


def scaling_map_factors(dimension: int, b: float, mass: float = 1.0,
                        velocity: float = 0.0) -> tuple[float, float]:
    """Classical factors of the scaling map: amplitude b^(-D/2) and the
    quadratic phase argument m v0^2 / 2."""
    if b <= 0.0:
        raise ValueError("scale factor must be positive")
    return b ** (-dimension / 2.0), 0.5 * mass * velocity**2

"""Scale-factor dynamics of the released condensate.

The whole expansion is carried by a single scale factor b(t) obeying

    b'' = -omega_ext(t)^2 b + omega0^2 / b^p,      p = D(N-1) + 1,

with b(0) = 1, b'(0) = 0 and D = 2 or 3; the quartic coupling (N = 2) gives
p = 3 in 2D and p = 4 in 3D. Alongside b the integrator
accumulates the two improper-integral kernels everything downstream needs:
the co-moving clock integral of b^q (proper time up to a constant prefactor)
and the horizon integral of b^-s. The integrator is an in-module
Dormand-Prince 5(4) stepper (the method of scipy's RK45) with Shampine's
quartic dense output, so the module needs numpy only. It computes only; the
run pipeline in scenarios writes the sampled history to trajectory.csv.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .condensate import DIMENSIONS


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
    """Integrand exponent q in the co-moving clock integral of b^q, D = 2 or 3.

    The value combines the conformal-factor and sound-speed scalings; flat
    cases have q = -2 exactly.
    """
    return (dimension * (exponent - 3.0) / (2.0 * (dimension - 1.0))
            - dimension * (exponent - 1.0) / 2.0)


@dataclass(frozen=True)
class ExpansionProtocol:
    """Trap schedule. The default releases the trap instantaneously at t = 0;
    a held trap stays on at omega0 forever."""
    initial_frequency: float          # omega0, rad/s
    held: bool = False

    def __post_init__(self):
        # b'' carries omega0^2, which must neither underflow nor overflow
        omega0 = self.initial_frequency
        if not (omega0 > 0.0 and sys.float_info.min <= omega0 * omega0 < math.inf):
            raise ValueError("initial frequency must be positive, with a square "
                             "that is a normal float (about 1.5e-154 to 1.3e154)")

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
    if not t >= 0.0:
        raise ValueError("t must be non-negative")
    b = math.sqrt(1.0 + omega0**2 * t**2)
    return b, omega0**2 * t / b


# Dormand-Prince 5(4) tableau: nodes C, stage weights A, fifth-order weights
# B (also the last stage row), error weights E = B - B4 over the seven stages
# (the seventh is the first stage of the next step), and Shampine's quartic
# dense-output matrix P, as in scipy's RK45.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _dormand_prince(deriv, t_end: float, rtol: float, atol):
    """Integrate y = (b, bdot, clock, horizon) from (1, 0, 0, 0) at t = 0 to
    t_end, in Python floats.

    deriv(t, b, bdot) returns dy/dt as a 4-tuple; the clock and horizon
    channels do not feed back, so the stage sums carry b and bdot only. Step
    control is scipy's RK45: the error is the RMS over the channels of
    err / (atol + rtol max(|y|, |y_new|)), and a step changes by a factor
    0.9 err^(-1/5) clipped to [0.2, 10], never growing right after a
    rejection. Returns the step starts, widths, start states (4, steps),
    stages (steps, 7, 4) and the number of deriv calls. Overflow and a step
    below ten float spacings of t raise NumericalError.
    """
    a_b, a_v, a_c, a_z = atol
    t, b, v, c, z = 0.0, 1.0, 0.0, 0.0, 0.0
    k1 = deriv(t, b, v)

    # Initial step of Hairer, Norsett & Wanner (Sec. II.4), as in scipy, from
    # the RMS norms d0 of y/scale, d1 of y'/scale and d2 of y''/scale at
    # t = 0. d0 >= 0.5/(1e-8 + 5e-6) always, so only d1 and d2 can be small.
    s_b = a_b + rtol                  # scale of b = 1; the other channels are 0
    d0 = 0.5 / s_b
    d1 = math.sqrt(((k1[0] / s_b) ** 2 + (k1[1] / a_v) ** 2 + (k1[2] / a_c) ** 2
                    + (k1[3] / a_z) ** 2) / 4.0)
    h0 = min(1e-6 if d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    k = deriv(h0, b + h0 * k1[0], v + h0 * k1[1])
    d2 = math.sqrt((((k[0] - k1[0]) / s_b) ** 2 + ((k[1] - k1[1]) / a_v) ** 2
                    + ((k[2] - k1[2]) / a_c) ** 2 + ((k[3] - k1[3]) / a_z) ** 2)
                   / 4.0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, t_end)
    nfev = 2

    starts, widths, states, stages = [], [], [], []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h = max(h, min_step)
        rejected = False
        while True:
            if h < min_step:
                raise NumericalError(f"scale-factor integration failed: step size "
                                     f"{h:g} below the float spacing at t={t}")
            t_new = min(t + h, t_end)
            h = t_new - t
            kb1, kv1, kc1, kz1 = k1
            kb2, kv2, kc2, kz2 = k2 = deriv(t + _C2 * h, b + h * _A21 * kb1,
                                            v + h * _A21 * kv1)
            kb3, kv3, kc3, kz3 = k3 = deriv(
                t + _C3 * h, b + h * (_A31 * kb1 + _A32 * kb2),
                v + h * (_A31 * kv1 + _A32 * kv2))
            kb4, kv4, kc4, kz4 = k4 = deriv(
                t + _C4 * h, b + h * (_A41 * kb1 + _A42 * kb2 + _A43 * kb3),
                v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3))
            kb5, kv5, kc5, kz5 = k5 = deriv(
                t + _C5 * h,
                b + h * (_A51 * kb1 + _A52 * kb2 + _A53 * kb3 + _A54 * kb4),
                v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4))
            kb6, kv6, kc6, kz6 = k6 = deriv(
                t + h,
                b + h * (_A61 * kb1 + _A62 * kb2 + _A63 * kb3 + _A64 * kb4 + _A65 * kb5),
                v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5))
            b_new = b + h * (_B1 * kb1 + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
            v_new = v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6)
            c_new = c + h * (_B1 * kc1 + _B3 * kc3 + _B4 * kc4 + _B5 * kc5 + _B6 * kc6)
            z_new = z + h * (_B1 * kz1 + _B3 * kz3 + _B4 * kz4 + _B5 * kz5 + _B6 * kz6)
            if not math.isfinite(b_new + v_new + c_new + z_new):
                raise NumericalError("scale-factor integration failed: overflow "
                                     f"in the step from t={t}")
            kb7, kv7, kc7, kz7 = k7 = deriv(t_new, b_new, v_new)
            nfev += 6
            e_b = (_E1 * kb1 + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6
                   + _E7 * kb7) / (a_b + rtol * max(abs(b), abs(b_new)))
            e_v = (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6
                   + _E7 * kv7) / (a_v + rtol * max(abs(v), abs(v_new)))
            e_c = (_E1 * kc1 + _E3 * kc3 + _E4 * kc4 + _E5 * kc5 + _E6 * kc6
                   + _E7 * kc7) / (a_c + rtol * max(abs(c), abs(c_new)))
            e_z = (_E1 * kz1 + _E3 * kz3 + _E4 * kz4 + _E5 * kz5 + _E6 * kz6
                   + _E7 * kz7) / (a_z + rtol * max(abs(z), abs(z_new)))
            error = h * math.sqrt((e_b * e_b + e_v * e_v + e_c * e_c + e_z * e_z) / 4.0)
            if error < 1.0:
                factor = _MAX_FACTOR if error == 0.0 else min(
                    _MAX_FACTOR, _SAFETY * error ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                break
            h *= max(_MIN_FACTOR, _SAFETY * error ** -0.2)
            rejected = True
        starts.append(t)
        widths.append(h)
        states += (b, v, c, z)
        stages += (*k1, *k2, *k3, *k4, *k5, *k6, *k7)
        t, b, v, c, z, k1 = t_new, b_new, v_new, c_new, z_new, k7
        h *= factor
    return (np.array(starts), np.array(widths), np.array(states).reshape(-1, 4).T,
            np.array(stages).reshape(-1, 7, 4), nfev)


class _PiecewiseQuartic:
    """Dense output of the accepted steps, one quartic per step.

    On step i, y(t) = sum_j c_ij x^j with x = (t - t_i)/h_i, c_i0 the state
    at t_i and (c_i1 .. c_i4) = h_i K_i^T P (Shampine's interpolant). A
    lookup finds the step with searchsorted and evaluates the quartic in
    Horner form for every channel at once: a scalar time gives shape (4,),
    an array of times shape (4, n). Times must be >= 0; past the last step
    its quartic is extrapolated.
    """

    def __init__(self, starts, widths, states, stages):
        self._starts = starts
        self._widths = widths
        coefs = np.empty((5, 4, len(starts)))
        coefs[0] = states
        coefs[1:] = (widths[:, None, None]
                     * (stages.transpose(0, 2, 1) @ _P)).transpose(2, 1, 0)
        self._coefs = coefs

    def __call__(self, t):
        i = np.searchsorted(self._starts, t, side="right") - 1
        x = (t - self._starts[i]) / self._widths[i]
        c = self._coefs[..., i]
        return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0]


# Relative departure from b = alpha (t - offset) that still counts as linear.
_LINEAR_TOL = 1e-3


class ScaleTrajectory:
    """Integrated expansion history; immutable once constructed.

    Exposes dense-output lookups b(t), bdot(t), the co-moving clock integral
    and the horizon integral, plus the late-time linear-regime fit
    b ~ alpha (t - linear_offset) used to close the improper integrals. Each
    lookup takes a scalar or an array of times within [0, t_max]; the stored
    samples at ts are the same lookup. p, q and s are the exponents of b''
    and of the clock and horizon integrands. method, rtol, nfev (right-hand
    side calls) and steps (accepted steps) record what the stepper did.
    """

    method = "dormand-prince-5(4)"

    def __init__(self, protocol, dimension, exponent, tolerance, dense,
                 ts, rtol, nfev, steps, p, q, s):
        self.protocol = protocol
        self.dimension = dimension
        self.exponent = exponent
        self.omega0 = protocol.initial_frequency
        self.tolerance = tolerance
        self.t_max = float(ts[-1])
        self.rtol, self.nfev, self.steps = rtol, nfev, steps
        self._dense = dense
        self.ts = ts
        self.bs, self.bdots, self.clocks, self.horizon_integrals = dense(ts)
        self.p, self.q, self.s = p, q, s
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
        accel = abs(scale_ode_rhs(b_f, t_f, self.protocol, self.dimension,
                                  self.exponent))
        self.alpha_converged = bd_f > 0.0 and accel * b_f / bd_f**2 <= self.tolerance

        # The linear regime needs bdot within _LINEAR_TOL of its asymptote:
        # over a short window b ~ 1 fits any line, and the fit alone would
        # pass the residual test below.
        self.linear_offset = None
        self.linear_onset = None
        alpha = self.asymptotic_velocity
        if released and alpha > 0.0 and bd_f >= (1.0 - _LINEAR_TOL) * alpha:
            decade = self.ts >= self.t_max / 10.0
            if np.any(decade):
                self.linear_offset = float(np.mean(self.ts[decade]
                                                   - self.bs[decade] / alpha))
                resid = np.abs(self.bs - alpha * (self.ts - self.linear_offset))
                ok = resid <= _LINEAR_TOL * self.bs
                if ok[-1]:
                    onset_idx = len(ok) - np.argmin(ok[::-1])  # after last failure
                    self.linear_onset = float(self.ts[min(onset_idx, len(ok) - 1)])

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self.t_max * (1 + 1e-12))):
            raise ValueError(f"t outside sampled range [0, {self.t_max}]")
        return t

    # -- dense lookups ---------------------------------------------------------

    def expansion_on(self, t0: float, t1: float):
        """Check [t0, t1] once; return an unchecked t -> (b, bdot) for times
        inside it, both from one dense evaluation."""
        self._check_range([t0, t1])
        dense = self._dense
        return lambda t: dense(t)[:2]

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
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be 2 or 3, got {dimension!r}")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    if not 1e-14 < tolerance < 1e-4:
        raise ValueError("tolerance must lie in (1e-14, 1e-4)")
    p = scale_exponent(dimension, exponent)
    s = horizon_exponent(dimension, exponent)
    q = clock_exponent(dimension, exponent)
    omega0 = protocol.initial_frequency

    def deriv(t, b, bdot):
        if b <= 0.0:
            raise NumericalError(f"scale factor collapsed to b={b} at t={t}")
        return bdot, scale_ode_rhs(b, t, protocol, dimension, exponent), b**q, b**-s

    rtol = max(tolerance / 20.0, 1e-13)
    atol = tuple(scale * tolerance * 1e-4 for scale in (1.0, omega0, 1.0 / omega0,
                                                        1.0 / omega0))
    try:
        starts, widths, states, stages, nfev = _dormand_prince(deriv, t_max, rtol, atol)
        # a finite state can still overflow the dense coefficients
        with np.errstate(over="raise", invalid="raise"):
            dense = _PiecewiseQuartic(starts, widths, states, stages)
            trajectory = ScaleTrajectory(protocol, dimension, exponent, tolerance, dense,
                                         np.linspace(0.0, t_max, n_samples), rtol,
                                         nfev, len(starts), p=p, q=q, s=s)
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError("scale-factor integration failed: overflow "
                             f"({exc.args[-1]})") from exc
    return trajectory


class LinearExpansion:
    """Pure linear background b = alpha t, for late-time mode analysis."""

    def __init__(self, alpha: float):
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        self.asymptotic_velocity = alpha
        self.linear_offset = 0.0

    @staticmethod
    def _check_range(t):
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise ValueError("linear background defined for t > 0 only")
        return t

    def expansion_on(self, t0: float, t1: float):
        """Check [t0, t1] once; return an unchecked t -> (alpha t, alpha)."""
        self._check_range([t0, t1])
        alpha = self.asymptotic_velocity
        return lambda t: (alpha * t, alpha)

    def b(self, t):
        return self.asymptotic_velocity * self._check_range(t)

    def bdot(self, t):
        return np.full_like(self._check_range(t), self.asymptotic_velocity)


class _ProperTime:
    def __init__(self, trajectory, prefactor):
        self._traj = trajectory
        self._prefactor = prefactor

    def __call__(self, t):
        return self._prefactor * self._traj.clock(t)

    @property
    def samples(self) -> np.ndarray:
        """tau at the trajectory's sample times ts, from its stored clocks."""
        return self._prefactor * self._traj.clocks

    @property
    def infinity(self) -> float:
        return self._prefactor * self._traj.clock_infinity


def proper_time(trajectory: ScaleTrajectory, prefactor: float = 1.0):
    """Co-moving proper time as a function of laboratory time.

    Flat cases (N = 1 + 2/D) use the bare 1/b^2 integrand, making tau a real
    time. The general branch multiplies the b^q clock by the caller-supplied
    prefactor sqrt(A(0)) c(0).
    """
    return _ProperTime(trajectory, prefactor)

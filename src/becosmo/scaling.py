"""Scale-factor dynamics of the released condensate.

The whole expansion is carried by a single scale factor b(t) obeying

    b'' = omega0^2 / b^p,      p = D + 1,

with b(0) = 1, b'(0) = 0 and D = 2 or 3: the quartic coupling after the
trap is switched off at t = 0. Alongside b runs the co-moving clock integral
of b^q: the co-moving proper time tau over the constant sqrt(A(0)) c(0). In
quasi-2D, the flat case (q = -2), tau is the clock itself, a real time, and
in 3D (q = -9/4) the run pipeline applies the prefactor. Quasi-2D is closed
form, b = sqrt(1 + omega0^2 t^2) with clock arctan(omega0 t)/omega0, and so
is a held trap, b = 1 with clock t; only a free 3D run is integrated, by an
in-module Dormand-Prince 5(4) stepper (the method of scipy's RK45) with
Shampine's quartic dense output, so the module needs numpy only. The horizon
integral, what remains from t on of the integral of b^-s, s = 1 + D/2, needs
no integration: after release the first integral bdot = alpha sqrt(1 - b^-D),
alpha = omega0 sqrt(2/D), turns it into (2/(D alpha)) arcsin(b(t)^(-D/2)),
pi/(D alpha) at release. The module computes only; the run pipeline in
scenarios writes the sampled history to trajectory.csv.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .condensate import check_dimension, check_frequency

# Upper bound on a sample count: far above any grid a run needs, and small
# enough that a typo cannot ask for terabytes.
_MAX_SAMPLES = 1_000_000


class NumericalError(RuntimeError):
    """Integration failed (step-size underflow or tolerance not met)."""


def check_tolerance(tolerance, name: str) -> None:
    # the embedded Runge-Kutta error control is honest in this interval only
    if not 1e-14 < tolerance < 1e-4:
        raise ValueError(f"{name} must lie in (1e-14, 1e-4)")


def check_sample_count(count, name: str) -> None:
    if not (isinstance(count, numbers.Integral) and 2 <= count <= _MAX_SAMPLES):
        raise ValueError(f"{name} must be an integer in [2, {_MAX_SAMPLES}]")


def analytic_scale_2d(t, omega0: float):
    """Closed-form free expansion of the flat quartic 2D case: with x = omega0 t,
    (b, bdot, clock) = (hypot(1, x), omega0 x/b, arctan(x)/omega0), shaped
    (3,) for a scalar time and (3, n) for n times."""
    x = omega0 * np.asarray(t, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("t must be non-negative")
    b = np.hypot(1.0, x)
    return np.array([b, omega0 * (x / b), np.arctan(x) / omega0])


def _held_trap(t):
    """The trap held on: (b, bdot, clock) = (1, 0, t), shaped as analytic_scale_2d."""
    t = np.asarray(t, dtype=float)
    return np.array([np.ones_like(t), np.zeros_like(t), t])


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
    """Integrate y = (b, bdot, clock) from (1, 0, 0) at t = 0 to t_end, in
    Python floats.

    deriv(t, b, bdot) returns dy/dt as a 3-tuple; the clock channel does not
    feed back, so the stage sums carry b and bdot only. Step control is
    scipy's RK45: the error is the RMS over the channels of
    err / (atol + rtol max(|y|, |y_new|)), and a step changes by a factor
    0.9 err^(-1/5) clipped to [0.2, 10], never growing right after a
    rejection. Returns the step starts, widths, start states (3, steps),
    stages (steps, 7, 3) and the number of deriv calls. Overflow and a step
    below ten float spacings of t raise NumericalError.
    """
    a_b, a_v, a_c = atol
    t, b, v, c = 0.0, 1.0, 0.0, 0.0
    k1 = deriv(t, b, v)

    # Initial step of Hairer, Norsett & Wanner (Sec. II.4), as in scipy, from
    # the RMS norms d0 of y/scale, d1 of y'/scale and d2 of y''/scale at
    # t = 0. d0 >= 0.57/(1e-8 + 5e-6) always, so only d1 and d2 can be small.
    s_b = a_b + rtol                  # scale of b = 1; the other channels are 0
    d0 = math.sqrt(1.0 / 3.0) / s_b
    d1 = math.sqrt(((k1[0] / s_b) ** 2 + (k1[1] / a_v) ** 2 + (k1[2] / a_c) ** 2)
                   / 3.0)
    h0 = min(1e-6 if d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    k = deriv(h0, b + h0 * k1[0], v + h0 * k1[1])
    d2 = math.sqrt((((k[0] - k1[0]) / s_b) ** 2 + ((k[1] - k1[1]) / a_v) ** 2
                    + ((k[2] - k1[2]) / a_c) ** 2) / 3.0) / h0
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
            kb1, kv1, kc1 = k1
            kb2, kv2, kc2 = k2 = deriv(t + _C2 * h, b + h * _A21 * kb1,
                                       v + h * _A21 * kv1)
            kb3, kv3, kc3 = k3 = deriv(
                t + _C3 * h, b + h * (_A31 * kb1 + _A32 * kb2),
                v + h * (_A31 * kv1 + _A32 * kv2))
            kb4, kv4, kc4 = k4 = deriv(
                t + _C4 * h, b + h * (_A41 * kb1 + _A42 * kb2 + _A43 * kb3),
                v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3))
            kb5, kv5, kc5 = k5 = deriv(
                t + _C5 * h,
                b + h * (_A51 * kb1 + _A52 * kb2 + _A53 * kb3 + _A54 * kb4),
                v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4))
            kb6, kv6, kc6 = k6 = deriv(
                t + h,
                b + h * (_A61 * kb1 + _A62 * kb2 + _A63 * kb3 + _A64 * kb4 + _A65 * kb5),
                v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5))
            b_new = b + h * (_B1 * kb1 + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
            v_new = v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6)
            c_new = c + h * (_B1 * kc1 + _B3 * kc3 + _B4 * kc4 + _B5 * kc5 + _B6 * kc6)
            if not math.isfinite(b_new + v_new + c_new):
                raise NumericalError("scale-factor integration failed: overflow "
                                     f"in the step from t={t}")
            kb7, kv7, kc7 = k7 = deriv(t_new, b_new, v_new)
            nfev += 6
            e_b = (_E1 * kb1 + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6
                   + _E7 * kb7) / (a_b + rtol * max(abs(b), abs(b_new)))
            e_v = (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6
                   + _E7 * kv7) / (a_v + rtol * max(abs(v), abs(v_new)))
            e_c = (_E1 * kc1 + _E3 * kc3 + _E4 * kc4 + _E5 * kc5 + _E6 * kc6
                   + _E7 * kc7) / (a_c + rtol * max(abs(c), abs(c_new)))
            error = h * math.sqrt((e_b * e_b + e_v * e_v + e_c * e_c) / 3.0)
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
        states += (b, v, c)
        stages += (*k1, *k2, *k3, *k4, *k5, *k6, *k7)
        t, b, v, c, k1 = t_new, b_new, v_new, c_new, k7
        h *= factor
    return (np.array(starts), np.array(widths), np.array(states).reshape(-1, 3).T,
            np.array(stages).reshape(-1, 7, 3), nfev)


class _PiecewiseQuartic:
    """Dense output of the accepted steps, one quartic per step.

    On step i, y(t) = sum_j c_ij x^j with x = (t - t_i)/h_i, c_i0 the state
    at t_i and (c_i1 .. c_i4) = h_i K_i^T P (Shampine's interpolant). A
    lookup finds the step with searchsorted and evaluates the quartic in
    Horner form for every channel at once: a scalar time gives shape (3,),
    an array of times shape (3, n). Times must be >= 0; past the last step
    its quartic is extrapolated.
    """

    def __init__(self, starts, widths, states, stages):
        self._starts = starts
        self._widths = widths
        coefs = np.empty((5, 3, len(starts)))
        coefs[0] = states
        coefs[1:] = (widths[:, None, None]
                     * (stages.transpose(0, 2, 1) @ _P)).transpose(2, 1, 0)
        self._coefs = coefs

    def __call__(self, t):
        i = np.searchsorted(self._starts, t, side="right") - 1
        x = (t - self._starts[i]) / self._widths[i]
        c = self._coefs[..., i]
        return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0]


# A free run counts as linear once bdot is within this fraction of alpha:
# over a short window b ~ 1 fits any line, so bdot, not a residual, decides.
_LINEAR_TOL = 1e-3


class ScaleTrajectory:
    """Expansion history, closed form or integrated; immutable once constructed.

    Exposes dense-output lookups b(t), bdot(t) and the co-moving clock
    integral, each taking a scalar or an array of times within [0, t_max];
    the stored samples at ts are the same lookup. asymptotic_velocity is the
    model constant alpha = omega0 sqrt(2/D) of a free run (0 while held), and
    the remaining horizon integral of b^-s is the closed form of the first
    integral: (2/(D alpha)) arcsin(b(t)^(-D/2)), or inf for a held trap.
    linear_offset places the line b ~ alpha (t - linear_offset) through
    b(t_max) once bdot(t_max) is within _LINEAR_TOL of alpha, and is None
    before that; the mode engine matches its start on that line. method,
    rtol, nfev (right-hand side calls) and steps (accepted steps) record
    what the stepper did; a closed form has "closed-form", None, 0 and 0.
    """

    def __init__(self, dense, ts, alpha, dimension, method, rtol, nfev, steps):
        self.t_max = float(ts[-1])
        self.method, self.rtol, self.nfev, self.steps = method, rtol, nfev, steps
        self._dense = dense
        self.ts, self.dimension = ts, dimension
        self.bs, self.bdots, self.clocks = dense(ts)
        self.asymptotic_velocity = alpha
        self.linear_offset = None
        if alpha > 0.0 and self.bdots[-1] >= (1.0 - _LINEAR_TOL) * alpha:
            self.linear_offset = self.t_max - float(self.bs[-1]) / alpha

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
        """Integral of b^-s from t to inf, s = 1 + D/2, in closed form."""
        t = self._check_range(t)
        alpha, D = self.asymptotic_velocity, self.dimension
        if alpha == 0.0:
            return np.full_like(t, math.inf)[()]
        u = np.float_power(self._dense(t)[0], -D / 2.0)
        return 2.0 / (D * alpha) * np.arcsin(u)


def integrate_scale_factor(omega0: float, dimension: int, t_max: float,
                           tolerance: float = 1e-10, n_samples: int = 400,
                           held: bool = False) -> ScaleTrajectory:
    """The scale factor with dense output: closed form, or integrated in 3D.

    The trap of frequency omega0 is switched off at t = 0, or stays on when
    held. Only a free 3D run is stepped, to the local relative error target
    tolerance (check_tolerance); n_samples evenly spaced samples from 0 to
    t_max are stored (check_sample_count).
    """
    check_dimension(dimension)
    check_frequency(omega0, "initial frequency")
    if not t_max > 0.0:
        raise ValueError("t_max must be positive")
    check_tolerance(tolerance, "tolerance")
    check_sample_count(n_samples, "n_samples")
    # the first integral bdot^2 = alpha^2 (1 - b^-D) of a free run
    alpha = 0.0 if held else omega0 * math.sqrt(2.0 / dimension)
    # free 3D: b'' = omega0^2/b^4 keeps b >= 1; the clock integrand is b^(-9/4)
    w2 = omega0**2

    def deriv(t, b, bdot):
        return bdot, w2 / b**4.0, b**-2.25

    rtol = max(tolerance / 20.0, 1e-13)
    atol = tuple(scale * tolerance * 1e-4 for scale in (1.0, omega0, 1.0 / omega0))
    try:
        # the top of the float range overflows the samples or omega0 t, and a
        # finite stepped state can overflow the dense coefficients
        with np.errstate(over="raise", invalid="raise"):
            ts = np.linspace(0.0, t_max, n_samples)
            if held or dimension == 2:
                dense = _held_trap if held else lambda t: analytic_scale_2d(t, omega0)
                return ScaleTrajectory(dense, ts, alpha, dimension, "closed-form",
                                       None, 0, 0)
            starts, widths, states, stages, nfev = _dormand_prince(
                deriv, t_max, rtol, atol)
            return ScaleTrajectory(_PiecewiseQuartic(starts, widths, states, stages),
                                   ts, alpha, dimension, "dormand-prince-5(4)", rtol,
                                   nfev, len(starts))
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"scale factor overflows ({exc.args[-1]})") from exc


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

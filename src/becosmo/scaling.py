"""Scale-factor dynamics of the released condensate.

The whole expansion is carried by a single scale factor b(t) obeying

    b'' = omega0^2 / b^p,      p = D + 1,

with b(0) = 1, b'(0) = 0 and D = 2 or 3: the quartic coupling after the
trap is switched off at t = 0. Alongside b runs the co-moving clock integral
of b^q: the co-moving proper time tau over the constant sqrt(A(0)) c(0). In
quasi-2D, the flat case (q = -2), tau is the clock itself, a real time, and
in 3D (q = -9/4) the run pipeline applies the prefactor. Every history is
closed form, so the module needs numpy only and integrates nothing. Quasi-2D
is b = sqrt(1 + omega0^2 t^2) with clock arctan(omega0 t)/omega0, and a held
trap b = 1 with clock t. After release the first integral
bdot = alpha sqrt(1 - b^-D), alpha = omega0 sqrt(2/D), gives the rest. In
free 3D it makes t(b) and the clock incomplete Beta integrals of b, summed as
series, and b(t) is t(b) inverted by Newton's method (analytic_scale_3d).
The horizon integral, what remains from t on of the integral of b^-s,
s = 1 + D/2, is (2/(D alpha)) arcsin(b(t)^(-D/2)), pi/(D alpha) at release.
The module computes only; the run pipeline in scenarios writes the sampled
history to trajectory.csv.
"""

from __future__ import annotations

import math

import numpy as np

from .condensate import (check_dimension, check_frequency, check_positive,
                         check_sample_count)


class NumericalError(RuntimeError):
    """The closed-form history overflows, or b(t) does not converge."""


def analytic_scale_2d(t, omega0: float):
    """Closed-form free expansion of the flat quartic 2D case: with x = omega0 t,
    (b, bdot, clock) = (hypot(1, x), omega0 x/b, arctan(x)/omega0), shaped
    (3,) for a scalar time and (3, n) for n times."""
    check_positive(omega0=omega0)
    x = omega0 * np.asarray(t, dtype=float)
    check_positive(allow_zero=True, t=t, omega0_t=x)
    b = np.hypot(1.0, x)
    return np.array([b, omega0 * (x / b), np.arctan(x) / omega0])


def _held_trap(t):
    """The trap held on: (b, bdot, clock) = (1, 0, t), shaped as analytic_scale_2d."""
    t = np.asarray(t, dtype=float)
    return np.array([np.ones_like(t), np.zeros_like(t), t])


# Free 3D. With x = omega0 t, a0 = alpha/omega0 = sqrt(2/3) and u = b^-3,
# the first integral makes x and omega0 times the clock at b both
#     (1/(3 a0)) integral_u^1 v^(a-1) (1-v)^(-1/2) dv,
# with a = -1/3 for x and a = 5/12 for the clock (its integrand is b^-9/4):
# an incomplete Beta integral (DLMF 8.17). For u >= 1/2 it is summed in
# w = 1 - u,
#     2 sqrt(w) sum_k (1-a)_k/k! w^k/(2k+1),
# and below that as the complete B(a, 1/2) less
#     sum_k (1/2)_k/k! u^(k+a)/(k+a),
# the identity continued analytically to a = -1/3. u^a is written as a power
# of b (b itself for x), so that a b beyond 1e102 does not underflow u into
# 0^(-1/3). The series variable is at most 1/2, and the term counts keep the
# first omitted term under 1e-17 of the sum: 50 in w, 44 in u, and 5 once u
# is below 1e-3 (b above 10). _horner sums Newton's few samples in Python floats.
_A0 = math.sqrt(2.0 / 3.0)
_W_TERMS, _U_TERMS, _U_TERMS_LATE = 50, 44, 5
_FEW_SAMPLES = 16
_B_HALF, _B_LATE = 2.0 ** (1.0 / 3.0), 10.0    # b at u = 1/2 and u = 1e-3


def _beta_series(a: float):
    """The w-series and u-series coefficients and the complete integral
    B(a, 1/2), each over 3 a0."""
    w_terms, u_terms = [1.0], [1.0]           # (1 - a)_k/k! and (1/2)_k/k!
    for k in range(1, _W_TERMS):
        w_terms.append(w_terms[-1] * (k - a) / k)
    for k in range(1, _U_TERMS):
        u_terms.append(u_terms[-1] * (k - 0.5) / k)
    scale = 1.0 / (3.0 * _A0)
    return (np.array([2.0 * c / (2 * k + 1) for k, c in enumerate(w_terms)]) * scale,
            np.array([c / (k + a) for k, c in enumerate(u_terms)]) * scale,
            math.gamma(a) * math.gamma(0.5) / math.gamma(a + 0.5) * scale)


_TIME_W, _TIME_U, _TIME_B = _beta_series(-1.0 / 3.0)
_CLOCK_W, _CLOCK_U, _CLOCK_B = _beta_series(5.0 / 12.0)


def _horner(coefs, z):
    """sum_k coefs[k] z^k for a 1-D z, a few samples in Python floats (numpy
    costs two calls per term); both paths round alike, sample by sample."""
    if z.size <= _FEW_SAMPLES:
        coefs, totals = coefs[::-1].tolist(), []
        for v in z.tolist():
            total = coefs[0]
            for c in coefs[1:]:
                total = total * v + c
            totals.append(total)
        return np.array(totals)
    total = np.full_like(z, coefs[-1])
    for c in coefs[-2::-1]:
        total *= z
        total += c
    return total


def _early_w(y):
    """w = 1 - u at b = 1 + y, without the cancellation of 1 - u near release."""
    return -np.expm1(-3.0 * np.log1p(y))


def _time_early(y):
    """(x, w) at b = 1 + y, for u >= 1/2."""
    w = _early_w(y)
    return np.sqrt(w) * _horner(_TIME_W, w), w


def _time_late(b, terms: int):
    """(x, w) at b from the first terms of the u-series, for u < 1/2."""
    r = 1.0 / b
    u = r * r * r
    return _TIME_B - b * _horner(_TIME_U[:terms], u), 1.0 - u


def _clock_early(w):
    """omega0 times the clock at w = 1 - u, for u >= 1/2."""
    return np.sqrt(w) * _horner(_CLOCK_W, w)


def _clock_late(b, terms: int):
    """omega0 times the clock at b from the first terms of the u-series."""
    r = 1.0 / b
    return _CLOCK_B - r * np.sqrt(np.sqrt(r)) * _horner(_CLOCK_U[:terms], r * r * r)


def _release(b):
    """x = omega0 t at which a free 3D run reaches b >= 1, shaped as b."""
    flat = np.asarray(b, dtype=float).reshape(-1)
    x = np.empty(flat.size)
    early, late = flat <= _B_HALF, flat >= _B_LATE
    x[early] = _time_early(flat[early] - 1.0)[0]
    for i, terms in ((~early & ~late, _U_TERMS), (late, _U_TERMS_LATE)):
        x[i] = _time_late(flat[i], terms)[0]
    return x.reshape(np.shape(b))


# Newton's method on x(b): a step under _NEWTON_TOL z leaves an error of
# about (z x''/(2 x')) (step/z)^2, below 2^-53 z since |z x''/x'| <= 3/2 on
# every bin; more than _NEWTON_CAP steps means the inversion has failed.
_NEWTON_TOL, _NEWTON_CAP = 2.0**-26, 8


def _newton(evaluate, x, z):
    """Solve evaluate(z)[0] = x for z, from the guesses z, where evaluate
    returns (x(z), w(z)) and dx/dz = 1/(a0 sqrt(w)). Each element stops at
    its own first step under _NEWTON_TOL z, so a scalar gives its array
    element bit for bit; one that has not stopped by _NEWTON_CAP steps (a
    NaN included) raises NumericalError."""
    active = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        za = z[active]
        xz, w = evaluate(za)
        step = (xz - x[active]) * (_A0 * np.sqrt(w))
        za -= step
        z[active] = za
        active = active[~(np.abs(step) <= _NEWTON_TOL * za)]
        if not active.size:
            return z
    raise NumericalError(f"b(t) did not converge in {_NEWTON_CAP} Newton steps "
                         f"at omega0 t = {x[active[0]]!r}")


_X_HALF, _X_LATE = _release(np.array([_B_HALF, _B_LATE])).tolist()
# Below this x the first omitted Taylor terms of b = 1 + x^2/2, bdot/omega0 =
# x - 2 x^3/3 and omega0 clock = x - 3 x^3/8 are under half an ulp, while
# y = b - 1 is still far from subnormal (it would underflow below x ~ 1e-162).
_X_TINY = 2.0**-27


def analytic_scale_3d(t, omega0: float):
    """Closed-form free expansion of the quartic 3D case: (b, bdot, clock)
    at times t, shaped (3,) for a scalar time and (3, n) for n times as
    analytic_scale_2d.

    b inverts x(b), x = omega0 t, by Newton's method: on y = b - 1 from
    x^2/2 - x^4/6 + 19 x^6/180 while u >= 1/2, and on b from
    c + 1/(4 c^2) - 1/(20 c^5), c = a0 x - B(-1/3, 1/2)/3, after that.
    bdot = alpha sqrt(1 - b^-3). Below x = 2^-27, where the next Taylor
    terms are under half an ulp, (b, bdot, clock) = (1, omega0 x, x/omega0)
    as in analytic_scale_2d. Every element is computed on its own, so a
    scalar time gives its array element bit for bit.
    """
    check_positive(omega0=omega0)
    x = omega0 * np.asarray(t, dtype=float)
    check_positive(allow_zero=True, t=t, omega0_t=x)
    flat = x.reshape(-1)
    rows = np.empty((3, flat.size))   # b, w (bdot), omega0 clock
    tiny = np.flatnonzero(flat < _X_TINY)
    # w = 0 keeps the square root below defined; bdot = omega0 x comes after it
    rows[0, tiny], rows[1, tiny], rows[2, tiny] = 1.0, 0.0, flat[tiny]
    i = np.flatnonzero((flat >= _X_TINY) & (flat < _X_HALF))
    if i.size:
        x2 = flat[i] ** 2
        y = _newton(_time_early, flat[i], x2 * (0.5 - x2 * (1 / 6 - 19 / 180 * x2)))
        rows[0, i], rows[1, i] = 1.0 + y, _early_w(y)
        rows[2, i] = _clock_early(rows[1, i])
    for i, terms in ((np.flatnonzero((flat >= _X_HALF) & (flat < _X_LATE)), _U_TERMS),
                     (np.flatnonzero(flat >= _X_LATE), _U_TERMS_LATE)):
        if not i.size:
            continue
        c = _A0 * (flat[i] - _TIME_B)
        inverse = 1.0 / c
        b = _newton(lambda b: _time_late(b, terms), flat[i],
                    c + inverse**2 * (0.25 - inverse**3 / 20.0))
        r = 1.0 / b
        rows[0, i], rows[1, i], rows[2, i] = b, 1.0 - r * r * r, _clock_late(b, terms)
    rows[1] = omega0 * _A0 * np.sqrt(rows[1])
    rows[1, tiny] = omega0 * flat[tiny]
    rows[2] /= omega0
    return rows.reshape((3,) + x.shape)


# A free run counts as linear once bdot is within this fraction of alpha:
# over a short window b ~ 1 fits any line, so bdot, not a residual, decides.
_LINEAR_TOL = 1e-3


class ScaleTrajectory:
    """Expansion history in closed form; immutable once constructed.

    dense(t) gives the rows (b, bdot, clock) at times t, and time_of(b) the
    time at which the history reaches b. The lookups b(t), bdot(t) and the
    co-moving clock integral take a scalar or an array of times within
    [0, t_max]; the stored samples at ts are the same lookup, so a lookup
    whose times are all sample times (the horizons stage reads ts[1:]) reads
    them instead. asymptotic_velocity is the model constant
    alpha = omega0 sqrt(2/D) of a free run (0 while held), and the remaining
    horizon integral of b^-s is the closed form of the first integral:
    (2/(D alpha)) arcsin(b(t)^(-D/2)), or inf for a held trap.
    linear_offset places the line b ~ alpha (t - linear_offset) through
    b(t_max) once bdot(t_max) is within _LINEAR_TOL of alpha, and is None
    before that; the mode engine matches its start on that line.
    """

    def __init__(self, dense, time_of, ts, alpha, dimension):
        self.t_max = float(ts[-1])
        self._dense, self._time_of = dense, time_of
        self.ts, self.dimension = ts, dimension
        self._samples = dense(ts)
        self.bs, self.bdots, self.clocks = self._samples
        self.asymptotic_velocity = alpha
        self.linear_offset = None
        if alpha > 0.0 and self.bdots[-1] >= (1.0 - _LINEAR_TOL) * alpha:
            self.linear_offset = self.t_max - float(self.bs[-1]) / alpha

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        ok = (t >= 0.0) & (t <= self.t_max * (1 + 1e-12))
        if not ok.all():
            raise ValueError(f"t={float(t[~ok].flat[0])!r} outside sampled range "
                             f"[0, {self.t_max}]")
        return t

    # -- dense lookups ---------------------------------------------------------

    def _lookup(self, t):
        """The rows at times t: the stored samples when every time is a sample
        time, which the dense form gives bit for bit, else the dense form."""
        t = self._check_range(t)
        i = np.minimum(np.searchsorted(self.ts, t), self.ts.size - 1)
        if np.array_equal(self.ts[i], t):
            return self._samples[:, i]
        return self._dense(t)

    def b(self, t):
        return self._lookup(t)[0]

    def bdot(self, t):
        return self._lookup(t)[1]

    def clock(self, t):
        """Co-moving clock integral of b^q from 0 to t (prefactor-free)."""
        return self._lookup(t)[2]

    def horizon_integral(self, t):
        """Integral of b^-s from t to inf, s = 1 + D/2, in closed form."""
        alpha, D = self.asymptotic_velocity, self.dimension
        if alpha == 0.0:
            return np.full_like(self._check_range(t), math.inf)[()]
        u = np.float_power(self._lookup(t)[0], -D / 2.0)
        return 2.0 / (D * alpha) * np.arcsin(u)

    def time_at(self, b):
        """The time at which b(t) reaches b, past t_max too; inf for a held
        trap, and for b = inf. Every element must be at least 1."""
        b = np.asarray(b, dtype=float)
        low = ~(b >= 1.0)
        if low.any():
            raise ValueError(f"b={float(b[low].flat[0])!r} must be at least 1")
        return self._time_of(b)


def integrate_scale_factor(omega0: float, dimension: int, t_max: float,
                           n_samples: int = 400, held: bool = False) -> ScaleTrajectory:
    """The scale factor in closed form, sampled at n_samples evenly spaced
    times from 0 to t_max (check_sample_count).

    The trap of frequency omega0 is switched off at t = 0, or stays on when
    held. A history that overflows the float range raises NumericalError.
    """
    check_dimension(dimension)
    check_frequency(omega0, "omega0 (the initial frequency)")
    check_positive(t_max=t_max)
    check_sample_count(n_samples, "n_samples")
    # the first integral bdot^2 = alpha^2 (1 - b^-D) of a free run
    alpha = 0.0 if held else omega0 * math.sqrt(2.0 / dimension)
    if held:
        dense, time_of = (_held_trap,
                          lambda b: np.full_like(b, math.inf)[()])
    elif dimension == 2:
        # sqrt(b^2 - 1) as two roots, so that b past 1e154 does not overflow
        dense, time_of = (lambda t: analytic_scale_2d(t, omega0),
                          lambda b: np.sqrt(b - 1.0) * np.sqrt(b + 1.0) / omega0)
    else:
        dense, time_of = (lambda t: analytic_scale_3d(t, omega0),
                          lambda b: _release(b) / omega0)
    try:
        # the top of the float range overflows the samples or omega0 t
        with np.errstate(over="raise", invalid="raise"):
            return ScaleTrajectory(dense, time_of, np.linspace(0.0, t_max, n_samples),
                                   alpha, dimension)
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"scale factor overflows ({exc.args[-1]})") from exc


class LinearExpansion:
    """Pure linear background b = alpha t, for late-time mode analysis."""

    def __init__(self, alpha: float):
        check_positive(alpha=alpha)
        self.asymptotic_velocity = alpha
        self.linear_offset = 0.0

    @staticmethod
    def _check_range(t):
        check_positive(t=t)
        return np.asarray(t, dtype=float)

    def b(self, t):
        return self.asymptotic_velocity * self._check_range(t)

    def bdot(self, t):
        return np.full_like(self._check_range(t), self.asymptotic_velocity)

"""Gamma and fractional-order Bessel/Hankel functions.

gamma is math.gamma. The rest is a self-contained kernel for the fractional
orders appearing in the analytic mode solutions of the expanding condensate
(nu = +-1/3, +-2/3, plus any non-integer order in (-2, 2)).

Evaluation uses two branches of one array-valued kernel:
  * ascending power series (extended-precision accumulation) for x < X_SWITCH,
  * Hankel asymptotic expansion (modulus/phase form) for x >= X_SWITCH.

The public functions are bessel_j, bessel_y and hankel1 (= J + iY). Each
takes a scalar or an array x (every element checked) and returns a NumPy
scalar or an array of x's shape; nu is a scalar. Derivatives follow from the
order recurrence dH_nu/dx = H_(nu-1) - (nu/x) H_nu, which is how the 3D mode
solution in threed uses them.

Guaranteed relative accuracy is 1e-10 for x in [1e-3, 100] away from zeros
of the individual functions; both branches remain usable outside that range.
Integer orders are rejected: they would hit the logarithmic branch of Y_nu,
which this kernel deliberately does not implement.
"""

from __future__ import annotations

import math

import numpy as np

X_SWITCH = 12.0
_INTEGER_EPS = 1e-9
_LD = np.longdouble
# Terms summed by the power series; below X_SWITCH the last one is more than
# 60 orders of magnitude under the largest.
_SERIES_TERMS = 60
# Terms tried by the asymptotic expansion, which stops at its smallest term.
_ASYMPTOTIC_TERMS = 60

# Gamma is the standard library's, accurate to about 1e-16 relative; it
# raises ValueError at the poles (zero and the negative integers).
gamma = math.gamma


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not -2.0 < nu < 2.0:
        raise ValueError(f"order nu={nu} outside supported range (-2, 2)")
    return nu


def _check_noninteger(nu: float) -> float:
    nu = _check_order(nu)
    if abs(nu - round(nu)) < _INTEGER_EPS:
        raise ValueError(f"integer order nu={nu} not supported (logarithmic branch)")
    return nu


def _series_j(orders, x: np.ndarray) -> np.ndarray:
    """Ascending series for J_nu, accumulated in extended precision.

    Returns one row per order in orders, one column per argument in x.
    """
    nu = np.array(orders, dtype=_LD)[:, None]
    half = x.astype(_LD) / 2
    gammas = np.array([gamma(v + 1.0) for v in orders], dtype=_LD)[:, None]
    pref = np.exp(nu * np.log(half)) / gammas
    k = np.arange(1, _SERIES_TERMS, dtype=_LD)[:, None, None]
    terms = np.cumprod(-half * half / (k * (nu + k)), axis=0)
    return (pref * (1 + terms.sum(axis=0))).astype(float)


def _hankel1_series(nu: float, x: np.ndarray) -> np.ndarray:
    """H^(1)_nu = J_nu + i Y_nu from the series of J_nu and J_-nu."""
    j_pos, j_neg = _series_j((nu, -nu), x)
    s, c = math.sin(nu * math.pi), math.cos(nu * math.pi)
    return j_pos + 1j * ((j_pos * c - j_neg) / s)


def _hankel1_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion of H^(1)_nu, truncated before its smallest term."""
    k = np.arange(1, _ASYMPTOTIC_TERMS)[:, None]
    terms = np.cumprod((4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k * x), axis=0)
    size = np.abs(terms)
    previous = np.vstack([np.full((1, x.size), math.inf), size[:-1]])
    shrinking = np.logical_and.accumulate(size < previous, axis=0)
    phase = np.array([1j, -1.0, -1j, 1.0])[(k - 1) % 4]     # i^k
    total = 1.0 + (phase * np.where(shrinking, terms, 0.0)).sum(axis=0)
    chi = x - nu * (math.pi / 2.0) - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(chi) + 1j * np.sin(chi)) * total


def _branches(x, series, asymptotic) -> np.ndarray:
    """series(x) below X_SWITCH and asymptotic(x) from it up, as one complex array."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"x={x[~(x > 0.0)][0]} must be positive")
    low = x < X_SWITCH
    out = np.empty(x.shape, dtype=complex)
    if low.any():
        out[low] = series(x[low])
    if not low.all():
        out[~low] = asymptotic(x[~low])
    return out


def bessel_j(nu: float, x):
    """Bessel function of the first kind, fractional order."""
    nu = _check_order(nu)
    return _branches(x, lambda xs: _series_j((nu,), xs)[0],
                     lambda xs: _hankel1_asymptotic(nu, xs)).real[()]


def bessel_y(nu: float, x):
    """Bessel function of the second kind via the non-integer connection formula."""
    return hankel1(nu, x).imag


def hankel1(nu: float, x):
    """H^(1)_nu = J_nu + i Y_nu."""
    nu = _check_noninteger(nu)
    return _branches(x, lambda xs: _hankel1_series(nu, xs),
                     lambda xs: _hankel1_asymptotic(nu, xs))[()]

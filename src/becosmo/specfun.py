"""Fractional-order Bessel and Hankel functions.

A self-contained kernel for the fractional orders appearing in the analytic
mode solutions of the expanding condensate (nu = +-1/3, +-2/3, plus any
non-integer order in (-2, 2)); Gamma is the standard library's math.gamma.

hankel1 (= J + iY) is the one kernel, with two branches:
  * ascending power series of J_nu and J_-nu (extended-precision
    accumulation) for x < X_SWITCH,
  * Hankel asymptotic expansion (modulus/phase form) for x >= X_SWITCH.
Its real and imaginary parts are J_nu and Y_nu. It takes a scalar or an
array x (every element checked) and returns a NumPy scalar or an array of
x's shape; nu is a scalar. Derivatives follow from the order recurrence
dH_nu/dx = H_(nu-1) - (nu/x) H_nu, which is how the 3D mode solution in
threed uses them.

Guaranteed relative accuracy is 1e-10 for x in [1e-3, 100] away from zeros
of J_nu and Y_nu; both branches remain usable outside that range.
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


def _series_j(orders, x: np.ndarray) -> np.ndarray:
    """Ascending series for J_nu, accumulated in extended precision.

    Returns one row per order in orders, one column per argument in x.
    """
    nu = np.array(orders, dtype=_LD)[:, None]
    half = x.astype(_LD) / 2
    gammas = np.array([math.gamma(v + 1.0) for v in orders], dtype=_LD)[:, None]
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


def hankel1(nu: float, x):
    """H^(1)_nu = J_nu + i Y_nu: the series below X_SWITCH, the asymptotic
    expansion from it up."""
    nu = float(nu)
    if not -2.0 < nu < 2.0:
        raise ValueError(f"order nu={nu} outside supported range (-2, 2)")
    if abs(nu - round(nu)) < _INTEGER_EPS:
        raise ValueError(f"integer order nu={nu} not supported (logarithmic branch)")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"x={x[~(x > 0.0)][0]} must be positive")
    low = x < X_SWITCH
    out = np.empty(x.shape, dtype=complex)
    if low.any():
        out[low] = _hankel1_series(nu, x[low])
    if not low.all():
        out[~low] = _hankel1_asymptotic(nu, x[~low])
    return out[()]

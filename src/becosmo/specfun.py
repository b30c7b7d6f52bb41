"""Fractional-order Bessel and Hankel functions.

A self-contained kernel for the fractional orders appearing in the analytic
mode solutions of the expanding condensate (nu = +-1/3, +-2/3, plus any
non-integer order in (-2, 2)); Gamma is the standard library's math.gamma.

hankel1 (= J + iY) is the one kernel; its real and imaginary parts are J_nu
and Y_nu. Below X_SWITCH = 12 it sums the ascending series of J_nu and J_-nu
(DLMF 10.2.2), Y_nu = (J_nu cos(nu pi) - J_-nu) / sin(nu pi), in one fixed
form per range: below _X_DOUBLE = 2 by Horner's rule in float64 on
_DOUBLE_TERMS coefficients made in extended precision, from it up as
_EXTENDED_TERMS terms added in order in extended precision (np.longdouble).
From X_SWITCH up it sums the Hankel asymptotic expansion (modulus/phase form)
on term tables ((2k - 1)^2, 8k and i^k) built once at import. Against
40-digit mpmath, relative to |H|, the worst error for nu = +-1/3 and +-2/3
is 6-9e-16 below 2 and 1.7-1.9e-15 on [2, 12); for +-0.1 and +-1.9 it is
1.6e-15 and 4-6e-15. J_-nu or Y_nu beyond the float64 range (x below about
10^(-308/|nu|), so |nu| > 0.95) is a ValueError naming x and nu.

hankel1 takes a scalar or an array x (every element checked: positive and
finite) and returns a NumPy scalar or an array of x's shape, a scalar call
bit for bit the element an array call gives. nu is one order, or a 1-D
sequence of orders that adds a leading order axis, each row bit for bit the
one-order call: the series runs once over the interleaved orders (nu_1,
-nu_1, nu_2, -nu_2, ...), and the asymptotic expansion once with the orders
broadcast against the arguments. Derivatives follow from the order
recurrence dH_nu/dx = H_(nu-1) - (nu/x) H_nu, which is how the 3D mode
solution in threed uses them: H_{2/3} and H_{-1/3} from one call.

Guaranteed relative accuracy is 1e-10 for x in [1e-3, 100] away from zeros
of J_nu and Y_nu; both branches remain usable outside that range.
Integer orders are rejected: they would hit the logarithmic branch of Y_nu,
which this kernel deliberately does not implement.
"""

from __future__ import annotations

import math

import numpy as np

from .condensate import check_positive

X_SWITCH = 12.0
# Below this argument the series is summed in float64. Its worst error
# against 40-digit mpmath, relative to |H|, is 1.6e-15 for nu = +-0.1 below 2,
# 4.7e-15 below 3 and 9e-15 below 4; the extended sum's is 0.8-1.1e-15.
_X_DOUBLE = 2.0
# Horner terms below _X_DOUBLE, the leading 1 included: at x = 2 the first
# term left out is under 5e-22 of the sum for any order in (-2, 2).
_DOUBLE_TERMS = 16
# Extended-precision terms from _X_DOUBLE up, the leading 1 included: at
# x = 12 the first term left out is under 3e-28 of the sum, far under half
# its ulp, so the sum is bit for bit the 60-term sum the tests hold it to.
_EXTENDED_TERMS = 40
_INTEGER_EPS = 1e-9
_LD = np.longdouble
# Terms tried by the asymptotic expansion, which stops at its smallest term,
# and its tables: (2k - 1)^2, 8k and the phase i^k of term k. 45 terms give
# the bits of 60 on orders in (-2, 2) and x in [X_SWITCH, 1e8]; one is margin.
_ASYMPTOTIC_TERMS = 46
_ASYMPTOTIC_K = np.arange(1, _ASYMPTOTIC_TERMS)[:, None, None]
_ODD_SQUARES = ((2 * _ASYMPTOTIC_K - 1) ** 2).astype(float)
_EIGHT_K = 8.0 * _ASYMPTOTIC_K
_PHASES = np.array([1j, -1.0, -1j, 1.0])[(_ASYMPTOTIC_K - 1) % 4]


def _series_double(nu: np.ndarray, gammas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu for the orders nu (a column) at x below _X_DOUBLE, in float64.
    The prefactor is x^nu / (2^nu Gamma(nu + 1)): x/2 rounds for subnormal x."""
    nu_ld = nu.astype(_LD)
    k = np.arange(1, _DOUBLE_TERMS, dtype=_LD)[:, None, None]
    coefs = np.cumprod(1 / (k * (nu_ld + k)), axis=0).astype(float)
    half = x / 2
    u = -half * half
    acc = coefs[-1] * u
    for c in coefs[-2::-1]:
        acc += c
        acc *= u
    scale = (np.exp2(nu_ld) * gammas).astype(float)
    return np.float_power(x, nu) / scale * (1 + acc)


def _series_extended(nu: np.ndarray, gammas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu for the orders nu (a column) at x from _X_DOUBLE up, its terms
    made by a running product and added in order in extended precision."""
    nu = nu.astype(_LD)
    half = x.astype(_LD) / 2
    pref = np.exp(nu * np.log(half)) / gammas.astype(_LD)
    k = np.arange(1, _EXTENDED_TERMS, dtype=_LD)[:, None, None]
    terms = np.cumprod(-half * half / (k * (nu + k)), axis=0)
    # cumsum adds row by row for any number of arguments; numpy's sum would
    # add a single argument's terms pairwise
    return (pref * (1 + np.cumsum(terms, axis=0)[-1])).astype(float)


def _hankel1_series(orders: list, x: np.ndarray) -> np.ndarray:
    """H^(1)_nu = J_nu + i Y_nu for each nu in orders, from one series pass
    over the interleaved orders (nu_1, -nu_1, nu_2, -nu_2, ...). Raises
    ValueError where J_-nu or Y_nu is beyond the float64 range."""
    nu = np.array([v for o in orders for v in (o, -o)])[:, None]
    gammas = np.array([math.gamma(v + 1.0) for v in nu.flat])[:, None]
    low = x < _X_DOUBLE
    j = np.empty((nu.size, x.size))
    s = np.array([math.sin(v * math.pi) for v in orders])[:, None]
    c = np.array([math.cos(v * math.pi) for v in orders])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if low.any():
            j[:, low] = _series_double(nu, gammas, x[low])
        if not low.all():
            j[:, ~low] = _series_extended(nu, gammas, x[~low])
        j_pos, j_neg = j[0::2], j[1::2]
        h1 = j_pos + 1j * ((j_pos * c - j_neg) / s)
    bad = ~np.isfinite(h1)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"hankel1 overflows at nu={orders[row]}, x={float(x[col])!r}: "
                         f"J_-nu or Y_nu is beyond the float64 range")
    return h1


def _hankel1_asymptotic(orders: list, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion of H^(1)_nu for each nu in orders, truncated
    before its smallest term: terms, orders and arguments on axes 0, 1, 2."""
    nu = np.array(orders)[:, None]
    terms = np.cumprod((4.0 * nu * nu - _ODD_SQUARES) / (_EIGHT_K * x), axis=0)
    size = np.abs(terms)
    shrinking = np.empty(size.shape, dtype=bool)
    shrinking[0] = True                     # the first term always counts
    np.less(size[1:], size[:-1], out=shrinking[1:])
    np.logical_and.accumulate(shrinking, axis=0, out=shrinking)
    # cumsum adds row by row for any number of arguments; numpy's sum would
    # add a single argument's terms pairwise, off by a bit from an array call
    total = 1.0 + np.cumsum(_PHASES * np.where(shrinking, terms, 0.0), axis=0)[-1]
    chi = x - nu * (math.pi / 2.0) - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(chi) + 1j * np.sin(chi)) * total


def hankel1(nu, x):
    """H^(1)_nu = J_nu + i Y_nu: the series below X_SWITCH, the asymptotic
    expansion from it up.

    nu is one order, or a 1-D sequence of orders that puts them on a leading
    axis: the result then has shape (len(nu),) + x.shape, and row i is bit
    for bit hankel1(nu[i], x). Every order must lie in (-2, 2) and be
    non-integer; a series value beyond the float64 range is a ValueError."""
    orders = np.asarray(nu, dtype=float)
    if orders.ndim > 1 or orders.size == 0:
        raise ValueError(f"nu must be one order or a non-empty 1-D sequence, "
                         f"not shape {orders.shape}")
    orders = orders.reshape(-1).tolist()
    for v in orders:
        if not -2.0 < v < 2.0:
            raise ValueError(f"order nu={v} outside supported range (-2, 2)")
        if abs(v - round(v)) < _INTEGER_EPS:
            raise ValueError(f"integer order nu={v} not supported (logarithmic branch)")
    check_positive(x=x)
    x = np.asarray(x, dtype=float)
    low = x < X_SWITCH
    out = np.empty((len(orders),) + x.shape, dtype=complex)
    if low.any():
        out[:, low] = _hankel1_series(orders, x[low])
    if not low.all():
        out[:, ~low] = _hankel1_asymptotic(orders, x[~low])
    return out.reshape(np.shape(nu) + x.shape)[()]

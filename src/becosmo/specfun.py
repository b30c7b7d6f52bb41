"""Fractional-order Bessel and Hankel functions.

A self-contained kernel for the fractional orders appearing in the analytic
mode solutions of the expanding condensate (nu = +-1/3, +-2/3, plus any
non-integer order in (-2, 2)); Gamma is the standard library's math.gamma.

hankel1 (= J + iY) is the one kernel, with two branches:
  * ascending power series of J_nu and J_-nu (extended-precision
    accumulation) for x < X_SWITCH,
  * Hankel asymptotic expansion (modulus/phase form) for x >= X_SWITCH.
Its real and imaginary parts are J_nu and Y_nu. It takes a scalar or an
array x (every element checked: positive and finite) and returns a NumPy
scalar or an array of x's shape, a scalar call bit for bit the element an
array call gives. nu is one order, or a 1-D sequence of orders that adds a
leading order axis, each row bit for bit the one-order call: the series
runs once over the interleaved orders (nu_1, -nu_1, nu_2, -nu_2, ...), and
the asymptotic expansion once with the orders broadcast against the
arguments. Derivatives follow from the order recurrence
dH_nu/dx = H_(nu-1) - (nu/x) H_nu, which is how the 3D mode solution in
threed uses them: H_{2/3} and H_{-1/3} from one call.

The series stops early for each argument, and returns bit for bit what the
full sum of _SERIES_TERMS terms would. Its terms are made in chunks of
_SERIES_CHUNK by a running product, and each is added to a running sum in
turn, in the order of the full sum; the leading 1 is added after the terms.
After each chunk an argument stops once, for every order, its last term is
below eps/4 of its running sum (eps of np.longdouble). That is under half an
ulp of the sum, so adding the term cannot change it. For x < X_SWITCH and
nu > -2 the ratio of consecutive terms, (x/2)^2 / (k (k + nu)), is below
36/48 from k = 8 on, so every later term is smaller still and cannot change
the sum either, and an argument that waits on another order keeps its bits.
Small x, where a few terms reach extended precision, costs one chunk
instead of the whole sum, and the loop ends with its last live argument.
The asymptotic expansion takes its term tables ((2k - 1)^2, 8k and i^k)
from the module, built once at import.

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
_INTEGER_EPS = 1e-9
_LD = np.longdouble
# Terms summed by the power series at most; below X_SWITCH the last one is
# more than 60 orders of magnitude under the largest.
_SERIES_TERMS = 60
# Terms made between two stop checks. At least 8, so that the first check
# falls where the terms already shrink (k (k + nu) > 48 > x^2/4); any later
# term is then smaller than the checked one.
_SERIES_CHUNK = 8
# A term below this fraction of the running sum is under half its ulp.
_SERIES_STOP = np.finfo(_LD).eps / 4
_K = np.arange(1, _SERIES_TERMS, dtype=_LD)[:, None, None]
# Terms tried by the asymptotic expansion, which stops at its smallest term,
# and its tables: (2k - 1)^2, 8k and the phase i^k of term k.
_ASYMPTOTIC_TERMS = 60
_ASYMPTOTIC_K = np.arange(1, _ASYMPTOTIC_TERMS)[:, None, None]
_ODD_SQUARES = ((2 * _ASYMPTOTIC_K - 1) ** 2).astype(float)
_EIGHT_K = 8.0 * _ASYMPTOTIC_K
_PHASES = np.array([1j, -1.0, -1j, 1.0])[(_ASYMPTOTIC_K - 1) % 4]


def _series_j(orders, x: np.ndarray) -> np.ndarray:
    """Ascending series for J_nu, accumulated in extended precision.

    Returns one row per order in orders, one column per argument in x. An
    argument stops after the first chunk whose last terms cannot change its
    sums (the module docstring gives the rule).
    """
    nu = np.array(orders, dtype=_LD)[:, None]
    half = x.astype(_LD) / 2
    gammas = np.array([math.gamma(v + 1.0) for v in orders], dtype=_LD)[:, None]
    pref = np.exp(nu * np.log(half)) / gammas
    step = -half * half
    sums = np.empty(pref.shape, dtype=_LD)
    live = np.arange(x.size)
    term = np.ones(pref.shape, dtype=_LD)
    total = np.zeros(pref.shape, dtype=_LD)
    for start in range(0, _SERIES_TERMS - 1, _SERIES_CHUNK):
        k = _K[start:start + _SERIES_CHUNK]
        # row 0 carries the previous terms into the product, then the
        # running sums into the accumulation
        chunk = np.empty((k.shape[0] + 1,) + term.shape, dtype=_LD)
        chunk[0] = term
        np.divide(step, k * (nu + k), out=chunk[1:])
        np.cumprod(chunk, axis=0, out=chunk)
        term = chunk[-1].copy()
        chunk[0] = total
        total = np.cumsum(chunk, axis=0, out=chunk)[-1]
        done = (np.abs(term) < _SERIES_STOP * np.abs(total)).all(axis=0)
        if done.any():
            sums[:, live[done]] = total[:, done]
            keep = ~done
            live, step = live[keep], step[keep]
            term, total = term[:, keep], total[:, keep]
            if not live.size:
                break
    sums[:, live] = total
    return (pref * (1 + sums)).astype(float)


def _hankel1_series(orders: list, x: np.ndarray) -> np.ndarray:
    """H^(1)_nu = J_nu + i Y_nu for each nu in orders, from one series pass
    over the interleaved orders (nu_1, -nu_1, nu_2, -nu_2, ...)."""
    j = _series_j([v for nu in orders for v in (nu, -nu)], x)
    j_pos, j_neg = j[0::2], j[1::2]
    s = np.array([math.sin(nu * math.pi) for nu in orders])[:, None]
    c = np.array([math.cos(nu * math.pi) for nu in orders])[:, None]
    return j_pos + 1j * ((j_pos * c - j_neg) / s)


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
    non-integer."""
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

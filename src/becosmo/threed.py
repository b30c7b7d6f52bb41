"""Mode evolution and frozen spectra for the expanding 3D condensate.

Quartic 3D expansion does not scale perfectly, so the frozen fluctuations
must be evolved. In co-moving space the phase mode of wavenumber kappa obeys

    phi'' + 3 (bdot/b) phi' + c0^2 kappa^2 / b^5 phi = 0.

In its own phase z = c0 kappa eta(t), with eta(t) the remaining horizon
integral of b^(-5/2) (the co-moving particle horizon over c0), it has unit
frequency and one friction term, set by the co-moving apparent-horizon
wavenumber k_H = b^(3/2) bdot:

    phi_zz - (k_H/(2 c0 kappa)) phi_z + phi = 0.

The mode oscillates deep inside the horizon and freezes as its phase runs
out. On the late-time linear background b = alpha t, k_H = 2 c0 kappa/(3 z),
and the equation is solved exactly by z^(2/3) H^(1,2)_{2/3}(z), that is by
(1/t) H^(1,2)_{2/3}(z) with z = (2/3) (c0 kappa / alpha^(5/2)) t^(-3/2).

c0 enters the equation and its Hankel vacuum only as c0 kappa, so the mode
engine works in c0 = 1 units, where kappa stands for c0 kappa; the closed-form
spectra take c0 as an argument.

Normalization: the positive-frequency member (early-time e^{-i omega tau}
behaviour, the H^(1) branch) carries the per-volume prefactor
sqrt(pi g / (6 alpha^3)) fixed by the canonical commutator through the
Wronskian of the Hankel pair. This choice reproduces the closed-form frozen
spectra below; couplings are in natural units (g/hbar when starting from SI).

Everything here is hydrodynamic: quoted spectra apply to wavelengths far
above the healing length, enforced through the kappa_max band edge.

The basis solution (1/t) H^(1)_{2/3}(z) and its time derivative come from
_basis_pair, one specfun.hankel1 call on the orders (2/3, -1/3); H^(2) is
their complex conjugate, and the Gamma factors are math.gamma.
_basis_pair, frozen_phase_variance and density_spectrum_3d take a scalar or
an array for t or kappa (every element checked) and return a NumPy scalar
or an array. The module computes only; the run pipeline in scenarios writes
the closed form on the linear asymptote to spectrum.csv.

integrate_mode evolves a single mode with numpy only, in u = -z, on blocks
laid out before any solve: three oscillations inside the horizon, a tripling
of t outside it (on b = alpha t). Each is one Chebyshev-Lobatto collocation
solve for phi_uu in integral form (Greengard, "Spectral integration and
two-point boundary value problems", SIAM J. Numer. Anal. 28, 1991), accepted
on the decay of its Chebyshev coefficients, and each round of refinement
solves its blocks together, up to 256 a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .condensate import check_positive

_NU = 2.0 / 3.0
_FREEZE_CRITERION = 1e-6       # |phi'| t / |phi| below which a mode is frozen
_DEPTH_FACTOR = 20.0           # required kappa / k_H at the start of a mode
_MODE_SAMPLES = 400            # output samples of an integrated mode
_CHEB_DEGREE = 32              # polynomial degree of one collocation block
_TAIL_COEFS = 3                # trailing Chebyshev coefficients that bound the error
_BLOCK_PHASE = 6.0 * math.pi   # phase z a block spans inside the horizon
# Block width over z outside it: z falls by 3^(3/2) as t triples on b = alpha t.
# There the mode is a + c z^(4/3), so rho = (1 + 3^(-3/4))/(1 - 3^(-3/4)) = 2.56
# and the tail is near rho^-30 = 5e-13; measured, it is under 5e-14 max|c|.
_BLOCK_GRADE = 1.0 - 3.0**-1.5
_MAX_HALVINGS = 5              # refinement rounds before a tolerance is out of reach
_BATCH_BLOCKS = 256            # blocks per batched solve, which bounds its memory
# Cap on the start depth z over _BLOCK_PHASE, about the number of blocks the
# layout holds at once: a kappa = 10 mode started at 95 % of the cap
# (z = 1.8e5) takes about 1 s and 42 MB of numpy and Python allocations.
_MAX_START_BLOCKS = 10_000


def _chebyshev_lobatto(degree: int):
    """Lobatto nodes x_j = -cos(j pi/degree) on [-1, 1] in increasing order,
    their barycentric weights, the map from node values to Chebyshev
    coefficients, c_k = (2/degree) sum_j'' T_k(x_j) f_j halved at k = 0 and
    k = degree, and the integration matrix Q: (Q f)_j is the integral from
    -1 to x_j of the polynomial through the node values f."""
    j = np.arange(degree + 1)
    nodes = -np.cos(np.pi * j / degree)
    ends = np.where((j == 0) | (j == degree), 0.5, 1.0)
    weights = (-1.0) ** j * ends
    to_coefs = ((2.0 / degree) * ends[:, None] * ends
                * (-1.0) ** j[:, None] * np.cos(np.pi * np.outer(j, j) / degree))
    # the integral of T_k is T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)), of T_1
    # T_2/4 and of T_0 T_1, up to constants fixed by the zero at x = -1
    k = np.arange(degree + 2)
    integral = np.zeros((degree + 2, degree + 1))
    integral[1, 0] = 1.0
    integral[k[2:], k[1:-1]] = 0.5 / k[2:]
    integral[k[1:-2], k[2:-1]] = -0.5 / k[1:-2]
    # T_m(x_j) = (-1)^m cos(m j pi/degree), and T_m(-1) = (-1)^m
    at_nodes = (-1.0) ** k * (np.cos(np.pi * np.outer(j, k) / degree) - 1.0)
    return nodes, weights, to_coefs, at_nodes @ integral @ to_coefs


_NODES, _BARY, _TO_COEFS, _INTEGRATE = _chebyshev_lobatto(_CHEB_DEGREE)
_INTEGRATE_TWICE = _INTEGRATE @ _INTEGRATE


class ModeIntegrationError(RuntimeError):
    """Mode integration could not be started or did not converge."""


def hankel_argument(kappa: float, t: float, alpha: float) -> float:
    """z(t) = (2/3) kappa alpha^(-5/2) t^(-3/2) on the linear background."""
    check_positive(kappa=kappa, t=t, alpha=alpha)
    return (2.0 / 3.0) * kappa * alpha ** (-2.5) * np.float_power(t, -1.5)


def mode_normalization(coupling: float, alpha: float) -> float:
    """Per-volume vacuum prefactor sqrt(pi g / (6 alpha^3)).

    Fixed by the equal-time commutator of phase and density: the Hankel pair
    has b^3-weighted Wronskian 6 i alpha^3 / pi, and matching it to
    i g (per unit volume) gives this amplitude for the H^(1) branch.
    """
    check_positive(coupling=coupling, alpha=alpha)
    return math.sqrt(math.pi * coupling / (6.0 * alpha**3))


def mode_coefficients(kappa: float, horizon_wavenumber):
    """The mode equation phi_uu = c_phi phi + c_phi' phi_u in the phase
    u = -kappa eta(t), at the co-moving apparent-horizon wavenumber
    k_H = b^(3/2) bdot: returns (c_phi, c_phi') = (-1, -k_H/(2 kappa))."""
    check_positive(kappa=kappa)
    check_positive(allow_zero=True, horizon_wavenumber=horizon_wavenumber)
    k_h = np.asarray(horizon_wavenumber, dtype=float)
    return np.full_like(k_h, -1.0), -k_h / (2.0 * kappa)


def _basis_pair(kappa: float, t, alpha: float):
    """(1/t) H^(1)_{2/3}(z(t)) and its time derivative from one z and one
    Hankel call on the orders (2/3, -1/3): since d/dz [z^nu H_nu] =
    z^nu H_{nu-1} and (1/t) = (z/beta)^(2/3), the derivative is
    -(3/2) z H^(1)_{-1/3}(z)/t^2, with no cancelling terms.

    t must be non-empty, and every z(t) positive and finite."""
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ValueError("t must be non-empty")
    with np.errstate(over="ignore"):
        z = hankel_argument(kappa, t, alpha)
    valid = (z > 0.0) & (z < math.inf)
    if not valid.all():
        raise ValueError(f"t={t[~valid][0]} gives a Hankel argument "
                         f"z={z[~valid][0]} that is not positive and finite")
    h1, h0 = specfun.hankel1((_NU, _NU - 1.0), z)
    return (h1 / t)[()], (-1.5 * z * h0 / t**2)[()]


def freezing_time(kappa: float, alpha: float) -> float:
    """Time at which |phi'| t / |phi| decays to the freezing criterion 1e-6,
    for kappa and alpha positive and finite. From the small-argument
    expansion of the frozen mode: |phi'| t / |phi| = 2 (beta/2)^(4/3)
    Gamma(1/3)/Gamma(5/3) t^-2.
    """
    check_positive(kappa=kappa, alpha=alpha)
    beta_half = kappa / (3.0 * alpha**2.5)
    factor = 2.0 * math.gamma(1.0 / 3.0) / math.gamma(5.0 / 3.0)
    return beta_half ** (2.0 / 3.0) * math.sqrt(factor / _FREEZE_CRITERION)


@dataclass
class ModeEvolution:
    """History of one co-moving mode: (t, phi, phidot) plus the frozen value."""
    times: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    frozen_value: float | None
    nfev: int                        # horizon wavenumbers read at block nodes,
                                     # rejected blocks included; 0 when analytic
    warnings: list[str] = field(default_factory=list)


def _phase_edges(z_start: float, z_end: float) -> np.ndarray:
    """Block boundaries in u = -z from -z_start to -z_end, 0 < z_end < z_start:
    a block starting at z spans min(_BLOCK_PHASE, _BLOCK_GRADE z), three
    oscillations inside the horizon and a tripling of t on the linear
    asymptote outside it. A remainder under 1% of a block joins it, so the
    last block ends exactly at -z_end."""
    if not 0.0 < z_end < z_start:
        raise ModeIntegrationError(f"mode integration failed: the phase left at "
                                   f"t_end, z = {z_end:g}, is not in (0, {z_start:g})")
    edges, z = [-z_start], z_start
    while z - 1.01 * (h := min(_BLOCK_PHASE, _BLOCK_GRADE * z)) > z_end:
        z -= h
        edges.append(-z)
    return np.array(edges + [-z_end])


def _propagators(coefficients, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Node values of (phi, phi') on the blocks [lo, hi] for the unit starts
    (1, 0) and (0, 1), shape (blocks, phi or phi', start, node).

    On a block of width h with the 33 Lobatto nodes t_j = t + (h/2)(x_j + 1),
    the unknowns are sigma = phi'' at the nodes; with the integration matrix
    Q and start values (y0, y1),

        phi' = y1 + (h/2) Q sigma,   phi = y0 + (h/2)(x + 1) y1 + (h/2)^2 Q^2 sigma,

    so phi'' = c_phi phi + c_phi' phi', with (c_phi, c_phi') = coefficients(t)
    read once at the nodes of all blocks (a 1-D array t), is the real 33x33
    system I - (h/2) c_phi' Q - (h/2)^2 c_phi Q^2. All blocks are solved in
    one batched np.linalg.solve with the two unit starts as right-hand sides.
    """
    half = 0.5 * (hi - lo)[:, None]
    ramp = (_NODES + 1.0) * half            # (h/2)(x + 1) at the nodes
    nodes = lo[:, None] + ramp
    nodes[:, -1] = hi
    c_phi, c_phidot = (c.reshape(nodes.shape) for c in coefficients(nodes.ravel()))
    # I - (h/2) c' Q - (h/2)^2 c Q^2 in one buffer; 1 + (-x) rounds as 1 - x
    system = np.multiply((-half * c_phidot)[..., None], _INTEGRATE)
    system.reshape(lo.size, -1)[:, ::_CHEB_DEGREE + 2] += 1.0
    system -= (half**2 * c_phi)[..., None] * _INTEGRATE_TWICE
    sigma = np.linalg.solve(system, np.stack([c_phi, c_phidot + c_phi * ramp],
                                             axis=-1)).swapaxes(1, 2)
    half = half[..., None]
    phi = half**2 * (sigma @ _INTEGRATE_TWICE.T)
    phi[:, 0] += 1.0
    phi[:, 1] += ramp
    phidot = half * (sigma @ _INTEGRATE.T)
    phidot[:, 1] += 1.0
    return np.stack([phi, phidot], axis=1)


def _solve_blocks(coefficients, edges: np.ndarray, start, tolerance: float, atol):
    """Solve (phi, phi') from start at edges[0] on the blocks between edges.

    coefficients is that of _propagators, start the pair (phi, phi') and atol
    the absolute bounds of phi and phi'. Each round solves the unsolved
    blocks together (_propagators), in batches of at most _BATCH_BLOCKS, and
    chains the start values from block to block through the 2x2 propagators
    at the block ends. A block is accepted when the last three Chebyshev
    coefficients of phi and of phi' are each within tolerance max|c| + atol.
    Every failing block is halved and only the halves are solved in the next
    round; a block still failing after _MAX_HALVINGS rounds raises
    ModeIntegrationError.

    Returns the final edges, the node values (blocks, 2, 33) in the type of
    start and the number of node times read, rejected blocks included.
    """
    propagators = np.empty((edges.size - 1, 2, 2, _CHEB_DEGREE + 1))
    pending = np.ones(edges.size - 1, dtype=bool)
    nfev = 0
    for _ in range(_MAX_HALVINGS + 1):
        todo = np.flatnonzero(pending)
        for i in range(0, todo.size, _BATCH_BLOCKS):
            batch = todo[i:i + _BATCH_BLOCKS]
            propagators[batch] = _propagators(coefficients, edges[batch],
                                              edges[batch + 1])
        nfev += todo.size * (_CHEB_DEGREE + 1)
        y = [start]
        for (p00, p01), (p10, p11) in propagators[:-1, :, :, -1].tolist():
            y0, y1 = y[-1]
            y.append((p00 * y0 + p01 * y1, p10 * y0 + p11 * y1))
        values = (propagators * np.array(y)[:, None, :, None]).sum(axis=2)
        size = np.abs(values @ _TO_COEFS.T)
        passed = (size[..., -_TAIL_COEFS:].max(axis=-1)
                  <= tolerance * size.max(axis=-1) + atol).all(axis=-1)
        if passed.all():
            return edges, values, nfev
        failed = ~passed
        edges = np.insert(edges, np.flatnonzero(failed) + 1,
                          0.5 * (edges[:-1] + edges[1:])[failed])
        propagators = np.repeat(propagators, 1 + failed, axis=0)
        pending = np.repeat(failed, 1 + failed)
    raise ModeIntegrationError(
        f"mode integration failed: blocks still miss the Chebyshev tail bound "
        f"after {_MAX_HALVINGS} halvings; tolerance {tolerance:g} is out of reach")


def _interpolate_blocks(starts, widths, values, times):
    """Barycentric interpolation of the block node values at sorted times,
    all in one pass; a time on a node takes the node value. Returns the
    (2, len(times)) history of phi and phi'."""
    block = np.searchsorted(starts, times, side="right") - 1
    x = 2.0 * (times - starts[block]) / widths[block] - 1.0
    node = np.minimum(np.searchsorted(_NODES, x), _CHEB_DEGREE)
    hit = np.flatnonzero(_NODES[node] == x)
    gap = x[:, None] - _NODES
    gap[hit, node[hit]] = 1.0
    kernel = _BARY / gap
    kernel[hit] = _NODES == x[hit, None]
    mixed = np.einsum("mj,mkj->km", kernel, values[block])
    return mixed / kernel.sum(axis=1)


def integrate_mode(kappa: float, background, t_start: float, t_end: float,
                   tolerance: float = 1e-10, coupling: float = 1.0) -> ModeEvolution:
    """Evolve one mode from adiabatic-vacuum initial data, in u = -z.

    The background provides dimension (3, checked before any read), the
    checked lookups horizon_integral(t) and b(t), and horizon_wavenumber(eta);
    one read of horizon_integral on [t_start, t_end] range-checks the end
    before any layout. kappa, t_start and coupling must be positive and
    finite, t_end finite with t_end > t_start, and tolerance in (0, 1); each
    is checked before the background is read.

    The start is the positive-frequency Hankel mode at the true z(t_start),
    phi = A H^(1)_{2/3}(z) and phi_z = A H^(1)_{-1/3}(z), its amplitude
    A = sqrt(pi g z / (4 kappa b^(1/2))) set by the canonical Wronskian
    b^3 (phi phidot* - phi* phidot) = i g: exact on the linear asymptote,
    and on any b(t) a vacuum of the right norm. It must lie deep inside the
    horizon, kappa >= 20 k_H, at a depth z of at most _MAX_START_BLOCKS times
    _BLOCK_PHASE, and k_H must be finite at the end, where the phase left
    may underflow. The blocks (_phase_edges) are solved together by
    _solve_blocks on mode_coefficients at horizon_wavenumber(-u/kappa), and
    failing blocks are halved; a tolerance the halvings cannot reach raises
    ModeIntegrationError. nfev counts the node phases read, rejected blocks
    included. The 400 log-spaced samples are interpolated at
    u = -kappa eta(t), with phidot = kappa b^(-5/2) phi_u, and the frozen
    value is recorded once |phidot| t / |phi| < 1e-6.
    """
    check_positive(kappa=kappa, t_start=t_start, coupling=coupling)
    if not t_start < t_end < math.inf:
        raise ValueError(f"t_end={t_end} must be finite and exceed t_start")
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance={tolerance} must lie in (0, 1)")
    if background.dimension != 3:
        raise ModeIntegrationError(
            f"the mode equation is the 3D one; the background has dimension "
            f"{background.dimension}")
    z_start, z_end = (kappa * background.horizon_integral([t_start, t_end])).tolist()
    if not z_start <= _MAX_START_BLOCKS * _BLOCK_PHASE:
        raise ModeIntegrationError(
            f"start depth z = {z_start:.3g} is beyond the cap "
            f"{_MAX_START_BLOCKS} * 6 pi = {_MAX_START_BLOCKS * _BLOCK_PHASE:.3g}; "
            "start the mode later")
    edges = _phase_edges(z_start, z_end)
    with np.errstate(over="ignore"):     # a subnormal phase left at t_end
        k_h, k_end = background.horizon_wavenumber(
            np.array([z_start, z_end]) / kappa).tolist()
    if kappa < _DEPTH_FACTOR * k_h:
        raise ModeIntegrationError(
            f"mode kappa={kappa:g} is not deep inside the horizon at "
            f"t_start={t_start:g} (kappa/k_H = {kappa / k_h:.2f} "
            f"< {_DEPTH_FACTOR:g}); it is already crossing or frozen")
    if not k_end < math.inf:
        raise ModeIntegrationError(f"mode integration failed: the phase left at "
                                   f"t_end, z = {z_end:g}, is too small to resolve")

    t_eval = np.geomspace(t_start, t_end, _MODE_SAMPLES)   # t_eval[0] is t_start
    b_eval = background.b(t_eval)
    # on b = alpha t, the amplitude is mode_normalization (z/beta)^(2/3)
    amplitude = math.sqrt(math.pi * coupling * z_start
                          / (4.0 * kappa * math.sqrt(b_eval[0])))
    h1, h0 = specfun.hankel1((_NU, _NU - 1.0), z_start)
    phi0, phi0_u = complex(amplitude * h1), complex(-amplitude * h0)
    wkb_residual = abs(phi0_u + 1j * phi0) / abs(phi0)

    notes = []
    if wkb_residual > 1e-3:
        notes.append(f"WKB residual {wkb_residual:.2e} above 1e-3 at start")

    edges, values, nfev = _solve_blocks(
        lambda u: mode_coefficients(kappa, background.horizon_wavenumber(-u / kappa)),
        edges, (phi0, phi0_u), tolerance, abs(phi0) * tolerance * 1e-3)
    u_eval = -kappa * background.horizon_integral(t_eval)
    u_eval[[0, -1]] = edges[[0, -1]]
    phi, phi_u = _interpolate_blocks(edges[:-1], np.diff(edges), values, u_eval)
    phidot = kappa * np.float_power(b_eval, -2.5) * phi_u

    frozen_value = None
    tail = abs(phidot[-1]) * t_eval[-1] / abs(phi[-1])
    if tail < _FREEZE_CRITERION:
        frozen_value = float(abs(phi[-1]))
    else:
        notes.append(f"not frozen by t_end (|phi'| t/|phi| = {tail:.2e})")

    return ModeEvolution(times=t_eval, phi=phi, phidot=phidot,
                         frozen_value=frozen_value, nfev=nfev, warnings=notes)


def analytic_evolution(kappa: float, t, alpha: float,
                       coupling: float = 1.0) -> ModeEvolution:
    """Exact positive-frequency evolution on the pure linear background, at a
    scalar or an array of times; a scalar is a one-sample history."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    norm = mode_normalization(coupling, alpha)
    u1, d1 = _basis_pair(kappa, t, alpha)
    phi = norm * u1
    phidot = norm * d1
    return ModeEvolution(times=t, phi=phi, phidot=phidot,
                         frozen_value=float(abs(phi[-1])), nfev=0)


def frozen_phase_variance(kappa, coupling: float, alpha: float, c0: float = 1.0):
    """Closed-form frozen phase-phase spectrum, per-volume convention:

    <phi_kappa^2> = (g / 6 pi) Gamma(2/3)^2 3^(4/3) alpha^(1/3) c0^(-4/3)
                    kappa^(-4/3).
    """
    check_positive(kappa=kappa, coupling=coupling, alpha=alpha, c0=c0)
    g23 = math.gamma(2.0 / 3.0)
    return (coupling / (6.0 * math.pi) * g23**2 * 3.0 ** (4.0 / 3.0)
            * alpha ** (1.0 / 3.0) * c0 ** (-4.0 / 3.0)
            * np.float_power(kappa, -4.0 / 3.0))


def density_spectrum_3d(kappa, xi: float, c0: float, rho0: float, alpha: float):
    """Closed-form frozen relative density spectrum, units m^3:

    C(kappa) = (Gamma(1/3)^2 3^(2/3) / 6 pi) (xi c0^(1/3) / (rho0 alpha^(1/3)))
               kappa^(4/3),

    with all right-hand-side quantities taken on the initial state.
    """
    check_positive(kappa=kappa, xi=xi, c0=c0, rho0=rho0, alpha=alpha)
    g13 = math.gamma(1.0 / 3.0)
    return (g13**2 * 3.0 ** (2.0 / 3.0) / (6.0 * math.pi)
            * xi * c0 ** (1.0 / 3.0) / (rho0 * alpha ** (1.0 / 3.0))
            * np.float_power(kappa, 4.0 / 3.0))


def density_contrast_from_mode(evolution: ModeEvolution, background,
                               coupling: float, rho0_initial: float) -> float:
    """Relative density spectrum from an evolved mode via drho = -phi'/g.

    Evaluated at the final sample; |phi'|^2 and rho0(t)^2 = (rho0/b^3)^2 decay
    together, so the ratio converges to the frozen value.
    """
    check_positive(coupling=coupling, rho0_initial=rho0_initial)
    t = float(evolution.times[-1])
    b = float(background.b(t))
    return abs(evolution.phidot[-1]) ** 2 * b**6 / (coupling**2 * rho0_initial**2)


def kappa_band_edge(xi: float, alpha: float, omega_xi: float) -> float:
    """Largest co-moving wavenumber still hydrodynamic through freezing:
    kappa_max = (1/xi) (alpha/omega_xi)^(1/4), all three positive and finite."""
    check_positive(xi=xi, alpha=alpha, omega_xi=omega_xi)
    return (1.0 / xi) * (alpha / omega_xi) ** 0.25


@dataclass(frozen=True)
class MaxContrastEstimate:
    value: float                 # kappa^3 C at the band edge
    prefactor: float             # dimensionless, ~30.3 for quartic 3D
    short_linear_window: bool    # True flags omega_xi/omega0 < 10


def max_contrast_estimate(scattering_length: float, rho0: float, omega0: float,
                          omega_xi: float, alpha: float) -> MaxContrastEstimate:
    """Peak density contrast kappa^3 C(kappa_max).

    kappa^3 C = prefactor * sqrt(a_s^3 rho0) * (omega_xi/omega0)^(-3/4) with
    prefactor = 4 sqrt(pi) Gamma(1/3)^2 (alpha/omega0)^(3/4) / 3^(1/3). The
    estimate needs a long linear-expansion window, omega_xi/omega0 >> 1.
    """
    check_positive(scattering_length=scattering_length, rho0=rho0, omega0=omega0,
                   omega_xi=omega_xi, alpha=alpha)
    g13 = math.gamma(1.0 / 3.0)
    alpha_tilde = alpha / omega0
    prefactor = (4.0 * math.sqrt(math.pi) * g13**2 * alpha_tilde**0.75
                 / 3.0 ** (1.0 / 3.0))
    ratio = omega_xi / omega0
    value = prefactor * math.sqrt(scattering_length**3 * rho0) * ratio ** (-0.75)
    return MaxContrastEstimate(value=value, prefactor=prefactor,
                               short_linear_window=ratio < 10.0)


@dataclass(frozen=True)
class FrozenSpectrum3D:
    kappa_grid: np.ndarray
    phase_variance: np.ndarray
    density_values: np.ndarray
    in_band: np.ndarray


def spectrum_3d_grid(kappa, xi: float, c0: float, rho0: float, alpha: float,
                     coupling: float, kmax: float) -> FrozenSpectrum3D:
    """Closed-form frozen spectra on a wavenumber grid with band flags.

    Values beyond the band edge kmax (kappa_band_edge) are still computed
    but flagged out of band.
    """
    check_positive(kmax=kmax)
    kappa = np.asarray(kappa, dtype=float)
    return FrozenSpectrum3D(
        kappa_grid=kappa,
        phase_variance=frozen_phase_variance(kappa, coupling, alpha, c0),
        density_values=density_spectrum_3d(kappa, xi, c0, rho0, alpha),
        in_band=kappa <= kmax,
    )

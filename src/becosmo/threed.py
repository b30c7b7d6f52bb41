"""Mode evolution and frozen spectra for the expanding 3D condensate.

Quartic 3D expansion does not scale perfectly, so the frozen fluctuations
must be evolved. In co-moving space the phase mode of wavenumber kappa obeys

    phi'' + 3 (bdot/b) phi' + c0^2 kappa^2 / b^5 phi = 0,

a progressively over-damped oscillator: deep inside the horizon the mode
oscillates at the adiabatic frequency c0 kappa / b^(5/2); after crossing it
freezes at a constant amplitude. On the late-time linear background
b = alpha t the equation is solved exactly by (1/t) H^(1,2)_{2/3}(z) with
z = (2/3) (c0 kappa / alpha^(5/2)) t^(-3/2), and z is proportional to the
remaining co-moving proper time.

Normalization: the positive-frequency member (early-time e^{-i omega tau}
behaviour, the H^(1) branch) carries the per-volume prefactor
sqrt(pi g / (6 alpha^3)) fixed by the canonical commutator through the
Wronskian of the Hankel pair. This choice reproduces the closed-form frozen
spectra below; couplings are in natural units (g/hbar when starting from SI).

Everything here is hydrodynamic: quoted spectra apply to wavelengths far
above the healing length, enforced through the kappa_max band edge.

The basis solution (1/t) H^(1)_{2/3}(z) and its time derivative come from
_basis_pair on specfun.hankel1; H^(2) is their complex conjugate, and the
Gamma factors are math.gamma. _basis_pair, frozen_phase_variance and
density_spectrum_3d take a scalar or an array for t or kappa (every element
checked) and return a NumPy scalar or an array. The module computes only;
the run pipeline in scenarios writes the closed form on the linear
asymptote to spectrum.csv.

integrate_mode evolves a single mode with numpy only: the equation is
linear with smooth coefficients, so each block of a few oscillations is one
Chebyshev-Lobatto collocation solve (Trefethen, Spectral Methods in MATLAB,
ch. 6-7), accepted on the decay of its Chebyshev coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun

_NU = 2.0 / 3.0
_FREEZE_CRITERION = 1e-6       # |phi'| t / |phi| below which a mode is frozen
_DEPTH_FACTOR = 20.0           # required omega_ad / H at the start of a mode
_MODE_SAMPLES = 400            # output samples of an integrated mode
_CHEB_DEGREE = 32              # polynomial degree of one collocation block
_TAIL_COEFS = 3                # trailing Chebyshev coefficients that bound the error
_NEAR_BOUND = 1e-2             # error/bound above which a block grows by 1.2, not 2


def _chebyshev_lobatto(degree: int):
    """Lobatto nodes x_j = -cos(j pi/degree) on [-1, 1] in increasing order,
    their barycentric weights, the differentiation matrix (diagonal from the
    negative row sums) and the map from node values to Chebyshev
    coefficients, c_k = (2/degree) sum_j'' T_k(x_j) f_j halved at k = 0 and
    k = degree."""
    j = np.arange(degree + 1)
    nodes = -np.cos(np.pi * j / degree)
    ends = np.where((j == 0) | (j == degree), 0.5, 1.0)
    weights = (-1.0) ** j * ends
    gap = nodes[:, None] - nodes + np.eye(degree + 1)
    diff = weights / weights[:, None] / gap
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    to_coefs = ((2.0 / degree) * ends[:, None] * ends
                * (-1.0) ** j[:, None] * np.cos(np.pi * np.outer(j, j) / degree))
    return nodes, weights, diff, to_coefs


_NODES, _BARY, _DIFF, _TO_COEFS = _chebyshev_lobatto(_CHEB_DEGREE)


class ModeIntegrationError(RuntimeError):
    """Mode integration could not be started or did not converge."""


def hankel_argument(kappa: float, t: float, alpha: float, c0: float = 1.0) -> float:
    """z(t) = (2/3) c0 kappa alpha^(-5/2) t^(-3/2) on the linear background."""
    return (2.0 / 3.0) * c0 * kappa * alpha ** (-2.5) * np.float_power(t, -1.5)


def adiabatic_frequency(kappa: float, b: float, c0: float = 1.0) -> float:
    """Instantaneous mode frequency omega_ad = c0 kappa / b^(5/2)."""
    return c0 * kappa / b**2.5


def mode_normalization(coupling: float, alpha: float) -> float:
    """Per-volume vacuum prefactor sqrt(pi g / (6 alpha^3)).

    Fixed by the equal-time commutator of phase and density: the Hankel pair
    has b^3-weighted Wronskian 6 i alpha^3 / pi, and matching it to
    i g (per unit volume) gives this amplitude for the H^(1) branch.
    """
    return math.sqrt(math.pi * coupling / (6.0 * alpha**3))


def mode_ode_rhs(phi: complex, phidot: complex, kappa: float, b: float,
                 bdot: float, c0: float = 1.0) -> complex:
    """Acceleration of the co-moving phase mode on a background (b, bdot)."""
    return -3.0 * (bdot / b) * phidot - c0**2 * kappa**2 / b**5 * phi


def _positive_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive on the linear background")
    return t


def _basis_pair(kappa: float, t, alpha: float, c0: float):
    """(1/t) H^(1)_{2/3}(z(t)) and its time derivative from one z and two
    Hankel evaluations: dH^(1)_nu/dz = H^(1)_{nu-1} - (nu/z) H^(1)_nu.

    kappa must be positive and finite, t non-empty and positive, and every
    z(t) finite and positive."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa={kappa} must be positive and finite")
    t = _positive_times(t)
    if t.size == 0:
        raise ValueError("t must hold at least one time")
    with np.errstate(over="ignore"):
        z = hankel_argument(kappa, t, alpha, c0)
    valid = (z > 0.0) & (z < math.inf)
    if not valid.all():
        raise ValueError(f"t={t[~valid][0]} gives a Hankel argument "
                         f"z={z[~valid][0]} that is not positive and finite")
    h1 = specfun.hankel1(_NU, z)
    dh1 = specfun.hankel1(_NU - 1.0, z) - (_NU / z) * h1
    zdot = -1.5 * z / t
    return (h1 / t)[()], (-h1 / t**2 + dh1 * zdot / t)[()]


def freezing_time(kappa: float, alpha: float, c0: float = 1.0) -> float:
    """Time at which |phi'| t / |phi| decays to the freezing criterion 1e-6.

    From the small-argument expansion of the frozen mode:
    |phi'| t / |phi| = 2 (beta/2)^(4/3) Gamma(1/3)/Gamma(5/3) t^-2.
    """
    beta_half = c0 * kappa / (3.0 * alpha**2.5)
    factor = 2.0 * math.gamma(1.0 / 3.0) / math.gamma(5.0 / 3.0)
    return beta_half ** (2.0 / 3.0) * math.sqrt(factor / _FREEZE_CRITERION)


@dataclass
class ModeEvolution:
    """History of one co-moving mode: (t, phi, phidot) plus the frozen value."""
    times: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    frozen_value: float | None
    nfev: int                        # background reads at block nodes, rejected
                                     # blocks included; 0 when analytic
    warnings: list[str] = field(default_factory=list)


def _solve_blocks(kappa: float, expansion, t_start: float, t_end: float,
                  start, width: float, tolerance: float, atol, c0: float):
    """Step (phi, phi') from start at t_start to t_end in Chebyshev blocks.

    start is the 2x2 array ((Re phi, Im phi), (Re phi', Im phi')), width the
    first block's trial width and atol the absolute bounds of phi and phi'.
    On a block [t, t + h] with the 33 Lobatto nodes t_j, the mode equation
    in first-order form,

        (2/h) D phi - phi' = 0,   (2/h) D phi' - c_phi' phi' - c_phi phi = 0,

    with c_phi, c_phi' the coefficients mode_ode_rhs gives for the basis
    pairs (1, 0) and (0, 1), is one real 66x66 system for the node values;
    the two rows at t_j = t are replaced by the start values, and one solve
    takes Re and Im as two right-hand sides. A block is accepted when the
    last three Chebyshev coefficients of phi and of phi' are each within
    tolerance max|c| + atol; then the next block is twice as wide, or 1.2
    times when the error is near the bound. A rejected block halves. The
    final block ends exactly at t_end, so the background is read at times
    inside [t_start, t_end] only.

    Returns the block starts, widths, node values (blocks, 2, 33) as complex
    and the number of node times read, rejected blocks included.
    """
    n = _CHEB_DEGREE + 1
    # Rows 0 and n hold the start values; the phi' = (2/h) D phi rows couple
    # to phi' through -1 on the diagonal of the upper-right block.
    template = np.zeros((2 * n, 2 * n))
    template[0, 0] = template[n, n] = 1.0
    inner = np.arange(1, n)
    template[inner, inner + n] = -1.0
    lower = (inner + n) * (2 * n) + inner    # flat indices of the c_phi terms
    upper = lower + n                        # and of the c_phi' terms
    rhs = np.zeros((2 * n, 2))
    y = np.asarray(start, dtype=float)
    atol_phi, atol_phidot = atol
    t, h = t_start, width
    starts, widths, values = [], [], []
    nfev = 0
    while t < t_end:
        # a remainder under 1% of a block joins it, so no sliver is left
        t_next = t_end if t + 1.01 * h >= t_end else t + h
        h = t_next - t
        if h < 10.0 * (math.nextafter(t, math.inf) - t):
            raise ModeIntegrationError(
                f"mode integration failed: block width {h:g} below ten float "
                f"spacings at t={t:g}; tolerance {tolerance:g} is out of reach")
        nodes = t + (_NODES + 1.0) * (0.5 * h)
        nodes[-1] = t_next
        b, bdot = expansion(nodes)
        c_phi = mode_ode_rhs(1.0, 0.0, kappa, b, bdot, c0)
        c_phidot = mode_ode_rhs(0.0, 1.0, kappa, b, bdot, c0)
        nfev += n
        system = template.copy()
        scaled = (2.0 / h) * _DIFF[1:]
        system[1:n, :n] = scaled
        system[n + 1:, n:] = scaled
        flat = system.reshape(-1)
        flat[lower] = -c_phi[1:]
        flat[upper] -= c_phidot[1:]
        rhs[[0, n]] = y
        solution = np.linalg.solve(system, rhs).reshape(2, n, 2)
        coefs = _TO_COEFS @ solution
        size_phi, size_phidot = np.hypot(coefs[..., 0], coefs[..., 1]).tolist()
        error = max(max(size_phi[-_TAIL_COEFS:])
                    / (tolerance * max(size_phi) + atol_phi),
                    max(size_phidot[-_TAIL_COEFS:])
                    / (tolerance * max(size_phidot) + atol_phidot))
        if not error <= 1.0:            # a NaN error is a rejection too
            h *= 0.5
            continue
        starts.append(t)
        widths.append(h)
        values.append(solution)
        y = solution[:, -1]
        t = t_next
        h *= 1.2 if error > _NEAR_BOUND else 2.0
    values = np.array(values)
    return (np.array(starts), np.array(widths),
            values[..., 0] + 1j * values[..., 1], nfev)


def _interpolate_blocks(starts, widths, values, times):
    """Barycentric interpolation of the block node values at sorted times,
    all in one pass; a time on a node takes the node value. Returns the
    (2, len(times)) history of phi and phi'."""
    block = np.searchsorted(starts, times, side="right") - 1
    x = 2.0 * (times - starts[block]) / widths[block] - 1.0
    gap = x[:, None] - _NODES
    on_node = gap == 0.0
    gap[on_node] = 1.0
    kernel = _BARY / gap
    hit = on_node.any(axis=1)
    kernel[hit] = on_node[hit]
    mixed = np.einsum("mj,mkj->km", kernel, values[block])
    return mixed / kernel.sum(axis=1)


def integrate_mode(kappa: float, background, t_start: float, t_end: float,
                   tolerance: float = 1e-10, c0: float = 1.0,
                   coupling: float = 1.0) -> ModeEvolution:
    """Evolve one mode from adiabatic-vacuum initial data.

    Initial amplitude and derivative are matched to the positive-frequency
    Hankel solution on the background's linear asymptote at t_start, which
    must still be deep inside the horizon: omega_ad >= 20 bdot/b. The mode is
    sampled at 400 log-spaced times, and the frozen value is recorded once
    |phi'| t / |phi| < 1e-6.

    The background provides asymptotic_velocity, linear_offset (None when it
    has no linear regime) and expansion_on(t_start, t_end), which checks the
    interval once and returns the t -> (b, bdot) lookup, read once per block
    at all its nodes.

    The solver is a Chebyshev-Lobatto collocation block stepper in numpy
    (_solve_blocks): the equation is linear, so each block of up to a few
    oscillations is one linear solve, accepted on the decay of its Chebyshev
    coefficients. The samples are interpolated from the accepted blocks. A
    block that cannot meet the tolerance raises ModeIntegrationError; nfev
    counts the node times at which the background was read.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if not t_end > t_start:
        raise ValueError("t_end must exceed t_start")
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    alpha = background.asymptotic_velocity
    shift = background.linear_offset
    if shift is None:
        raise ModeIntegrationError("background has no linear regime "
                                   "(linear_offset is None) to match the start on")
    expansion = background.expansion_on(t_start, t_end)
    b0, bdot0 = (float(v) for v in expansion(t_start))
    hubble = bdot0 / b0
    omega0_ad = adiabatic_frequency(kappa, b0, c0)
    if omega0_ad < _DEPTH_FACTOR * hubble:
        raise ModeIntegrationError(
            f"mode kappa={kappa:g} is not deep inside the horizon at "
            f"t_start={t_start:g} (omega_ad/H = {omega0_ad / hubble:.2f} "
            f"< {_DEPTH_FACTOR:g}); it is already crossing or frozen")

    ts_shift = t_start - shift
    if ts_shift <= 0.0:
        raise ModeIntegrationError("t_start precedes the linear-regime origin")
    norm = mode_normalization(coupling, alpha)
    u1, d1 = _basis_pair(kappa, ts_shift, alpha, c0)
    phi0 = norm * u1
    phidot0 = norm * d1
    wkb_residual = abs(phidot0 + 1j * omega0_ad * phi0) / (omega0_ad * abs(phi0))

    notes = []
    if wkb_residual > 1e-3:
        notes.append(f"WKB residual {wkb_residual:.2e} above 1e-3 at start")

    scale = abs(phi0)
    atol = np.array([scale, omega0_ad * scale]) * tolerance * 1e-3
    starts, widths, values, nfev = _solve_blocks(
        kappa, expansion, t_start, t_end,
        [[phi0.real, phi0.imag], [phidot0.real, phidot0.imag]],
        2.0 * math.pi / omega0_ad, tolerance, atol, c0)
    t_eval = np.geomspace(t_start, t_end, _MODE_SAMPLES)
    phi, phidot = _interpolate_blocks(starts, widths, values, t_eval)

    frozen_value = None
    tail = abs(phidot[-1]) * t_eval[-1] / abs(phi[-1])
    if tail < _FREEZE_CRITERION:
        frozen_value = float(abs(phi[-1]))
    else:
        notes.append(f"not frozen by t_end (|phi'| t/|phi| = {tail:.2e})")

    return ModeEvolution(times=t_eval, phi=phi, phidot=phidot,
                         frozen_value=frozen_value, nfev=nfev, warnings=notes)


def analytic_evolution(kappa: float, times, alpha: float, c0: float = 1.0,
                       coupling: float = 1.0) -> ModeEvolution:
    """Exact positive-frequency evolution on the pure linear background."""
    times = np.asarray(times, dtype=float)
    norm = mode_normalization(coupling, alpha)
    u1, d1 = _basis_pair(kappa, times, alpha, c0)
    phi = norm * u1
    phidot = norm * d1
    return ModeEvolution(times=times, phi=phi, phidot=phidot,
                         frozen_value=float(abs(phi[-1])), nfev=0)


def frozen_phase_variance(kappa, coupling: float, alpha: float, c0: float = 1.0):
    """Closed-form frozen phase-phase spectrum, per-volume convention:

    <phi_kappa^2> = (g / 6 pi) Gamma(2/3)^2 3^(4/3) alpha^(1/3) c0^(-4/3)
                    kappa^(-4/3).
    """
    if not np.all(np.asarray(kappa) > 0.0):
        raise ValueError("kappa must be positive")
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
    if not np.all(np.asarray(kappa) > 0.0):
        raise ValueError("kappa must be positive")
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
    t = float(evolution.times[-1])
    b = float(background.b(t))
    return abs(evolution.phidot[-1]) ** 2 * b**6 / (coupling**2 * rho0_initial**2)


def kappa_band_edge(xi: float, alpha: float, omega_xi: float) -> float:
    """Largest co-moving wavenumber still hydrodynamic through freezing:
    kappa_max = (1/xi) (alpha/omega_xi)^(1/4)."""
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


def spectrum_3d_grid(kappas, xi: float, c0: float, rho0: float, alpha: float,
                     coupling: float, kmax: float) -> FrozenSpectrum3D:
    """Closed-form frozen spectra on a wavenumber grid with band flags.

    Values beyond the band edge kmax (kappa_band_edge) are still computed
    but flagged out of band.
    """
    kappas = np.asarray(kappas, dtype=float)
    return FrozenSpectrum3D(
        kappa_grid=kappas,
        phase_variance=frozen_phase_variance(kappas, coupling, alpha, c0),
        density_values=density_spectrum_3d(kappas, xi, c0, rho0, alpha),
        in_band=kappas <= kmax,
    )

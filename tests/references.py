"""Reference implementations the tests compare the package against.

metric_components writes out the acoustic metric whose g00 = 0 surface the
apparent horizon is, and bogoliubov_mode the quantized trapped-cloud phonon
whose density amplitude gives the quasi-2D spectrum. The package computes
both results in closed form and needs neither. collocation_propagators
assembles the block systems of the mode solver as written on paper, which
the package does in one buffer.
"""

import math
from dataclasses import dataclass

import numpy as np

from becosmo.constants import HBAR
from becosmo.q2d import bogoliubov_frequency
from becosmo.threed import (_CHEB_DEGREE, _INTEGRATE, _INTEGRATE_TWICE,
                            _NODES, mode_ode_rhs)


def metric_components(conformal: float, sound_speed: float, velocity):
    """Covariant and contravariant effective metric at one spacetime point.

    velocity is the local flow vector (length D); returns a pair of
    (D+1) x (D+1) arrays whose product is the identity.
    """
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    d = v.size
    c2 = sound_speed**2
    v2 = float(v @ v)

    cov = np.zeros((d + 1, d + 1))
    cov[0, 0] = conformal * (c2 - v2)
    cov[0, 1:] = conformal * v
    cov[1:, 0] = conformal * v
    cov[1:, 1:] = -conformal * np.eye(d)

    contra = np.zeros((d + 1, d + 1))
    contra[0, 0] = 1.0
    contra[0, 1:] = v
    contra[1:, 0] = v
    contra[1:, 1:] = np.outer(v, v) - c2 * np.eye(d)
    contra /= conformal * c2
    return cov, contra



@dataclass(frozen=True)
class BogoliubovMode:
    """One quantized phonon mode of the trapped cloud (per unit volume)."""
    frequency: float
    phase_amplitude: float      # prefactor of (a + a^dag) in the phase mode
    density_amplitude: float    # prefactor of i(a - a^dag) in the density mode


def bogoliubov_mode(k: float, mu: float, m: float, rho0: float,
                    g2d: float) -> BogoliubovMode:
    """Diagonalize one k-mode of the trapped condensate.

    Uses natural units internally (g -> g/hbar, m -> m/hbar); the stiffness
    g + k^2/(4 m rho0) and the frequency then give the canonical pair of
    amplitudes with product exactly 1/2.
    """
    omega = bogoliubov_frequency(k, mu, m)
    g_nat = g2d / HBAR
    m_nat = m / HBAR
    stiffness = g_nat + k**2 / (4.0 * m_nat * rho0)
    return BogoliubovMode(
        frequency=omega,
        phase_amplitude=math.sqrt(stiffness / (2.0 * omega)),
        density_amplitude=math.sqrt(omega / (2.0 * stiffness)),
    )


def collocation_propagators(kappa: float, expansion, lo, hi, c0: float):
    """threed._propagators with the textbook assembly of each block system,
    np.eye(33) - (h/2) c_phi' Q - (h/2)^2 c_phi Q^2, then np.linalg.solve:
    node values of (phi, phi') on the blocks [lo, hi] for the unit starts
    (1, 0) and (0, 1), shape (blocks, phi or phi', start, node)."""
    half = 0.5 * (hi - lo)[:, None]
    ramp = (_NODES + 1.0) * half
    nodes = lo[:, None] + ramp
    nodes[:, -1] = hi
    b, bdot = expansion(nodes.ravel())
    c_phi = mode_ode_rhs(1.0, 0.0, kappa, b, bdot, c0).reshape(nodes.shape)
    c_phidot = mode_ode_rhs(0.0, 1.0, kappa, b, bdot, c0).reshape(nodes.shape)
    system = (np.eye(_CHEB_DEGREE + 1) - (half * c_phidot)[..., None] * _INTEGRATE
              - (half**2 * c_phi)[..., None] * _INTEGRATE_TWICE)
    sigma = np.linalg.solve(system, np.stack([c_phi, c_phidot + c_phi * ramp],
                                             axis=-1)).swapaxes(1, 2)
    half = half[..., None]
    phi = half**2 * (sigma @ _INTEGRATE_TWICE.T)
    phi[:, 0] += 1.0
    phi[:, 1] += ramp
    phidot = half * (sigma @ _INTEGRATE.T)
    phidot[:, 1] += 1.0
    return np.stack([phi, phidot], axis=1)

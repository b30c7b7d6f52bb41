"""Static condensate properties.

The model is stated here once: a quasi-2D or 3D condensate (DIMENSIONS)
with the quartic coupling g |psi|^4 (INTERACTION_EXPONENT N = 2). Trap and
species parameters go in; the Thomas-Fermi state comes out: chemical
potential, peak density, healing length, sound speed, reduced and effective
couplings, plus the dimensional-reduction validity checks.

Inputs are SI. Internally the interaction formulas use natural units with
hbar = 1 (mass -> m/hbar, energy -> E/hbar, coupling -> g/hbar); DerivedParams
stores SI values again.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import HBAR, SPECIES

DIMENSIONS = (2, 3)
INTERACTION_EXPONENT = 2.0

# Smallest scale ratio each dimensional-reduction check accepts.
_VALIDITY_THRESHOLD = 3.0


@dataclass(frozen=True)
class AtomSpecies:
    name: str
    mass: float                 # kg
    scattering_length: float    # m

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not 0.0 < self.scattering_length < math.inf:
            raise ValueError("scattering length must be positive and finite")

    @classmethod
    def from_table(cls, name: str, scattering_length: float | None = None) -> "AtomSpecies":
        entry = SPECIES.get(name)
        if entry is None:
            raise KeyError(f"unknown species {name!r}; known: {sorted(SPECIES)}")
        return cls(name, entry["mass_kg"],
                   scattering_length if scattering_length is not None
                   else entry["scattering_length_m"])


@dataclass(frozen=True)
class TrapGeometry:
    dimension: int
    longitudinal_frequency: float            # omega0, rad/s
    transverse_frequency: float | None = None  # omega_z, rad/s, required iff D = 2

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension!r}")
        # omega0^2 sets the restoring force of b(t); a square that underflows
        # or overflows would silently hold b at 1 or blow the derivation up.
        omega0 = self.longitudinal_frequency
        if not (omega0 > 0.0 and sys.float_info.min <= omega0 * omega0 < math.inf):
            raise ValueError("longitudinal frequency must be positive, with a square "
                             "that is a normal float (about 1.5e-154 to 1.3e154)")
        if self.dimension == 2:
            if self.transverse_frequency is None:
                raise ValueError("transverse frequency required for dimension 2")
            if not self.longitudinal_frequency < self.transverse_frequency < math.inf:
                raise ValueError("transverse confinement must be finite and tighter "
                                 "than longitudinal")
        elif self.transverse_frequency is not None:
            raise ValueError("transverse frequency meaningless for dimension 3")


@dataclass(frozen=True)
class CondensateSpec:
    """A trapped cloud of one species; the coupling comes from the species'
    scattering length."""
    species: AtomSpecies
    trap: TrapGeometry
    atom_number: float

    def __post_init__(self):
        if not 1 <= self.atom_number < math.inf:
            raise ValueError("atom_number must be finite and at least 1")


@dataclass(frozen=True)
class DerivedParams:
    """Thomas-Fermi state of the trapped condensate, SI units."""
    chemical_potential: float          # J
    peak_density: float                # m^-D
    healing_length: float              # m
    sound_speed: float                 # m/s
    thomas_fermi_radius: float         # m
    transverse_width: float | None     # m, D = 2 only
    reduced_coupling: float | None     # J m^D, D = 2 only
    effective_coupling: float          # J m^D
    dimension: int
    exponent: float

    def as_dict(self) -> dict:
        return {
            "chemical_potential_J": self.chemical_potential,
            "peak_density_per_mD": self.peak_density,
            "healing_length_m": self.healing_length,
            "sound_speed_m_per_s": self.sound_speed,
            "thomas_fermi_radius_m": self.thomas_fermi_radius,
            "transverse_width_m": self.transverse_width,
            "reduced_coupling_J_mD": self.reduced_coupling,
            "effective_coupling_J_mD": self.effective_coupling,
            "dimension": self.dimension,
            "exponent": self.exponent,
        }


@dataclass(frozen=True)
class ValidityCheck:
    name: str
    ratio: float
    threshold: float
    passed: bool
    description: str


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[ValidityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def swave_coupling(species: AtomSpecies) -> float:
    """3D s-wave coupling g = 4 pi hbar^2 a_s / m (J m^3)."""
    return 4.0 * math.pi * HBAR**2 * species.scattering_length / species.mass


def transverse_width(species: AtomSpecies, omega_z: float) -> float:
    """Gaussian ground-state width a_z = sqrt(hbar / (m omega_z))."""
    if omega_z <= 0.0:
        raise ValueError("omega_z must be positive")
    return math.sqrt(HBAR / (species.mass * omega_z))


def reduce_coupling(g3d: float, species: AtomSpecies, omega_z: float) -> float:
    """Fold one tightly confined direction into the coupling constant.

    Integrates |phi_0|^4 of the transverse harmonic ground state, giving
    g3d / (sqrt(2 pi) a_z), i.e. g * sqrt(m omega_z / 2 pi) with hbar = 1.
    """
    if g3d <= 0.0:
        raise ValueError("g3d must be positive")
    a_z = transverse_width(species, omega_z)
    return g3d / (math.sqrt(2.0 * math.pi) * a_z)


def effective_coupling(g: float, exponent: float, rho0: float) -> float:
    """Quadratic-fluctuation coupling g_N = g N(N-1)/2 rho0^(N-2)."""
    if exponent <= 1.0:
        raise ValueError("exponent N must exceed 1 (N=1 carries no sound)")
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    return g * exponent * (exponent - 1.0) / 2.0 * rho0 ** (exponent - 2.0)


def thomas_fermi(spec: CondensateSpec) -> DerivedParams:
    """Closed-form Thomas-Fermi state of the harmonic trap, quartic coupling.

    3D uses the s-wave coupling and the spherical profile; quasi-2D folds the
    tight direction into the reduced coupling first.
    """
    D = spec.trap.dimension
    m = spec.species.mass
    omega0 = spec.trap.longitudinal_frequency
    n_atoms = spec.atom_number

    if D == 3:
        g = swave_coupling(spec.species)
        a_ho = math.sqrt(HBAR / (m * omega0))
        radius = a_ho * (15.0 * n_atoms * spec.species.scattering_length / a_ho) ** 0.2
        mu = 0.5 * m * omega0**2 * radius**2
        rho0 = mu / g
        a_perp = None
        g_reduced = None
        g_eff = g
    else:
        omega_z = spec.trap.transverse_frequency
        g3d = swave_coupling(spec.species)
        g_reduced = reduce_coupling(g3d, spec.species, omega_z)
        mu = math.sqrt(n_atoms * m * omega0**2 * g_reduced / math.pi)
        rho0 = mu / g_reduced
        radius = math.sqrt(2.0 * mu / (m * omega0**2))
        a_perp = transverse_width(spec.species, omega_z)
        g_eff = g_reduced

    xi = HBAR / math.sqrt(g_eff * rho0 * m)
    c = math.sqrt(g_eff * rho0 / m)
    return DerivedParams(
        chemical_potential=mu,
        peak_density=rho0,
        healing_length=xi,
        sound_speed=c,
        thomas_fermi_radius=radius,
        transverse_width=a_perp,
        reduced_coupling=g_reduced,
        effective_coupling=g_eff,
        dimension=D,
        exponent=INTERACTION_EXPONENT,
    )


def validate_dimensional_reduction(spec: CondensateSpec,
                                   derived: DerivedParams) -> ValidityReport:
    """Scale-hierarchy checks behind the lower-dimensional description.

    (a) mode mixing: the transverse level spacing hbar*omega_z must dominate
        the interaction scale mu; the reported ratio hbar*omega_z/mu equals
        (xi/a_perp)^2.
    (b) mean-field validity: a_perp must dominate the scattering length.

    A check fails when its ratio is below 3; failing is reported, never raised.
    """
    checks = []
    if derived.transverse_width is not None:
        omega_z = spec.trap.transverse_frequency
        ratio_a = HBAR * omega_z / derived.chemical_potential
        checks.append(ValidityCheck(
            name="mode_mixing_suppression",
            ratio=ratio_a,
            threshold=_VALIDITY_THRESHOLD,
            passed=ratio_a >= _VALIDITY_THRESHOLD,
            description="transverse level spacing vs chemical potential, "
                        "equals (healing length / transverse width)^2",
        ))
        ratio_b = derived.transverse_width / spec.species.scattering_length
        checks.append(ValidityCheck(
            name="mean_field_validity",
            ratio=ratio_b,
            threshold=_VALIDITY_THRESHOLD,
            passed=ratio_b >= _VALIDITY_THRESHOLD,
            description="transverse width vs s-wave scattering length",
        ))
    return ValidityReport(checks=tuple(checks))


def sound_frequency_at_healing_scale(derived: DerivedParams) -> float:
    """omega_xi = c / xi, the phonon frequency at the healing-length scale."""
    return derived.sound_speed / derived.healing_length


def natural_coupling(g_si: float) -> float:
    """SI coupling (J m^D) -> natural units: g/hbar, in m^D/s."""
    return g_si / HBAR

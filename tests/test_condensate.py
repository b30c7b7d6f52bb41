import math

import numpy as np
import pytest
from scipy.integrate import quad

from becosmo.condensate import (AtomSpecies, CondensateSpec, DerivedParams,
                                TrapGeometry, effective_coupling,
                                natural_coupling, reduce_coupling,
                                sound_frequency_at_healing_scale, swave_coupling,
                                transverse_width, validate_dimensional_reduction)
from becosmo.constants import HBAR

from conftest import W0_3D, WZ_2D


class TestTypes:
    def test_species_validation(self):
        with pytest.raises(ValueError):
            AtomSpecies("x", -1.0, 1e-9)
        with pytest.raises(ValueError):
            AtomSpecies("x", 1e-26, 0.0)
        for mass, length in ((math.nan, 1e-9), (math.inf, 1e-9), (1e-26, math.nan)):
            with pytest.raises(ValueError):
                AtomSpecies("x", mass, length)
        with pytest.raises(KeyError):
            AtomSpecies.from_table("unobtainium")

    def test_trap_validation(self):
        for dimension in (1, 4):  # the model is quasi-2D or 3D
            with pytest.raises(ValueError):
                TrapGeometry(dimension=dimension, longitudinal_frequency=1.0,
                             transverse_frequency=10.0)
        with pytest.raises(ValueError):
            TrapGeometry(dimension=2, longitudinal_frequency=1.0)  # omega_z missing
        with pytest.raises(ValueError):
            TrapGeometry(dimension=2, longitudinal_frequency=10.0,
                         transverse_frequency=5.0)  # not tighter
        with pytest.raises(ValueError):
            TrapGeometry(dimension=3, longitudinal_frequency=1.0,
                         transverse_frequency=10.0)
        for omega0 in (math.nan, math.inf, 1e-300, 1e200):  # omega0^2 not normal
            with pytest.raises(ValueError):
                TrapGeometry(dimension=3, longitudinal_frequency=omega0)
        for omega_z in (math.nan, math.inf):
            with pytest.raises(ValueError):
                TrapGeometry(dimension=2, longitudinal_frequency=1.0,
                             transverse_frequency=omega_z)

    def test_empty_condensate_rejected(self, sodium_spec):
        for atoms in (0, math.nan, math.inf):
            with pytest.raises(ValueError):
                CondensateSpec(species=sodium_spec.species, trap=sodium_spec.trap,
                               atom_number=atoms)


class TestReduceCoupling:
    def test_gaussian_quartic_integral_oracle(self, sodium_spec):
        # independent route: quadrature of |phi_0|^4 for the ground state
        species = sodium_spec.species
        a_z = transverse_width(species, WZ_2D)
        phi0_sq = lambda z: math.exp(-z**2 / a_z**2) / (math.sqrt(math.pi) * a_z)
        integral, _ = quad(lambda z: phi0_sq(z) ** 2, -20 * a_z, 20 * a_z,
                           epsabs=0.0, epsrel=1e-12)
        g3d = swave_coupling(species)
        assert reduce_coupling(g3d, species, WZ_2D) == pytest.approx(
            g3d * integral, rel=1e-10)

    def test_matches_natural_units_form(self, sodium_spec):
        # g_par = g sqrt(m omega_z / 2 pi) with hbar = 1
        species = sodium_spec.species
        g3d_nat = natural_coupling(swave_coupling(species))
        g_par_nat = natural_coupling(reduce_coupling(swave_coupling(species),
                                                     species, WZ_2D))
        m_nat = species.mass / HBAR
        assert g_par_nat == pytest.approx(
            g3d_nat * math.sqrt(m_nat * WZ_2D / (2.0 * math.pi)), rel=1e-12)

    def test_sqrt_omega_scaling(self, sodium_spec):
        species = sodium_spec.species
        g3d = swave_coupling(species)
        g1 = reduce_coupling(g3d, species, WZ_2D)
        g2 = reduce_coupling(g3d, species, 2.0 * WZ_2D)
        assert g2 == pytest.approx(math.sqrt(2.0) * g1, rel=1e-14)

    def test_wide_trap_dilutes(self, sodium_spec):
        species = sodium_spec.species
        g3d = swave_coupling(species)
        values = [reduce_coupling(g3d, species, wz) for wz in (1e3, 1e1, 1e-1, 1e-3)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01 * values[0]

    def test_rejects_nonpositive(self, sodium_spec):
        with pytest.raises(ValueError):
            reduce_coupling(-1.0, sodium_spec.species, WZ_2D)
        with pytest.raises(ValueError):
            reduce_coupling(1.0, sodium_spec.species, 0.0)


class TestEffectiveCoupling:
    def test_quartic_is_identity(self):
        for rho0 in (1.0, 3.7, 1e21):
            assert effective_coupling(2.5, 2.0, rho0) == pytest.approx(2.5, rel=1e-15)

    def test_no_sound_rejected(self):
        with pytest.raises(ValueError):
            effective_coupling(1.0, 1.0, 1.0)

    def test_sextic_value(self):
        assert effective_coupling(1.0, 3.0, 2.0) == pytest.approx(6.0, rel=1e-15)

    def test_monotonic_for_steep_coupling(self):
        rhos = np.linspace(0.5, 10.0, 30)
        vals = [effective_coupling(1.0, 3.0, r) for r in rhos]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestThomasFermi:
    def test_rubidium_radius(self, rubidium_derived):
        assert rubidium_derived.thomas_fermi_radius == pytest.approx(12.2e-6, rel=0.02)

    def test_sodium_lengths(self, sodium_derived):
        assert sodium_derived.healing_length == pytest.approx(1.34e-6, rel=0.02)
        assert sodium_derived.transverse_width == pytest.approx(0.746e-6, rel=0.01)

    @pytest.mark.parametrize("scenario", ["sodium", "rubidium"])
    def test_consistency_invariants(self, scenario, sodium_derived, rubidium_derived,
                                    sodium_spec, rubidium_spec):
        derived = sodium_derived if scenario == "sodium" else rubidium_derived
        spec = sodium_spec if scenario == "sodium" else rubidium_spec
        m = spec.species.mass
        c2 = derived.effective_coupling * derived.peak_density / m
        assert derived.sound_speed**2 == pytest.approx(c2, rel=1e-12)
        assert derived.healing_length * m * derived.sound_speed == pytest.approx(
            HBAR, rel=1e-12)

    @pytest.mark.parametrize("scenario", ["sodium", "rubidium"])
    def test_profile_normalization(self, scenario, sodium_spec, rubidium_spec,
                                   sodium_derived, rubidium_derived):
        spec = sodium_spec if scenario == "sodium" else rubidium_spec
        derived = sodium_derived if scenario == "sodium" else rubidium_derived
        # atoms in the inverted parabola rho0 (1 - r^2/R^2) over the D-ball
        D, R = derived.dimension, derived.thomas_fermi_radius
        shell = {2: 2.0 * math.pi, 3: 4.0 * math.pi}[D]
        count, _ = quad(lambda r: derived.peak_density * (1.0 - (r / R) ** 2)
                        * shell * r ** (D - 1), 0.0, R, epsabs=0.0, epsrel=1e-12)
        assert count == pytest.approx(spec.atom_number, rel=1e-6)

    def test_all_positive(self, sodium_derived):
        d = sodium_derived
        assert min(d.chemical_potential, d.peak_density, d.healing_length,
                   d.sound_speed, d.thomas_fermi_radius) > 0.0


class TestValidity:
    def test_sodium_passes_both(self, sodium_spec, sodium_derived):
        report = validate_dimensional_reduction(sodium_spec, sodium_derived)
        assert len(report.checks) == 2
        assert report.all_passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["mode_mixing_suppression"].ratio == pytest.approx(
            (sodium_derived.healing_length / sodium_derived.transverse_width) ** 2,
            rel=1e-12)

    def test_boundary_healing_equals_width_fails(self, sodium_spec, sodium_derived):
        # xi = a_perp means hbar omega_z = mu: ratio 1, below any threshold > 1
        doctored = DerivedParams(
            chemical_potential=HBAR * sodium_spec.trap.transverse_frequency,
            peak_density=sodium_derived.peak_density,
            healing_length=sodium_derived.transverse_width,
            sound_speed=sodium_derived.sound_speed,
            thomas_fermi_radius=sodium_derived.thomas_fermi_radius,
            transverse_width=sodium_derived.transverse_width,
            reduced_coupling=sodium_derived.reduced_coupling,
            effective_coupling=sodium_derived.effective_coupling,
            dimension=2, exponent=2.0)
        report = validate_dimensional_reduction(sodium_spec, doctored)
        check = {c.name: c for c in report.checks}["mode_mixing_suppression"]
        assert check.ratio == pytest.approx(1.0, rel=1e-12)
        assert not check.passed

    def test_boundary_width_equals_scattering_fails(self, sodium_spec, sodium_derived):
        squeezed = CondensateSpec(
            species=AtomSpecies("tight", sodium_spec.species.mass,
                                sodium_derived.transverse_width),
            trap=sodium_spec.trap, atom_number=sodium_spec.atom_number)
        report = validate_dimensional_reduction(squeezed, sodium_derived)
        check = {c.name: c for c in report.checks}["mean_field_validity"]
        assert check.ratio == pytest.approx(1.0, rel=1e-12)
        assert not check.passed

    def test_3d_has_no_reduction_checks(self, rubidium_spec, rubidium_derived):
        report = validate_dimensional_reduction(rubidium_spec, rubidium_derived)
        assert report.checks == ()
        assert report.all_passed


class TestHealingFrequency:
    def test_identity_form(self, sodium_spec, sodium_derived):
        omega_xi = sound_frequency_at_healing_scale(sodium_derived)
        m = sodium_spec.species.mass
        assert omega_xi == pytest.approx(
            HBAR / (m * sodium_derived.healing_length**2), rel=1e-12)

    def test_rubidium_scale(self, rubidium_spec, rubidium_derived):
        # independent chain from the Thomas-Fermi radius
        m = rubidium_spec.species.mass
        mu = 0.5 * m * W0_3D**2 * rubidium_derived.thomas_fermi_radius**2
        c = math.sqrt(mu / m)
        xi = HBAR / (m * c)
        omega_xi = sound_frequency_at_healing_scale(rubidium_derived)
        assert omega_xi == pytest.approx(c / xi, rel=1e-10)
        assert omega_xi == pytest.approx(1.6e5, rel=0.01)

    def test_free_gas_limit(self, sodium_derived):
        import dataclasses
        wide = dataclasses.replace(sodium_derived, healing_length=1.0)
        assert sound_frequency_at_healing_scale(wide) < 1e-2

import math

import numpy as np
import pytest

from becosmo.scaling import (ExpansionProtocol, LinearExpansion,
                             NumericalError, analytic_scale_2d,
                             background_fields, clock_exponent,
                             integrate_scale_factor, is_flat_case, proper_time,
                             scale_exponent, scale_ode_rhs, scaling_map_factors)
from becosmo.scenarios import PRESETS, config_from_dict, run

from conftest import W0_2D, W0_3D


class TestOdeRhs:
    def test_2d_at_release(self):
        protocol = ExpansionProtocol.free_expansion(W0_2D)
        assert scale_ode_rhs(1.0, 0.0, protocol, 2, 2.0) == pytest.approx(
            W0_2D**2, rel=1e-15)

    def test_3d_quartic_damping(self):
        protocol = ExpansionProtocol.free_expansion(W0_3D)
        assert scale_ode_rhs(2.0, 1.0, protocol, 3, 2.0) == pytest.approx(
            W0_3D**2 / 16.0, rel=1e-15)

    def test_fermi_gas_exponent_matches_flat_case(self):
        # D=3, N=5/3 shares p=3 with the flat quartic 2D case
        assert scale_exponent(3, 5.0 / 3.0) == pytest.approx(3.0, rel=1e-15)
        assert scale_exponent(2, 2.0) == pytest.approx(3.0)
        assert scale_exponent(3, 2.0) == pytest.approx(4.0)

    def test_rejects_collapsed_scale(self):
        protocol = ExpansionProtocol.free_expansion(W0_2D)
        with pytest.raises(ValueError):
            scale_ode_rhs(0.0, 0.0, protocol, 2, 2.0)

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf])
    def test_protocol_rejects_bad_frequency(self, omega0):
        with pytest.raises(ValueError):
            ExpansionProtocol(omega0)

    def test_trap_on_equilibrium(self):
        protocol = ExpansionProtocol.hold(W0_2D)
        assert scale_ode_rhs(1.0, 5.0, protocol, 2, 2.0) == 0.0


class TestAnalytic2d:
    def test_initial_conditions(self):
        assert analytic_scale_2d(0.0, W0_2D) == (1.0, 0.0)

    def test_closed_form_point(self):
        b, _ = analytic_scale_2d(1.0 / W0_2D, W0_2D)
        assert b == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_velocity_saturates(self):
        _, bdot = analytic_scale_2d(1e6 / W0_2D, W0_2D)
        assert bdot == pytest.approx(W0_2D, rel=1e-10)


class TestTrajectory:
    def test_matches_closed_form(self, traj2d):
        ts = np.linspace(0.0, 100.0 / W0_2D, 500)
        exact = np.sqrt(1.0 + W0_2D**2 * ts**2)
        rel = np.abs(traj2d.b(ts) / exact - 1.0)
        assert rel.max() <= 1e-8

    def test_initial_conditions(self, traj2d):
        assert traj2d.b(0.0) == pytest.approx(1.0, abs=1e-13)
        assert abs(traj2d.bdot(0.0)) <= 1e-13 * W0_2D

    def test_monotone_free_expansion(self, traj2d):
        assert np.all(np.diff(traj2d.bs) > 0.0)
        assert np.all(np.diff(traj2d.bdots) >= 0.0)
        assert np.all(np.diff(traj2d.clocks) > 0.0)

    def test_energy_invariant(self, traj2d):
        p = traj2d.p
        energy = 0.5 * traj2d.bdots**2 + W0_2D**2 * traj2d.bs**(1 - p) / (p - 1)
        assert np.abs(energy / energy[0] - 1.0).max() <= 10.0 * traj2d.tolerance

    def test_asymptotic_velocity_3d(self, traj3d):
        assert traj3d.asymptotic_velocity / W0_3D == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-4)
        assert traj3d.alpha_converged

    def test_trap_on_is_static(self):
        traj = integrate_scale_factor(ExpansionProtocol.hold(W0_2D), 2, 2.0,
                                      t_max=20.0 / W0_2D, tolerance=1e-10)
        assert np.abs(traj.bs - 1.0).max() <= 1e-10
        assert np.abs(traj.bdots).max() <= 1e-8 * W0_2D

    def test_tolerance_domain(self):
        protocol = ExpansionProtocol.free_expansion(W0_2D)
        with pytest.raises(ValueError):
            integrate_scale_factor(protocol, 2, 2.0, 1.0, tolerance=1e-3)
        with pytest.raises(ValueError):
            integrate_scale_factor(protocol, 2, 2.0, 1.0, tolerance=1e-15)
        with pytest.raises(ValueError):
            integrate_scale_factor(protocol, 2, 2.0, -1.0)

    def test_range_guard(self, traj2d):
        with pytest.raises(ValueError):
            traj2d.b(2.0 * traj2d.t_max)
        with pytest.raises(ValueError):
            traj2d.b(-1.0)

    def test_overflow_is_a_numerical_error(self):
        protocol = ExpansionProtocol.free_expansion(W0_2D)
        with pytest.raises(NumericalError, match="overflow"):
            integrate_scale_factor(protocol, 2, 2.0, t_max=1e300 / W0_2D)

    def test_csv_export(self, traj2d, tmp_path):
        # The evolve stage repeats the traj2d integration and writes its
        # samples; the flat 2D case has tau = clock integral.
        config = config_from_dict({**PRESETS["sodium-q2d"], "analysis": ["evolve"],
                                   "numeric": {"t_max_omega0": 1100.0,
                                               "trajectory_samples": 600}})
        run(config, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t_s,b,bdot_per_s,tau"
        assert len(lines) == len(traj2d.ts) + 1
        table = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        for column, stored in zip(table.T, (traj2d.ts, traj2d.bs, traj2d.bdots,
                                            traj2d.clocks)):
            np.testing.assert_allclose(column, stored, rtol=1e-12, atol=0.0)


class TestProperTime:
    def test_2d_arctan(self, traj2d):
        tau = proper_time(traj2d)
        ts = np.linspace(0.5 / W0_2D, 100.0 / W0_2D, 300)
        expected = np.arctan(W0_2D * ts) / W0_2D
        assert np.abs(tau(ts) / expected - 1.0).max() <= 1e-8

    def test_2d_limit(self, traj2d):
        tau = proper_time(traj2d)
        assert tau.infinity == pytest.approx(math.pi / (2.0 * W0_2D), rel=1e-6)

    def test_static_background(self):
        traj = integrate_scale_factor(ExpansionProtocol.hold(W0_2D), 2, 2.0,
                                      t_max=10.0 / W0_2D, tolerance=1e-10)
        tau = proper_time(traj)
        t = 5.0 / W0_2D
        assert tau(t) == pytest.approx(t, rel=1e-10)
        prefactored = proper_time(traj, prefactor=2.5)
        assert prefactored(t) == pytest.approx(2.5 * t, rel=1e-10)

    def test_general_branch_exponent(self):
        # flat cases reduce to the 1/b^2 integrand
        assert clock_exponent(2, 2.0) == pytest.approx(-2.0)
        assert clock_exponent(3, 5.0 / 3.0) == pytest.approx(-2.0)
        assert clock_exponent(3, 2.0) == pytest.approx(-2.25)
        assert clock_exponent(1, 3.0) == pytest.approx(-2.0)
        with pytest.raises(ValueError):
            clock_exponent(1, 2.0)

    def test_flat_classification(self):
        assert is_flat_case(2, 2.0)
        assert is_flat_case(3, 5.0 / 3.0)
        assert is_flat_case(1, 3.0)
        assert not is_flat_case(3, 2.0)


class TestBackgroundFields:
    def test_initial_slice(self, traj2d):
        fields = background_fields(traj2d, 0.0, np.array([1e-6, 2e-6]),
                                   rho0_initial=5e13)
        assert fields.density == pytest.approx(5e13, rel=1e-12)
        assert np.abs(fields.velocity).max() <= 1e-10
        assert fields.comoving_position == pytest.approx([1e-6, 2e-6], rel=1e-12)

    def test_density_dilution_2d(self, traj2d):
        t = float(traj2d.ts[len(traj2d.ts) // 2])
        b = float(traj2d.b(t))
        fields = background_fields(traj2d, t, 1e-6, rho0_initial=1.0)
        assert fields.density == pytest.approx(1.0 / b**2, rel=1e-14)

    def test_density_times_bD_constant(self, traj3d):
        rho0 = 3.3e20
        for t in traj3d.ts[:: len(traj3d.ts) // 7]:
            fields = background_fields(traj3d, float(t), 1e-6, rho0_initial=rho0)
            b = float(traj3d.b(float(t)))
            assert fields.density * b**3 == pytest.approx(rho0, rel=1e-14)

    def test_velocity_field_3d(self, traj3d):
        t = traj3d.t_max / 2.0
        b = float(traj3d.b(t))
        bdot = float(traj3d.bdot(t))
        r = 2.5e-6
        fields = background_fields(traj3d, t, r)
        assert fields.velocity == pytest.approx(bdot / b * r, rel=1e-14)
        assert fields.comoving_position == pytest.approx(r / b, rel=1e-14)

    def test_extrapolation_rejected(self, traj2d):
        with pytest.raises(ValueError):
            background_fields(traj2d, 10.0 * traj2d.t_max, 1e-6)


class TestScalingMap:
    def test_identity(self):
        amp, phase = scaling_map_factors(2, 1.0)
        assert amp == 1.0 and phase == 0.0

    def test_amplitudes(self):
        assert scaling_map_factors(2, 4.0)[0] == pytest.approx(0.25, rel=1e-15)
        assert scaling_map_factors(3, 2.0)[0] == pytest.approx(2.0**-1.5, rel=1e-15)

    def test_phase_argument(self):
        _, phase = scaling_map_factors(3, 2.0, mass=2.0, velocity=3.0)
        assert phase == pytest.approx(9.0, rel=1e-15)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            scaling_map_factors(2, 0.0)


class TestLinearExpansion:
    def test_background(self):
        bg = LinearExpansion(0.5)
        assert bg.b(4.0) == pytest.approx(2.0)
        assert bg.bdot(4.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            bg.b(0.0)
        with pytest.raises(ValueError):
            LinearExpansion(-1.0)

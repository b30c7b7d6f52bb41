import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from becosmo.scaling import (ExpansionProtocol, LinearExpansion,
                             NumericalError, analytic_scale_2d,
                             clock_exponent, horizon_exponent,
                             integrate_scale_factor, is_flat_case,
                             proper_time, scale_exponent, scale_ode_rhs)
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

    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf, 1e-300,
                                        1e-155, 1e155])
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

    def test_rejects_negative_or_nan_time(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                analytic_scale_2d(bad, W0_2D)


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
        with pytest.raises(ValueError):
            integrate_scale_factor(protocol, 2, 2.0, math.nan)
        for dimension in (1, 4):  # the model is quasi-2D or 3D
            with pytest.raises(ValueError, match="dimension"):
                integrate_scale_factor(protocol, dimension, 2.0, 1.0)

    def test_range_guard(self, traj2d):
        for lookup in (traj2d.b, traj2d.bdot, traj2d.clock, traj2d.horizon_integral):
            for bad in (2.0 * traj2d.t_max, -1.0, math.nan):
                with pytest.raises(ValueError):
                    lookup(bad)

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


class TestStepperReference:
    """The in-package stepper against scipy's DOP853 at rtol 2.3e-14 (just
    above its floor of 100 machine epsilons) on the same four channels."""

    @staticmethod
    def _reference(traj):
        protocol, dimension, exponent = traj.protocol, traj.dimension, traj.exponent
        q = clock_exponent(dimension, exponent)
        s = horizon_exponent(dimension, exponent)

        def rhs(t, y):
            return [y[1], scale_ode_rhs(y[0], t, protocol, dimension, exponent),
                    y[0]**q, y[0]**-s]
        w0 = traj.omega0
        atol = np.array([1.0, w0, 1.0 / w0, 1.0 / w0]) * 1e-20
        sol = solve_ivp(rhs, (0.0, traj.t_max), [1.0, 0.0, 0.0, 0.0], method="DOP853",
                        rtol=2.3e-14, atol=atol, dense_output=True)
        assert sol.success
        return sol.sol

    @pytest.fixture(scope="class")
    def held(self):
        return integrate_scale_factor(ExpansionProtocol.hold(W0_2D), 2, 2.0,
                                      t_max=20.0 / W0_2D)

    @pytest.mark.parametrize("name", ["traj2d", "traj3d", "held"])
    def test_agrees_with_reference(self, name, request):
        traj = request.getfixturevalue(name)
        reference = self._reference(traj)
        # absolute floor in each channel's natural unit, for the zeros at t = 0
        # and the static bdot of a held trap
        floor = 1e-13 * np.array([1.0, traj.omega0, 1.0 / traj.omega0,
                                  1.0 / traj.omega0])[:, None]
        off_sample = np.random.default_rng(7).uniform(0.0, traj.t_max, 1000)
        for ts, got in ((traj.ts, np.array([traj.bs, traj.bdots, traj.clocks,
                                            traj.horizon_integrals])),
                        (off_sample, np.array([traj.b(off_sample), traj.bdot(off_sample),
                                               traj.clock(off_sample),
                                               traj.horizon_integral(off_sample)]))):
            expected = reference(ts)
            assert np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected) + floor)

    @pytest.mark.parametrize("name", ["traj2d", "traj3d", "held"])
    def test_samples_are_the_dense_lookup(self, name, request):
        traj = request.getfixturevalue(name)
        for lookup, stored in ((traj.b, traj.bs), (traj.bdot, traj.bdots),
                               (traj.clock, traj.clocks),
                               (traj.horizon_integral, traj.horizon_integrals)):
            assert lookup(traj.ts).tobytes() == stored.tobytes()
        assert traj.nfev > 6 * traj.steps > 0


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

    def test_samples_are_the_lookup_at_ts(self, traj2d):
        # trajectory.csv writes tau from the samples
        tau = proper_time(traj2d, prefactor=2.5)
        assert tau.samples.tobytes() == tau(traj2d.ts).tobytes()

    def test_general_branch_exponent(self):
        # flat cases reduce to the 1/b^2 integrand
        assert clock_exponent(2, 2.0) == pytest.approx(-2.0)
        assert clock_exponent(3, 5.0 / 3.0) == pytest.approx(-2.0)
        assert clock_exponent(3, 2.0) == pytest.approx(-2.25)

    def test_flat_classification(self):
        assert is_flat_case(2, 2.0)
        assert is_flat_case(3, 5.0 / 3.0)
        assert not is_flat_case(3, 2.0)


class TestLinearExpansion:
    def test_background(self):
        bg = LinearExpansion(0.5)
        assert bg.b(4.0) == pytest.approx(2.0)
        assert bg.bdot(4.0) == pytest.approx(0.5)
        for bad in (0.0, math.nan):
            for lookup in (bg.b, bg.bdot, lambda t: bg.expansion_on(t, 4.0)):
                with pytest.raises(ValueError):
                    lookup(bad)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                LinearExpansion(bad)

import math

import numpy as np
import pytest

from scipy.optimize import brentq

from becosmo.condensate import INTERACTION_EXPONENT, thomas_fermi
from becosmo.geometry import (apparent_horizon, conformal_factor,
                              flatness_exponent, horizon_crossing_time,
                              metric_components, particle_horizon,
                              settled_apparent_horizon)
from becosmo.scaling import ExpansionProtocol, integrate_scale_factor, is_flat_case
from becosmo.scenarios import PRESETS, config_from_dict, run

from conftest import W0_2D


class TestConformalFactor:
    def test_unit_ratio(self):
        assert conformal_factor(1.0, 1.0, 3) == pytest.approx(1.0)

    def test_2d_power(self):
        assert conformal_factor(3.0, 2.0, 2) == pytest.approx((1.5) ** 2, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conformal_factor(-1.0, 1.0, 2)


class TestMetric:
    def test_static_fluid_diagonal(self):
        cov, _ = metric_components(2.0, 3.0, [0.0, 0.0])
        assert cov == pytest.approx(np.diag([2.0 * 9.0, -2.0, -2.0]))

    def test_g00_vanishes_at_sonic_point(self):
        cov, _ = metric_components(1.7, 2.0, np.array([2.0, 0.0]))
        assert cov[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            conformal = float(rng.uniform(0.1, 5.0))
            c = float(rng.uniform(0.3, 4.0))
            v = rng.uniform(-2.0, 2.0, size=d)
            cov, contra = metric_components(conformal, c, v)
            assert cov @ contra == pytest.approx(np.eye(d + 1), abs=1e-12)
            assert contra == pytest.approx(np.linalg.inv(cov), rel=1e-10, abs=1e-12)

    def test_g00_sign_flips_at_sonic_surface(self):
        c = 1.5
        for speed, sign in ((0.9 * c, 1.0), (1.1 * c, -1.0)):
            cov, _ = metric_components(2.0, c, [speed, 0.0])
            assert math.copysign(1.0, cov[0, 0]) == sign


class TestFlatness:
    @pytest.mark.parametrize("d, n", [(2, 2.0), (3, 5.0 / 3.0)])
    def test_flat_cases(self, d, n):
        assert is_flat_case(d, n)
        assert flatness_exponent(d, n) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("d, n", [(3, 2.0), (2, 3.0)])
    def test_non_flat_cases(self, d, n):
        assert not is_flat_case(d, n)
        assert abs(flatness_exponent(d, n)) > 0.1

    def test_3d_quartic_exponent(self):
        assert flatness_exponent(3, 2.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("c0", [math.nan, 0.0, -1.0, math.inf])
def test_horizons_reject_bad_sound_speed(traj2d, c0):
    calls = (lambda: particle_horizon(traj2d, 0.0, c0),
             lambda: apparent_horizon(traj2d, 1.0, c0),
             lambda: settled_apparent_horizon(traj2d, c0),
             lambda: horizon_crossing_time([1e4, 1e6], traj2d, c0))
    for call in calls:
        with pytest.raises(ValueError, match="c0"):
            call()


class TestParticleHorizon:
    def test_initial_reach_2d(self, traj2d):
        expected = math.pi / (2.0 * W0_2D)
        assert particle_horizon(traj2d, 0.0) == pytest.approx(expected, rel=1e-3)

    def test_trap_on_is_infinite(self):
        traj = integrate_scale_factor(ExpansionProtocol.hold(W0_2D), 2, 2.0,
                                      t_max=20.0 / W0_2D, tolerance=1e-10)
        assert math.isinf(particle_horizon(traj, 0.0))

    def test_shrinks_to_zero(self, traj2d):
        late = particle_horizon(traj2d, traj2d.t_max)
        assert late < 1e-3 * particle_horizon(traj2d, 0.0)

    def test_strictly_decreasing(self, traj2d):
        values = [particle_horizon(traj2d, float(t)) for t in traj2d.ts[::10]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_null_line_consistency(self, traj2d):
        # flat case: horizon = c0 (tau_inf - tau(t)), same integral both ways
        from becosmo.scaling import proper_time
        tau = proper_time(traj2d)
        c0 = 2.0e-3
        for t in (0.0, 1.0 / W0_2D, 30.0 / W0_2D):
            lhs = particle_horizon(traj2d, t, c0)
            rhs = c0 * (tau.infinity - float(tau(t)))
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestApparentHorizon:
    def test_flat_case_formula(self, traj2d):
        t = 5.0 / W0_2D
        bdot = float(traj2d.bdot(t))
        assert apparent_horizon(traj2d, t, c0=1.0) == pytest.approx(
            1.0 / bdot, rel=1e-10)

    def test_settles_at_sound_horizon(self, traj2d):
        r = apparent_horizon(traj2d, 1000.0 / W0_2D, c0=1.0)
        assert r == pytest.approx(1.0 / W0_2D, rel=1e-3)
        assert settled_apparent_horizon(traj2d, c0=1.0) == pytest.approx(
            1.0 / traj2d.asymptotic_velocity, rel=1e-12)

    def test_infinite_before_release(self, traj2d):
        assert math.isinf(apparent_horizon(traj2d, 0.0))

    def test_positive_after_release(self, traj2d):
        for t in traj2d.ts[1::60]:
            assert apparent_horizon(traj2d, float(t)) > 0.0

    def test_3d_shrinks(self, traj3d):
        assert settled_apparent_horizon(traj3d, c0=1.0) == 0.0

    def test_g00_vanishes_on_horizon(self, traj2d):
        c0 = 2.0e-3
        conformal = 0.8
        for t in (2.0 / W0_2D, 20.0 / W0_2D, 300.0 / W0_2D):
            r_h = apparent_horizon(traj2d, t, c0)
            b = float(traj2d.b(t))
            c_t = c0 / b  # 2D flat scaling
            v = float(traj2d.bdot(t)) / b * r_h
            cov, _ = metric_components(conformal, c_t, [v])
            assert abs(cov[0, 0]) <= 1e-10 * conformal * c_t**2


def _preset_trajectory(name):
    """The preset's own b(t) and sound speed, as its evolve stage builds them."""
    config = config_from_dict(PRESETS[name])
    spec, numeric = config.condensate, config.numeric
    trajectory = integrate_scale_factor(
        config.protocol(), spec.trap.dimension, INTERACTION_EXPONENT,
        t_max=numeric.t_max_omega0 / spec.trap.longitudinal_frequency,
        tolerance=numeric.ode_tolerance, n_samples=numeric.trajectory_samples)
    return trajectory, thomas_fermi(spec).sound_speed


class TestHorizonCrossing:
    def test_superhorizon_from_start(self, traj2d):
        assert horizon_crossing_time(1e-9, traj2d, c0=1.0) == 0.0

    def test_monotone_in_kappa(self, traj2d):
        c0 = 1.0
        kappas = np.geomspace(10.0 * W0_2D / c0, 1e3 * W0_2D / c0, 8)
        times = horizon_crossing_time(kappas, traj2d, c0)
        assert np.all(np.isfinite(times))
        assert np.all(np.diff(times) >= 0.0)

    def test_bisection_against_dense_scan(self, traj2d):
        c0 = 1.0
        kappa = 2.0 * W0_2D / c0 * 40.0
        wavelength = 2.0 * math.pi / kappa
        grid = np.linspace(0.0, traj2d.t_max, 20001)
        horizon = particle_horizon(traj2d, grid, c0)
        scan_idx = int(np.argmax(horizon <= wavelength))
        t_cross = horizon_crossing_time(kappa, traj2d, c0)
        assert grid[scan_idx - 1] <= t_cross <= grid[scan_idx]

    def test_never_crossing_reported(self, traj2d):
        # wavelength far below the horizon at the end of the sampled range
        kappa = 1e9 * W0_2D
        assert math.isinf(horizon_crossing_time(kappa, traj2d, c0=1.0))

    def test_held_trap_never_crosses(self):
        traj = integrate_scale_factor(ExpansionProtocol.hold(W0_2D), 2, 2.0,
                                      t_max=20.0 / W0_2D, tolerance=1e-10)
        times = horizon_crossing_time(np.array([1e-9, 1.0, 1e9]), traj)
        assert np.all(np.isinf(times))

    def test_rejects_nonpositive_kappa(self, traj2d):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                horizon_crossing_time(bad, traj2d)
            with pytest.raises(ValueError):
                horizon_crossing_time(np.array([1.0, bad, 2.0]), traj2d)

    @pytest.mark.parametrize("name", ["sodium-q2d", "rubidium-3d"])
    def test_matches_brentq_on_presets(self, name):
        traj, c0 = _preset_trajectory(name)
        start = particle_horizon(traj, 0.0, c0)
        end = particle_horizon(traj, traj.t_max, c0)
        kappas = np.geomspace(0.3 * 2.0 * math.pi / start,
                              3.0 * 2.0 * math.pi / end, 64)
        expected = []
        for kappa in kappas:
            wavelength = 2.0 * math.pi / kappa
            if start <= wavelength:
                expected.append(0.0)
            elif end > wavelength:
                expected.append(math.inf)
            else:
                expected.append(brentq(
                    lambda t: particle_horizon(traj, t, c0) - wavelength,
                    0.0, traj.t_max, xtol=1e-14 * traj.t_max))
        expected = np.array(expected)
        times = horizon_crossing_time(kappas, traj, c0)
        # both edges are populated, and classified exactly as brentq's path
        crossing = (expected > 0.0) & np.isfinite(expected)
        assert np.any(expected == 0.0) and np.any(np.isinf(expected))
        assert np.array_equal(times == 0.0, expected == 0.0)
        assert np.array_equal(np.isinf(times), np.isinf(expected))
        assert np.max(np.abs(times[crossing] - expected[crossing])) <= 1e-13 * traj.t_max


class TestArrayPath:
    @pytest.mark.parametrize("horizon", [apparent_horizon, particle_horizon])
    @pytest.mark.parametrize("name", ["traj2d", "traj3d"])
    def test_array_matches_scalar_bitwise(self, horizon, name, request):
        traj = request.getfixturevalue(name)
        values = horizon(traj, traj.ts, 2.0e-3)
        scalars = [horizon(traj, float(t), 2.0e-3) for t in traj.ts]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert values.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("name", ["traj2d", "traj3d"])
    def test_crossing_array_matches_scalar_bitwise(self, name, request):
        traj = request.getfixturevalue(name)
        c0 = 2.0e-3
        kappas = np.geomspace(0.3 * 2.0 * math.pi / particle_horizon(traj, 0.0, c0),
                              3.0 * 2.0 * math.pi / particle_horizon(traj, traj.t_max, c0),
                              40)
        values = horizon_crossing_time(kappas, traj, c0)
        scalars = [horizon_crossing_time(float(k), traj, c0) for k in kappas]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert values[0] == 0.0 and math.isinf(values[-1])
        assert values.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("horizon", [apparent_horizon, particle_horizon])
    def test_rejects_one_time_out_of_range(self, horizon, traj2d):
        for bad in (-1.0, 2.0 * traj2d.t_max, math.nan):
            with pytest.raises(ValueError):
                horizon(traj2d, np.array([0.0, bad, traj2d.t_max]))


def test_horizon_report_and_csv(traj2d, tmp_path):
    assert settled_apparent_horizon(traj2d, 2.0e-3) == pytest.approx(
        2.0e-3 / traj2d.asymptotic_velocity, rel=1e-12)
    # The horizons stage repeats the traj2d integration, summarises it in
    # the report and writes the histories.
    config = config_from_dict({**PRESETS["sodium-q2d"], "analysis": ["horizons"],
                               "numeric": {"t_max_omega0": 1100.0,
                                           "trajectory_samples": 600}})
    report = run(config, tmp_path)
    c0 = report.derived["sound_speed_m_per_s"]
    assert report.horizon_summary == {
        "settled_apparent_m": settled_apparent_horizon(traj2d, c0),
        "apparent_at_t_max_m": apparent_horizon(traj2d, traj2d.t_max, c0),
        "particle_horizon_initial_m": particle_horizon(traj2d, 0.0, c0),
        "note": "valid for wavelengths well above the healing length",
    }
    path = tmp_path / "horizons.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,r_apparent_m,particle_horizon_comoving_m"
    assert len(lines) == len(traj2d.ts)  # t=0 row skipped
    ts = traj2d.ts[1:]
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    for column, expected in zip(table.T, (ts, apparent_horizon(traj2d, ts, c0),
                                          particle_horizon(traj2d, ts, c0))):
        np.testing.assert_allclose(column, expected, rtol=1e-12, atol=0.0)

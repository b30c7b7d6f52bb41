import math

import numpy as np
import pytest

from becosmo.geometry import (EffectiveMetric, apparent_horizon,
                              conformal_factor, flatness_exponent,
                              horizon_crossing_time, metric_components,
                              particle_horizon, settled_apparent_horizon,
                              sound_speed_history)
from becosmo.scaling import ExpansionProtocol, integrate_scale_factor
from becosmo.scenarios import PRESETS, config_from_dict, run

from conftest import W0_2D


class TestConformalFactor:
    def test_unit_ratio(self):
        assert conformal_factor(1.0, 1.0, 3) == pytest.approx(1.0)

    def test_2d_power(self):
        assert conformal_factor(3.0, 2.0, 2) == pytest.approx((1.5) ** 2, rel=1e-15)

    def test_1d_is_free_choice(self):
        assert conformal_factor(5.0, 0.3, 1) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conformal_factor(-1.0, 1.0, 2)


class TestMetric:
    def test_static_fluid_diagonal(self):
        cov, _ = metric_components(2.0, 3.0, [0.0, 0.0])
        assert cov == pytest.approx(np.diag([2.0 * 9.0, -2.0, -2.0]))

    def test_g00_vanishes_at_sonic_point(self):
        metric = EffectiveMetric(conformal_factor=1.7, sound_speed=2.0,
                                 flow_velocity=np.array([2.0, 0.0]),
                                 dimension=2, exponent=2.0)
        assert metric.g00 == pytest.approx(0.0, abs=1e-14)
        assert metric.covariant()[0, 0] == pytest.approx(0.0, abs=1e-14)

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
    @pytest.mark.parametrize("d, n", [(1, 3.0), (2, 2.0), (3, 5.0 / 3.0)])
    def test_flat_cases(self, d, n):
        assert flatness_exponent(d, n).is_flat

    @pytest.mark.parametrize("d, n", [(3, 2.0), (2, 3.0)])
    def test_non_flat_cases(self, d, n):
        assert not flatness_exponent(d, n).is_flat

    def test_3d_quartic_exponent(self):
        assert flatness_exponent(3, 2.0).exponent == pytest.approx(0.5, rel=1e-12)

    def test_d1_has_no_exponent(self):
        assert flatness_exponent(1, 3.0).exponent is None


class TestSoundSpeed:
    def test_initial_value(self, traj2d):
        c = sound_speed_history(traj2d, c0=2.0e-3)
        assert c(0.0) == pytest.approx(2.0e-3, rel=1e-12)

    def test_2d_halving(self, traj2d):
        c = sound_speed_history(traj2d, c0=1.0)
        t = float(traj2d.ts[200])
        b = float(traj2d.b(t))
        assert c(t) == pytest.approx(1.0 / b, rel=1e-12)

    def test_3d_exponent(self, traj3d):
        c = sound_speed_history(traj3d, c0=1.0)
        t = traj3d.t_max / 3.0
        b = float(traj3d.b(t))
        assert c(t) == pytest.approx(b**-1.5, rel=1e-12)


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


class TestHorizonCrossing:
    def test_superhorizon_from_start(self, traj2d):
        assert horizon_crossing_time(1e-9, traj2d, c0=1.0) == 0.0

    def test_monotone_in_kappa(self, traj2d):
        c0 = 1.0
        kappas = np.geomspace(10.0 * W0_2D / c0, 1e3 * W0_2D / c0, 8)
        times = [horizon_crossing_time(float(k), traj2d, c0) for k in kappas]
        assert all(t is not None for t in times)
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_bisection_against_dense_scan(self, traj2d):
        c0 = 1.0
        kappa = 2.0 * W0_2D / c0 * 40.0
        wavelength = 2.0 * math.pi / kappa
        grid = np.linspace(0.0, traj2d.t_max, 20001)
        horizon = np.array([particle_horizon(traj2d, float(t), c0) for t in grid])
        scan_idx = int(np.argmax(horizon <= wavelength))
        t_cross = horizon_crossing_time(kappa, traj2d, c0)
        assert grid[scan_idx - 1] <= t_cross <= grid[scan_idx]

    def test_never_crossing_reported(self, traj2d):
        # wavelength far below the horizon at the end of the sampled range
        kappa = 1e9 * W0_2D
        assert horizon_crossing_time(kappa, traj2d, c0=1.0) is None

    def test_rejects_nonpositive_kappa(self, traj2d):
        with pytest.raises(ValueError):
            horizon_crossing_time(0.0, traj2d)


class TestArrayPath:
    @pytest.mark.parametrize("horizon", [apparent_horizon, particle_horizon])
    @pytest.mark.parametrize("name", ["traj2d", "traj3d"])
    def test_array_matches_scalar_bitwise(self, horizon, name, request):
        traj = request.getfixturevalue(name)
        values = horizon(traj, traj.ts, 2.0e-3)
        scalars = [horizon(traj, float(t), 2.0e-3) for t in traj.ts]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert values.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("horizon", [apparent_horizon, particle_horizon])
    def test_rejects_one_time_out_of_range(self, horizon, traj2d):
        for bad in (-1.0, 2.0 * traj2d.t_max):
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

import math

import mpmath
import numpy as np
import pytest

from scipy.integrate import quad
from scipy.optimize import brentq

from becosmo.condensate import thomas_fermi
from becosmo.geometry import (apparent_horizon, conformal_factor,
                              horizon_crossing_time, particle_horizon,
                              settled_apparent_horizon)
from becosmo.scaling import integrate_scale_factor
from becosmo.scenarios import PRESETS, config_from_dict, run

from conftest import W0_2D
from references import metric_components


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
    # with c = c0 b^(-D/2), the co-moving metric factor A b^2 grows as a power of b
    @staticmethod
    def _growth(trajectory, dimension):
        factor = lambda b: conformal_factor(b ** (-trajectory.dimension / 2.0), 1.0,
                                            dimension) * b**2
        return math.log(factor(4.0) / factor(1.0)) / math.log(4.0)

    def test_2d_is_flat(self, traj2d):
        assert self._growth(traj2d, 2) == pytest.approx(0.0, abs=1e-15)

    def test_3d_quartic_exponent(self, traj3d):
        assert self._growth(traj3d, 3) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("c0", [math.nan, 0.0, -1.0, math.inf])
def test_horizons_reject_bad_sound_speed(traj2d, c0):
    calls = (lambda: particle_horizon(traj2d, 0.0, c0),
             lambda: apparent_horizon(traj2d, 1.0, c0),
             lambda: settled_apparent_horizon(traj2d, c0),
             lambda: horizon_crossing_time([1e4, 1e6], traj2d, c0))
    for call in calls:
        with pytest.raises(ValueError, match="c0"):
            call()


@pytest.mark.parametrize("t, bad", [([0.0, 1.0, -1.0], "-1.0"), (math.nan, "nan"),
                                    ([0.0, math.inf], "inf")])
def test_horizons_name_the_bad_time(traj2d, t, bad):
    # the message names the first time outside [0, t_max], so a bad element
    # of a long array can be found from it
    for horizon in (particle_horizon, apparent_horizon):
        with pytest.raises(ValueError, match=rf"^t={bad} outside sampled range \[0, "):
            horizon(traj2d, t)


def _preset_trajectory(name):
    """The preset's own b(t) and sound speed, as its evolve stage builds them."""
    config = config_from_dict(PRESETS[name])
    spec, numeric = config.condensate, config.numeric
    omega0 = spec.trap.longitudinal_frequency
    trajectory = integrate_scale_factor(
        omega0, spec.trap.dimension, t_max=numeric.t_max_omega0 / omega0,
        n_samples=numeric.trajectory_samples)
    return trajectory, thomas_fermi(spec).sound_speed


class TestParticleHorizon:
    def test_initial_reach_2d(self, traj2d):
        expected = math.pi / (2.0 * W0_2D)
        assert particle_horizon(traj2d, 0.0) == pytest.approx(expected, rel=1e-3)

    def test_trap_on_is_infinite(self):
        traj = integrate_scale_factor(W0_2D, 2, t_max=20.0 / W0_2D, held=True)
        assert math.isinf(particle_horizon(traj, 0.0))

    def test_shrinks_to_zero(self, traj2d):
        late = particle_horizon(traj2d, traj2d.t_max)
        assert late < 1e-3 * particle_horizon(traj2d, 0.0)

    def test_strictly_decreasing(self, traj2d):
        values = [particle_horizon(traj2d, float(t)) for t in traj2d.ts[::10]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_null_line_consistency(self, traj2d):
        # flat case: horizon = c0 (tau_inf - tau(t)), same integral both ways
        c0 = 2.0e-3
        for t in (0.0, 1.0 / W0_2D, 30.0 / W0_2D):
            lhs = particle_horizon(traj2d, t, c0)
            rhs = c0 * (math.pi / 2.0 - math.atan(W0_2D * t)) / W0_2D
            assert lhs == pytest.approx(rhs, rel=1e-7)

    @pytest.mark.parametrize("name", ["sodium-q2d", "rubidium-3d"])
    def test_matches_quadrature(self, name):
        # An oracle independent of the first integral: quad of b^-s on the
        # dense b(t) up to t_max, plus the tail along the line through
        # b(t_max) with slope alpha. bdot = alpha (1 - b^-D/2 + ...) makes the
        # line miss the tail by b_f^(1-s-D)/(2 alpha (s-1+D)) to leading
        # order; allow half again that, plus the ODE tolerance.
        traj, c0 = _preset_trajectory(name)
        tolerance = 1e-10
        D, alpha = traj.dimension, traj.asymptotic_velocity
        s, b_f = 1.0 + D / 2.0, float(traj.bs[-1])
        tail = b_f ** (1.0 - s) / (alpha * (s - 1.0))
        miss = b_f ** (1.0 - s - D) / (2.0 * alpha * (s - 1.0 + D))
        for t in traj.ts[::20]:
            body = quad(lambda u: float(traj.b(u)) ** -s, t, traj.t_max, epsabs=0.0,
                        epsrel=1e-13, limit=400)[0]
            horizon = particle_horizon(traj, t, c0)
            assert abs(c0 * (body + tail) - horizon) <= (tolerance * horizon
                                                         + 1.5 * c0 * miss)

    @pytest.mark.parametrize("name", ["sodium-q2d", "rubidium-3d"])
    def test_matches_mpmath_arcsin(self, name):
        # the horizon is one arcsin of the stored b, so it is as accurate
        # as that: within 4 ulps of a 40-digit (2 c0/(D alpha)) arcsin(b^(-D/2))
        # on the same b, at every sample however far b has grown
        traj, c0 = _preset_trajectory(name)
        D, alpha = traj.dimension, traj.asymptotic_velocity
        with mpmath.workdps(40):
            scale = 2 * mpmath.mpf(c0) / (D * mpmath.mpf(alpha))
            expected = np.array([float(scale * mpmath.asin(mpmath.mpf(b) ** (-D / 2)))
                                 for b in traj.bs.tolist()])
        horizon = particle_horizon(traj, traj.ts, c0)
        assert np.all(np.abs(horizon - expected) <= 4.0 * np.finfo(float).eps * expected)


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

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("omega0", [1.0, 62.8])
    @pytest.mark.parametrize("c0", [1.0, 3e-3])
    def test_release_threshold(self, dimension, omega0, c0):
        # kappa <= 2 D alpha/c0 starts outside the horizon: the clamped angle
        # pi/2 gives b_c = 1 and the crossing t = 0, with no branch of its own;
        # just above the threshold the crossing leaves 0 without a step back
        traj = integrate_scale_factor(omega0, dimension, 100.0 / omega0, n_samples=50)
        threshold = 2.0 * dimension * traj.asymptotic_velocity / c0
        ulps = np.arange(-64, 65)
        at = threshold + ulps * np.spacing(threshold)
        times = horizon_crossing_time(at, traj, c0)
        assert np.all(times[ulps <= 0] == 0.0)
        above = threshold * (1.0 + np.geomspace(1e-12, 1e-3, 200))
        times = horizon_crossing_time(np.concatenate([at[ulps > 0], above]), traj, c0)
        assert np.all(times >= 0.0) and np.all(np.diff(times) >= 0.0)
        assert times[-1] > 0.0

    def test_just_above_release_threshold(self):
        traj = integrate_scale_factor(1.0, 3, 100.0, n_samples=50)
        threshold = 6.0 * traj.asymptotic_velocity
        assert horizon_crossing_time(threshold * (1.0 + 1e-9), traj) == 0.0
        assert horizon_crossing_time(threshold * (1.0 + 1e-6), traj) == pytest.approx(
            1.28e-6, rel=5e-3)

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
        traj = integrate_scale_factor(W0_2D, 2, t_max=20.0 / W0_2D, held=True)
        times = horizon_crossing_time(np.array([1e-9, 1.0, 1e9]), traj)
        assert np.all(np.isinf(times))

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_held_trap_scalar_never_crosses(self, dimension):
        # the angle is 0, so b_c = 0^(-2/D) = inf with no warning
        traj = integrate_scale_factor(W0_2D, dimension, t_max=20.0 / W0_2D, held=True)
        assert horizon_crossing_time(1.0, traj) == math.inf

    @pytest.mark.parametrize("name", ["traj2d", "traj3d"])
    def test_crossing_meets_the_horizon(self, name, request):
        # the closed-form crossing puts 2 pi/kappa on the particle horizon,
        # for wavelengths from half the release horizon to those crossing
        # near t_max
        traj = request.getfixturevalue(name)
        c0 = 2.0e-3
        edge = 2.0 * traj.dimension * traj.asymptotic_velocity / c0
        last = 2.0 * math.pi / particle_horizon(traj, traj.t_max, c0)
        kappas = np.geomspace(2.0 * edge, 0.999 * last, 50)
        times = horizon_crossing_time(kappas, traj, c0)
        assert np.all((times > 0.0) & (times <= traj.t_max))
        reach = particle_horizon(traj, times, c0) * kappas / (2.0 * math.pi)
        assert np.abs(reach - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_crossing_far_past_float_square_root(self, dimension):
        # b_c = 1e200 on a run to omega0 t = 1e300: sqrt(b_c^2 - 1) would
        # overflow, yet the crossing lies well inside the run
        traj = integrate_scale_factor(W0_2D, dimension, 1e300 / W0_2D, n_samples=50)
        c0 = 1.0
        alpha = traj.asymptotic_velocity
        kappa = math.pi * dimension * alpha / (c0 * math.asin(1e-200 ** (dimension / 2.0)))
        t_c = horizon_crossing_time(kappa, traj, c0)
        assert 1e199 / W0_2D < t_c < 1e201 / W0_2D
        reach = particle_horizon(traj, t_c, c0) * kappa / (2.0 * math.pi)
        assert abs(reach - 1.0) <= 1e-13

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

    @pytest.mark.parametrize("name", ["sodium-q2d", "rubidium-3d"])
    def test_matches_closed_form_crossing(self, name):
        # 2 pi/kappa = (2 c0/(D alpha)) arcsin(b^(-D/2)) at
        # b_c = sin(pi D alpha/(c0 kappa))^(-2/D) for kappa >= 2 D alpha/c0;
        # a longer wavelength is outside the horizon at release. t_c is
        # bisected on the stored b(t) as the code bisects the horizon.
        traj, c0 = _preset_trajectory(name)
        D, alpha, t_max = traj.dimension, traj.asymptotic_velocity, traj.t_max
        edge = 2.0 * D * alpha / c0
        kappas = np.geomspace(0.5 * edge,
                              2.0 * 2.0 * math.pi / particle_horizon(traj, t_max, c0), 64)
        b_c = np.sin(np.minimum(math.pi * D * alpha / (c0 * kappas), math.pi / 2.0)) ** (
            -2.0 / D)
        lo, hi, width = np.zeros_like(kappas), np.full_like(kappas, t_max), t_max
        while width > 1e-14 * t_max:
            mid = 0.5 * (lo + hi)
            grown = traj.b(mid) >= b_c
            hi, lo = np.where(grown, mid, hi), np.where(grown, lo, mid)
            width *= 0.5
        expected = np.where(kappas < edge, 0.0,
                            np.where(b_c > traj.b(t_max), math.inf, 0.5 * (lo + hi)))
        times = horizon_crossing_time(kappas, traj, c0)
        crossing = (expected > 0.0) & np.isfinite(expected)
        assert np.any(expected == 0.0) and np.any(np.isinf(expected))
        assert np.array_equal(times == 0.0, expected == 0.0)
        assert np.array_equal(np.isinf(times), np.isinf(expected))
        # the bisection width: the horizon is one arcsin of b, so its float
        # resolution moves no crossing past it
        assert np.all(np.abs(times[crossing] - expected[crossing]) <= 1e-14 * t_max)


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


def test_preset_2d_horizons_match_arctan(tmp_path):
    # In quasi-2D the particle horizon is c0/omega0 (pi/2 - arctan(omega0 t)):
    # every row of the sodium-q2d run is within the ODE tolerance of it, as
    # b(t) itself is.
    config = config_from_dict({**PRESETS["sodium-q2d"], "analysis": ["horizons"]})
    report = run(config, tmp_path)
    c0 = report.derived["sound_speed_m_per_s"]
    omega0 = config.condensate.trap.longitudinal_frequency
    table = np.loadtxt(tmp_path / "horizons.csv", delimiter=",", skiprows=1)
    exact = c0 / omega0 * (math.pi / 2.0 - np.arctan(omega0 * table[:, 0]))
    assert np.abs(table[:, 2] / exact - 1.0).max() <= 1e-10


def test_preset_3d_horizons_match_arcsin(tmp_path):
    # r_p = (2 c0/(3 alpha)) arcsin(b^(-3/2)), alpha = omega0 sqrt(2/3), on
    # the b(t) the same run writes to trajectory.csv
    config = config_from_dict({**PRESETS["rubidium-3d"],
                               "analysis": ["evolve", "horizons"]})
    report = run(config, tmp_path)
    c0 = report.derived["sound_speed_m_per_s"]
    alpha = config.condensate.trap.longitudinal_frequency * math.sqrt(2.0 / 3.0)
    b = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)[1:, 1]
    table = np.loadtxt(tmp_path / "horizons.csv", delimiter=",", skiprows=1)
    exact = 2.0 * c0 / (3.0 * alpha) * np.arcsin(b**-1.5)
    assert np.abs(table[:, 2] / exact - 1.0).max() <= 1e-9

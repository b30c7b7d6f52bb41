import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from becosmo import scaling
from becosmo.scaling import (LinearExpansion, NumericalError, analytic_scale_2d,
                             analytic_scale_3d, integrate_scale_factor)
from becosmo.condensate import natural_coupling, thomas_fermi
from becosmo.geometry import conformal_factor
from becosmo.scenarios import PRESETS, config_from_dict, run

from references import horner
from conftest import W0_2D, W0_3D


class TestOdeRhs:
    """The right-hand side b'' = omega0^2/b^(D+1), read off the trajectory."""

    def test_2d_at_release(self, traj2d):
        # b'' = omega0^2 at b = 1: bdot = omega0^2 t (1 - (omega0 t)^2/2 + ...)
        t = 1e-4 / W0_2D
        assert traj2d.bdot(t) == pytest.approx(W0_2D**2 * t, rel=1e-7)

    def test_3d_quartic_damping(self, traj3d):
        # p = 4: the first integral bdot^2 = 2 omega0^2 (1 - b^-3) / 3
        b, bdot = traj3d.bs[1:], traj3d.bdots[1:]  # b = 1 at t = 0
        assert np.abs(bdot**2 / (2.0 * W0_3D**2 * (1.0 - b**-3.0) / 3.0) - 1.0).max() <= 1e-8

    # the trap schedule: omega0 enters b'' squared, which must be a normal float
    @pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf, 1e-300,
                                        1e-155, 1e155])
    def test_protocol_rejects_bad_frequency(self, omega0):
        for held in (False, True):
            with pytest.raises(ValueError, match="initial frequency"):
                integrate_scale_factor(omega0, 2, 1.0, held=held)

    def test_trap_on_equilibrium(self):
        # the held trap is the closed form b = 1, exactly
        held = integrate_scale_factor(W0_2D, 2, t_max=5.0, held=True)
        assert np.all(held.bs == 1.0) and np.all(held.bdots == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(omega0=st.floats(1e-2, 1e3), span=st.floats(1.0, 1e4))
    def test_3d_first_integral(self, omega0, span):
        # the closed form on any free 3D run: bdot^2 = 2 omega0^2 (1 - b^-3) / 3
        traj = integrate_scale_factor(omega0, 3, t_max=span / omega0)
        b, bdot = traj.bs[1:], traj.bdots[1:]  # b = 1 at t = 0
        assert np.abs(bdot**2 / (2.0 * omega0**2 * (1.0 - b**-3.0) / 3.0) - 1.0).max() <= 1e-8


class TestAnalytic2d:
    def test_initial_conditions(self):
        assert analytic_scale_2d(0.0, W0_2D).tolist() == [1.0, 0.0, 0.0]

    def test_closed_form_point(self):
        b, bdot, clock = analytic_scale_2d(1.0 / W0_2D, W0_2D)
        assert b == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert bdot == pytest.approx(W0_2D / math.sqrt(2.0), rel=1e-15)
        assert clock == pytest.approx(math.pi / (4.0 * W0_2D), rel=1e-15)

    def test_velocity_saturates(self):
        _, bdot, clock = analytic_scale_2d(1e6 / W0_2D, W0_2D)
        assert bdot == pytest.approx(W0_2D, rel=1e-10)
        assert clock == pytest.approx(math.pi / (2.0 * W0_2D), rel=1e-6)

    def test_array_contract(self):
        # the dense-lookup shape: (3,) for a scalar time, (3, n) for n times
        ts = np.array([0.0, 1.0, 1e300]) / W0_2D
        table = analytic_scale_2d(ts, W0_2D)
        assert table.shape == (3, 3) and np.all(np.isfinite(table))
        for j, t in enumerate(ts):
            assert analytic_scale_2d(t, W0_2D).tolist() == table[:, j].tolist()

    def test_rejects_negative_or_nan_time(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                analytic_scale_2d(bad, W0_2D)


def _beta_tail(b, a):
    """40-digit x = omega0 t (a = -1/3) or omega0 clock (a = 5/12) at b of a
    free 3D run: the integral of v^(a-1) (1-v)^(-1/2) from b^-3 to 1 over
    3 sqrt(2/3), written with v = 1 - s^2 so that the integrand is smooth."""
    with mpmath.workdps(40):
        top = mpmath.sqrt(1 - mpmath.mpf(b) ** -3)
        integral = mpmath.quad(lambda s: 2 * (1 - s * s) ** (a - 1), [0, top / 2, top])
        return integral / (3 * mpmath.sqrt(mpmath.mpf(2) / 3))


class TestAnalytic3d:
    """The free 3D closed form: t(b) and the clock as incomplete Beta
    integrals, and b(t) their inverse by Newton's method."""

    # the bin edges of the series (b = 2^(1/3) and 10) and both sides of them
    B_GRID = np.concatenate([np.geomspace(1.001, 1e6, 20),
                             [2.0 ** (1.0 / 3.0), np.nextafter(2.0 ** (1.0 / 3.0), 2.0),
                              np.nextafter(10.0, 0.0), 10.0]])

    def test_time_and_clock_match_mpmath(self):
        b = self.B_GRID
        x = scaling._release(b)
        # the clock series on the bins analytic_scale_3d picks for each b
        clock = np.where(b <= scaling._B_HALF,
                         scaling._clock_early(scaling._early_w(b - 1.0)),
                         np.where(b >= scaling._B_LATE,
                                  scaling._clock_late(b, scaling._U_TERMS_LATE),
                                  scaling._clock_late(b, scaling._U_TERMS)))
        for b, got_x, got_clock in zip(b, x, clock):
            assert abs(got_x / _beta_tail(b, mpmath.mpf(-1) / 3) - 1) <= 2e-15
            assert abs(got_clock / _beta_tail(b, mpmath.mpf(5) / 12) - 1) <= 2e-15

    def test_inverse_round_trip(self):
        # t(b(t)) = t wherever b carries t to a few ulps (b grows away from 1)
        x = np.concatenate([np.linspace(1.0, 50.0, 2000), np.geomspace(50.0, 1e300, 2000)])
        b = analytic_scale_3d(x, 1.0)[0]
        assert np.abs(scaling._release(b) / x - 1.0).max() <= 1e-15

    def test_first_integral_and_release(self):
        x = np.geomspace(1e-6, 1e6, 500)
        b, bdot, clock = analytic_scale_3d(x / W0_3D, W0_3D)
        # the first integral, away from b = 1 where the rounding of b is all of b - 1
        alpha, late = W0_3D * math.sqrt(2.0 / 3.0), x >= 1.0
        first = alpha * np.sqrt(-np.expm1(-3.0 * np.log(b[late])))
        assert np.abs(bdot[late] / first - 1.0).max() <= 1e-14
        # b = 1 + x^2/2, bdot = omega0 x and clock = t at release; b - 1 only
        # where it is more than its own rounding
        early = x < 1e-3
        resolved = early & (x > 1e-4)
        np.testing.assert_allclose(b[resolved] - 1.0, x[resolved] ** 2 / 2.0, rtol=1e-5)
        np.testing.assert_allclose(bdot[early], W0_3D * x[early], rtol=1e-5)
        np.testing.assert_allclose(clock[early], x[early] / W0_3D, rtol=1e-5)
        assert analytic_scale_3d(0.0, W0_3D).tolist() == [1.0, 0.0, 0.0]

    def test_scalar_is_its_array_element(self, traj3d):
        # every bin, its edges and the overflow-safe tail, off the sample times
        x = np.concatenate([[0.0, 1e-200, 1e-170, np.nextafter(scaling._X_TINY, 0.0),
                             scaling._X_TINY, 1e-8, 0.3, scaling._X_HALF, 2.0,
                             scaling._X_LATE, 40.0, 1e10, 1e300],
                            np.random.default_rng(3).uniform(0.0, 5000.0, 60)])
        table = analytic_scale_3d(x / W0_3D, W0_3D)
        assert table.shape == (3, x.size) and np.all(np.isfinite(table))
        for j, xj in enumerate(x):
            assert analytic_scale_3d(xj / W0_3D, W0_3D).tolist() == table[:, j].tolist()
        ts = x[x <= 5000.0] / W0_3D
        for lookup, row in ((traj3d.b, 0), (traj3d.bdot, 1), (traj3d.clock, 2)):
            values = lookup(ts)
            assert values.tobytes() == analytic_scale_3d(ts, W0_3D)[row].tobytes()
            assert [float(lookup(t)) for t in ts] == values.tolist()

    @pytest.mark.parametrize("x", [1e-160, 1e-170, 1e-300, 5e-324])
    @pytest.mark.parametrize("omega0", [1.0, 0.5])
    def test_tiny_times(self, x, omega0):
        # b = 1, bdot = omega0 x and clock = t below _X_TINY, where the
        # Newton variable y = b - 1 would go subnormal or underflow to 0
        b, bdot, clock = analytic_scale_3d(x / omega0, omega0)
        assert b == 1.0
        assert abs(bdot / omega0 - x) <= np.spacing(x)
        assert abs(omega0 * clock - x) <= np.spacing(x)

    def test_tiny_time_threshold(self):
        # the Taylor bin below _X_TINY and the Newton bin above it meet to
        # 2 ulps in every row, each within an ulp or two of (1, x, x)
        above = scaling._X_TINY
        below = np.nextafter(above, 0.0)
        rows = analytic_scale_3d(np.array([below, above]), 1.0)
        assert rows[0].tolist() == [1.0, 1.0]
        for row in rows[1:]:
            assert abs(row[1] - row[0]) <= 2 * np.spacing(below)
            assert np.all(np.abs(row - [below, above]) <= 2 * np.spacing(below))

    def test_samples_are_the_closed_form(self, traj3d):
        # the stored samples, which lookups at sample times read
        table = analytic_scale_3d(traj3d.ts, W0_3D)
        assert table.tobytes() == np.array([traj3d.bs, traj3d.bdots,
                                            traj3d.clocks]).tobytes()

    @pytest.mark.parametrize("factor", [1e-100, 1e-3, 7.3, 1e100])
    def test_dimensional_scaling(self, factor):
        # b depends on omega0 t alone: scaling omega0 at fixed t_max_omega0
        # moves b by a few ulps (omega0 t itself moves by one or two), divides
        # t by the factor and multiplies bdot by it
        runs = [integrate_scale_factor(w0, 3, 5000.0 / w0, n_samples=400)
                for w0 in (W0_3D, W0_3D * factor)]
        ulps = np.abs(runs[1].bs - runs[0].bs) / np.spacing(runs[0].bs)
        assert ulps.max() <= 8
        np.testing.assert_allclose(runs[1].ts * factor, runs[0].ts, rtol=1e-15)
        np.testing.assert_allclose(runs[1].bdots / factor, runs[0].bdots, rtol=1e-14)

    @pytest.mark.parametrize("omega0", [1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100,
                                        1e140, 1e150])
    def test_any_frequency_and_span(self, omega0):
        # a finite history or NumericalError, never another exception
        for span in (1e-8, 1e-3, 1.0, 1e3, 1e10, 1e50):
            try:
                traj = integrate_scale_factor(omega0, 3, span / omega0, n_samples=50)
            except NumericalError:
                continue
            rows = np.array([traj.bs, traj.bdots, traj.clocks])
            assert np.all(np.isfinite(rows)) and traj.bs[-1] >= 1.0
            assert np.isfinite(traj.horizon_integral(traj.ts)).all()

    def test_unconverged_newton_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(scaling, "_NEWTON_CAP", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            analytic_scale_3d(5.0, 1.0)

    def test_rejects_bad_time(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                analytic_scale_3d(bad, W0_3D)


class TestSeriesSum:
    """The free 3D series are summed in Python floats for a few samples and
    in numpy for more; horner (tests/references.py), numpy throughout, is
    the textbook sum both must equal bit for bit."""

    SERIES = {"time w": scaling._TIME_W, "time u": scaling._TIME_U,
              "time u, late": scaling._TIME_U[:scaling._U_TERMS_LATE],
              "clock w": scaling._CLOCK_W, "clock u": scaling._CLOCK_U,
              "clock u, late": scaling._CLOCK_U[:scaling._U_TERMS_LATE]}

    @pytest.mark.parametrize("name", SERIES)
    def test_every_size_is_the_textbook_sum(self, name):
        # both sides of _FEW_SAMPLES, over the series variable's range [0, 1/2]
        coefs, rng = self.SERIES[name], np.random.default_rng(11)
        for n in range(2 * scaling._FEW_SAMPLES + 3):
            z = np.concatenate([[0.0, 0.5, 5e-324][:n], rng.uniform(0.0, 0.5, max(n - 3, 0))])
            assert scaling._horner(coefs, z).tobytes() == horner(coefs, z).tobytes()

    def test_dense_grid_is_the_textbook_sum(self, monkeypatch):
        # 0 ulps in b, bdot and the clock over the early and middle bins and
        # across the late edge, for the whole grid and for single samples
        x = np.concatenate([np.geomspace(1e-6, 11.69, 20000),
                            np.linspace(scaling._X_LATE - 1.0, scaling._X_LATE + 1.0, 500)])
        new = analytic_scale_3d(x, 1.0)
        single = np.array([analytic_scale_3d(xj, 1.0) for xj in x[::97]]).T
        monkeypatch.setattr(scaling, "_horner", horner)
        textbook = analytic_scale_3d(x, 1.0)
        assert new.tobytes() == textbook.tobytes()
        assert single.tobytes() == textbook[:, ::97].tobytes()

    def test_scalar_is_its_array_element_at_the_bin_edges(self):
        # more middle-bin samples than _FEW_SAMPLES, so that the array and the
        # scalars take different paths through the sum
        edges = [scaling._X_HALF, scaling._X_LATE]
        x = np.concatenate([np.linspace(0.5, 12.0, 40), edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, math.inf)])
        table = analytic_scale_3d(x, 1.0)
        assert np.sum((x >= edges[0]) & (x < edges[1])) > scaling._FEW_SAMPLES
        for j, xj in enumerate(x):
            assert analytic_scale_3d(xj, 1.0).tobytes() == table[:, j].tobytes()

    def test_memory_does_not_grow(self, monkeypatch):
        # a 1e6-sample run inside the early and middle bins peaks at about
        # 131 MB under tracemalloc with either sum
        def peak():
            tracemalloc.start()
            try:
                integrate_scale_factor(1.0, 3, 11.0, n_samples=1_000_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new = peak()
        monkeypatch.setattr(scaling, "_horner", horner)
        assert new <= 1.25 * peak()


class TestTrajectory:
    def test_matches_closed_form(self, traj2d):
        # the 2D closed form against scipy's DOP853 on b'' = omega0^2/b^3,
        # over the bend before the linear regime
        reference = TestStepperReference._reference(traj2d, W0_2D, 2)
        ts = np.linspace(0.0, 100.0 / W0_2D, 500)
        floor = 1e-13 * np.array([1.0, W0_2D, 1.0 / W0_2D])[:, None]
        got = np.array([traj2d.b(ts), traj2d.bdot(ts), traj2d.clock(ts)])
        assert np.all(np.abs(got - reference(ts)) <= 1e-11 * np.abs(got) + floor)

    def test_initial_conditions(self, traj2d):
        assert traj2d.b(0.0) == pytest.approx(1.0, abs=1e-13)
        assert abs(traj2d.bdot(0.0)) <= 1e-13 * W0_2D

    def test_monotone_free_expansion(self, traj2d):
        assert np.all(np.diff(traj2d.bs) > 0.0)
        assert np.all(np.diff(traj2d.bdots) >= 0.0)
        assert np.all(np.diff(traj2d.clocks) > 0.0)

    def test_energy_invariant(self, traj2d):
        # b'' = omega0^2/b^3 conserves bdot^2/2 + omega0^2/(2 b^2); traj2d
        # was integrated at tolerance 1e-10
        energy = 0.5 * traj2d.bdots**2 + W0_2D**2 * traj2d.bs**-2.0 / 2.0
        assert np.abs(energy / energy[0] - 1.0).max() <= 10.0 * 1e-10

    def test_asymptotic_velocity_3d(self, traj3d):
        assert traj3d.asymptotic_velocity / W0_3D == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-4)

    def test_trap_on_is_static(self):
        traj = integrate_scale_factor(W0_2D, 2, t_max=20.0 / W0_2D, held=True)
        assert np.abs(traj.bs - 1.0).max() <= 1e-10
        assert np.abs(traj.bdots).max() <= 1e-8 * W0_2D

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            integrate_scale_factor(W0_2D, 2, -1.0)
        with pytest.raises(ValueError):
            integrate_scale_factor(W0_2D, 2, math.nan)
        for dimension in (1, 4):  # the model is quasi-2D or 3D
            with pytest.raises(ValueError, match="dimension"):
                integrate_scale_factor(W0_2D, dimension, 1.0)

    # n_samples = 1 would store t_max = 0, 0 has no last sample, and 2.5 is
    # not a count
    @pytest.mark.parametrize("n_samples", [0, 1, 2.5])
    def test_rejects_bad_sample_count(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            integrate_scale_factor(W0_2D, 2, 10.0, n_samples=n_samples)

    def test_range_guard(self, traj2d):
        for lookup in (traj2d.b, traj2d.bdot, traj2d.clock, traj2d.horizon_integral):
            for bad in (2.0 * traj2d.t_max, -1.0, math.nan):
                with pytest.raises(ValueError):
                    lookup(bad)

    @pytest.mark.parametrize("dimension, held", [(2, False), (3, False), (3, True)])
    def test_time_at_domain(self, dimension, held):
        # b below 1 is never reached, held or free; b = inf is reached at
        # t = inf, which horizon_crossing_time reads as a mode never crossing
        traj = integrate_scale_factor(1.0, dimension, 10.0, held=held)
        for bad in (0.5, -1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^b={bad!r} must be at least 1"):
                traj.time_at(bad)
        with pytest.raises(ValueError, match=r"^b=0\.9 "):
            traj.time_at([2.0, 0.9, -1.0])
        assert traj.time_at(math.inf) == math.inf
        times = traj.time_at(traj.bs[1:])
        if held:
            assert np.all(times == math.inf)
        else:
            np.testing.assert_allclose(times, traj.ts[1:], rtol=1e-12)
            assert traj.time_at(1.0) == 0.0

    def test_overflow_is_a_numerical_error(self):
        # both closed forms are finite at any such span
        for span in (1e200, 1e300):
            for omega0, dimension in ((W0_2D, 2), (W0_3D, 3)):
                traj = integrate_scale_factor(omega0, dimension, t_max=span / omega0)
                assert np.isfinite(traj.bs).all()
        # at the top of the float range omega0 t itself overflows
        for dimension in (2, 3):
            with pytest.raises(NumericalError, match="overflow"):
                integrate_scale_factor(3.0, dimension, t_max=sys.float_info.max / 3.0)

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
    """The free 3D, quasi-2D and held closed forms against scipy's
    DOP853 at rtol 2.3e-14 (just above its floor of 100 machine epsilons) on
    the same three channels, with the model written out here:
    b'' = omega0^2/b^(D+1), less omega0^2 b while the trap is held, and the
    clock integrand b^q, q = -2 in quasi-2D and -9/4 in 3D."""

    @staticmethod
    def _reference(traj, w0, dimension, held=False):
        p = dimension + 1
        q = {2: -2.0, 3: -2.25}[dimension]
        w_ext = w0 if held else 0.0

        def rhs(t, y):
            return [y[1], -w_ext**2 * y[0] + w0**2 / y[0]**p, y[0]**q]
        atol = np.array([1.0, w0, 1.0 / w0]) * 1e-20
        sol = solve_ivp(rhs, (0.0, traj.t_max), [1.0, 0.0, 0.0], method="DOP853",
                        rtol=2.3e-14, atol=atol, dense_output=True)
        assert sol.success
        return sol.sol

    @pytest.fixture(scope="class")
    def held(self):
        return integrate_scale_factor(W0_2D, 2, t_max=20.0 / W0_2D, held=True)

    @pytest.mark.parametrize("name", ["traj2d", "traj3d", "held"])
    def test_agrees_with_reference(self, name, request):
        traj = request.getfixturevalue(name)
        dimension, w0 = (3, W0_3D) if name == "traj3d" else (2, W0_2D)
        reference = self._reference(traj, w0, dimension, held=name == "held")
        # absolute floor in each channel's natural unit, for the zeros at t = 0
        # and the static bdot of a held trap
        floor = 1e-13 * np.array([1.0, w0, 1.0 / w0])[:, None]
        off_sample = np.random.default_rng(7).uniform(0.0, traj.t_max, 1000)
        for ts, got in ((traj.ts, np.array([traj.bs, traj.bdots, traj.clocks])),
                        (off_sample, np.array([traj.b(off_sample), traj.bdot(off_sample),
                                               traj.clock(off_sample)]))):
            expected = reference(ts)
            assert np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected) + floor)

    @pytest.mark.parametrize("name", ["traj2d", "traj3d", "held"])
    def test_samples_are_the_dense_lookup(self, name, request):
        traj = request.getfixturevalue(name)
        for lookup, stored in ((traj.b, traj.bs), (traj.bdot, traj.bdots),
                               (traj.clock, traj.clocks)):
            assert lookup(traj.ts).tobytes() == stored.tobytes()


class TestProperTime:
    # In quasi-2D, the flat case, the clock integral of 1/b^2 is the proper time tau.
    def test_2d_arctan(self, traj2d):
        ts = np.linspace(0.5 / W0_2D, 100.0 / W0_2D, 300)
        expected = np.arctan(W0_2D * ts) / W0_2D
        assert np.abs(traj2d.clock(ts) / expected - 1.0).max() <= 1e-8

    def test_2d_limit(self, traj2d):
        # in quasi-2D the clock integrand b^q is the horizon integrand b^-s
        # (q = -s = -2): the total pi/(2 omega0) less the closed-form
        # remaining integral from b(t) meets the stepped clock channel (t = 0,
        # where both are 0, has no relative error to compare)
        elapsed = math.pi / (2.0 * W0_2D) - traj2d.horizon_integral(traj2d.ts)
        np.testing.assert_allclose(elapsed[1:], traj2d.clocks[1:], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("span", [100.0, 200.0, 1100.0])
    def test_2d_closure(self, span):
        # the remaining integral at release is the total proper time
        # pi/(2 omega0), exactly, whatever the span, and the elapsed clock
        # plus what remains closes to it at t_max
        traj = integrate_scale_factor(W0_2D, 2, t_max=span / W0_2D)
        total = math.pi / (2.0 * W0_2D)
        assert traj.horizon_integral(0.0) == pytest.approx(total, rel=1e-14)
        assert traj.clock(traj.t_max) + traj.horizon_integral(traj.t_max) == (
            pytest.approx(total, rel=1e-9))

    def test_static_background(self):
        traj = integrate_scale_factor(W0_2D, 2, t_max=10.0 / W0_2D, held=True)
        t = 5.0 / W0_2D
        assert traj.clock(t) == pytest.approx(t, rel=1e-10)

    def test_samples_are_the_lookup_at_ts(self, tmp_path):
        # trajectory.csv writes tau = sqrt(A(0)) c(0) * clock at the samples,
        # with the prefactor 1 in quasi-2D, the flat case
        for preset in ("sodium-q2d", "rubidium-3d"):
            config = config_from_dict(PRESETS[preset])
            run(config, tmp_path / preset)
            spec, numeric = config.condensate, config.numeric
            D = spec.trap.dimension
            omega0 = spec.trap.longitudinal_frequency
            traj = integrate_scale_factor(
                omega0, D, t_max=numeric.t_max_omega0 / omega0,
                n_samples=numeric.trajectory_samples)
            prefactor = 1.0
            if D == 3:
                derived = thomas_fermi(spec)
                conformal0 = conformal_factor(
                    derived.sound_speed, natural_coupling(derived.effective_coupling), D)
                prefactor = math.sqrt(conformal0) * derived.sound_speed
            lines = (tmp_path / preset / "trajectory.csv").read_text().splitlines()
            assert lines[0].endswith(",tau")
            tau = [line.rsplit(",", 1)[1] for line in lines[1:]]
            assert tau == ["%.12e" % v for v in prefactor * traj.clock(traj.ts)]

    def test_general_branch_exponent(self, traj2d, traj3d):
        # the clock samples integrate b^q: -2 in the flat quasi-2D case, -9/4 in 3D
        for traj, q in ((traj2d, -2.0), (traj3d, -2.25)):
            for t in traj.ts[1::97]:
                expected = quad(lambda u: float(traj.b(u)) ** q, 0.0, t, epsabs=0.0,
                                epsrel=1e-12, limit=200)[0]
                assert float(traj.clock(t)) == pytest.approx(expected, rel=1e-9)


class TestAsymptote:
    # The asymptote is read from the state at t_max, so the sample count of
    # trajectory.csv cannot move the horizons. The first three spans sit just
    # past the onset of the linear regime.
    @pytest.mark.parametrize("dimension, span", [(2, 27.59), (3, 10.81), (3, 13.66),
                                                 (2, 200.0), (3, 5000.0)])
    def test_sample_count_is_output_resolution_only(self, dimension, span):
        omega0 = W0_2D if dimension == 2 else W0_3D
        asymptotes = set()
        for n_samples in (2, 7, 50, 400, 4000):
            traj = integrate_scale_factor(omega0, dimension, t_max=span / omega0,
                                          n_samples=n_samples)
            asymptotes.add((traj.asymptotic_velocity, traj.linear_offset,
                            float(traj.horizon_integral(0.0)),
                            float(traj.horizon_integral(traj.t_max))))
        assert len(asymptotes) == 1


class TestLinearExpansion:
    def test_background(self):
        bg = LinearExpansion(0.5)
        assert bg.b(4.0) == pytest.approx(2.0)
        assert bg.bdot(4.0) == pytest.approx(0.5)
        for bad in (0.0, math.nan):
            for lookup in (bg.b, bg.bdot):
                with pytest.raises(ValueError):
                    lookup(bad)
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                LinearExpansion(bad)

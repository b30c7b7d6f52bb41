import inspect
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.stats import linregress

import becosmo
from becosmo import scaling, threed
from becosmo.scaling import LinearExpansion, ScaleTrajectory, integrate_scale_factor
from becosmo.threed import (ModeIntegrationError, _basis_pair, analytic_evolution,
                            density_contrast_from_mode, density_spectrum_3d,
                            freezing_time, frozen_phase_variance,
                            hankel_argument, integrate_mode, kappa_band_edge,
                            max_contrast_estimate, mode_coefficients,
                            mode_normalization, spectrum_3d_grid)
from becosmo.scenarios import PRESETS, config_from_dict, run
from references import collocation_propagators

ALPHA = math.sqrt(2.0 / 3.0)   # natural units, omega0 = 1


def _deep_start(kappa, depth_z=260.0):
    beta = (2.0 / 3.0) * kappa * ALPHA**-2.5
    return (beta / depth_z) ** (2.0 / 3.0)


def _real_start(trajectory, kappa, depth_z):
    """The time at which a free 3D run leaves the phase z = kappa eta(t):
    sin(3 alpha eta/2) = b^(-3/2) there."""
    alpha = trajectory.asymptotic_velocity
    return float(trajectory.time_at(math.sin(1.5 * alpha * depth_z / kappa) ** (-2.0 / 3.0)))


# Tests that must show the solve never starts replace threed._solve_blocks,
# the block stepper integrate_mode calls once its checks have passed.
def _no_solve(*args, **kwargs):
    raise AssertionError("the solve started")


def _acceleration(phi, phi_u, kappa, horizon_wavenumber):
    """phi_uu = c_phi phi + c_phi' phi_u from threed.mode_coefficients."""
    c_phi, c_phi_u = mode_coefficients(kappa, horizon_wavenumber)
    return c_phi * phi + c_phi_u * phi_u


class TestModeOde:
    """The mode equation in its phase u = -kappa eta(t): unit frequency and
    the friction k_H/(2 kappa), k_H = b^(3/2) bdot."""

    def test_static_background_oscillator(self):
        # at rest k_H = 0: phi_uu = -phi, unit frequency whatever kappa
        for kappa in (0.5, 4.0):
            assert _acceleration(1.0 + 0.0j, 0.7j, kappa, 0.0) == -1.0

    def test_zero_mode_is_rejected(self):
        # kappa = 0 has no phase to run in: the friction k_H/(2 kappa) is undefined
        with pytest.raises(ValueError, match="^kappa=0.0 must be positive"):
            mode_coefficients(0.0, 1.0)

    def test_linear_regime_form(self):
        # on b = alpha t, k_H = 2/(3 eta) = 2 kappa/(3 z): the Bessel form
        # phi_zz - phi_z/(3 z) + phi = 0, with phi_u = -phi_z
        kappa, z = 3.0, 1.7
        phi, phi_u = 0.3 + 0.1j, -0.2 + 0.4j
        k_h = LinearExpansion(ALPHA).horizon_wavenumber(z / kappa)
        assert _acceleration(phi, phi_u, kappa, k_h) == pytest.approx(
            -phi - phi_u / (3.0 * z), rel=1e-15)

    def test_analytic_solution_satisfies_ode(self):
        # the basis solution (1/t) H_{2/3}(z) as a function of z, against the
        # stated form with phi_u = phidot / (du/dt) = phidot b^(5/2)/kappa
        kappa, z = 2.2, 3.1
        beta = (2.0 / 3.0) * kappa * ALPHA**-2.5
        time = lambda zz: (beta / zz) ** (2.0 / 3.0)
        u = lambda zz: _basis_pair(kappa, time(zz), ALPHA)[0]
        h = z * 1e-5
        second = (u(z + h) - 2.0 * u(z) + u(z - h)) / h**2
        t = time(z)
        phi_u = _basis_pair(kappa, t, ALPHA)[1] * (ALPHA * t) ** 2.5 / kappa
        k_h = (ALPHA * t) ** 1.5 * ALPHA
        rhs = _acceleration(u(z), phi_u, kappa, k_h)
        assert abs(second - rhs) <= 1e-6 * abs(rhs)

    def test_coefficients_on_a_real_background(self):
        # the equation in u is phidot'' + 3 (bdot/b) phidot' + kappa^2 b^-5 phi = 0
        # under dt/du = b^(5/2)/kappa: with phidot = kappa b^(-5/2) phi_u,
        # phiddot = kappa^2 b^-5 (phi_uu - (5/2)(b^(3/2) bdot/kappa) phi_u)
        traj = integrate_scale_factor(1.0, 3, 50.0)
        kappa, t = 40.0, 2.3
        b, bdot = float(traj.b(t)), float(traj.bdot(t))
        phi, phi_u = 0.3 - 0.2j, 0.1 + 0.5j
        k_h = traj.horizon_wavenumber(traj.horizon_integral(t))
        phi_uu = _acceleration(phi, phi_u, kappa, k_h)
        phidot = kappa * b**-2.5 * phi_u
        phiddot = kappa**2 * b**-5 * (phi_uu - 2.5 * b**1.5 * bdot / kappa * phi_u)
        residual = phiddot + 3.0 * bdot / b * phidot + kappa**2 * b**-5 * phi
        assert abs(residual) <= 1e-14 * kappa**2 * b**-5 * abs(phi)

    @pytest.mark.parametrize("function", [
        threed.hankel_argument, threed.freezing_time,
        threed._basis_pair, threed._phase_edges, threed._propagators,
        threed._solve_blocks, threed.integrate_mode, threed.analytic_evolution])
    def test_mode_engine_takes_no_c0(self, function):
        # c0 only ever enters as c0 kappa, so the engine works in c0 = 1 units
        assert "c0" not in inspect.signature(function).parameters


class TestCollocationCore:
    """_solve_blocks on an equation that is not the mode equation: the core
    reads its coefficients from a callable and knows no physics."""

    @pytest.mark.parametrize("omega", [3.0, 20.0])
    @pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0)])
    def test_constant_coefficients_give_cos_and_sin(self, omega, start):
        # y'' = -omega^2 y on ten unit blocks; at omega = 20 a block spans
        # three oscillations, so the first round fails and blocks are halved
        tolerance = 1e-12
        atol = np.array([1.0, omega]) * tolerance * 1e-3
        edges, values, nfev = threed._solve_blocks(
            lambda t: (np.full_like(t, -omega**2), np.zeros_like(t)),
            np.linspace(0.0, 10.0, 11), start, tolerance, atol)
        blocks = edges.size - 1
        assert (blocks > 10) == (omega == 20.0) and nfev >= 33 * blocks
        half = 0.5 * np.diff(edges)[:, None]
        t = edges[:-1, None] + (threed._NODES + 1.0) * half
        y0, y1 = start
        cos, sin = np.cos(omega * t), np.sin(omega * t)
        exact = np.stack([y0 * cos + y1 / omega * sin,
                          -y0 * omega * sin + y1 * cos], axis=1)
        # each block meets its tail bound, and the chain adds up the blocks
        bound = blocks * (tolerance * np.array([1.0, omega]) + atol)
        assert np.all(np.abs(values - exact).max(axis=(0, 2)) <= bound)

    # y'' = -y from (1000, 0) at tolerance 1e-12: a block up to about 18.5
    # wide passes the first round, so one 12 * 2^m wide needs m halvings; the
    # amplitude makes the bound's scale by max|c| matter
    @staticmethod
    def _oscillator(edges, start=(1e3, 0.0), atol=(1e-12, 1e-12)):
        return threed._solve_blocks(
            lambda t: (np.full_like(t, -1.0), np.zeros_like(t)), np.array(edges),
            start, 1e-12, np.array(atol))

    def test_only_failing_blocks_are_halved_at_their_midpoints(self):
        # [0, 12] passes; [12, 36] fails, is split at exactly 24, and only
        # its halves are solved again: two rounds of two blocks
        edges, values, nfev = self._oscillator([0.0, 12.0, 36.0])
        assert edges.tolist() == [0.0, 12.0, 24.0, 36.0]
        assert nfev == 33 * (2 + 2)
        t = edges[:-1, None] + (threed._NODES + 1.0) * 6.0
        exact = 1e3 * np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.abs(values - exact).max() <= 3 * 1e3 * 1e-12

    def test_five_halvings_pass_and_a_sixth_is_out_of_reach(self):
        # a 384 wide block is halved five times into 32 blocks of 12, every
        # round solving all of them; one 768 wide would need a sixth
        edges, values, nfev = self._oscillator([0.0, 384.0])
        assert edges.tolist() == (12.0 * np.arange(33)).tolist()
        assert nfev == 33 * (1 + 2 + 4 + 8 + 16 + 32)
        t = edges[:-1, None] + (threed._NODES + 1.0) * 6.0
        exact = 1e3 * np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.abs(values - exact).max() <= 32 * 1e3 * 1e-12
        with pytest.raises(ModeIntegrationError, match="after 5 halvings"):
            self._oscillator([0.0, 768.0])

    @pytest.mark.parametrize("loose", [0, 1])
    def test_either_half_forces_a_halving(self, loose):
        # with one half's absolute floor so large that it always passes, the
        # other half alone still halves a block 24 wide
        atol = [1e-12, 1e-12]
        atol[loose] = 1e30
        edges, values, nfev = self._oscillator([0.0, 24.0], atol=atol)
        assert edges.tolist() == [0.0, 12.0, 24.0] and nfev == 33 * 3

    def test_zero_solution_passes_at_once(self):
        # a tail of 0 meets a bound of 0, so the zero start needs no halving
        edges, values, nfev = self._oscillator([0.0, 384.0], (0.0, 0.0), (0.0, 0.0))
        assert edges.tolist() == [0.0, 384.0] and nfev == 33 and not values.any()


class TestPhaseEdges:
    """The block layout in u = -z: 6 pi wide inside the horizon, a fixed
    fraction 1 - 3^(-3/2) of the phase left outside it (a tripling of t on
    the linear asymptote), ending exactly at -z_end."""

    @pytest.mark.parametrize("z_start, z_end", [(260.0, 1e-3), (13.0, 2e-7),
                                                 (1e4, 3e-300)])
    def test_widths_follow_the_rule(self, z_start, z_end):
        edges = threed._phase_edges(z_start, z_end)
        assert edges[0] == -z_start and edges[-1] == -z_end
        z, widths = -edges[:-1], np.diff(edges)
        rule = np.minimum(6.0 * math.pi, (1.0 - 3.0**-1.5) * z)
        # every block but the last is the rule, up to the rounding of the
        # edges; the last takes the remainder, more than 1 % of the block
        # before it and at most 1 % more than its own rule
        slack = 4.0 * np.spacing(z_start)
        assert np.all(np.abs(widths[:-1] - rule[:-1]) <= slack)
        assert 0.01 * rule[-2] < widths[-1] <= 1.01 * rule[-1] + slack
        # on b = alpha t a graded block is a tripling of t: z falls by 3^(3/2)
        graded = rule[:-1] < 6.0 * math.pi
        assert graded.sum() > 3
        assert np.allclose(-edges[1:-1][graded], z[:-1][graded] * 3.0**-1.5,
                           rtol=1e-12, atol=0)

    def test_remainder_of_one_percent_joins_the_block(self):
        # a remainder of exactly 1 % of a block is folded into it; a hair
        # more is a block of its own
        z_start = 100.0
        z_end = z_start - 1.01 * (6.0 * math.pi)
        assert threed._phase_edges(z_start, z_end).tolist() == [-z_start, -z_end]
        assert threed._phase_edges(z_start, math.nextafter(z_end, 0.0)).size == 3

    @pytest.mark.parametrize("z_end", [0.0, 5.0, 6.0, math.nan])
    def test_rejects_a_phase_outside_the_start(self, z_end):
        with pytest.raises(ModeIntegrationError, match=r"phase left at t_end"):
            threed._phase_edges(5.0, z_end)


class TestAnalyticMode:
    """The basis solution u = (1/t) H^(1)_{2/3}(z) and its derivative, from
    threed._basis_pair; the H^(2) solution is their complex conjugate."""

    def test_early_time_wkb(self):
        kappa = 5.0
        t = _deep_start(kappa, depth_z=2000.0)
        u1, d1 = _basis_pair(kappa, t, ALPHA)
        omega = kappa / (ALPHA * t) ** 2.5
        assert abs(d1 + 1j * omega * u1) / (omega * abs(u1)) <= 1e-3

    def test_late_time_constant(self):
        kappa = 5.0
        t_frozen = freezing_time(kappa, ALPHA)
        u_late = _basis_pair(kappa, t_frozen, ALPHA)[0]
        u_later = _basis_pair(kappa, 2.0 * t_frozen, ALPHA)[0]
        assert abs(u_later - u_late) <= 1e-6 * abs(u_late)

    def test_frozen_limit_value(self):
        # small-argument H expansion: (1/t) H^(2) -> i (beta/2)^(-2/3) /
        # (sin(2 pi/3) Gamma(1/3)); H^(1) is its conjugate
        kappa = 3.0
        beta_half = kappa / (3.0 * ALPHA**2.5)
        expected = beta_half ** (-2.0 / 3.0) / (math.sin(2.0 * math.pi / 3.0)
                                                * math.gamma(1.0 / 3.0))
        t = 100.0 * freezing_time(kappa, ALPHA)
        u1 = _basis_pair(kappa, t, ALPHA)[0]
        assert abs(u1) == pytest.approx(expected, rel=1e-8)
        assert u1.imag < 0.0  # positive-frequency branch freezes onto -i

    def test_argument_is_comoving_sound_reach(self):
        # z equals kappa times the remaining sound travel in co-moving units
        kappa, t = 7.0, 0.9
        reach, _ = quad(lambda tt: 1.0 / (ALPHA * tt) ** 2.5, t, np.inf)
        assert hankel_argument(kappa, t, ALPHA) == pytest.approx(
            kappa * reach, rel=1e-10)

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 100.0])
    def test_derivative_against_mpmath(self, kappa):
        # d/dt of (1/t) H^(1)_{2/3}(z(t)) near the frozen end, where |phidot|
        # falls as t^-3, by 40-digit numerical differentiation
        t_frozen = freezing_time(kappa, ALPHA)
        times = np.linspace(t_frozen / 50.0, t_frozen, 7)
        d1 = _basis_pair(kappa, times, ALPHA)[1]
        with mpmath.workdps(40):
            beta = mpmath.mpf(2) / 3 * kappa * mpmath.mpf(ALPHA) ** mpmath.mpf(-2.5)
            mode = lambda t: mpmath.hankel1(mpmath.mpf(2) / 3, beta * t**-1.5) / t
            for t, value in zip(times.tolist(), d1):
                exact = complex(mpmath.diff(mode, mpmath.mpf(t)))
                assert abs(value - exact) <= 1e-14 * abs(exact)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            _basis_pair(1.0, 0.0, ALPHA)
        with pytest.raises(ValueError):
            _basis_pair(1.0, np.array([1.0, 0.0]), ALPHA)

    # each bad input is named: kappa, or the time whose z(t) is not finite
    @pytest.mark.parametrize("kappa, times, name", [
        (-1.0, 1.0, "kappa"),
        (math.nan, 1.0, "kappa"),
        (math.inf, 1.0, "kappa"),
        (1.0, [], "t"),
        (1.0, 5e-324, "t"),
        (1.0, [1.0, 5e-324], "t"),
    ], ids=["kappa-negative", "kappa-nan", "kappa-inf", "t-empty", "t-tiny",
            "t-tiny-element"])
    def test_rejects_bad_input(self, kappa, times, name):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            _basis_pair(kappa, times, ALPHA)
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            analytic_evolution(kappa, times, ALPHA)

    def test_array_matches_scalar(self):
        kappa = 4.0
        times = np.geomspace(_deep_start(kappa), 10.0 * freezing_time(kappa, ALPHA), 60)
        u1, d1 = _basis_pair(kappa, times, ALPHA)
        for i, t in enumerate(times):
            pu1, pd1 = _basis_pair(kappa, float(t), ALPHA)
            assert abs(u1[i] - pu1) <= 1e-15 * abs(pu1)
            assert abs(d1[i] - pd1) <= 1e-15 * abs(pd1)

    def test_scalar_time_is_one_sample_history(self):
        whole = analytic_evolution(1.0, [1.0, 2.0], ALPHA)
        single = analytic_evolution(1.0, 2.0, ALPHA)
        assert single.times.tolist() == [2.0]
        assert single.phi.shape == single.phidot.shape == (1,)
        assert abs(single.phi[0] - whole.phi[-1]) <= 1e-15 * abs(whole.phi[-1])
        assert single.frozen_value == pytest.approx(whole.frozen_value, rel=1e-15)
        assert whole.frozen_value == abs(whole.phi[-1])

    def test_wronskian_constancy_with_measure(self):
        # b^3 (u1 u2' - u2 u1') = 6 i alpha^3 / pi, which mode_normalization
        # turns into the canonical commutator i g
        kappa, coupling = 2.0, 0.7
        expected = 6j * ALPHA**3 / math.pi
        norm = mode_normalization(coupling, ALPHA)
        times = np.geomspace(0.01, 1000.0, 25)
        u1, d1 = _basis_pair(kappa, times, ALPHA)
        w = (ALPHA * times) ** 3 * (u1 * d1.conjugate() - u1.conjugate() * d1)
        assert np.max(np.abs(w - expected)) <= 1e-10 * abs(expected)
        assert np.max(np.abs(norm**2 * w - 1j * coupling)) <= 1e-10 * coupling

    def test_one_hankel_call_per_basis_pair(self, monkeypatch):
        # H_{2/3} and H_{-1/3} come from one call on an order axis: one per
        # _basis_pair, so one per analytic_evolution and one for the start
        # of integrate_mode
        calls = []
        original = threed.specfun.hankel1

        def counted(nu, x):
            calls.append(nu)
            return original(nu, x)

        monkeypatch.setattr(threed.specfun, "hankel1", counted)
        kappa = 4.0
        times = np.geomspace(_deep_start(kappa), freezing_time(kappa, ALPHA), 30)
        _basis_pair(kappa, times, ALPHA)
        _basis_pair(kappa, float(times[0]), ALPHA)
        assert len(calls) == 2
        calls.clear()
        analytic_evolution(kappa, times, ALPHA)
        assert len(calls) == 1
        calls.clear()
        integrate_mode(kappa, LinearExpansion(ALPHA), float(times[0]),
                       float(times[-1]), tolerance=1e-11)
        assert len(calls) == 1


class TestIntegrateMode:
    @pytest.mark.parametrize("kappa", [1.0, 8.0, 60.0])
    def test_matches_analytic(self, kappa):
        bg = LinearExpansion(ALPHA)
        t_start = _deep_start(kappa)
        t_end = freezing_time(kappa, ALPHA)
        evo = integrate_mode(kappa, bg, t_start, t_end, tolerance=1e-11)
        ana = analytic_evolution(kappa, evo.times, ALPHA)
        rel = np.abs(evo.phi - ana.phi) / np.abs(ana.phi)
        assert rel.max() <= 1e-6
        assert evo.warnings == []       # no WKB note: the start residual is below 1e-3

    def test_deep_start_matches_analytic(self):
        # about 95 oscillations before the mode crosses the horizon
        kappa = 30.0
        bg = LinearExpansion(ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa, 600.0),
                             freezing_time(kappa, ALPHA), tolerance=1e-11)
        ana = analytic_evolution(kappa, evo.times, ALPHA)
        assert (np.abs(evo.phi - ana.phi) / np.abs(ana.phi)).max() <= 1e-6

    def test_pointwise_error_pins(self):
        # the criterion-5 kappa grid at its start depth z = 260, and the
        # z = 600 deep start; phi' is pinned relative to its own size, which
        # falls as t^-3 once the mode has frozen
        bg = LinearExpansion(ALPHA)
        cases = [(float(k), 260.0) for k in np.geomspace(1.0, 100.0, 20)]
        for kappa, depth in cases + [(30.0, 600.0)]:
            evo = integrate_mode(kappa, bg, _deep_start(kappa, depth),
                                 freezing_time(kappa, ALPHA), tolerance=1e-11)
            ana = analytic_evolution(kappa, evo.times, ALPHA)
            assert (np.abs(evo.phi - ana.phi) / np.abs(ana.phi)).max() <= 1e-10
            assert (np.abs(evo.phidot - ana.phidot)
                    / np.abs(ana.phidot)).max() <= 1e-8

    def test_frozen_value_matches_closed_form(self):
        kappa = 8.0
        bg = LinearExpansion(ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa),
                             freezing_time(kappa, ALPHA), tolerance=1e-11)
        assert evo.frozen_value == abs(evo.phi[-1])
        variance = frozen_phase_variance(kappa, 1.0, ALPHA, 1.0)
        assert evo.frozen_value**2 == pytest.approx(variance, rel=5e-3)

    def test_constancy_after_freezing(self):
        kappa = 3.0
        bg = LinearExpansion(ALPHA)
        t_end = freezing_time(kappa, ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa), t_end, tolerance=1e-11)
        i_half = int(np.argmin(np.abs(evo.times - t_end / 2.0)))
        drift = abs(evo.phi[-1] - evo.phi[i_half]) / abs(evo.phi[-1])
        assert drift <= 1e-4

    def test_phidot_decays_after_crossing(self):
        kappa = 3.0
        bg = LinearExpansion(ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa),
                             freezing_time(kappa, ALPHA), tolerance=1e-11)
        z = hankel_argument(kappa, evo.times, ALPHA)
        after = np.abs(evo.phidot[z < 0.5])
        assert np.all(np.diff(after) < 0.0)

    def test_far_end_freezes(self):
        # t_end = 1e200: b^5 there is beyond the float range, yet the mode
        # runs through its phase to z ~ 1e-299 and freezes onto the closed form
        kappa = 8.0
        evo = integrate_mode(kappa, LinearExpansion(ALPHA), _deep_start(kappa), 1e200)
        assert evo.warnings == [] and evo.nfev > 10_000
        variance = frozen_phase_variance(kappa, 1.0, ALPHA)
        assert abs(evo.frozen_value**2 / variance - 1.0) <= 1e-9

    def test_end_beyond_float_phase_rejected(self, monkeypatch):
        # at t_end = 1e300 the phase left, z ~ 1e-449, underflows to 0, so the
        # graded layout would never reach it
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        with pytest.raises(ModeIntegrationError, match=r"phase left at t_end, z = 0,"):
            integrate_mode(8.0, LinearExpansion(ALPHA), _deep_start(8.0), 1e300)

    @pytest.mark.parametrize("background", [
        LinearExpansion(ALPHA), integrate_scale_factor(1.0, 3, 1e210)],
        ids=["linear", "free-3d"])
    def test_subnormal_end_phase_rejected(self, background, monkeypatch):
        # at t_end = 1e210 the phase left, eta ~ 1e-316, is subnormal: it is
        # positive, but k_H ~ 2/(3 eta) at the last block's end overflows
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        kappa = 1000.0
        t_start = (_deep_start(kappa) if isinstance(background, LinearExpansion)
                   else _real_start(background, kappa, 260.0))
        with pytest.raises(ModeIntegrationError, match=r"z = [0-9.]+e-3[01][0-9], "
                                                       r"is too small to resolve"):
            integrate_mode(kappa, background, t_start, 1e210)

    def test_depth_check_reads_the_start_phase(self, monkeypatch):
        # on b = alpha t, kappa/k_H = 3 z/2 at the start: z = 12 is short of
        # the required 20, z = 14 clears it
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        kappa, bg = 50.0, LinearExpansion(ALPHA)
        end = freezing_time(kappa, ALPHA)
        with pytest.raises(ModeIntegrationError, match=r"kappa/k_H = 18\.00 < 20"):
            integrate_mode(kappa, bg, _deep_start(kappa, 12.0), end)
        with pytest.raises(AssertionError, match="the solve started"):
            integrate_mode(kappa, bg, _deep_start(kappa, 14.0), end)

    def test_shallow_start_rejected(self):
        kappa = 1.0
        bg = LinearExpansion(ALPHA)
        t_late = 100.0 * freezing_time(kappa, ALPHA)
        with pytest.raises(ModeIntegrationError):
            integrate_mode(kappa, bg, t_late, 2.0 * t_late)

    # a shallow start leaves the WKB vacuum, an early end leaves the mode
    # unfrozen, and on the real b(t) a start at t = 0.1, long before the
    # linear regime, is the Hankel mode of the linear asymptote at the true
    # phase; each is a note, not an error
    @pytest.mark.parametrize("background, kappa, t_start, t_end, notes", [
        (LinearExpansion(ALPHA), 8.0, _deep_start(8.0, 100.0),
         freezing_time(8.0, ALPHA), ["WKB residual 1.67e-03 above 1e-3 at start"]),
        (LinearExpansion(ALPHA), 8.0, _deep_start(8.0), freezing_time(8.0, ALPHA) / 2.0,
         ["not frozen by t_end (|phi'| t/|phi| = 4.00e-06)"]),
        (integrate_scale_factor(1.0, 3, 100.0), 50.0, 0.1, 99.0,
         ["WKB residual 2.82e-03 above 1e-3 at start",
          "not frozen by t_end (|phi'| t/|phi| = 4.62e-02)"]),
    ], ids=["shallow-start", "early-end", "release-background"])
    def test_notes(self, background, kappa, t_start, t_end, notes):
        evo = integrate_mode(kappa, background, t_start, t_end, tolerance=1e-9)
        assert evo.warnings == notes
        assert (evo.frozen_value is None) == notes[-1].startswith("not frozen")

    def test_held_trap_rejected(self, monkeypatch):
        # a held trap never expands: its phase z = kappa eta is infinite
        held = integrate_scale_factor(1.0, 3, 100.0, held=True)
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        with pytest.raises(ModeIntegrationError, match=r"z = inf .* cap"):
            integrate_mode(50.0, held, 1.0, 50.0)

    def test_quasi_2d_background_rejected(self, monkeypatch):
        # the engine's equation is the 3D one; a quasi-2D b(t) is refused by
        # its dimension before any of its lookups is read
        def unread(*args):
            raise AssertionError("the background was read")
        for method in ("b", "bdot", "horizon_integral", "horizon_wavenumber"):
            monkeypatch.setattr(ScaleTrajectory, method, unread)
        flat = integrate_scale_factor(1.0, 2, 2000.0)
        with pytest.raises(ModeIntegrationError, match="dimension 2"):
            integrate_mode(50.0, flat, 1.0, 1000.0)

    def test_checked_lookups_do_not_grow_with_nfev(self, monkeypatch):
        # horizon_wavenumber is read once before the solve, at both ends, and
        # once per batched solve of a round, whatever the node count;
        # horizon_integral twice (the ends, then the samples), b once (the
        # samples) and bdot never. For starts whose node counts differ by more than 2x, the
        # calls follow the solves alone
        calls, nodes, nfev = [], [], []
        methods = ("b", "bdot", "horizon_integral", "horizon_wavenumber")
        for owner in (LinearExpansion, ScaleTrajectory):
            for method in methods:
                original = getattr(owner, method)

                def counted(self, t, _original=original, _method=method):
                    calls.append(_method)
                    if _method == "horizon_wavenumber":
                        nodes.append(np.size(t))
                    return _original(self, t)
                monkeypatch.setattr(owner, method, counted)
        solves = []
        propagators = threed._propagators

        def counted_solve(coefficients, lo, hi):
            solves.append(lo.size)
            return propagators(coefficients, lo, hi)
        monkeypatch.setattr(threed, "_propagators", counted_solve)

        kappa = 1000.0
        t_end = freezing_time(kappa, ALPHA)
        trajectory = integrate_scale_factor(1.0, 3, 1.5 * t_end)
        for background, start in ((LinearExpansion(ALPHA), _deep_start),
                                  (trajectory, partial(_real_start, trajectory))):
            for depth in (40.0, 600.0):
                calls.clear()
                nodes.clear()
                solves.clear()
                nfev.append(integrate_mode(kappa, background, start(kappa, depth),
                                           t_end, tolerance=1e-9).nfev)
                batches = len(solves)
                assert 1 <= batches <= threed._MAX_HALVINGS + 1
                assert [calls.count(m) for m in methods] == [1, 0, 2, 1 + batches]
                # nfev is the node count of the batched reads, after the one
                # read at the two ends
                assert nodes[0] == 2 and sum(nodes[1:]) == nfev[-1] == 33 * sum(solves)
        assert min(nfev) > 0
        assert nfev[1] > 2 * nfev[0] and nfev[3] > 2 * nfev[2]

    def test_lookups_stay_inside_checked_interval(self, monkeypatch):
        # the dense form of a free 3D b(t), a Newton inversion, sees no block
        # node: only [t_start, t_end], which range-checks the end, and the
        # 400 samples, once for eta(t) and once for b(t). t_end = t_max, so a
        # read past t_end would be a ValueError out of the solve
        seen = []
        dense = scaling.analytic_scale_3d

        def record(t, omega0):
            seen.append(np.atleast_1d(t).tolist())
            return dense(t, omega0)
        kappa = 1000.0
        trajectory = integrate_scale_factor(1.0, 3, freezing_time(kappa, ALPHA))
        monkeypatch.setattr(scaling, "analytic_scale_3d", record)
        t_start = _real_start(trajectory, kappa, 40.0)
        evo = integrate_mode(kappa, trajectory, t_start, trajectory.t_max,
                             tolerance=1e-9)
        assert evo.nfev > 300
        assert seen == [[t_start, trajectory.t_max], evo.times.tolist(),
                        evo.times.tolist()]

    def test_threads_match_serial_run(self):
        bg = LinearExpansion(ALPHA)
        kappas = (2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 17.0)

        def solve(kappa):
            evo = integrate_mode(kappa, bg, _deep_start(kappa, 60.0),
                                 freezing_time(kappa, ALPHA), tolerance=1e-9)
            return evo.phi.tobytes(), evo.phidot.tobytes(), evo.nfev

        serial = [solve(kappa) for kappa in kappas]
        filters = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(solve, kappas, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert warnings.filters == filters   # no solve left its filter behind

    def test_solver_failure_is_a_mode_error(self, monkeypatch):
        # no block can bring its Chebyshev tail below 1e-30 of its size, so
        # every block is halved in every round up to the refinement cap;
        # pytest turns warnings into errors, so a warning on the way would
        # fail this test instead
        reads = []
        original = LinearExpansion.horizon_wavenumber

        def recorded(self, eta):
            reads.append(np.size(eta))
            return original(self, eta)
        monkeypatch.setattr(LinearExpansion, "horizon_wavenumber", recorded)

        kappa = 8.0
        with pytest.raises(ModeIntegrationError, match="out of reach"):
            integrate_mode(kappa, LinearExpansion(ALPHA), _deep_start(kappa),
                           freezing_time(kappa, ALPHA), tolerance=1e-30)
        # the read at the two ends, z(t_start) and z(t_end), then the batches
        # of each round; the first round is one batch, and each round solves
        # at most the halves of the blocks solved in the round before
        start, first, *rest = reads
        cap = 2 ** (threed._MAX_HALVINGS + 1) - 1
        assert start == 2 and first + sum(rest) <= cap * first
        assert max(rest) <= threed._BATCH_BLOCKS * (threed._CHEB_DEGREE + 1)

    @pytest.mark.parametrize("kappa, end_factor, match", [
        (0.0, 1.0, "kappa"), (math.nan, 1.0, "kappa"),
        (8.0, 0.0, "t_end"), (8.0, math.nan, "t_end")])
    def test_rejects_bad_kappa_or_end(self, kappa, end_factor, match, monkeypatch):
        # end_factor 0 puts t_end on t_start
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        t_start = _deep_start(8.0)
        t_end = t_start + end_factor * (freezing_time(8.0, ALPHA) - t_start)
        with pytest.raises(ValueError, match=match):
            integrate_mode(kappa, LinearExpansion(ALPHA), t_start, t_end)

    def test_start_depth_is_capped(self, monkeypatch):
        # a z = 1e9 start would lay out some 5e7 blocks; it is refused before
        # any layout, at once and in little memory, naming z and the cap
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        kappa = 10.0
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ModeIntegrationError,
                               match=r"z = 1e\+09 .* cap 10000 \* 6 pi = 1\.88e\+05"):
                integrate_mode(kappa, LinearExpansion(ALPHA), _deep_start(kappa, 1e9),
                               freezing_time(kappa, ALPHA))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0 and peak < 1_000_000
        # every depth the package, the golden modes and the benchmark use
        # (z up to 2000) clears the cap with room to spare
        assert threed._MAX_START_BLOCKS * threed._BLOCK_PHASE > 50 * 2000.0

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.nan])
    def test_rejects_nonpositive_tolerance(self, tolerance):
        kappa = 8.0
        with pytest.raises(ValueError, match="tolerance"):
            integrate_mode(kappa, LinearExpansion(ALPHA), _deep_start(kappa),
                           freezing_time(kappa, ALPHA), tolerance=tolerance)

    @pytest.mark.parametrize("name, value", [
        ("tolerance", math.inf), ("tolerance", 10.0), ("tolerance", 1.0), ("t_end", math.inf),
        ("t_start", math.nan), ("t_start", math.inf), ("coupling", -1.0),
        ("coupling", 0.0)])
    def test_rejects_bad_scalar_before_solve(self, name, value, monkeypatch):
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        kappa = 8.0
        scalars = {"t_start": _deep_start(kappa), "t_end": freezing_time(kappa, ALPHA)}
        scalars[name] = value
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            integrate_mode(kappa, LinearExpansion(ALPHA), **scalars)

    # ceilings: the node reads of the sequential block stepper that the
    # batched solve replaced, for the GOLDEN_MODES starts of test_golden
    @pytest.mark.parametrize("tolerance, ceilings", [
        (1e-9, (957, 1056, 1980)), (1e-11, (891, 1287, 2442)),
        (1e-12, (1089, 1617, 2871))])
    def test_node_reads_pinned(self, tolerance, ceilings):
        bg = LinearExpansion(ALPHA)
        modes = ((1.0, 180.0), (10.0, 320.0), (100.0, 600.0))
        for (kappa, depth), ceiling in zip(modes, ceilings):
            evo = integrate_mode(kappa, bg, _deep_start(kappa, depth),
                                 freezing_time(kappa, ALPHA), tolerance=tolerance)
            assert 0 < evo.nfev <= ceiling

    @pytest.mark.parametrize("kappa, depth", [(1.0, 180.0), (10.0, 320.0),
                                              (100.0, 600.0)])
    def test_golden_modes_solve_in_one_round(self, kappa, depth):
        # at the benchmark's tolerance no block of the layout is halved
        bg = LinearExpansion(ALPHA)
        t_start, t_end = _deep_start(kappa, depth), freezing_time(kappa, ALPHA)
        edges = threed._phase_edges(*(kappa * bg.horizon_integral([t_start, t_end])))
        evo = integrate_mode(kappa, bg, t_start, t_end, tolerance=1e-11)
        assert evo.nfev == 33 * (edges.size - 1)

    def test_accepted_blocks_meet_both_tail_bounds(self, monkeypatch):
        # every accepted block of the GOLDEN_MODES start kappa = 1, z = 180 at
        # tolerance 1e-12 meets both tail bounds; since the layout in the
        # phase, no block there fails on phi' alone, so
        # TestCollocationCore.test_either_half_forces_a_halving pins each half
        solved = []

        def kept(*args):
            edges, values, nfev = original(*args)
            solved.append((args[3], args[4], values))
            return edges, values, nfev

        original = threed._solve_blocks
        monkeypatch.setattr(threed, "_solve_blocks", kept)
        integrate_mode(1.0, LinearExpansion(ALPHA), _deep_start(1.0, 180.0),
                       freezing_time(1.0, ALPHA), tolerance=1e-12)
        [(tolerance, atol, values)] = solved
        size = np.abs(values @ threed._TO_COEFS.T)
        tail = size[..., -threed._TAIL_COEFS:].max(axis=-1)
        assert np.all(tail <= tolerance * size.max(axis=-1) + atol)
        # the absolute floor is far under the relative bound: it decides nothing
        assert atol < 1e-2 * tolerance * np.abs(values).max()

    @pytest.mark.parametrize("kappa, depth", [(1.0, 180.0), (10.0, 320.0),
                                              (100.0, 600.0)])
    def test_propagators_match_textbook_assembly(self, kappa, depth):
        # the block layouts of the GOLDEN_MODES starts, against the block
        # systems built from np.eye and separate temporaries
        bg = LinearExpansion(ALPHA)
        t_start, t_end = _deep_start(kappa, depth), freezing_time(kappa, ALPHA)
        edges = threed._phase_edges(*(kappa * bg.horizon_integral([t_start, t_end])))
        coefficients = lambda u: mode_coefficients(kappa, bg.horizon_wavenumber(-u / kappa))
        lo, hi = edges[:-1], edges[1:]
        assert threed._propagators(coefficients, lo, hi).tobytes() == (
            collocation_propagators(coefficients, lo, hi).tobytes())

    @pytest.mark.parametrize("kappa, depth", [(1.0, 180.0), (10.0, 320.0),
                                              (37.0, 600.0)])
    def test_batches_change_no_bit(self, kappa, depth, monkeypatch):
        # batches of 7 blocks split every first round in several solves
        bg = LinearExpansion(ALPHA)
        args = (kappa, bg, _deep_start(kappa, depth), freezing_time(kappa, ALPHA))
        whole = integrate_mode(*args, tolerance=1e-12)
        assert threed._phase_edges(*(kappa * bg.horizon_integral(args[2:]))).size - 1 > 7
        sizes = []

        def counted(coefficients, lo, hi):
            sizes.append(lo.size)
            return original(coefficients, lo, hi)

        original = threed._propagators
        monkeypatch.setattr(threed, "_propagators", counted)
        monkeypatch.setattr(threed, "_BATCH_BLOCKS", 7)
        batched = integrate_mode(*args, tolerance=1e-12)
        assert max(sizes) == 7
        assert (batched.phi.tobytes(), batched.phidot.tobytes(), batched.nfev) == (
            whole.phi.tobytes(), whole.phidot.tobytes(), whole.nfev)

    @settings(max_examples=30, deadline=None)
    @given(kappa=st.floats(1.0, 100.0), depth=st.floats(180.0, 600.0))
    def test_mode_sweep_checks(self, kappa, depth):
        # the checks the mode-sweep benchmark makes on each op, tightened to
        # the pointwise pin; pytest turns any warning into an error
        bg = LinearExpansion(ALPHA)
        args = (kappa, bg, _deep_start(kappa, depth), freezing_time(kappa, ALPHA))
        evo = integrate_mode(*args, tolerance=1e-11)
        ana = analytic_evolution(kappa, evo.times, ALPHA)
        assert evo.warnings == [] and evo.frozen_value is not None
        assert (np.abs(evo.phi - ana.phi) / np.abs(ana.phi)).max() <= 1e-10
        variance = frozen_phase_variance(kappa, 1.0, ALPHA)
        assert abs(evo.frozen_value**2 / variance - 1.0) <= 0.005
        again = integrate_mode(*args, tolerance=1e-11)
        assert (again.phi.tobytes(), again.phidot.tobytes(), again.nfev) == (
            evo.phi.tobytes(), evo.phidot.tobytes(), evo.nfev)

    def test_mode_solve_imports_no_scipy(self):
        # the mode engine is numpy only
        script = "\n".join([
            "import math, sys",
            "from becosmo.scaling import LinearExpansion",
            "from becosmo.threed import freezing_time, integrate_mode",
            "alpha = math.sqrt(2.0 / 3.0)",
            "evo = integrate_mode(8.0, LinearExpansion(alpha), 0.1,",
            "                     freezing_time(8.0, alpha), tolerance=1e-11)",
            "assert evo.frozen_value is not None and evo.warnings == []",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
        src = str(Path(becosmo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_freezing_time_monotone_in_kappa(self):
        times = [freezing_time(k, ALPHA) for k in (1.0, 3.0, 10.0, 30.0)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_density_chain(self):
        kappa = 8.0
        bg = LinearExpansion(ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa),
                             freezing_time(kappa, ALPHA), tolerance=1e-11)
        # natural-unit closure: xi = 1, m = 1, rho0 = 1, g = c0 = 1
        numeric = density_contrast_from_mode(evo, bg, 1.0, 1.0)
        closed = density_spectrum_3d(kappa, 1.0, 1.0, 1.0, ALPHA)
        assert numeric == pytest.approx(closed, rel=5e-3)

    def test_density_contrast_coupling_and_density(self):
        # g and rho0 apart from 1 and from each other: |phi'|^2 b^6 / (g rho0)^2
        # at the last sample
        bg = LinearExpansion(ALPHA)
        evo = analytic_evolution(8.0, np.linspace(2.0, 5.0, 7), ALPHA)
        expected = abs(evo.phidot[-1]) ** 2 * (ALPHA * 5.0) ** 6 / (2.0**2 * 3.0**2)
        assert density_contrast_from_mode(evo, bg, 2.0, 3.0) == pytest.approx(
            expected, rel=1e-14)


class TestRealBackground:
    """A mode evolved on the closed-form 3D quartic b(t) (omega0 = c0 = 1),
    started deep inside the horizon at a chosen phase z."""
    KAPPA = 6e4

    @pytest.fixture(scope="class")
    def trajectory(self):
        t_end = freezing_time(self.KAPPA, ALPHA)
        return integrate_scale_factor(1.0, 3, 1.5 * t_end)

    def test_frozen_value_matches_closed_form(self, trajectory):
        alpha = trajectory.asymptotic_velocity
        t_start = _real_start(trajectory, self.KAPPA, 260.0)
        evo = integrate_mode(self.KAPPA, trajectory, t_start,
                             freezing_time(self.KAPPA, ALPHA), tolerance=1e-11)
        assert evo.warnings == []
        variance = frozen_phase_variance(self.KAPPA, 1.0, alpha)
        assert evo.frozen_value**2 / variance == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("tolerance, ceiling", [
        (1e-9, 1023), (1e-11, 1089), (1e-12, 1221)])
    def test_node_reads_pinned(self, trajectory, tolerance, ceiling):
        # the ceilings of TestIntegrateMode.test_node_reads_pinned for this mode
        t_start = _real_start(trajectory, self.KAPPA, 260.0)
        evo = integrate_mode(self.KAPPA, trajectory, t_start,
                             freezing_time(self.KAPPA, ALPHA), tolerance=tolerance)
        assert 0 < evo.nfev <= ceiling

    def test_matches_dop853_before_the_linear_regime(self):
        # kappa = 200 from z = 150 starts at t = 0.61, where bdot is still
        # well below alpha. The reference steps b'' = 1/b^4 together with the
        # t-form phi'' + 3 (bdot/b) phi' + kappa^2 b^-5 phi = 0 from the
        # engine's start; the two agreed to 4e-13 in phi and 5e-13 in the
        # final phidot
        kappa = 200.0
        t_end = freezing_time(kappa, ALPHA)
        trajectory = integrate_scale_factor(1.0, 3, 1.5 * t_end)
        t_start = _real_start(trajectory, kappa, 150.0)
        assert trajectory.bdot(t_start) < 0.9 * ALPHA
        evo = integrate_mode(kappa, trajectory, t_start, t_end, tolerance=1e-11)

        def rhs(t, y):
            b, bdot, *phi = y
            friction, spring = -3.0 * bdot / b, -kappa**2 / b**5
            return [bdot, b**-4, phi[2], phi[3], friction * phi[2] + spring * phi[0],
                    friction * phi[3] + spring * phi[1]]
        start = [float(trajectory.b(t_start)), float(trajectory.bdot(t_start)),
                 evo.phi[0].real, evo.phi[0].imag, evo.phidot[0].real, evo.phidot[0].imag]
        reference = solve_ivp(rhs, (t_start, t_end), start, method="DOP853", rtol=1e-13,
                              atol=1e-300, t_eval=evo.times).y
        phi, phidot = reference[2] + 1j * reference[3], reference[4] + 1j * reference[5]
        assert np.max(np.abs(evo.phi - phi)) <= 1e-11 * np.max(np.abs(phi))
        assert abs(evo.phidot[-1] - phidot[-1]) <= 1e-11 * abs(phidot[-1])

    def test_start_has_the_canonical_wronskian(self):
        # kappa = 200 from z = 150, at t = 0.61 before the linear regime: the
        # start's amplitude sets b^3 (phi phidot* - c.c.) = i g, which the
        # solve then conserves, and the mode freezes onto the closed form of
        # the linear asymptote (measured 1.7e-13 and 2.9e-4)
        kappa, coupling = 200.0, 2.5
        t_end = freezing_time(kappa, ALPHA)
        trajectory = integrate_scale_factor(1.0, 3, 1.5 * t_end)
        evo = integrate_mode(kappa, trajectory, _real_start(trajectory, kappa, 150.0),
                             t_end, tolerance=1e-11, coupling=coupling)
        wronskian = trajectory.b(evo.times) ** 3 * 2.0 * (evo.phi * evo.phidot.conj()).imag
        assert np.abs(wronskian / coupling - 1.0).max() <= 1e-11
        variance = frozen_phase_variance(kappa, coupling, ALPHA)
        assert evo.frozen_value**2 / variance == pytest.approx(1.0, abs=5e-3)

    def test_end_beyond_trajectory_rejected(self, trajectory, monkeypatch):
        monkeypatch.setattr(threed, "_solve_blocks", _no_solve)
        t_start = _real_start(trajectory, self.KAPPA, 260.0)
        with pytest.raises(ValueError, match="sampled range"):
            integrate_mode(self.KAPPA, trajectory, t_start, 1.01 * trajectory.t_max)


class TestClosedForms:
    def test_phase_variance_power_law(self):
        v1 = frozen_phase_variance(2.0, 1.0, ALPHA)
        v2 = frozen_phase_variance(4.0, 1.0, ALPHA)
        assert v2 / v1 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-12)

    def test_phase_variance_slope(self):
        kappas = np.geomspace(0.5, 50.0, 40)
        values = [frozen_phase_variance(float(k), 1.0, ALPHA) for k in kappas]
        slope = linregress(np.log(kappas), np.log(values)).slope
        assert slope == pytest.approx(-4.0 / 3.0, abs=1e-6)

    def test_normalization_from_wronskian_chain(self):
        # independent route: |frozen basis|^2 * normalization^2 must equal the
        # closed form, with the normalization fixed by the commutator matching
        kappa, coupling = 5.0, 1.0
        beta_half = kappa / (3.0 * ALPHA**2.5)
        frozen_basis = beta_half ** (-2.0 / 3.0) / (
            math.sin(2.0 * math.pi / 3.0) * math.gamma(1.0 / 3.0))
        chain = mode_normalization(coupling, ALPHA) ** 2 * frozen_basis**2
        assert chain == pytest.approx(
            frozen_phase_variance(kappa, coupling, ALPHA), rel=1e-12)

    def test_density_spectrum_slope(self):
        kappas = np.geomspace(0.5, 50.0, 40)
        values = [density_spectrum_3d(float(k), 1.0, 1.0, 1.0, ALPHA)
                  for k in kappas]
        slope = linregress(np.log(kappas), np.log(values)).slope
        assert slope == pytest.approx(4.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("closed_form", [
        lambda k: frozen_phase_variance(k, 1.3, ALPHA, 0.7),
        lambda k: density_spectrum_3d(k, 6.7e-8, 2.1e-3, 3.3e20, ALPHA * 1256.0),
    ], ids=["phase", "density"])
    def test_array_matches_scalar_bitwise(self, closed_form):
        kappas = np.geomspace(1e-3, 1e9, 4000)
        scalars = [closed_form(float(k)) for k in kappas]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert closed_form(kappas).tobytes() == np.array(scalars).tobytes()

    def test_density_vanishes_at_zero(self):
        assert density_spectrum_3d(1e-12, 1.0, 1.0, 1.0, ALPHA) < 1e-12

    # kappa = 0 would make the phase variance infinite, and NaN or a negative
    # kappa a NaN spectrum
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_rejects_nonpositive_or_nan_kappa(self, bad, as_array):
        kappa = np.array([1.0, bad, 2.0]) if as_array else bad
        for closed_form in (lambda k: frozen_phase_variance(k, 1.0, ALPHA),
                            lambda k: density_spectrum_3d(k, 1.0, 1.0, 1.0, ALPHA),
                            lambda k: spectrum_3d_grid(k, 1.0, 1.0, 1.0, ALPHA, 1.0, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^kappa=.* must be positive and finite"):
                    closed_form(kappa)


class TestMaxContrast:
    def test_prefactor_value(self):
        estimate = max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 128.0, ALPHA)
        assert estimate.prefactor == pytest.approx(30.3, abs=0.05)

    def test_ideal_gas_limit(self):
        estimate = max_contrast_estimate(1e-30, 1.0, 1.0, 128.0, ALPHA)
        assert estimate.value < 1e-30

    def test_short_window_flagged(self):
        assert max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 5.0, ALPHA).short_linear_window
        assert not max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 128.0,
                                         ALPHA).short_linear_window

    def test_band_edge(self):
        xi, omega_xi = 6.7e-8, 1.6e5
        kmax = kappa_band_edge(xi, ALPHA * 1256.0, omega_xi)
        assert kmax == pytest.approx((1.0 / xi) * (ALPHA * 1256.0 / omega_xi) ** 0.25,
                                     rel=1e-14)


# each names the bad argument instead of returning a complex number or NaN
@pytest.mark.parametrize("function, args, name", [
    (freezing_time, (-1.0, 0.8), "kappa"), (freezing_time, (math.nan, 0.8), "kappa"),
    (freezing_time, (1.0, -0.8), "alpha"), (freezing_time, (1.0, math.inf), "alpha"),
    (kappa_band_edge, (0.0, 1.0, 1.0), "xi"),
    (kappa_band_edge, (1.0, -1.0, 1.0), "alpha"),
    (kappa_band_edge, (1.0, 1.0, math.nan), "omega_xi"),
    (frozen_phase_variance, (1.0, 1.0, -1.0), "alpha"),
    (density_spectrum_3d, (1.0, 1.0, -1.0, 1.0, 1.0), "c0"),
    (max_contrast_estimate, (1.0, 1.0, 1.0, 1.0, -1.0), "alpha")],
    ids=["freezing-kappa-negative", "freezing-kappa-nan", "freezing-alpha-negative",
         "freezing-alpha-inf", "band-xi-zero", "band-alpha-negative",
         "band-omega_xi-nan", "phase-alpha-negative", "density-c0-negative",
         "contrast-alpha-negative"])
def test_scalar_closed_forms_reject_bad_arguments(function, args, name):
    with pytest.raises(ValueError, match=rf"^{name}=.* must be positive and finite"):
        function(*args)


def test_spectrum_grid_and_csvs(tmp_path):
    kappas = np.geomspace(0.1, 3.0, 16)
    kmax = kappa_band_edge(1.0, ALPHA, 1.0)
    spectrum = spectrum_3d_grid(kappas, xi=1.0, c0=1.0, rho0=1.0, alpha=ALPHA,
                                coupling=1.0, kmax=kmax)
    assert np.array_equal(spectrum.in_band, kappas <= kmax)
    assert np.sum(~spectrum.in_band) > 0

    # The spectrum-3d stage writes its grid with 0/1 band flags; this grid
    # runs past the band edge.
    numeric = {**PRESETS["rubidium-3d"]["numeric"], "kappa_min_per_m": 1e5,
               "kappa_max_per_m": 1e8, "kappa_points": 16}
    run(config_from_dict({**PRESETS["rubidium-3d"], "analysis": ["spectrum-3d"],
                          "numeric": numeric}), tmp_path)
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "kappa_per_m,phase_variance_m3,C3d_m3,in_band"
    assert len(lines) == 17
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert "1" in flags and "0" in flags
    assert flags == sorted(flags, reverse=True)   # in band up to the edge only

    # a mode history is the arrays of its ModeEvolution, one row per time
    bg = LinearExpansion(ALPHA)
    evo = integrate_mode(2.0, bg, _deep_start(2.0), freezing_time(2.0, ALPHA),
                         tolerance=1e-10)
    assert evo.times.shape == evo.phi.shape == evo.phidot.shape == (400,)
    assert np.all(np.diff(evo.times) > 0.0)

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import linregress

from becosmo import specfun
from becosmo.scaling import LinearExpansion
from becosmo.threed import (ModeIntegrationError, adiabatic_frequency,
                            analytic_evolution, analytic_mode,
                            analytic_mode_derivative, basis_wronskian,
                            density_contrast_from_mode, density_spectrum_3d,
                            freezing_time, frozen_phase_variance,
                            hankel_argument, integrate_mode, kappa_band_edge,
                            max_contrast_estimate, mode_normalization,
                            mode_ode_rhs, projection_suppression,
                            spectrum_3d_grid)
from becosmo.scenarios import PRESETS, config_from_dict, run

ALPHA = math.sqrt(2.0 / 3.0)   # natural units, omega0 = 1


class _StaticBackground:
    asymptotic_velocity = 1.0
    linear_offset = 0.0

    def b(self, t):
        return 1.0

    def bdot(self, t):
        return 0.0


def _deep_start(kappa, depth_z=260.0, c0=1.0):
    beta = (2.0 / 3.0) * c0 * kappa * ALPHA**-2.5
    return (beta / depth_z) ** (2.0 / 3.0)


class TestModeOde:
    def test_static_background_oscillator(self):
        kappa, c0 = 4.0, 1.0
        acc = mode_ode_rhs(1.0, 1.0 + 0.0j, 0.0j, kappa, _StaticBackground(), c0)
        assert acc == pytest.approx(-(c0 * kappa) ** 2)

    def test_zero_mode_is_frozen(self):
        bg = LinearExpansion(ALPHA)
        acc = mode_ode_rhs(2.0, 5.0 + 0.0j, 0.0j, 0.0, bg, 1.0)
        assert acc == 0.0

    def test_linear_regime_form(self):
        bg = LinearExpansion(ALPHA)
        kappa, c0, t = 3.0, 1.0, 1.7
        phi, phidot = 0.3 + 0.1j, -0.2 + 0.4j
        expected = -3.0 / t * phidot - c0**2 * kappa**2 / (ALPHA**5 * t**5) * phi
        assert mode_ode_rhs(t, phi, phidot, kappa, bg, c0) == pytest.approx(expected)

    def test_analytic_solution_satisfies_ode(self):
        # numeric second derivative of the basis solution vs the stated form
        bg = LinearExpansion(ALPHA)
        kappa, c0 = 2.2, 1.0
        t = 0.2
        h = t * 1e-6
        u = lambda tt: analytic_mode(kappa, tt, ALPHA, c0)[0]
        second = (u(t + h) - 2.0 * u(t) + u(t - h)) / h**2
        rhs = mode_ode_rhs(t, u(t), analytic_mode_derivative(kappa, t, ALPHA, c0)[0],
                           kappa, bg, c0)
        assert abs(second - rhs) <= 1e-5 * abs(rhs)


class TestAnalyticMode:
    def test_early_time_wkb(self):
        kappa, c0 = 5.0, 1.0
        t = _deep_start(kappa, depth_z=2000.0)
        u1, u2 = analytic_mode(kappa, t, ALPHA, c0)
        d1, d2 = analytic_mode_derivative(kappa, t, ALPHA, c0)
        omega = adiabatic_frequency(kappa, ALPHA * t, c0)
        assert abs(d1 + 1j * omega * u1) / (omega * abs(u1)) <= 1e-3
        assert abs(d2 - 1j * omega * u2) / (omega * abs(u2)) <= 1e-3

    def test_late_time_constant(self):
        kappa, c0 = 5.0, 1.0
        t_frozen = freezing_time(kappa, ALPHA, c0)
        u_late = analytic_mode(kappa, t_frozen, ALPHA, c0)[0]
        u_later = analytic_mode(kappa, 2.0 * t_frozen, ALPHA, c0)[0]
        assert abs(u_later - u_late) <= 1e-6 * abs(u_late)

    def test_frozen_limit_value(self):
        # small-argument H expansion: (1/t) H^(2) -> i (beta/2)^(-2/3) /
        # (sin(2 pi/3) Gamma(1/3)); H^(1) is its conjugate
        kappa, c0 = 3.0, 1.0
        beta_half = c0 * kappa / (3.0 * ALPHA**2.5)
        expected = beta_half ** (-2.0 / 3.0) / (math.sin(2.0 * math.pi / 3.0)
                                                * specfun.gamma(1.0 / 3.0))
        t = 100.0 * freezing_time(kappa, ALPHA, c0)
        u1 = analytic_mode(kappa, t, ALPHA, c0)[0]
        assert abs(u1) == pytest.approx(expected, rel=1e-8)
        assert u1.imag < 0.0  # positive-frequency branch freezes onto -i

    def test_argument_is_comoving_sound_reach(self):
        # z equals kappa times the remaining sound travel in co-moving units
        kappa, c0, t = 7.0, 1.0, 0.9
        reach, _ = quad(lambda tt: c0 / (ALPHA * tt) ** 2.5, t, np.inf)
        assert hankel_argument(kappa, t, ALPHA, c0) == pytest.approx(
            kappa * reach, rel=1e-10)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            analytic_mode(1.0, 0.0, ALPHA)
        with pytest.raises(ValueError):
            analytic_mode_derivative(1.0, np.array([1.0, 0.0]), ALPHA)

    def test_array_matches_scalar(self):
        kappa = 4.0
        times = np.geomspace(_deep_start(kappa), 10.0 * freezing_time(kappa, ALPHA), 60)
        u1, u2 = analytic_mode(kappa, times, ALPHA)
        d1, d2 = analytic_mode_derivative(kappa, times, ALPHA)
        for i, t in enumerate(times):
            pu1, pu2 = analytic_mode(kappa, float(t), ALPHA)
            pd1, pd2 = analytic_mode_derivative(kappa, float(t), ALPHA)
            assert abs(u1[i] - pu1) <= 1e-15 * abs(pu1)
            assert u2[i] == u1[i].conjugate()
            assert abs(d1[i] - pd1) <= 1e-15 * abs(pd1)
            assert d2[i] == d1[i].conjugate()

    def test_wronskian_constancy_with_measure(self):
        kappa, c0 = 2.0, 1.0
        expected = 6j * ALPHA**3 / math.pi
        for t in np.geomspace(0.01, 1000.0, 25):
            w = basis_wronskian(kappa, float(t), ALPHA, c0)
            assert abs(w - expected) <= 1e-10 * abs(expected)


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
        assert evo.wkb_residual_start <= 1e-3
        assert evo.warnings == []

    def test_frozen_value_matches_closed_form(self):
        kappa = 8.0
        bg = LinearExpansion(ALPHA)
        evo = integrate_mode(kappa, bg, _deep_start(kappa),
                             freezing_time(kappa, ALPHA), tolerance=1e-11)
        assert evo.frozen_value is not None
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
        z = hankel_argument(kappa, evo.times, ALPHA, 1.0)
        after = np.abs(evo.phidot[z < 0.5])
        assert np.all(np.diff(after) < 0.0)

    def test_shallow_start_rejected(self):
        kappa = 1.0
        bg = LinearExpansion(ALPHA)
        t_late = 100.0 * freezing_time(kappa, ALPHA)
        with pytest.raises(ModeIntegrationError):
            integrate_mode(kappa, bg, t_late, 2.0 * t_late)

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
            math.sin(2.0 * math.pi / 3.0) * specfun.gamma(1.0 / 3.0))
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


class TestMaxContrast:
    def test_prefactor_value(self):
        estimate = max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 128.0, ALPHA, 6.7e-8)
        assert estimate.prefactor == pytest.approx(30.3, abs=0.05)

    def test_ideal_gas_limit(self):
        estimate = max_contrast_estimate(1e-30, 1.0, 1.0, 128.0, ALPHA, 6.7e-8)
        assert estimate.value < 1e-30

    def test_short_window_flagged(self):
        assert max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 5.0, ALPHA,
                                     6.7e-8).short_linear_window
        assert not max_contrast_estimate(5.3e-9, 3.3e21, 1.0, 128.0, ALPHA,
                                         6.7e-8).short_linear_window

    def test_band_edge(self):
        xi, omega_xi = 6.7e-8, 1.6e5
        kmax = kappa_band_edge(xi, ALPHA * 1256.0, omega_xi)
        assert kmax == pytest.approx((1.0 / xi) * (ALPHA * 1256.0 / omega_xi) ** 0.25,
                                     rel=1e-14)


class TestProjection:
    def test_values(self):
        assert projection_suppression(1.0, 100.0) == pytest.approx(0.01)
        assert projection_suppression(1.0, 2.0) == pytest.approx(0.5)

    def test_rejects_thin_column(self):
        with pytest.raises(ValueError):
            projection_suppression(2.0, 1.0)

    def test_preserves_slope(self):
        kappas = np.geomspace(0.5, 50.0, 30)
        values = np.array([density_spectrum_3d(float(k), 1.0, 1.0, 1.0, ALPHA)
                           for k in kappas])
        suppressed = values * projection_suppression(1.0, 37.0)
        slope = linregress(np.log(kappas), np.log(suppressed)).slope
        assert slope == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_spectrum_grid_and_csvs(tmp_path):
    kappas = np.geomspace(0.1, 3.0, 16)
    spectrum = spectrum_3d_grid(kappas, xi=1.0, c0=1.0, rho0=1.0, alpha=ALPHA,
                                coupling=1.0, omega_xi=1.0, scenario="test")
    kmax = kappa_band_edge(1.0, ALPHA, 1.0)
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

"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Each test performs a fresh computation so the quoted runtime
bounds include everything the criterion needs.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import linregress

from becosmo import specfun
from becosmo.condensate import (sound_frequency_at_healing_scale, thomas_fermi,
                                validate_dimensional_reduction)
from becosmo.geometry import (apparent_horizon, particle_horizon,
                              settled_apparent_horizon)
from becosmo.q2d import density_spectrum_2d, windowed_contrast
from becosmo.scaling import LinearExpansion, integrate_scale_factor
from becosmo.scenarios import load_scenario, run
from becosmo.threed import (analytic_evolution, density_contrast_from_mode,
                            density_spectrum_3d, freezing_time,
                            frozen_phase_variance, integrate_mode,
                            max_contrast_estimate)

from references import metric_components


def _passed(number: int, summary: str) -> None:
    print(f"\n[criterion {number}] PASS: {summary}")


def test_criterion_1_sodium_q2d():
    start = time.perf_counter()
    config = load_scenario("sodium-q2d")
    spec = config.condensate
    derived = thomas_fermi(spec)

    a_z = derived.transverse_width
    xi = derived.healing_length
    contrast = windowed_contrast(2.0 * math.pi / xi, xi,
                                 derived.effective_coupling,
                                 derived.chemical_potential, spec.species.mass)
    elapsed = time.perf_counter() - start

    assert a_z == pytest.approx(0.746e-6, rel=0.01)
    assert xi == pytest.approx(1.34e-6, rel=0.02)
    assert abs(contrast - 0.0179) <= 0.0005
    assert elapsed < 1.0
    _passed(1, f"a_z = {a_z * 1e6:.4f} um, xi = {xi * 1e6:.4f} um, "
               f"C(2 pi/xi)/xi^2 = {contrast * 100:.3f}% ({elapsed:.2f} s)")


def test_criterion_2_rubidium_3d():
    start = time.perf_counter()
    config = load_scenario("rubidium-3d")
    spec = config.condensate
    derived = thomas_fermi(spec)
    omega0 = spec.trap.longitudinal_frequency
    omega_min = 2.0 * math.pi * derived.sound_speed / derived.thomas_fermi_radius

    trajectory = integrate_scale_factor(omega0, 3, t_max=100.0 / omega0)
    omega_xi = sound_frequency_at_healing_scale(derived)
    estimate = max_contrast_estimate(spec.species.scattering_length,
                                     derived.peak_density, omega0, omega_xi,
                                     trajectory.asymptotic_velocity)
    elapsed = time.perf_counter() - start

    assert derived.thomas_fermi_radius == pytest.approx(12.2e-6, rel=0.02)
    assert omega_min == pytest.approx(5582.0, rel=0.02)
    assert 0.015 <= estimate.value <= 0.022
    assert not estimate.short_linear_window
    assert elapsed < 1.0
    _passed(2, f"R = {derived.thomas_fermi_radius * 1e6:.3f} um, "
               f"omega_min = {omega_min:.1f}/s, "
               f"max contrast = {estimate.value * 100:.2f}% ({elapsed:.2f} s)")


def test_criterion_3_contrast_prefactor():
    start = time.perf_counter()
    omega0 = 2.0 * math.pi * 200.0
    trajectory = integrate_scale_factor(omega0, 3, t_max=100.0 / omega0)
    alpha_tilde = trajectory.asymptotic_velocity / omega0
    prefactor = (4.0 * math.sqrt(math.pi) * math.gamma(1.0 / 3.0) ** 2
                 * alpha_tilde**0.75 / 3.0 ** (1.0 / 3.0))
    elapsed = time.perf_counter() - start

    assert abs(alpha_tilde - math.sqrt(2.0 / 3.0)) <= 1e-4
    assert abs(prefactor - 30.3) <= 0.1
    assert elapsed < 1.0
    _passed(3, f"prefactor = {prefactor:.4f}, alpha/omega0 = {alpha_tilde:.6f} "
               f"({elapsed:.2f} s)")


def test_criterion_4_scale_factor_oracle():
    start = time.perf_counter()
    omega0 = 2.0 * math.pi * 10.0
    tolerance = 1e-10
    trajectory = integrate_scale_factor(omega0, 2, t_max=100.0 / omega0)

    ts = np.linspace(0.0, 100.0 / omega0, 1000)
    b_exact = np.sqrt(1.0 + omega0**2 * ts**2)
    b_err = np.abs(trajectory.b(ts) / b_exact - 1.0).max()

    ts_pos = ts[1:]
    # flat case: the clock integral of 1/b^2 is the proper time itself
    tau_err = np.abs(trajectory.clock(ts_pos) / (np.arctan(omega0 * ts_pos) / omega0)
                     - 1.0).max()

    p = 3  # b'' = omega0^2 / b^(D+1) in quasi-2D
    energy = 0.5 * trajectory.bdots**2 + omega0**2 * trajectory.bs**(1 - p) / (p - 1)
    energy_drift = np.abs(energy / energy[0] - 1.0).max()
    elapsed = time.perf_counter() - start

    assert b_err <= 1e-8
    assert tau_err <= 1e-8
    assert energy_drift <= 10.0 * tolerance
    assert elapsed < 1.0
    _passed(4, f"|db/b| = {b_err:.2e}, |dtau/tau| = {tau_err:.2e}, "
               f"energy drift = {energy_drift:.2e} ({elapsed:.2f} s)")


def test_criterion_5_mode_oracle():
    start = time.perf_counter()
    alpha = math.sqrt(2.0 / 3.0)       # omega0 = 1, natural units
    background = LinearExpansion(alpha)
    kappas = np.geomspace(1.0, 100.0, 20)

    worst_pointwise = 0.0
    worst_frozen = 0.0
    frozen_sq = []
    densities = []
    for kappa in kappas:
        kappa = float(kappa)
        beta = (2.0 / 3.0) * kappa * alpha**-2.5
        t_start = (beta / 260.0) ** (2.0 / 3.0)
        t_end = freezing_time(kappa, alpha)
        evo = integrate_mode(kappa, background, t_start, t_end, tolerance=1e-11)
        ana = analytic_evolution(kappa, evo.times, alpha)
        worst_pointwise = max(worst_pointwise,
                              (np.abs(evo.phi - ana.phi) / np.abs(ana.phi)).max())
        assert evo.frozen_value is not None
        variance = frozen_phase_variance(kappa, 1.0, alpha)
        worst_frozen = max(worst_frozen, abs(evo.frozen_value**2 / variance - 1.0))
        frozen_sq.append(evo.frozen_value**2)
        densities.append(density_contrast_from_mode(evo, background, 1.0, 1.0))

    phase_slope = linregress(np.log(kappas), np.log(frozen_sq)).slope
    density_slope = linregress(np.log(kappas), np.log(densities)).slope
    elapsed = time.perf_counter() - start

    assert worst_pointwise <= 1e-6
    assert worst_frozen <= 0.005
    assert abs(phase_slope - (-4.0 / 3.0)) <= 0.01
    assert abs(density_slope - 4.0 / 3.0) <= 0.01
    assert elapsed < 30.0
    _passed(5, f"pointwise = {worst_pointwise:.2e}, frozen = {worst_frozen:.2e}, "
               f"slopes = {phase_slope:.4f}/{density_slope:+.4f} ({elapsed:.1f} s)")


def test_criterion_6_horizon_suite():
    start = time.perf_counter()
    omega0 = 2.0 * math.pi * 10.0
    trajectory = integrate_scale_factor(omega0, 2, t_max=1000.0 / omega0)

    c0 = 1.0
    r_late = apparent_horizon(trajectory, 1000.0 / omega0, c0)
    assert abs(r_late / (c0 / omega0) - 1.0) <= 1e-3

    horizon0 = particle_horizon(trajectory, 0.0, c0)
    assert abs(horizon0 / (c0 * math.pi / (2.0 * omega0)) - 1.0) <= 1e-3

    conformal = 1.3
    for t in (3.0 / omega0, 40.0 / omega0, 700.0 / omega0):
        r_h = apparent_horizon(trajectory, t, c0)
        b = float(trajectory.b(t))
        c_t = c0 / b
        v = float(trajectory.bdot(t)) / b * r_h
        cov, _ = metric_components(conformal, c_t, [v])
        assert abs(cov[0, 0]) <= 1e-10 * conformal * c_t**2

    # sodium scenario: formula value c0/omega0 with the published-figure ratio
    config = load_scenario("sodium-q2d")
    derived = thomas_fermi(config.condensate)
    omega0_na = config.condensate.trap.longitudinal_frequency
    traj_na = integrate_scale_factor(omega0_na, 2, t_max=200.0 / omega0_na)
    settled = settled_apparent_horizon(traj_na, derived.sound_speed)
    formula = derived.sound_speed / omega0_na
    assert settled == pytest.approx(formula, rel=1e-6)
    ratio = settled / 3.28e-6
    assert ratio == pytest.approx(10.0, abs=0.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(6, f"apparent -> c0/omega0 ({abs(r_late * omega0 / c0 - 1):.1e}), "
               f"particle(0) ok, g00 ok, sodium settles at {settled * 1e6:.2f} um "
               f"= {ratio:.2f} x published ({elapsed:.1f} s)")


def test_criterion_7_special_functions():
    start = time.perf_counter()
    worst_wronskian = 0.0
    for nu in (1.0 / 3.0, 2.0 / 3.0):
        for x in np.geomspace(1e-3, 100.0, 50):
            # J Y' - J' Y = Im(conj(H) H'), with H' from the order recurrence
            h = specfun.hankel1(nu, float(x))
            dh = specfun.hankel1(nu - 1.0, float(x)) - (nu / float(x)) * h
            residual = abs((h.conjugate() * dh).imag * math.pi * float(x) / 2.0 - 1.0)
            worst_wronskian = max(worst_wronskian, residual)
    assert worst_wronskian <= 1e-10

    assert abs(math.gamma(1.0 / 3.0) / 2.6789385347077476337 - 1.0) <= 1e-12
    assert abs(math.gamma(2.0 / 3.0) / 1.3541179394264004169 - 1.0) <= 1e-12

    worst_crossover = 0.0
    for nu in (1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0, -2.0 / 3.0):
        below = specfun.hankel1(nu, specfun.X_SWITCH * (1.0 - 1e-12))
        above = specfun.hankel1(nu, specfun.X_SWITCH * (1.0 + 1e-12))
        worst_crossover = max(worst_crossover, abs(below - above) / abs(above))
    assert worst_crossover <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(7, f"wronskian = {worst_wronskian:.2e}, gamma ok, "
               f"crossover = {worst_crossover:.2e} ({elapsed:.1f} s)")


def test_criterion_8_property_suite(tmp_path):
    start = time.perf_counter()
    config = load_scenario("sodium-q2d")
    spec = config.condensate
    derived = thomas_fermi(spec)
    g2d, mu, m = (derived.effective_coupling, derived.chemical_potential,
                  spec.species.mass)
    xi = derived.healing_length

    kappas = np.linspace(1e-3 / xi, 200.0 / xi, 500)
    values = np.array([density_spectrum_2d(float(k), g2d, mu, m) for k in kappas])
    assert np.all(np.diff(values) > 0.0)
    assert np.all(values <= g2d / mu)

    # below the contact value g/mu, the spectrum approaches it as 1/kappa^2
    tail_ratio = ((density_spectrum_2d(800.0 / xi, g2d, mu, m) - g2d / mu)
                  / (density_spectrum_2d(400.0 / xi, g2d, mu, m) - g2d / mu))
    assert tail_ratio == pytest.approx(0.25, rel=2e-3)

    # the diluted cloud at scale factor b (mu -> mu/b^2, kappa -> kappa/b),
    # over the b^2 Fourier measure, has the initial spectrum
    kappa = 2.0 * math.pi / xi
    reference = density_spectrum_2d(kappa, g2d, mu, m)
    for b in (1.0, 2.0, 11.0, 400.0):
        assert density_spectrum_2d(kappa / b, g2d, mu / b**2, m) / b**2 == \
            pytest.approx(reference, rel=1e-12)

    omega0 = spec.trap.longitudinal_frequency
    trajectory = integrate_scale_factor(omega0, 2, t_max=200.0 / omega0)
    horizons = [particle_horizon(trajectory, float(t))
                for t in trajectory.ts[::5]]
    assert all(a > b for a, b in zip(horizons, horizons[1:]))

    out_a = tmp_path / "det-a"
    out_b = tmp_path / "det-b"
    run(config, out_a)
    run(config, out_b)
    for name in ("trajectory.csv", "horizons.csv", "spectrum.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(8, f"monotone/bounded, 1/kappa^2 tail, scaling invariance, "
               f"shrinking horizon, deterministic outputs ({elapsed:.1f} s)")

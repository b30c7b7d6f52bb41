import math

import numpy as np
import pytest

from becosmo.constants import HBAR
from becosmo.q2d import (bogoliubov_frequency, density_spectrum_2d,
                         spectrum_2d_grid, windowed_contrast)
from becosmo.scenarios import PRESETS, config_from_dict, run

from references import bogoliubov_mode


@pytest.fixture(scope="module")
def sodium_params(sodium_spec, sodium_derived):
    return {
        "g2d": sodium_derived.effective_coupling,
        "mu": sodium_derived.chemical_potential,
        "m": sodium_spec.species.mass,
        "rho0": sodium_derived.peak_density,
        "xi": sodium_derived.healing_length,
    }


class TestDispersion:
    def test_gapless(self, sodium_params):
        assert bogoliubov_frequency(0.0, sodium_params["mu"], sodium_params["m"]) == 0.0

    def test_healing_scale_value(self, sodium_params):
        # k = 1/xi means (hbar k)^2 = m mu, so omega = (mu/hbar) sqrt(5)/2
        k = 1.0 / sodium_params["xi"]
        omega = bogoliubov_frequency(k, sodium_params["mu"], sodium_params["m"])
        assert omega == pytest.approx(
            sodium_params["mu"] / HBAR * math.sqrt(5.0) / 2.0, rel=1e-12)

    def test_free_particle_limit(self, sodium_params):
        k = 1000.0 / sodium_params["xi"]
        omega = bogoliubov_frequency(k, sodium_params["mu"], sodium_params["m"])
        assert omega == pytest.approx(HBAR * k**2 / (2.0 * sodium_params["m"]),
                                      rel=1e-5)

    def test_rejects_bad_input(self, sodium_params):
        with pytest.raises(ValueError):
            bogoliubov_frequency(-1.0, sodium_params["mu"], sodium_params["m"])
        with pytest.raises(ValueError):
            bogoliubov_frequency(1.0, -1.0, sodium_params["m"])
        with pytest.raises(ValueError):
            bogoliubov_frequency(np.array([1.0, -1.0]), sodium_params["mu"],
                                 sodium_params["m"])


class TestSpectrum:
    def test_vanishes_at_zero(self, sodium_params):
        p = sodium_params
        assert density_spectrum_2d(0.0, p["g2d"], p["mu"], p["m"]) == 0.0

    def test_sodium_contrast(self, sodium_params):
        p = sodium_params
        contrast = windowed_contrast(2.0 * math.pi / p["xi"], p["xi"],
                                     p["g2d"], p["mu"], p["m"])
        assert contrast == pytest.approx(0.0179, abs=5e-4)

    def test_saturates_at_contact_value(self, sodium_params):
        p = sodium_params
        c = density_spectrum_2d(1e5 / p["xi"], p["g2d"], p["mu"], p["m"])
        assert c == pytest.approx(p["g2d"] / p["mu"], rel=1e-9)

    def test_array_matches_scalar_bitwise(self, sodium_params):
        p = sodium_params
        kappas = np.concatenate([[0.0], np.geomspace(1e-3 / p["xi"], 1e3 / p["xi"], 999)])
        values = density_spectrum_2d(kappas, p["g2d"], p["mu"], p["m"])
        scalars = [density_spectrum_2d(float(k), p["g2d"], p["mu"], p["m"]) for k in kappas]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert values.tobytes() == np.array(scalars).tobytes()

    def test_rejects_one_negative_kappa(self, sodium_params):
        p = sodium_params
        with pytest.raises(ValueError):
            density_spectrum_2d(np.array([1.0, -1.0, 2.0]), p["g2d"], p["mu"], p["m"])

    # NaN must fail the check too, not slip through as a NaN spectrum
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_rejects_negative_or_nan_kappa(self, sodium_params, bad, as_array):
        p = sodium_params
        kappa = np.array([1.0, bad, 2.0]) if as_array else bad
        with pytest.raises(ValueError, match="non-negative"):
            density_spectrum_2d(kappa, p["g2d"], p["mu"], p["m"])
        with pytest.raises(ValueError, match="non-negative"):
            bogoliubov_frequency(kappa, p["mu"], p["m"])

    def test_monotone_and_bounded(self, sodium_params):
        p = sodium_params
        kappas = np.linspace(0.0, 100.0 / p["xi"], 400)
        values = np.array([density_spectrum_2d(float(k), p["g2d"], p["mu"], p["m"])
                           for k in kappas])
        assert np.all(np.diff(values) > 0.0)
        assert np.all(values <= p["g2d"] / p["mu"])

    def test_small_kappa_slope_richardson(self, sodium_params):
        p = sodium_params
        limit = p["g2d"] * HBAR / (2.0 * p["mu"] * math.sqrt(p["m"] * p["mu"]))
        k0 = 1e-3 / p["xi"]
        f = lambda k: density_spectrum_2d(k, p["g2d"], p["mu"], p["m"]) / k
        richardson = (4.0 * f(k0 / 2.0) - f(k0)) / 3.0
        assert richardson == pytest.approx(limit, rel=1e-8)

    def test_perfect_scaling_invariance(self, sodium_params):
        p = sodium_params
        kappa = 2.0 * math.pi / p["xi"]
        reference = density_spectrum_2d(kappa, p["g2d"], p["mu"], p["m"])
        # the diluted cloud at scale factor b (mu -> mu/b^2, kappa -> kappa/b),
        # over the b^2 Fourier measure
        for b in (1.0, 1.5, 2.0, 7.0, 100.0):
            transported = density_spectrum_2d(
                kappa / b, p["g2d"], p["mu"] / b**2, p["m"]) / b**2
            assert transported == pytest.approx(reference, rel=1e-12)

    def test_contrast_scales_with_coupling(self, sodium_params):
        # the windowed contrast is linear in g2d at fixed mu geometry
        p = sodium_params
        kappa = 2.0 * math.pi / p["xi"]
        base = windowed_contrast(kappa, p["xi"], p["g2d"], p["mu"], p["m"])
        doubled = windowed_contrast(kappa, p["xi"], 2.0 * p["g2d"], p["mu"], p["m"])
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
        assert windowed_contrast(1e-9 / p["xi"], p["xi"], p["g2d"],
                                 p["mu"], p["m"]) < 1e-10


def _subtracted(kappa, p):
    """The spectrum minus its local (contact) value g2d/mu."""
    return density_spectrum_2d(kappa, p["g2d"], p["mu"], p["m"]) - p["g2d"] / p["mu"]


class TestSubtractedSpectrum:
    def test_zero_kappa_limit(self, sodium_params):
        p = sodium_params
        assert _subtracted(0.0, p) == pytest.approx(-p["g2d"] / p["mu"], rel=1e-14)

    def test_negative_definite(self, sodium_params):
        p = sodium_params
        for k in np.geomspace(0.01 / p["xi"], 1e4 / p["xi"], 40):
            assert _subtracted(float(k), p) < 0.0

    def test_tail_coefficient(self, sodium_params):
        p = sodium_params
        kappa = 300.0 / p["xi"]
        expected = -2.0 * p["g2d"] * p["m"] / (HBAR**2 * kappa**2)
        assert _subtracted(kappa, p) == pytest.approx(expected, rel=1e-4)

    def test_doubling_kappa_quarters_tail(self, sodium_params):
        p = sodium_params
        kappa = 500.0 / p["xi"]
        assert _subtracted(2.0 * kappa, p) / _subtracted(kappa, p) == pytest.approx(
            0.25, rel=1e-3)


class TestQuantization:
    def test_canonical_pairing(self, sodium_params):
        p = sodium_params
        for k in np.geomspace(0.01 / p["xi"], 10.0 / p["xi"], 25):
            mode = bogoliubov_mode(float(k), p["mu"], p["m"], p["rho0"], p["g2d"])
            assert mode.phase_amplitude * mode.density_amplitude == pytest.approx(
                0.5, rel=1e-12)
            assert mode.frequency > 0.0

    def test_density_amplitude_gives_spectrum(self, sodium_params):
        p = sodium_params
        k = 1.7 / p["xi"]
        mode = bogoliubov_mode(k, p["mu"], p["m"], p["rho0"], p["g2d"])
        assert mode.density_amplitude**2 / p["rho0"]**2 == pytest.approx(
            density_spectrum_2d(k, p["g2d"], p["mu"], p["m"]), rel=1e-12)


def test_grid_and_csv(sodium_params, tmp_path):
    p = sodium_params
    kappas = np.geomspace(0.1 / p["xi"], 10.0 / p["xi"], 32)
    spectrum = spectrum_2d_grid(kappas, p["g2d"], p["mu"], p["m"])
    assert np.all(spectrum.values >= 0.0)
    # the spectrum-2d stage writes the same grid with its windowed contrast
    numeric = {"kappa_min_per_m": 0.1 / p["xi"], "kappa_max_per_m": 10.0 / p["xi"],
               "kappa_points": 32}
    run(config_from_dict({**PRESETS["sodium-q2d"], "analysis": ["spectrum-2d"],
                          "numeric": numeric}), tmp_path)
    path = tmp_path / "spectrum.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "kappa_per_m,C_m2,C_over_xi2"
    assert len(lines) == 33
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    for column, expected in zip(table.T, (kappas, spectrum.values,
                                          spectrum.values / p["xi"]**2)):
        np.testing.assert_allclose(column, expected, rtol=1e-12, atol=0.0)

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special

from becosmo import specfun as sf

# 50-digit reference values, truncated to double precision.
GAMMA_THIRD = 2.6789385347077476337
GAMMA_TWO_THIRDS = 1.3541179394264004169
GAMMA_TENTH = 9.5135076986687318363
GAMMA_29_5 = 1.6348125198274266444e30

# (nu, x) -> (J, Y), same provenance.
BESSEL_REF = {
    (2 / 3, 0.001): (0.00697827433022796322, -68.4255865835294636),
    (2 / 3, 0.5): (0.423310750684483494, -1.13160601010314331),
    (2 / 3, 5.0): (-0.357125335491688641, -0.0160506626433896565),
    (2 / 3, 11.9): (-0.184085240266981161, -0.140165876044377356),
    (2 / 3, 12.1): (-0.151324369059390039, -0.172478299610124234),
    (2 / 3, 50.0): (-0.0565899087493680483, -0.0976241392080514666),
    (2 / 3, 100.0): (-0.056778819380529483, -0.0560573392040741656),
    (1 / 3, 0.5): (0.672830829497946004, -0.840627826043377739),
    (1 / 3, 50.0): (-0.000572266807717820084, -0.112834899330312789),
    (-1 / 3, 5.0): (0.00433989061802963407, -0.356329511537157927),
    (-2 / 3, 0.001): (59.2548071130230574, 34.218836654609286),
    (-4 / 3, 12.1): (0.141942073574445855, 0.1809406297212637),
}


class TestGamma:
    # Gamma is the standard library's math.gamma, which the series and the
    # closed forms in threed call directly; these pin the accuracy they need.
    def test_reference_values(self):
        assert math.gamma(1 / 3) == pytest.approx(GAMMA_THIRD, rel=1e-12)
        assert math.gamma(2 / 3) == pytest.approx(GAMMA_TWO_THIRDS, rel=1e-12)
        assert math.gamma(0.1) == pytest.approx(GAMMA_TENTH, rel=1e-12)
        assert math.gamma(29.5) == pytest.approx(GAMMA_29_5, rel=1e-12)

    def test_half_integer(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.2, 25.0, size=50):
            assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-12)

    def test_factorials(self):
        for n in range(1, 15):
            assert math.gamma(n + 1) == pytest.approx(math.factorial(n), rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -5.0):
            with pytest.raises(ValueError):
                math.gamma(x)

    def test_negative_noninteger(self):
        assert math.gamma(-0.7) == pytest.approx(-4.2736699824108437547, rel=1e-12)


def _wronskian(nu, x):
    """J_nu Y'_nu - J'_nu Y_nu = Im(conj(H) H'), with H' = H_(nu-1) - (nu/x) H
    from the order recurrence; identically 2/(pi x)."""
    h = sf.hankel1(nu, x)
    return (h.conjugate() * (sf.hankel1(nu - 1.0, x) - (nu / x) * h)).imag


class TestBessel:
    @pytest.mark.parametrize("key", sorted(BESSEL_REF))
    def test_reference_values(self, key):
        nu, x = key
        j_ref, y_ref = BESSEL_REF[key]
        mod = math.hypot(j_ref, y_ref)
        h1 = sf.hankel1(nu, x)
        assert abs(h1.real - j_ref) <= 1e-10 * mod
        assert abs(h1.imag - y_ref) <= 1e-10 * mod

    def test_against_scipy(self):
        for nu in (1 / 3, 2 / 3, -1 / 3, -2 / 3):
            for x in np.geomspace(1e-3, 100.0, 60):
                j, y = scipy.special.jv(nu, x), scipy.special.yv(nu, x)
                mod = math.hypot(j, y)
                h1 = sf.hankel1(nu, float(x))
                assert abs(h1.real - j) <= 1e-9 * mod
                assert abs(h1.imag - y) <= 1e-9 * mod

    def test_small_x_leading_term(self):
        # J_nu -> (x/2)^nu / Gamma(nu+1); next order is x^2/(4(nu+1)) down
        for nu in (1 / 3, 2 / 3):
            x = 1e-3
            lead = (x / 2.0) ** nu / math.gamma(nu + 1.0)
            assert sf.hankel1(nu, x).real == pytest.approx(lead, rel=1e-6)

    def test_large_x_asymptote(self):
        # independent modulus/phase evaluation of the asymptotic series
        nu, x = 2 / 3, 100.0
        mu4 = 4.0 * nu * nu
        p = q = 0.0
        term = 1.0
        for k in range(0, 12):
            if k > 0:
                term *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
            if k % 4 == 0:
                p += term
            elif k % 4 == 1:
                q += term
            elif k % 4 == 2:
                p -= term
            else:
                q -= term
        chi = x - nu * math.pi / 2.0 - math.pi / 4.0
        ref = math.sqrt(2.0 / (math.pi * x)) * cmath.exp(1j * chi) * complex(p, q)
        assert abs(sf.hankel1(nu, x) - ref) <= 1e-6 * abs(ref)

    def test_wronskian_spot_values(self):
        for x in (0.01, 1.0, 50.0):
            expected = 2.0 / (math.pi * x)
            assert _wronskian(2 / 3, x) == pytest.approx(expected, rel=1e-10)

    def test_wronskian_log_grid(self):
        for nu in (1 / 3, 2 / 3):
            for x in np.geomspace(1e-3, 100.0, 40):
                expected = 2.0 / (math.pi * float(x))
                assert _wronskian(nu, float(x)) == pytest.approx(expected, rel=1e-10)

    def test_branch_continuity(self):
        for nu in (1 / 3, 2 / 3, -1 / 3, -2 / 3):
            below = sf.hankel1(nu, sf.X_SWITCH * (1 - 1e-12))
            above = sf.hankel1(nu, sf.X_SWITCH * (1 + 1e-12))
            assert abs(below - above) <= 1e-9 * abs(above)

    def test_hankel_combination(self):
        # H^(1) = J + iY, part by part against scipy's own H^(1)
        x = 4.2
        h1, ref = sf.hankel1(1 / 3, x), scipy.special.hankel1(1 / 3, x)
        assert h1.real == pytest.approx(ref.real, rel=1e-12)
        assert h1.imag == pytest.approx(ref.imag, rel=1e-12)

    def test_rejects_bad_arguments(self):
        for nu, x in ((1 / 3, 0.0), (1 / 3, -2.0), (2.5, 1.0), (1.0, 1.0), (0.0, 1.0)):
            with pytest.raises(ValueError):
                sf.hankel1(nu, x)
        # one bad element in an array whose other elements are valid
        for bad in (0.0, -2.0, math.nan):
            x = np.array([[30.0, 2.0], [bad, 0.5]])
            for nu in (1 / 3, 2 / 3):
                with pytest.raises(ValueError):
                    sf.hankel1(nu, x)

    # an integer order is rejected on either branch, before the logarithmic
    # branch of Y could be needed; J and Y are the real and imaginary parts of
    # H^(1), so asking for either part, or for H^(1) itself, raises
    @pytest.mark.parametrize(
        "function",
        [
            lambda nu, x: sf.hankel1(nu, x).real,
            lambda nu, x: sf.hankel1(nu, x).imag,
            sf.hankel1,
        ],
        ids=["bessel_j", "bessel_y", "hankel1"],
    )
    @pytest.mark.parametrize("nu", [-1.0, 0.0, 1.0])
    def test_rejects_integer_order(self, function, nu):
        for x in (0.5, 2.0, np.array([0.5, 30.0])):
            with pytest.raises(ValueError, match=f"integer order nu={nu}"):
                function(nu, x)

    def test_scalar_or_array_contract(self):
        # both branches in one array; each scalar call returns a scalar
        xs = np.array([[0.01, 11.9], [12.1, 80.0]])
        h1 = sf.hankel1(2 / 3, xs)
        assert h1.shape == xs.shape
        for index in np.ndindex(xs.shape):
            x = float(xs[index])
            assert isinstance(sf.hankel1(2 / 3, x), complex)
            assert h1[index] == pytest.approx(sf.hankel1(2 / 3, x), rel=1e-15)


class TestMpmathOracle:
    """The array kernel against 30-digit mpmath on the guaranteed range.

    Errors of J and Y are taken relative to |H^(1)| = sqrt(J^2 + Y^2), the
    scale that stays finite at the zeros of either function.
    """

    XS = np.geomspace(1e-3, 100.0, 400)

    @staticmethod
    def _reference(nu, xs):
        with mpmath.workdps(30):
            return np.array([complex(mpmath.besselj(nu, x) + 1j * mpmath.bessely(nu, x))
                             for x in xs])

    @pytest.mark.parametrize("nu", [1 / 3, 2 / 3, -1 / 3, -2 / 3])
    def test_hankel1_bessel_j_bessel_y(self, nu):
        ref = self._reference(nu, self.XS)
        scale = np.abs(ref)
        h1 = sf.hankel1(nu, self.XS)
        assert np.max(np.abs(h1 - ref) / scale) <= 1e-10
        assert np.max(np.abs(h1.real - ref.real) / scale) <= 1e-10
        assert np.max(np.abs(h1.imag - ref.imag) / scale) <= 1e-10

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        for nu, x in ((1 / 3, 0.0), (1 / 3, -2.0), (1 / 3, math.inf), (2.5, 1.0),
                      (1.0, 1.0), (0.0, 1.0)):
            with pytest.raises(ValueError):
                sf.hankel1(nu, x)
        # one bad element in an array whose other elements are valid
        for bad in (0.0, -2.0, math.nan, math.inf):
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
        # both branches in one 2-D array, unsorted and with repeated
        # arguments whose series stop in different chunks; each scalar call
        # returns a scalar, and every element equals it bit for bit; at 12.9
        # (nu = 2/3) and 12.83 (nu = -1/3) a pairwise sum of one argument's
        # asymptotic terms would differ from the array's in the last bit
        xs = np.array([[11.9, 1e-6, 80.0, 0.5, 12.9],
                       [0.01, 12.1, 3.0, 11.9, 12.83],
                       [7.3, 0.01, 1e-6, 25.0, 12.9]])
        for nu in (2 / 3, -1 / 3):
            h1 = sf.hankel1(nu, xs)
            assert h1.shape == xs.shape
            for index in np.ndindex(xs.shape):
                scalar = sf.hankel1(nu, float(xs[index]))
                assert isinstance(scalar, complex)
                assert h1[index] == scalar
            empty = sf.hankel1(nu, np.empty((0, 3)))
            assert empty.shape == (0, 3)
            assert empty.dtype == complex


def _full_series_hankel1(nu, x):
    """H^(1)_nu from all 59 terms of the J_nu and J_-nu series summed along
    axis 0 in extended precision: what the series gave at every x below
    X_SWITCH before the float64 range, and must still give from _X_DOUBLE up."""
    orders = np.array((nu, -nu), dtype=np.longdouble)[:, None]
    half = np.asarray(x, dtype=float).astype(np.longdouble) / 2
    gammas = np.array([math.gamma(v + 1.0) for v in (nu, -nu)], dtype=np.longdouble)
    pref = np.exp(orders * np.log(half)) / gammas[:, None]
    k = np.arange(1, 60, dtype=np.longdouble)[:, None, None]
    terms = np.cumprod(-half * half / (k * (orders + k)), axis=0)
    j_pos, j_neg = (pref * (1 + terms.sum(axis=0))).astype(float)
    s, c = math.sin(nu * math.pi), math.cos(nu * math.pi)
    return j_pos + 1j * ((j_pos * c - j_neg) / s)


def _full_asymptotic_hankel1(nu, x):
    """H^(1)_nu for x >= X_SWITCH as the expansion was first written: a term
    index made per call, a row of inf stacked on for the shrink test and a
    complex cumsum over all 59 terms. nu is one order or a 1-D sequence of
    them, as in hankel1; the module's term tables must give these bits."""
    nu_axis = np.array(nu, dtype=float).reshape(-1)[:, None]
    x = np.asarray(x, dtype=float)
    k = np.arange(1, 60)[:, None, None]
    terms = np.cumprod((4.0 * nu_axis * nu_axis - (2 * k - 1) ** 2) / (8.0 * k * x),
                       axis=0)
    size = np.abs(terms)
    previous = np.vstack([np.full((1,) + size.shape[1:], math.inf), size[:-1]])
    shrinking = np.logical_and.accumulate(size < previous, axis=0)
    phase = np.array([1j, -1.0, -1j, 1.0])[(k - 1) % 4]
    total = 1.0 + np.cumsum(phase * np.where(shrinking, terms, 0.0), axis=0)[-1]
    chi = x - nu_axis * (math.pi / 2.0) - math.pi / 4.0
    h1 = np.sqrt(2.0 / (math.pi * x)) * (np.cos(chi) + 1j * np.sin(chi)) * total
    return h1.reshape(np.shape(nu) + x.shape)


class TestSeriesStop:
    """From _X_DOUBLE to X_SWITCH the series is the fixed extended-precision
    sum, bit for bit the full 59-term sum."""

    @pytest.mark.parametrize("nu", [1 / 3, 2 / 3, -1 / 3, -2 / 3])
    def test_matches_full_series_on_dense_grid(self, nu):
        xs = np.geomspace(sf._X_DOUBLE, sf.X_SWITCH, 5000, endpoint=False)
        assert np.array_equal(sf.hankel1(nu, xs), _full_series_hankel1(nu, xs))

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
           .filter(lambda v: abs(v - round(v)) > 1e-6),
           xs=hnp.arrays(float, st.integers(1, 40),
                         elements=st.floats(sf._X_DOUBLE, sf.X_SWITCH, exclude_max=True)))
    def test_matches_full_series(self, nu, xs):
        assert np.array_equal(sf.hankel1(nu, xs), _full_series_hankel1(nu, xs))


def _mpmath_hankel1(nu, xs):
    """H^(1)_nu at 40 digits, with Y_nu = (J_nu cos(nu pi) - J_-nu)/sin(nu pi)
    for the double nu as given."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(nu)
        c, s = mpmath.cospi(nu), mpmath.sinpi(nu)
        out = []
        for x in xs:
            j_pos, j_neg = mpmath.besselj(nu, x), mpmath.besselj(-nu, x)
            out.append(complex(j_pos + 1j * ((j_pos * c - j_neg) / s)))
    return np.array(out)


def _worst_error(h1, ref):
    return float(np.max(np.abs(h1 - ref) / np.abs(ref)))


class TestDoubleSeries:
    """Below _X_DOUBLE the series is summed in float64, against 40-digit
    mpmath with errors relative to |H^(1)|. The extended-precision sum it
    replaced (_full_series_hankel1) is the yardstick: its worst error on the
    same grid over the series range [1e-100, X_SWITCH), where both agree bit
    for bit from _X_DOUBLE up."""

    BELOW = np.concatenate([np.geomspace(1e-100, 1e-2, 300, endpoint=False),
                            np.linspace(1e-2, sf._X_DOUBLE, 1000, endpoint=False)])
    ABOVE = np.linspace(sf._X_DOUBLE, sf.X_SWITCH, 300, endpoint=False)

    def _errors(self, nu, below, above):
        xs = np.concatenate([below, above])
        ref = _mpmath_hankel1(nu, xs)
        head = _worst_error(_full_series_hankel1(nu, xs), ref)
        low = xs < sf._X_DOUBLE
        return _worst_error(sf.hankel1(nu, xs[low]), ref[low]), head

    @pytest.mark.parametrize("nu", [1 / 3, 2 / 3, -1 / 3, -2 / 3])
    def test_mpmath_on_dense_grid(self, nu):
        worst, head = self._errors(nu, self.BELOW, self.ABOVE)
        assert worst <= 2e-15
        assert worst <= 2.0 * head

    @settings(max_examples=12, deadline=None)
    @given(nu=st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
           .filter(lambda v: abs(v - round(v)) > 1e-6))
    def test_mpmath_on_drawn_orders(self, nu):
        worst, head = self._errors(nu, self.BELOW[::8], self.ABOVE[::4])
        assert worst <= 2.0 * head

    @pytest.mark.parametrize("name, xs", [
        ("_DOUBLE_TERMS", np.concatenate([np.geomspace(1e-100, 1.0, 500),
                                          np.linspace(1.0, 2.0, 2000, endpoint=False)])),
        ("_EXTENDED_TERMS", np.linspace(2.0, 12.0, 2000, endpoint=False)),
        ("_ASYMPTOTIC_TERMS", np.geomspace(12.0, 1e8, 20000))])
    def test_one_more_term_changes_no_bit(self, monkeypatch, name, xs):
        orders = [1 / 3, 2 / 3, -1 / 3, -2 / 3, 0.1, -0.1, 1.9, -1.9, 1.999, -1.999]
        fixed = sf.hankel1(orders, xs)
        monkeypatch.setattr(sf, name, getattr(sf, name) + 1)
        # the asymptotic term tables are made from their count at import
        k = np.arange(1, sf._ASYMPTOTIC_TERMS)[:, None, None]
        monkeypatch.setattr(sf, "_ODD_SQUARES", ((2 * k - 1) ** 2).astype(float))
        monkeypatch.setattr(sf, "_EIGHT_K", 8.0 * k)
        monkeypatch.setattr(sf, "_PHASES", np.array([1j, -1.0, -1j, 1.0])[(k - 1) % 4])
        assert np.array_equal(sf.hankel1(orders, xs), fixed)

    @pytest.mark.parametrize("nu", [1 / 3, 2 / 3, -1 / 3, -2 / 3, 0.1, -1.9])
    def test_continuity_at_switch(self, nu):
        below = sf.hankel1(nu, np.nextafter(sf._X_DOUBLE, 0.0))
        above = sf.hankel1(nu, sf._X_DOUBLE)
        assert abs(below - above) <= 1e-14 * abs(above)

    # J_-nu passes the float64 range below about x = 10^(-308/|nu|)
    @pytest.mark.parametrize("nu, x, finite", [(-1.9, 1e-170, 1e-160),
                                               (1.9, 1e-170, 1e-160),
                                               (1.5, 1e-250, 1e-200),
                                               (-1.2, 1e-300, 1e-250)])
    def test_overflow_is_a_value_error(self, nu, x, finite):
        # it made Y infinite and, through 1j * Y, the real part NaN, with raw
        # overflow warnings; the suite turns any warning into an error
        with pytest.raises(ValueError, match=f"nu={nu}, x={x!r}"):
            sf.hankel1(nu, x)
        with pytest.raises(ValueError, match=f"nu={nu}, x={x!r}"):
            sf.hankel1((2 / 3, nu), np.array([30.0, 0.5, x, 1e-3]))
        assert np.isfinite(sf.hankel1(nu, finite))


class TestAsymptoticTables:
    """The asymptotic expansion from the module's term tables, bit for bit
    the expansion that builds them on every call."""

    @pytest.mark.parametrize("nu", [1 / 3, 2 / 3, -1 / 3, -2 / 3])
    def test_matches_per_call_tables_on_dense_grid(self, nu):
        xs = np.geomspace(sf.X_SWITCH, 1e4, 5000)
        assert np.array_equal(sf.hankel1(nu, xs), _full_asymptotic_hankel1(nu, xs))

    @settings(max_examples=200, deadline=None)
    @given(orders=st.lists(st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
                           .filter(lambda v: abs(v - round(v)) > 1e-6),
                           min_size=1, max_size=4),
           xs=hnp.arrays(float, st.integers(1, 40),
                         elements=st.floats(sf.X_SWITCH, 1e300)))
    def test_matches_per_call_tables(self, orders, xs):
        assert np.array_equal(sf.hankel1(orders, xs),
                              _full_asymptotic_hankel1(orders, xs))


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


class TestOrderAxis:
    """A sequence of orders puts them on a leading axis; each row is bit for
    bit the one-order call, on either branch."""

    ORDERS = (2 / 3, -1 / 3)

    def _assert_rows(self, orders, x):
        h1 = sf.hankel1(orders, x)
        assert h1.shape == (len(orders),) + np.shape(x)
        for row, nu in zip(h1, orders):
            assert np.array_equal(row, sf.hankel1(nu, x))

    def test_rows_match_one_order_calls(self):
        # both branches, unsorted, with repeats; 12.9 and 12.83 are the
        # arguments where a pairwise asymptotic sum would move the last bit
        xs = np.array([[11.9, 1e-6, 80.0, 0.5, 12.9],
                       [0.01, 12.1, 3.0, 11.9, 12.83],
                       [7.3, 0.01, 1e-6, 25.0, 12.9]])
        self._assert_rows(self.ORDERS, xs)
        for x in (0.5, 12.83, 40.0):
            self._assert_rows(self.ORDERS, x)
        empty = sf.hankel1(self.ORDERS, np.empty((0, 3)))
        assert empty.shape == (2, 0, 3)
        assert empty.dtype == complex

    @settings(max_examples=150, deadline=None)
    @given(orders=st.lists(st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True)
                           .filter(lambda v: abs(v - round(v)) > 1e-6),
                           min_size=1, max_size=4),
           xs=hnp.arrays(float, st.integers(1, 40), elements=st.floats(1e-100, 1e4)))
    def test_rows_match_one_order_calls_property(self, orders, xs):
        self._assert_rows(orders, xs)

    @pytest.mark.parametrize("bad, match", [
        (1.0, "integer order nu=1.0"), (-1.0, "integer order nu=-1.0"),
        (2.5, "order nu=2.5 outside"), (-2.0, "order nu=-2.0 outside")])
    def test_rejects_one_bad_order(self, bad, match):
        for x in (0.5, np.array([0.5, 30.0])):
            with pytest.raises(ValueError, match=match):
                sf.hankel1((2 / 3, bad, -1 / 3), x)

    @pytest.mark.parametrize("nu", [(), [[2 / 3, -1 / 3]], np.full((2, 1), 0.5)])
    def test_rejects_empty_or_2d_orders(self, nu):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            sf.hankel1(nu, 1.0)

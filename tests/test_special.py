import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hball.special import (
    dim_spherical_harmonics,
    gegenbauer,
    pochhammer,
    weight_constant,
    zonal,
)


def direct_rising_product(a, k):
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(-2.0, 0) == 1.0

    def test_integer_example(self):
        assert pochhammer(2, 3) == 24.0  # 2*3*4

    def test_half_integer_example(self):
        assert pochhammer(0.5, 2) == 0.75  # 0.5 * 1.5

    def test_matches_gamma_when_finite(self):
        for a, k in [(1.5, 10), (0.25, 7), (4.0, 3)]:
            want = math.gamma(a + k) / math.gamma(a)
            assert pochhammer(a, k) == pytest.approx(want, rel=1e-13)

    def test_zero_hit_for_nonpositive_integer_base(self):
        assert pochhammer(-3.0, 5) == 0.0
        assert pochhammer(-3.0, 100) == 0.0

    def test_negative_base_signs(self):
        assert pochhammer(-2.5, 3) == pytest.approx((-2.5) * (-1.5) * (-0.5))
        # large-k log-domain path agrees with the direct product
        a, k = -2.5, 80
        assert pochhammer(a, k) == pytest.approx(direct_rising_product(a, k), rel=1e-10)

    @given(st.floats(min_value=0.05, max_value=6.0), st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, a, k):
        assert pochhammer(a, k + 1) == pytest.approx(pochhammer(a, k) * (a + k), rel=1e-12)


class TestSphericalHarmonicDims:
    def test_circle_is_two_dimensional(self):
        assert dim_spherical_harmonics(2, 5) == 2

    def test_three_dimensions(self):
        assert dim_spherical_harmonics(3, 4) == 9  # 2k + 1

    def test_constants(self):
        for n in (2, 3, 4, 7):
            assert dim_spherical_harmonics(n, 0) == 1

    def test_against_factorial_formula(self):
        for n in (2, 3, 4, 5):
            for k in range(1, 40):
                want = (
                    (2 * k + n - 2)
                    * math.factorial(k + n - 3)
                    // (math.factorial(k) * math.factorial(n - 2))
                )
                assert dim_spherical_harmonics(n, k) == want


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0.7, 0, -0.3) == 1.0

    def test_value_at_one_is_pochhammer_ratio(self):
        # C_k^lam(1) = (2 lam)_k / k!
        for lam in (0.5, 1.0, 1.7):
            for k in range(0, 12):
                want = pochhammer(2 * lam, k) / math.factorial(k)
                assert gegenbauer(lam, k, 1.0) == pytest.approx(want, rel=1e-12)

    def test_hand_recurrence_value(self):
        assert gegenbauer(1.0, 2, 0.0) == pytest.approx(-1.0)

    def test_legendre_case(self):
        # lam = 1/2 gives the Legendre polynomials
        u = 0.37
        assert gegenbauer(0.5, 2, u) == pytest.approx(0.5 * (3 * u * u - 1), rel=1e-13)
        assert gegenbauer(0.5, 3, u) == pytest.approx(0.5 * (5 * u**3 - 3 * u), rel=1e-13)


class TestZonal:
    def test_degree_zero(self):
        assert zonal(4, 0, [0.1, 0, 0, 0], [0, 0.5, 0, 0]) == 1.0

    def test_vanishes_at_origin(self):
        assert zonal(3, 2, [0.0, 0.0, 0.0], [0.3, 0.1, 0.2]) == 0.0

    def test_degree_one_is_dot_product(self):
        x, y = np.array([0.2, -0.1, 0.4]), np.array([0.3, 0.5, -0.2])
        assert zonal(3, 1, x, y) == pytest.approx(3.0 * float(x @ y), rel=1e-12)

    def test_diagonal_on_sphere_equals_dimension(self):
        for n in (2, 3, 5):
            zeta = np.zeros(n)
            zeta[0] = 1.0
            for k in (1, 3, 6):
                assert zonal(n, k, zeta, zeta) == pytest.approx(
                    dim_spherical_harmonics(n, k), rel=1e-12
                )

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_bound(self, n, k, xs, ys):
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx > 1.0:
            x = x / (nx * 1.0000001)
        if ny > 1.0:
            y = y / (ny * 1.0000001)
        a = zonal(n, k, x, y)
        b = zonal(n, k, y, x)
        assert a == pytest.approx(b, abs=1e-12)
        cap = dim_spherical_harmonics(n, k) * (np.linalg.norm(x) * np.linalg.norm(y)) ** k
        assert abs(a) <= cap * (1 + 1e-9) + 1e-12


class TestWeightConstant:
    def test_unweighted_mass_is_one(self):
        assert weight_constant(2, 0.0).value == pytest.approx(1.0, rel=1e-14)

    def test_disk_weight_one(self):
        # (1/pi) int_disk (1 - |x|^2) dA = 1/2
        assert weight_constant(2, 1.0).value == pytest.approx(0.5, rel=1e-13)

    def test_nonintegrable_weights_use_unit_constant(self):
        assert weight_constant(5, -3.0).value == 1.0
        assert weight_constant(2, -1.0).value == 1.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_weight(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            weight_constant(2, alpha)

    def test_matches_radial_quadrature(self):
        # n int_0^1 r^(n-1) (1-r^2)^alpha dr by adaptive quadrature
        from scipy.integrate import quad

        for n in (2, 3, 4):
            for alpha in (0.0, 0.5, 2.0, 4.5):
                integral, err = quad(
                    lambda r: n * r ** (n - 1) * (1 - r * r) ** alpha, 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13,
                )
                assert err < 1e-11
                assert weight_constant(n, alpha).value == pytest.approx(
                    integral, abs=1e-10
                )

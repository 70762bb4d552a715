import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import legendre_p_all

from conftest import certified_degree_reference, points_at_norms, recurrence_rows, rule_sum_reference, streamed_reference

from hball.calculus import DiffPair, HarmonicExpansion, KernelAtom, _atom_coeff, apply_D
from hball.errors import NonConvergent
from hball.experiments import verification_family
from hball.kernel import (
    _EPS,
    _SEED_MAX_DEGREE,
    _SEED_UNSCALE,
    _TABLE_CHUNK_BYTES,
    CoeffProduct,
    KMAX_DEFAULT,
    _angular_source,
    _AssociatedLegendre,
    _certified_degree,
    _degree_blocks,
    _DegreeTable,
    _legendre_factors,
    _legendre_table,
    _LogTables,
    _meridian_frame,
    _N2Form,
    _N2Geometry,
    _evaluate,
    _n2_gate,
    _powers,
    _ring_spectra,
    _series_sums,
    _stack,
    _shared_degree,
    _ZonalAngular,
    eval_coeff_series_grid,
    eval_coeff_series_grids,
    eval_coeff_series_points,
    eval_coeff_series_rule_sum,
    gamma_coeff,
    gamma_ratio,
    kernel_eval,
    kernel_growth_exponent_probe,
    log_coeff_block,
    log_gamma_coeffs,
    zonal_angular_table,
)
from hball.quadrature import shell_decomposition, sphere_rule
from hball.spaces import reproducing_rule
from hball.special import dim_spherical_harmonics, log_dim_spherical_harmonics, pochhammer


def _series_sum(n, coeff, u, rho_sets, **kw):
    """`_series_sums` of the one coefficient `coeff`: (values, tails,
    masses, K), or the NonConvergent raised."""
    (result,) = _series_sums(n, [coeff], u, rho_sets, **kw)
    if isinstance(result, NonConvergent):
        raise result
    return result


def gamma_by_direct_product(n, alpha, k):
    """Definition evaluated literally as an incremental factor product
    (test oracle, independent of the log-gamma implementation)."""
    out = 1.0
    if alpha > -(1 + n / 2):
        for j in range(k):
            out *= (1 + n / 2 + alpha + j) / (n / 2 + j)
        return out
    for j in range(k):
        out *= (1.0 + j) ** 2 / ((1 - (n / 2 + alpha) + j) * (n / 2 + j))
    return out


class TestCoefficients:
    def test_degree_zero_is_one(self):
        for n, alpha in [(2, 0.3), (3, -7.2), (5, -3.5)]:
            assert gamma_coeff(n, alpha, 0).value == pytest.approx(1.0, rel=1e-14)

    def test_first_upper_coefficient(self):
        assert gamma_coeff(2, 0.0, 1).value == pytest.approx(2.0, rel=1e-13)

    def test_lower_branch_closed_form(self):
        # n = 2, alpha = -2 sits on the lower branch and collapses to 1/(k+1)
        for k in range(21):
            assert gamma_coeff(2, -2.0, k).value == pytest.approx(
                1.0 / (k + 1), rel=1e-12
            )

    def test_matches_direct_products_both_branches(self):
        for n in (2, 3, 4):
            for alpha in (-6.0, -2.6, -2.0, 0.0, 1.7):
                for k in (1, 2, 5, 17, 40):
                    assert gamma_coeff(n, alpha, k).value == pytest.approx(
                        gamma_by_direct_product(n, alpha, k), rel=1e-11
                    )

    def test_positivity_grid(self):
        ks = np.arange(0, 2001)
        for n in (2, 3):
            for alpha in range(-10, 11):
                logs = log_gamma_coeffs(n, float(alpha), ks)
                assert np.all(np.isfinite(logs))

    def test_power_law_stability(self):
        # gamma_k / k^(alpha+1) moves < 5% between k = 1000 and k = 4000
        ks = np.array([1000.0, 4000.0])
        for n in (2, 3):
            for alpha in (-5.0, -2.0, 0.0, 3.0):
                vals = np.exp(log_gamma_coeffs(n, alpha, ks) - (alpha + 1) * np.log(ks))
                assert abs(vals[0] - vals[1]) / vals[1] < 0.05


class TestRatios:
    def test_order_zero_is_identity(self):
        for k in (0, 1, 5, 1000):
            assert gamma_ratio(3, -1.3, 0.0, k) == 1.0

    def test_degree_zero_is_one(self):
        assert gamma_ratio(2, 0.7, -2.4, 0) == 1.0

    def test_first_degree_value(self):
        assert gamma_ratio(2, 0.0, 1.0, 1) == pytest.approx(1.5, rel=1e-13)

    def test_asymptotic_order(self):
        # gamma_k(s+t)/gamma_k(s) ~ k^t
        for s, t in [(0.0, 1.5), (-4.0, 2.0), (1.0, -1.0)]:
            r1 = gamma_ratio(3, s, t, 2000)
            r2 = gamma_ratio(3, s, t, 4000)
            assert r2 / r1 == pytest.approx(2.0**t, rel=0.02)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=500),
    )
    # (s + t) - t rounds to -2 + 4.4e-16, on the upper branch, where
    # gamma_1 = 4.4e-16 against 1/2 at s = -2 (`test_the_n2_branch_boundary_is_a_jump`)
    @example(s=-2.0, t=-2.499546017286051, k=1)
    @settings(max_examples=60, deadline=None)
    def test_inverse_pair_property(self, s, t, k):
        forward = gamma_ratio(2, s, t, k)
        backward = gamma_ratio(2, s + t, -t, k)
        back = (s + t) - t  # where the backward ratio lands
        if back == s:
            assert forward * backward == pytest.approx(1.0, rel=1e-11)
        else:
            # the pair is gamma_k(back) / gamma_k(s), not 1
            want = gamma_coeff(2, back, k).value / gamma_coeff(2, s, k).value
            assert forward * backward == pytest.approx(want, rel=1e-11)

    def test_the_n2_branch_boundary_is_a_jump(self):
        # alpha = -2 is on the lower branch, gamma_1 = (1)_1^2 / ((2)_1 (1)_1)
        # = 1/2; just above it, on the upper branch, gamma_1 = 2 + alpha,
        # which tends to 0
        above = np.nextafter(-2.0, 0.0)
        assert gamma_coeff(2, -2.0, 1).value == pytest.approx(0.5, rel=1e-15)
        assert gamma_coeff(2, above, 1).value == pytest.approx(2.0 + above, rel=1e-12)
        assert gamma_ratio(2, -2.0, above + 2.0, 1) < 1e-15


def partial_sum_oracle(n, alpha, x, y, degree):
    """Brute-force partial sum, independent of the adaptive evaluator."""
    from hball.special import zonal

    return sum(
        gamma_by_direct_product(n, alpha, k) * zonal(n, k, x, y)
        for k in range(degree + 1)
    )


class TestKernelEval:
    def test_pole_at_origin(self):
        ke = kernel_eval(3, 1.3, np.array([0.5, 0.0, 0.0]), np.zeros(3), 1e-12)
        assert ke.value == 1.0
        assert ke.tail_bound <= 1e-12

    def test_symmetry(self):
        x = np.array([0.4, -0.2, 0.1])
        y = np.array([-0.3, 0.5, 0.2])
        tol = 1e-9
        a = kernel_eval(3, 0.7, x, y, tol)
        b = kernel_eval(3, 0.7, y, x, tol)
        assert abs(a.value - b.value) <= 2 * tol

    def test_against_high_degree_partial_sum(self):
        x = np.array([0.5, 0.0, 0.0])
        zeta = np.array([1.0, 0.0, 0.0])
        oracle = partial_sum_oracle(3, 0.0, x, zeta, 4000)
        ke = kernel_eval(3, 0.0, x, zeta, 1e-9)
        assert ke.value == pytest.approx(oracle, abs=1e-9 + 1e-10 * abs(oracle))

    def test_closed_form_on_the_disk(self):
        # n = 2, alpha = 0: gamma_k = k+1, so R_0(r zeta, zeta) = 2/(1-r)^2 - 1
        zeta = np.array([1.0, 0.0])
        for r in (0.0, 0.25, 0.8, 0.99):
            ke = kernel_eval(2, 0.0, r * zeta, zeta, 1e-10)
            want = 2.0 / (1.0 - r) ** 2 - 1.0
            assert ke.value == pytest.approx(want, abs=1e-9 * max(1.0, want))

    def test_truncation_certificate(self):
        x = np.array([0.7, 0.1])
        y = np.array([-0.6, 0.5])
        ke = kernel_eval(2, 1.2, x, y, 1e-8)
        deeper = kernel_eval(2, 1.2, x, y, 1e-15)
        assert deeper.degree_used > ke.degree_used
        assert abs(deeper.value - ke.value) <= ke.tail_bound

    def test_rejects_boundary_product(self):
        zeta = np.array([0.0, 1.0])
        with pytest.raises(NonConvergent):
            kernel_eval(2, 0.0, zeta, zeta, 1e-6)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr("hball.kernel.KMAX_DEFAULT", 5000)
        zeta = np.array([1.0, 0.0])
        with pytest.raises(NonConvergent, match="within 5000 terms"):
            kernel_eval(2, 0.0, 0.9999999 * zeta, zeta, 1e-10)

    def test_harmonicity_by_central_differences(self):
        h = 1e-3
        cases = [
            (2, 0.5, np.array([0.3, 0.2]), np.array([0.5, -0.4])),
            (3, -3.8, np.array([0.25, 0.1, -0.2]), np.array([0.1, 0.55, 0.3])),
        ]
        for n, alpha, x, y in cases:
            def f(p):
                return kernel_eval(n, alpha, p, y, 1e-12).value

            lap = 0.0
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                lap += f(x + e) - 2.0 * f(x) + f(x - e)
            assert abs(lap / h**2) <= 1e-4


class TestGrowthProbe:
    def test_center_value(self):
        table = kernel_growth_exponent_probe(3, -1.2, (0.0, 0.0, 1.0), [1e-12, 0.5])
        assert table[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_pole_ray_slope(self):
        radii = [1.0 - 2.0 ** (-j) for j in range(3, 13)]
        table = kernel_growth_exponent_probe(2, 0.0, (1.0, 0.0), radii)
        rs = np.array([r for r, _ in table])
        vs = np.array([v for _, v in table])
        big_l = np.log(1.0 / (1.0 - rs**2))
        slope = np.polyfit(big_l[rs >= 0.999], np.log(vs[rs >= 0.999]), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)  # n + alpha

    def test_monotone_toward_the_pole(self):
        radii = np.linspace(0.5, 0.99, 12)
        table = kernel_growth_exponent_probe(3, 0.5, (1.0, 0.0, 0.0), radii)
        vals = [v for _, v in table]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kernel_growth_exponent_probe(2, 0.0, (1.0, 0.0), [0.5, 0.4])
        with pytest.raises(ValueError):
            kernel_growth_exponent_probe(2, 0.0, (0.5, 0.0), [0.1, 0.2])


class TestCoeffProduct:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_refused(self, bad):
        with pytest.raises(ValueError, match="in factors must be finite"):
            CoeffProduct.kernel(bad)
        with pytest.raises(ValueError, match="in factors must be finite"):
            CoeffProduct.kernel(0.0).shifted(0.0, bad)
        with pytest.raises(ValueError, match="in factors must be finite"):
            CoeffProduct(((1.0, 1), (bad, -1)))
        with pytest.raises(ValueError, match="in factors must be finite"):
            kernel_eval(2, bad, np.array([0.5, 0.0]), np.array([0.5, 0.0]), 1e-8)

    def test_kernel_shift_cancels_exactly(self):
        cp = CoeffProduct.kernel(0.3).shifted(0.3, 1.2)
        assert cp.single_kernel_parameter() == 1.5

    def test_mismatched_shift_keeps_factors(self):
        cp = CoeffProduct.kernel(0.3).shifted(0.5, 1.2)
        assert cp.single_kernel_parameter() is None

    def test_log_values_match_composition(self):
        ks = np.arange(0, 50, dtype=float)
        cp = CoeffProduct.kernel(-2.7).shifted(0.4, 1.1)
        want = (
            log_gamma_coeffs(3, -2.7, ks)
            + log_gamma_coeffs(3, 1.5, ks)
            - log_gamma_coeffs(3, 0.4, ks)
        )
        assert np.allclose(cp.log_values(3, ks), want, rtol=1e-12, atol=1e-12)


def repeated_u(rng, m, distinct):
    """m cosines drawn from `distinct` values, the poles and the equator among them."""
    pool = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, distinct - 3)])
    return rng.choice(pool, size=m)


class TestTwoPassSum:
    """The majorant pass stops at the degree the streamed recurrence stopped
    at, and the angular table over the cosines given, repeated or not,
    gives its values."""

    COEFFS = (CoeffProduct.kernel(0.0), CoeffProduct.kernel(-2.7).shifted(0.4, 1.1))

    def assert_matches(self, n, coeff, u, rho_sets):
        got = _series_sum(n, coeff, u, rho_sets, tol_rel=1e-10)
        want = streamed_reference(n, coeff, u, rho_sets, tol_rel=1e-10)
        assert got[3] == want[3]
        for v, t, mass, v_ref, t_ref, mass_ref in zip(*got[:3], *want[:3]):
            assert v.shape == v_ref.shape
            assert np.array_equal(t, t_ref)
            assert np.array_equal(mass, mass_ref)
            assert np.all(np.abs(v - v_ref) <= 1e-12 * mass[:, None])

    @staticmethod
    def paired_points(n, u, rho):
        """The points rho_i (u_i, sqrt(1 - u_i^2), 0, ...) about the pole e_1,
        and the cosines and radii they define, as the kernel computes them."""
        pole = np.eye(n)[0]
        dirs = np.zeros((u.shape[0], n))
        dirs[:, 0], dirs[:, 1] = u, np.sqrt(1.0 - u**2)
        points = rho[:, None] * dirs
        norms = np.linalg.norm(points, axis=1)
        with np.errstate(invalid="ignore"):
            cos = points @ pole / np.where(norms > 0.0, norms, 1.0)
        return pole, points, np.clip(np.where(norms > 0.0, cos, 1.0), -1.0, 1.0), norms

    def assert_points_match(self, n, coeff, u, rho):
        """Point evaluation against the streamed sum of each point alone;
        the degree used is the largest point's K.  The absolute tolerance
        1e-10 certifies at least as much as 1e-10 of the mass, which is at
        least c_0 = 1."""
        pole, points, u_pts, rho_pts = self.paired_points(n, u, rho)
        values, tails, k_used = eval_coeff_series_points(n, coeff, pole, points, tol_abs=1e-10)
        assert values.shape == tails.shape == rho_pts.shape
        degrees, refs = [], {}  # the reference of each distinct point
        for i in range(rho_pts.shape[0]):
            key = (u_pts[i], rho_pts[i])
            if key not in refs:
                refs[key] = streamed_reference(
                    n, coeff, u_pts[i : i + 1], [rho_pts[i : i + 1]], tol_abs=1e-10, matmul=False
                )
            (want,), (tail,), (mass,), k = refs[key]
            assert tails[i] == tail[0]
            assert abs(values[i] - want[0]) <= 1e-12 * mass[0]
            degrees.append(k)
        assert k_used == max(degrees, default=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("coeff", COEFFS)
    def test_product_grid_with_repeated_u(self, n, coeff):
        rng = np.random.default_rng(n)
        u = repeated_u(rng, 60, 17)
        rho_sets = [np.array([0.0, 0.3, 0.9, 0.97]), np.array([0.5, 0.995])]
        self.assert_matches(n, coeff, u, rho_sets)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("coeff", COEFFS)
    def test_paired_points_with_repeated_u(self, n, coeff):
        rng = np.random.default_rng(10 + n)
        u = repeated_u(rng, 40, 9)
        rho = rng.uniform(0.0, 0.99, 40)
        self.assert_points_match(n, coeff, u, rho)

    @pytest.mark.parametrize("n", [2, 3])
    def test_wide_call_streams_the_columns(self, n):
        # 2 098 directions, no u repeated: the table is built over u itself
        u = np.linspace(-1.0, 1.0, 2098)
        self.assert_matches(n, self.COEFFS[0], u, [np.array([0.2, 0.7])])

    @pytest.mark.parametrize("n", [3, 4])
    def test_streamed_pieces_of_few_rows_and_columns(self, n, monkeypatch):
        # tables of one 8-column chunk, over the 2 098 directions at n = 3
        # and the 60 directions (17 distinct u) at n = 4
        monkeypatch.setattr("hball.kernel._TABLE_CHUNK_BYTES", 8 * 3 * 64)
        u = np.linspace(-1.0, 1.0, 2098) if n == 3 else repeated_u(np.random.default_rng(7), 60, 17)
        self.assert_matches(n, self.COEFFS[1], u, [np.array([0.0, 0.5, 0.8])])

    @pytest.mark.parametrize("n", [2, 3])
    def test_deep_sums_with_one_column_chunks(self, n, monkeypatch):
        # chunks one column wide, deep enough to span several degree blocks
        monkeypatch.setattr("hball.kernel._TABLE_CHUNK_BYTES", 8)
        rng = np.random.default_rng(5)
        u = repeated_u(rng, 12, 5)
        self.assert_matches(n, self.COEFFS[0], u, [np.array([0.999])])
        self.assert_points_match(n, self.COEFFS[0], u, np.full(12, 0.999))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_units_and_empty_radius_sets(self, n):
        coeff = self.COEFFS[0]
        self.assert_matches(n, coeff, np.zeros(0), [np.array([0.2, 0.5])])
        self.assert_matches(n, coeff, np.array([0.1, 0.1, -0.4]), [np.zeros(0)])
        self.assert_points_match(n, coeff, np.zeros(0), np.zeros(0))
        grid = eval_coeff_series_grid(n, coeff, np.zeros((0, n)), np.eye(n)[0] * 0.5, [[0.2, 0.5]], tol_rel=1e-9)
        assert grid[0].shape == (2, 0)
        grid = eval_coeff_series_grid(n, coeff, np.eye(n)[[0, 1, 0]], np.eye(n)[0] * 0.5, [[]], tol_rel=1e-9)
        assert grid[0].shape == (0, 3)
        # no u repeated, and no radius to size the products by
        self.assert_matches(n, coeff, np.linspace(-1.0, 1.0, 2098), [np.zeros(0)])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("grid", [True, False])
    def test_same_error_at_the_cap(self, n, grid, monkeypatch):
        # grid: one product grid; otherwise the points u_i, rho_i paired off
        monkeypatch.setattr("hball.kernel.KMAX_DEFAULT", 3000)
        coeff, u, rho = self.COEFFS[0], np.array([0.3, 0.3, 1.0]), np.array([0.5, 0.9999, 0.2])
        # grids take a tolerance relative to the mass, points an absolute one
        tol = {"tol_rel": 1e-10} if grid else {"tol_abs": 1e-10}
        if not grid:
            pole, points, u, rho = self.paired_points(n, u, rho)
        with pytest.raises(NonConvergent) as want:
            streamed_reference(n, coeff, u, [rho], kmax=3000, matmul=grid, **tol)
        with pytest.raises(NonConvergent) as got:
            if grid:
                _series_sum(n, coeff, u, [rho], **tol)
            else:
                eval_coeff_series_points(n, coeff, pole, points, **tol)
        assert str(got.value) == str(want.value)


    def test_an_overflowing_majorant_raises(self):
        # c_k rho^k of kernel(3000) passes the float range by degree 447,
        # where an infinite tail would meet the infinite mass's tolerance
        with pytest.raises(NonConvergent, match="majorant overflows by degree 447"):
            _series_sum(3, CoeffProduct.kernel(3000.0), np.array([0.3, 1.0]), [np.array([0.25, 0.5])], tol_rel=1e-9)


def family_coefficients():
    """(n, c_k) of every series the family's experiments sum: each kernel
    atom of `verification_family` at n = 2, 3 and alpha = 0, 1, alone and
    under each operator pair of the family."""
    out = set()
    for n in (2, 3):
        for alpha in (0.0, 1.0):
            members, designated, _ = verification_family(n, alpha)
            functions = members + [designated]
            for _, f, _ in functions:
                if not isinstance(f.atoms[0], KernelAtom):
                    continue
                out.add((n, _atom_coeff(f.atoms[0])))
                for pair in {pair for _, _, pair in functions}:
                    out.update((n, _atom_coeff(g)) for g in apply_D(f, pair).atoms)
    return sorted(out, key=repr)


class TestStreamedPieces:
    """A series sum builds its tables and products in pieces of at most
    _TABLE_CHUNK_BYTES: beyond its output it holds a few pieces at any
    depth, and its values differ from those of other piece sizes by
    rounding only."""

    @pytest.fixture(scope="class")
    def rule(self):
        return reproducing_rule(3, 0.5, 1.0)

    @pytest.mark.parametrize(("r", "k_used"), [(0.6, 57), (0.9, 281)])
    def test_a_wide_n3_grid_holds_its_output_and_a_few_pieces(self, rule, r, k_used, monkeypatch):
        # D f of the reproducing integral for a kernel atom at r zeta, on the
        # identity battery's rule of 62 radii x 29 161 directions
        f = HarmonicExpansion(3, (KernelAtom(0.3, tuple(r * np.array([0.48, 0.6, 0.64]))),))
        (atom,) = apply_D(f, DiffPair(0.5, 1.0)).atoms
        pole = np.asarray(atom.pole)
        u = np.clip(rule.units @ (pole / np.linalg.norm(pole)), -1.0, 1.0)
        rho = rule.radial_nodes * np.linalg.norm(pole)
        assert np.unique(u).size == u.size  # summed on u itself
        tracemalloc.start()
        try:
            got = _series_sum(3, atom.coeff, u, [rho], tol_rel=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got[0][0].nbytes <= 3 * _TABLE_CHUNK_BYTES
        # pieces as large as the call: one table over all the columns
        monkeypatch.setattr("hball.kernel._TABLE_CHUNK_BYTES", 1 << 62)
        want = _series_sum(3, atom.coeff, u, [rho], tol_rel=1e-9)
        assert got[3] == want[3] == k_used
        assert certified_degree_reference(3, atom.coeff, [rho], tol_rel=1e-9)[2] == k_used
        assert np.array_equal(got[1][0], want[1][0])
        assert np.array_equal(got[2][0], want[2][0])
        # each piece's partial sum is rounded into the output on its own
        assert np.all(np.abs(got[0][0] - want[0][0]) <= 8 * _EPS * want[2][0][:, None])

    def test_a_wide_n2_grid_builds_its_table_in_pieces(self, monkeypatch):
        # 2 000 distinct u, summed on u itself; near the boundary, so
        # K = 13 136
        coeff = CoeffProduct.kernel(-3.5).shifted(0.5, 1.0)
        theta = np.linspace(0.0, np.pi, 2000)
        units = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pole, radii = np.array([0.999, 0.0]), np.array([0.5, 0.9, 1.0])
        u = np.clip(units @ np.array([1.0, 0.0]), -1.0, 1.0)
        assert np.unique(u).size == u.size
        monkeypatch.setattr("hball.kernel._LOG_TABLES", _LogTables())
        tracemalloc.start()
        try:
            (values,) = eval_coeff_series_grid(2, coeff, units, pole, [radii], tol_rel=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - values.nbytes <= 3 * _TABLE_CHUNK_BYTES
        got = _series_sum(2, coeff, u, [radii * 0.999], tol_rel=1e-9)
        assert np.array_equal(got[0][0], values)
        # tables of one 8-column chunk (rows over all the columns would take
        # 65 MB per degree block)
        monkeypatch.setattr("hball.kernel._TABLE_CHUNK_BYTES", 1 << 12)
        want = _series_sum(2, coeff, u, [radii * 0.999], tol_rel=1e-9)
        assert got[3] == want[3] == 13_136
        assert np.array_equal(got[1][0], want[1][0])
        assert np.array_equal(got[2][0], want[2][0])
        assert np.all(np.abs(got[0][0] - want[0][0]) <= 8 * _EPS * want[2][0][:, None])

    def test_ring_spectra_hold_their_table_and_two_chunks(self, rule, monkeypatch):
        rings = rule.sphere.rings
        t = _meridian_frame(rule.units, rings)[3]
        rng = np.random.default_rng(4)
        weighted = rng.normal(size=(rule.radial_nodes.shape[0], rule.units.shape[0]))
        tracemalloc.start()
        try:
            table, half = _ring_spectra(weighted, rings.index, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + 2 * _TABLE_CHUNK_BYTES
        # every radius in one chunk: the same products, bit for bit
        monkeypatch.setattr("hball.kernel._TABLE_CHUNK_BYTES", 1 << 62)
        want, want_half = _ring_spectra(weighted, rings.index, t)
        assert half == want_half
        assert np.array_equal(table.view(np.int64), want.view(np.int64))


class TestHeldDegreeBlocks:
    """Pass 1 computes each c_k rho^k once per call, and pass 2 at n = 3
    holds nothing at radii x K: its rows come from the radial factors of
    one degree block and the coefficient factors pass 1 computed at the
    largest radius; pass 1 reads the head of its tail bound off a block one
    degree longer."""

    def test_each_degree_is_computed_once(self, monkeypatch):
        coeff = CoeffProduct.kernel(-3.0)
        u = np.concatenate([[-1.0, 1.0], np.random.default_rng(3).uniform(-1.0, 1.0, 14)])
        rho_sets = [np.array([0.0, 0.6, 0.99]), np.array([0.995])]
        one = _series_sum(3, coeff, u, rho_sets, tol_rel=1e-10)
        k_end = one[3] + 1
        # pass 1 computes the whole block that holds K
        block_end = next(k0 + size for k0, size in _degree_blocks(KMAX_DEFAULT) if k0 + size >= k_end)
        calls = []

        def counted(log_c, kf, log_rho):
            calls.append((kf, log_rho.shape[0]))
            return _powers(log_c, kf, log_rho)

        monkeypatch.setattr("hball.kernel._powers", counted)
        again = _series_sum(3, coeff, u, rho_sets, tol_rel=1e-10)
        blocks = [k0 for k0, _ in _degree_blocks(KMAX_DEFAULT) if k0 < block_end]
        pass_1, (steps, starts) = calls[: len(blocks)], calls[len(blocks) :]
        assert np.array_equal(np.concatenate([kf for kf, _ in pass_1]), np.arange(block_end, dtype=float))
        # pass 2 computes only the radial factors (rho/rho_ref)^j within a
        # block and (rho/rho_ref)^k0 at each block start
        pass_2 = list(_degree_blocks(k_end - 1))
        assert np.array_equal(steps[0], np.arange(max(size for _, size in pass_2), dtype=float))
        assert np.array_equal(starts[0], np.array([k0 for k0, _ in pass_2], dtype=float))
        assert again[3] == one[3]
        for got, want in zip(again[0] + again[1] + again[2], one[0] + one[1] + one[2]):
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("k0", [0, 4096])
    def test_powers_are_the_formula_bit_for_bit(self, k0):
        kf = np.arange(k0, k0 + 300, dtype=float)
        log_c = CoeffProduct.kernel(-5.5).log_values(3, kf)
        rho = np.array([0.0, 0.3, 0.9, 1.0 - 2.0**-40])
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            log_rho = np.log(rho)
            log_pow = np.where(kf[None, :] == 0.0, 0.0, kf[None, :] * log_rho[:, None])
            want = np.exp(log_c[None, :] + log_pow)
            got = _powers(log_c, kf, log_rho)
        assert np.array_equal(got, want)
        assert np.all(got[0, kf > 0.0] == 0.0)
        assert np.all(got[:, kf == 0.0] == 1.0)  # 0^0 = 1 at rho = 0 too

    @pytest.mark.parametrize(("n", "coeff"), family_coefficients(), ids=repr)
    def test_the_tail_head_is_the_scalar_evaluation(self, n, coeff):
        for k0, size in _degree_blocks(KMAX_DEFAULT):
            kf = np.arange(k0, k0 + size + 1, dtype=float)
            log_c = coeff.log_values(n, kf)
            log_h = log_dim_spherical_harmonics(n, kf)
            k1 = np.array([float(k0 + size)])
            assert log_c[size] == coeff.log_values(n, k1)[0]
            assert log_h[size] == log_dim_spherical_harmonics(n, k1)[0]
            # and the block itself is what the block alone gives
            assert np.array_equal(log_c[:size], coeff.log_values(n, kf[:size]))
            assert np.array_equal(log_h[:size], log_dim_spherical_harmonics(n, kf[:size]))

    def test_one_legendre_path(self):
        u = np.array([-1.0, -0.3, 0.0, 0.8, 1.0])
        p = _legendre_table(u, 5000)
        ks = np.arange(5000, dtype=float)
        assert np.array_equal(p[:, [0, -1]], np.stack([(-1.0) ** ks, np.ones(5000)], axis=1))
        assert np.array_equal(p[:, 1:4], legendre_p_all(4999, u[1:4])[0])
        q = zonal_angular_table(3, u, 0, 5000)
        assert np.array_equal(q, p * (2.0 * ks + 1.0)[:, None])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def coefficient_products():
    """Products of 1 to 3 factors with exponents +-1, their orders drawn on
    both branches of every n in {2, 3, 4} and on the branch boundaries."""
    order = st.one_of(
        st.floats(-9.0, 5.0, allow_nan=False).map(lambda a: round(a, 3)),
        st.sampled_from([-2.0, -2.5, -3.0]),
    )
    factors = st.lists(st.tuples(order, st.sampled_from([1, -1])), min_size=1, max_size=3)
    return factors.map(lambda f: CoeffProduct(tuple(f)))


def fixed_blocks(kmax):
    """Degree blocks of 16 rows, the last one ending at kmax."""
    for k0 in range(0, kmax + 1, 16):
        yield k0, min(16, kmax - k0 + 1)


def exact_n3_kernel0(rho, u):
    """sum_k gamma_k(0) Z_k at n = 3 on the grid rho x u, gamma_k(0) =
    (2k+3)/3 and Z_k = (2k+1) P_k(u) rho^k, in 50-digit mpmath: (1/3) (2D+3)
    (2D+1) G with D = rho d/drho and G = (1 - 2 u rho + rho^2)^(-1/2), the
    Legendre generating function; that is G + 4 rho G' + (4/3) rho^2 G''."""
    values = np.empty((len(rho), len(u)))
    with mpmath.workdps(50):
        for i, r in enumerate(rho):
            for j, c in enumerate(u):
                r_, c_ = mpmath.mpf(r), mpmath.mpf(c)
                s = 1 - 2 * c_ * r_ + r_ * r_
                g1 = -(r_ - c_) * s ** mpmath.mpf(-1.5)
                g2 = -(s ** mpmath.mpf(-1.5)) + 3 * (r_ - c_) ** 2 * s ** mpmath.mpf(-2.5)
                values[i, j] = float(s ** mpmath.mpf(-0.5) + 4 * r_ * g1 + mpmath.mpf(4) / 3 * r_ * r_ * g2)
    return values


class TestSmallestCertifiedDegree:
    """Pass 1 stops at the smallest degree whose tail bound certifies every
    rho set: the same degree, tails and masses whatever the degree blocks,
    the test met at K and not at K - 1, and values within the tolerance of
    the exact sum."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        coeff=coefficient_products(),
        rho_sets=st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 0.99), st.floats(0.9, 0.99)), max_size=4
            ).map(lambda r: np.array(r, dtype=float)),
            min_size=1,
            max_size=3,
        ),
        tol=st.sampled_from([(0.0, 1e-10), (1e-8, 0.0), (1e-12, 1e-6)]),
    )
    def test_the_degree_does_not_depend_on_the_blocks(self, n, coeff, rho_sets, tol):
        rho, sets = _stack(rho_sets)
        kw = dict(tol_abs=tol[0], tol_rel=tol[1])
        try:
            want = _certified_degree(n, coeff, rho, sets, **kw)
        except NonConvergent:
            # an overflowing majorant, reported at the end of its block
            with pytest.MonkeyPatch.context() as mp, pytest.raises(NonConvergent):
                mp.setattr("hball.kernel._degree_blocks", fixed_blocks)
                _certified_degree(n, coeff, rho, sets, **kw)
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("hball.kernel._degree_blocks", fixed_blocks)
            got = _certified_degree(n, coeff, rho, sets, **kw)
        k = want[2]
        assert got[2] == k
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(bits(a), bits(b))
        if rho.size:
            factors = [np.concatenate(r[3]) for r in (got, want)]
            assert factors[0].shape == (k + 1,)
            assert np.array_equal(bits(factors[0]), bits(factors[1]))

        def holds(degree):
            """The reference test at `degree` alone: (tails, masses) or None."""
            try:
                ref = certified_degree_reference(
                    n, coeff, rho_sets, tol_abs=tol[0], tol_rel=tol[1], kmax=degree, min_terms=degree
                )
            except NonConvergent:
                return None
            return ref[:2]

        ref = holds(k)
        assert ref is not None
        for a, b in zip(ref[0] + ref[1], want[0] + want[1]):
            assert np.array_equal(bits(a), bits(b))
        if k > 1:
            assert holds(k - 1) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_an_all_zero_set_stops_at_the_first_degree_allowed(self, n):
        coeff = CoeffProduct.kernel(0.0)
        u = np.array([-1.0, 0.2, 1.0])
        values, tails, masses, k = _series_sum(n, coeff, u, [np.zeros(3)], tol_rel=1e-9)
        assert k == 1
        assert np.all(values[0] == 1.0) and np.all(tails[0] == 0.0) and np.all(masses[0] == 1.0)
        values, tails, k = eval_coeff_series_points(n, coeff, 0.5 * np.eye(n)[0], np.zeros((2, n)), tol_abs=1e-9)
        assert k == 1 and np.all(values == 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_point_is_the_point_alone(self, n):
        coeff, pole = TestTwoPassSum.COEFFS[1], 0.9 * np.eye(n)[0]
        points = points_at_norms(np.random.default_rng(n), n, [0.1, 0.5, 0.95])
        values, tails, k = eval_coeff_series_points(n, coeff, pole, points, tol_abs=1e-10)
        alone = [eval_coeff_series_points(n, coeff, pole, x[None, :], tol_abs=1e-10) for x in points]
        # each point stops at its own degree; the call reports the largest
        assert k == max(a[2] for a in alone) > min(a[2] for a in alone)
        for v, t, (one_v, one_t, _) in zip(values, tails, alone):
            assert bits(v) == bits(one_v[0]) and bits(t) == bits(one_t[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_factors_are_the_terms_at_the_largest_radius(self, n):
        # s_k c_k rho_max^k up to K, whatever the sets; K at rho_max = 0.99
        # spans several degree blocks
        kw = dict(tol_abs=0.0, tol_rel=1e-10)
        for coeff in TestTwoPassSum.COEFFS:
            for rho_sets in ([np.array([0.3, 0.99, 0.0])], [np.array([0.5]), np.array([0.2, 0.9])]):
                rho, sets = _stack(rho_sets)
                _, _, k, factors = _certified_degree(n, coeff, rho, sets, **kw)
                ks = np.arange(k + 1, dtype=float)
                scale = 2.0 * ks + 1.0 if n == 3 else 1.0
                want = np.exp(coeff.log_values(n, ks) + ks * math.log(rho.max())) * scale
                assert [f.shape[0] for f in factors] == [size for _, size in _degree_blocks(k)]
                assert np.array_equal(bits(np.concatenate(factors)), bits(want))
        _, _, k, factors = _certified_degree(n, coeff, np.zeros(0), [slice(0, 0)], **kw)
        assert k == 1 and factors == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pass_one_is_a_function_of_its_arguments(self, n, monkeypatch):
        # the same (tails, masses, K, factors) from cold and warm log tables,
        # and after calls that grow or replace them
        coeff = TestTwoPassSum.COEFFS[1]
        rho, sets = _stack([np.array([0.2, 0.95]), np.array([0.0, 0.7])])

        def run():
            tails, masses, k, factors = _certified_degree(
                n, coeff, rho, sets, tol_abs=1e-12, tol_rel=1e-9
            )
            return [bits(a) for a in (*tails, *masses, np.array([k]), *factors)]

        monkeypatch.setattr("hball.kernel._LOG_TABLES", _LogTables())
        cold = run()
        for warm_up in (
            lambda: None,  # the tables as the first call left them
            lambda: _series_sum(n, coeff, np.ones(1), [np.array([0.999])], tol_rel=1e-10),
            lambda: _series_sum(n, CoeffProduct.kernel(1.5), np.ones(1), [np.array([0.99])], tol_rel=1e-10),
        ):
            warm_up()
            for got, want in zip(run(), cold, strict=True):
                assert np.array_equal(got, want)

    def test_grids_near_the_boundary_are_within_the_tolerance_of_mpmath(self):
        # n = 2 through the series path (the grid itself takes the closed
        # form), n = 3 through the grid; u = 1 is the pole's direction, where
        # every term of the tail is positive
        u = np.array([-1.0, -0.3, 0.0, 0.5, 0.99, 1.0])
        rho = np.array([0.2, 0.9, 0.97, 0.99])
        for n, alpha, exact in ((2, 0.3, lambda r, c: closed_form_reference(0.3, r, c)[0]), (3, 0.0, exact_n3_kernel0)):
            coeff = CoeffProduct.kernel(alpha)
            if n == 2:
                (values,), _, (mass,), k = _series_sum(2, coeff, u, [rho], tol_rel=1e-10)
            else:
                units = np.stack([u, np.sqrt(1.0 - u**2), np.zeros_like(u)], axis=1)
                (values,) = eval_coeff_series_grid(3, coeff, units, np.eye(3)[0], [rho], tol_rel=1e-10)
                _, _, (mass,), k = _series_sum(3, coeff, u, [rho], tol_rel=1e-10)
            assert k == certified_degree_reference(n, coeff, [rho], tol_rel=1e-10)[2]
            assert np.all(np.abs(values - exact(rho, u)) <= 1e-10 * mass[:, None])

    @pytest.mark.parametrize("n", [2, 3])
    def test_rule_sums_near_the_boundary_are_within_the_tolerance_of_mpmath(self, n):
        alpha, exact = (0.3, lambda r, c: closed_form_reference(0.3, r, c)[0]) if n == 2 else (0.0, exact_n3_kernel0)
        coeff = CoeffProduct.kernel(alpha)
        rng, radii, sphere, weighted = TestRuleSum.rule(n, 30 + n, degree=8, r=4)
        points = np.vstack([points_at_norms(rng, n, [0.5, 0.99]), 0.99 * sphere.units[:1]])
        values, degrees = eval_coeff_series_rule_sum(
            n, coeff, points, radii, sphere.units, weighted, sphere.rings, tol_rel=1e-10
        )
        for x, v, k in zip(points, values, degrees):
            norm = np.linalg.norm(x)
            _, (mass,), k_want = certified_degree_reference(n, coeff, [radii * norm], tol_rel=1e-10)
            assert k == k_want
            u = np.clip(sphere.units @ (x / norm), -1.0, 1.0)
            want = float(np.sum(exact(radii * norm, u) * weighted))
            assert abs(v - want) <= 1e-10 * float(mass @ np.abs(weighted).sum(axis=1))


def n3_family_coefficients():
    """The coefficients of the family's n = 3 series (`family_coefficients`)."""
    return [coeff for n, coeff in family_coefficients() if n == 3]


def poisson_lifted(poly, rho, u):
    """sum_k poly(k) (2k+1) P_k(u) rho^k in 50-digit mpmath, for a
    polynomial poly given by its coefficients in k (lowest first): poly(D)
    applied to the Poisson kernel G = (1 - rho^2) / (1 - 2 u rho +
    rho^2)^(3/2) of the ball in R^3, D = rho d/drho = d/dt at rho = e^t."""
    with mpmath.workdps(50):
        r, c = mpmath.mpf(float(rho)), mpmath.mpf(float(u))

        def g(t):
            x = mpmath.exp(t)
            return (1 - x**2) / (1 - 2 * c * x + x**2) ** mpmath.mpf(1.5)

        return float(sum(a * mpmath.diff(g, mpmath.log(r), m) for m, a in enumerate(poly)))


class TestBatchedSeries:
    """A batch of coefficients on one grid shares its angular table,
    multiplied _TABLE_COLUMNS columns at a time: each coefficient's results
    are its batch of one, bit for bit, and each value is that of its
    direction summed alone."""

    U = np.concatenate([[-1.0, 1.0, 0.0], np.random.default_rng(11).uniform(-1.0, 1.0, 14)])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.one_of(coefficient_products(), st.sampled_from(n3_family_coefficients())),
            min_size=1,
            max_size=9,
        ),
        rho_sets=st.lists(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.99)), max_size=4).map(
                lambda r: np.array(r, dtype=float)
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_each_coefficient_is_its_batch_of_one(self, n, coeffs, rho_sets):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("hball.kernel.KMAX_DEFAULT", 3000)
            batch = _series_sums(n, coeffs, self.U, rho_sets, tol_rel=1e-10)
            alone = [_series_sums(n, [coeff], self.U, rho_sets, tol_rel=1e-10)[0] for coeff in coeffs]
        for got, want in zip(batch, alone, strict=True):
            if isinstance(want, NonConvergent):
                assert isinstance(got, NonConvergent) and str(got) == str(want)
                continue
            assert got[3] == want[3]
            for a, b in zip(got[0] + got[1] + got[2], want[0] + want[1] + want[2], strict=True):
                assert np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_value_is_its_direction_alone(self, n):
        # 2 000 distinct u, summed on u itself: 250 chunks of 8 columns,
        # the picked directions at the first, second and last position of a
        # chunk
        u = np.linspace(-1.0, 1.0, 2000)
        rho_sets = [np.array([0.0, 0.3, 0.9, 0.995]), np.array([0.5])]
        coeffs = n3_family_coefficients()[:9]
        assert len(coeffs) == 9
        wide = _series_sums(n, coeffs, u, rho_sets, tol_rel=1e-10)
        for i, coeff in enumerate(coeffs):
            for j in (0, 1, 7, 8, 9, 1000, 1999):
                (one,) = _series_sums(n, [coeff], u[j : j + 1], rho_sets, tol_rel=1e-10)
                for a, b in zip(one[0], wide[i][0], strict=True):
                    assert np.array_equal(bits(a[:, 0]), bits(b[:, j]))
        # alone over the 2 000 directions, a coefficient's rows take fewer
        # bytes than a table and are kept over its tables
        for i, coeff in enumerate(coeffs[:3]):
            (alone,) = _series_sums(n, [coeff], u, rho_sets, tol_rel=1e-10)
            for a, b in zip(alone[0], wide[i][0], strict=True):
                assert np.array_equal(bits(a), bits(b))

    def test_pass_2_holds_one_table_at_a_time(self, monkeypatch):
        # 200 distinct u at K = 60 885: 25 tables of 8 columns, 3.9 MB each
        coeff = CoeffProduct.kernel(0.5)
        u = np.linspace(-0.95, 0.95, 200)
        rho_sets = [np.array([0.2, 0.5, 0.9995])]
        _series_sums(3, [coeff], u, rho_sets, tol_rel=1e-10)  # the log tables
        tracemalloc.start()
        try:
            ((values, _, _, k_used),) = _series_sums(3, [coeff], u, rho_sets, tol_rel=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = 8 * (_TABLE_CHUNK_BYTES // (8 * (k_used + 1) * 8))
        table = 8 * (k_used + 1) * width
        assert width == 8 and table > 3 * (1 << 20)
        # the output and the accumulated grid, one table, the factors and
        # the kept rows (K+1 values per radius), and pass 1's last block
        assert peak <= 2 * values[0].nbytes + table + 5 * 8 * (k_used + 1) + (1 << 19)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_coefficient_at_the_cap_leaves_the_others(self, n, monkeypatch):
        # at rho = 0.99 the three series certify at K = 2 623, 8 149 and 906
        # at n = 2, 2 899, 8 300 and 1 384 at n = 3, 3 153, 8 453 and 1 880
        # at n = 4
        coeffs = [CoeffProduct.kernel(0.0), CoeffProduct.kernel(30.0), CoeffProduct.kernel(-4.0)]
        rho_sets = [np.array([0.2, 0.99])]
        monkeypatch.setattr("hball.kernel.KMAX_DEFAULT", 4000)
        batch = _series_sums(n, coeffs, self.U, rho_sets, tol_rel=1e-10)
        assert isinstance(batch[1], NonConvergent)
        with pytest.raises(NonConvergent) as alone:
            _series_sum(n, coeffs[1], self.U, rho_sets, tol_rel=1e-10)
        assert str(batch[1]) == str(alone.value)
        for i in (0, 2):
            want = _series_sum(n, coeffs[i], self.U, rho_sets, tol_rel=1e-10)
            assert batch[i][3] == want[3]
            for a, b in zip(batch[i][0] + batch[i][1] + batch[i][2], want[0] + want[1] + want[2]):
                assert np.array_equal(bits(a), bits(b))

    def test_a_coefficient_past_the_float_range(self):
        # c_k of kernel(1000) passes the float range before K = 600, while
        # c_k rho^k stays below 1e157 at rho = 0.3; the reference sums the
        # terms (2k+1) c_k rho^k P_k(u) with c_k rho^k = exp(log c_k + k log
        # rho), as pass 2 did before it split them into (rho/rho_ref)^k and
        # (2k+1) c_k rho_ref^k
        coeff = CoeffProduct.kernel(1000.0)
        rho = np.array([0.3, 0.24])
        (values,), _, (mass,), k = _series_sum(3, coeff, self.U, [rho], tol_rel=1e-10)
        assert np.any(coeff.log_values(3, np.arange(k + 1, dtype=float)) > math.log(np.finfo(float).max))
        kf = np.arange(k + 1, dtype=float)
        with np.errstate(under="ignore"):
            p = _powers(coeff.log_values(3, kf), kf, np.log(rho)) * (2.0 * kf + 1.0)
        want = p @ _legendre_table(self.U, k + 1)
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values - want) <= 4 * _EPS * mass[:, None])

    def test_a_shell_12_batch_is_within_the_tolerance_of_mpmath(self):
        # the n = 3 inclusion grid's deepest shell, radii in [1 - 2^-11,
        # 1 - 2^-12]; c_k = P(k) for each kernel, P(k) = prod_i (1.5+i+k) /
        # (1.5+i), i <= alpha (upper branch, integer alpha >= -1)
        grid = shell_decomposition(3, 12, foci=((1.0, 0.0, 0.0),))
        radii, units = grid.shells[11].nodes, grid.spheres[11].units
        coeffs = [CoeffProduct.kernel(a) for a in (-1.0, 0.0, 1.0)]
        coeffs.append(CoeffProduct.kernel(-1.0).shifted(0.0, 1.0))  # (2k+5)/5
        polys = [[1.0], [1.0, 2.0 / 3.0], [1.0, 16.0 / 15.0, 4.0 / 15.0], [1.0, 2.0 / 5.0]]
        batch = eval_coeff_series_grids(3, coeffs, (1.0, 0.0, 0.0), [(radii, units, None)], tol_rel=1e-10)
        u = np.clip(units[:, 0], -1.0, 1.0)
        sums = _series_sums(3, coeffs, u, [radii], tol_rel=1e-10)
        picks = [int(np.argmax(u))] + list(np.random.default_rng(12).choice(u.shape[0], 4, replace=False))
        for (values,), (_, _, (mass,), k), poly in zip(batch, sums, polys, strict=True):
            assert k > 50_000
            for i in (0, radii.shape[0] // 2, radii.shape[0] - 1):
                for j in picks:
                    exact = poisson_lifted(poly, radii[i], u[j])
                    assert abs(values[i, j] - exact) <= 2e-10 * mass[i]


class TestLogTables:
    """The held log-coefficient tables serve every degree block: each value
    bit for bit the fresh evaluation, whatever the table held before, and
    the held bytes within 16 (k_c + sum_n k_n)."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4]),
        coeff=coefficient_products(),
        requests=st.lists(
            st.tuples(st.integers(-100, 1500), st.integers(1, 700)), min_size=1, max_size=10
        ),
    )
    def test_served_blocks_are_the_fresh_values_bit_for_bit(self, n, coeff, requests):
        # each request starts `back` degrees before the end of the degrees
        # asked so far from 0: re-reads, growth and, for back < 0, gaps
        tables, asked = _LogTables(), 0
        for back, size in requests:
            k0 = max(0, asked - back)
            if k0 <= asked:
                asked = max(asked, k0 + size)
            ks = np.arange(k0, k0 + size, dtype=float)
            log_c = tables.coeffs(n, coeff).block(k0, k0 + size)
            log_h = tables.dims(n).block(k0, k0 + size)
            assert np.array_equal(bits(log_c), bits(coeff.log_values(n, ks)))
            assert np.array_equal(bits(log_h), bits(log_dim_spherical_harmonics(n, ks)))
            assert not log_c.flags.writeable and not log_h.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_results_do_not_depend_on_the_held_table(self, n, monkeypatch):
        coeff = CoeffProduct.kernel(-2.7).shifted(0.4, 1.1)  # no n = 2 closed form
        rng = np.random.default_rng(20 + n)
        units = rng.normal(size=(40, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        pole = 0.9 * units[0]
        radii_sets = [np.array([0.0, 0.5, 0.99]), np.array([0.999])]
        u = np.clip(units @ units[0], -1.0, 1.0)
        if n in (2, 3):
            _, radii, sphere, weighted = TestRuleSum.rule(n, n)
            points = TestRuleSum.stack(rng, n)

        def run():
            out = list(eval_coeff_series_grid(n, coeff, units, pole, radii_sets, tol_rel=1e-10))
            values, tails, masses, k_used = _series_sum(
                n, coeff, u, [r * 0.9 for r in radii_sets], tol_rel=1e-10
            )
            out += values + tails + masses + [np.array([k_used])]
            out += eval_coeff_series_points(n, coeff, pole, 0.7 * units[:5], tol_abs=1e-10)[:2]
            if n in (2, 3):
                out += TestRuleSum.sums(n, coeff, points, radii, sphere, weighted, tol_rel=1e-9)
            return [bits(a) for a in out]

        monkeypatch.setattr("hball.kernel._LOG_TABLES", _LogTables())
        cold = run()
        for warm_up in (
            lambda: None,  # the same coefficient, as deep as the calls
            lambda: _series_sum(n, coeff, np.ones(1), [np.array([0.999])], tol_rel=1e-10),
            lambda: _series_sum(n, CoeffProduct.kernel(1.5), np.ones(1), [np.array([0.99])], tol_rel=1e-10),
        ):
            warm_up()
            for got, want in zip(run(), cold, strict=True):
                assert np.array_equal(got, want)

    def test_held_bytes_keep_the_rule_over_a_walk(self, monkeypatch):
        tables = _LogTables()
        monkeypatch.setattr("hball.kernel._LOG_TABLES", tables)
        # the largest degree end of the kept requests of each table, as the
        # calls make them (pass 1 asks up to the end of the block that
        # holds K, plus one)
        ends = {}
        block = _DegreeTable.block

        def recorded(table, k0, k_end):
            if k0 <= table._state[1]:
                ends[table] = max(ends.get(table, 0), k_end)
            return block(table, k0, k_end)

        monkeypatch.setattr(_DegreeTable, "block", recorded)
        # batches of 1 to 4 coefficients; the deep walks come first, so a
        # table kept for an earlier batch would break the rule for the
        # shallow ones after it
        rhos = np.linspace(0.9995, 0.3, 24)
        walk = [
            (2 + i % 3, [CoeffProduct.kernel(-4.0 + 0.25 * (i + j)).shifted(0.1 * i, 1.0) for j in range(1 + i % 4)], rho)
            for i, rho in enumerate(rhos)
        ]
        walk += [(n, coeffs, 0.5 * rho) for n, coeffs, rho in walk[::-5]]  # revisits
        for n, coeffs, rho in walk:
            for scale in (1.0, 0.5):
                _series_sums(n, coeffs, np.array([0.3]), [np.array([scale * rho])], tol_rel=1e-10)
                held = list(tables._coeffs.values()) + list(tables._dims.values())
                assert tables.nbytes <= 16 * sum(ends[t] for t in held)
            # a lookup past the held degrees is served but not kept
            before = tables.nbytes
            end = ends[tables._coeffs[(n, coeffs[0])]]
            log_coeff_block(n, coeffs[0], end + 10, end + 11)
            assert tables.nbytes == before


class TestStreamedRecurrence:
    """`_ZonalAngular` steps in place on rolling buffers; its rows are the
    per-degree loop's bit for bit."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_equal_the_loop(self, n):
        rng = np.random.default_rng(20 + n)
        u = repeated_u(rng, 300, 280)
        stream, state = _ZonalAngular(n, u), [None, None]
        for k0, size in [(0, 1), (1, 1), (2, 64), (66, 200)]:
            assert np.array_equal(stream.block(k0, size), recurrence_rows(n, u, k0, size, state))
        with pytest.raises(ValueError, match="at degree 266"):
            stream.block(0, 1)


class TestAssociatedLegendre:
    """The rows of `_AssociatedLegendre` satisfy the addition theorem
        (2k+1) P_k(cos t cos t' + sin t sin t' cos phi)
            = sum_m (2 - delta_m0) y_k^m(t) y_k^m(t') cos(m phi)
    against scipy's Legendre polynomials, for every degree up to the K* of
    the largest rule the rule-sum tests use, with no inf or NaN on the way:
    at the poles (sin t = 0), at the equator and on the rings next to the
    poles (sin t ~ 0.02)."""

    @staticmethod
    def columns():
        q = reproducing_rule(3, 0.5, 1.0)
        rings = q.sphere.rings
        polar = q.units[rings.index[0]] @ rings.a[0]  # the rings' cosines
        near_pole = polar[np.argmax(np.abs(polar))]
        t = np.array([1.0, -1.0, 0.0, near_pole, -near_pole, 0.3, -0.77])
        return int(_shared_degree(rings)), t, np.sqrt((1.0 - t) * (1.0 + t))

    def test_addition_theorem_up_to_the_shared_degree(self):
        k_star, t, s = self.columns()
        assert k_star > 2000 and s[3] < 0.021
        # (first, second, phi): pole with pole, pole with ring, ring pairs
        pairs = [(0, 0, 0.0), (0, 1, 0.0), (0, 3, 0.4), (1, 4, 2.0), (2, 2, 0.0), (2, 5, 1.1),
                 (3, 3, 0.0), (3, 3, 0.05), (3, 4, 3.0), (4, 6, 0.7), (5, 6, 2.9)]
        first, second, phi = (np.array(c) for c in zip(*pairs))
        u = np.clip(t[first] * t[second] + s[first] * s[second] * np.cos(phi), -1.0, 1.0)
        want = legendre_p_all(k_star, u)[0]
        want[:, np.abs(u) == 1.0] = u[np.abs(u) == 1.0] ** np.arange(k_star + 1.0)[:, None]
        rows = _AssociatedLegendre(t, s, k_star)
        m2 = np.arange(k_star + 1.0) ** 2
        for k in range(k_star + 1):
            a, b = _legendre_factors(k, m2) if k else (None, None)
            y = rows.step(a, b, t.shape[0]) * _SEED_UNSCALE
            assert np.all(np.isfinite(y))
            weight = np.where(np.arange(k + 1) == 0, 1.0, 2.0)[:, None]
            got = np.sum(weight * y[:, first] * y[:, second] * np.cos(np.outer(np.arange(k + 1), phi)), axis=0)
            assert np.all(np.abs(got - (2 * k + 1) * want[k]) <= 1e-10 * (2 * k + 1))

    def test_norms_up_to_the_seed_limit(self):
        # sum_m (2 - delta_m0) (y_k^m)^2 = 2k+1 for every degree K* may
        # reach on any rule, on the columns whose seeds shrink fastest
        # (sin t = 1/e) and slowest, next to the pole and at the equator
        s = np.array([math.exp(-1.0), 0.0198, 0.6, 1.0])
        t = np.sqrt((1.0 - s) * (1.0 + s))
        rows = _AssociatedLegendre(t, s, _SEED_MAX_DEGREE)
        m2 = np.arange(_SEED_MAX_DEGREE + 1.0) ** 2
        for k in range(_SEED_MAX_DEGREE + 1):
            a, b = _legendre_factors(k, m2) if k else (None, None)
            y = rows.step(a, b, s.shape[0]) * _SEED_UNSCALE
            weight = np.where(np.arange(k + 1) == 0, 1.0, 2.0)[:, None]
            norm2 = np.sum(weight * y * y, axis=0)
            assert np.all(np.abs(norm2 - (2 * k + 1)) <= 1e-10 * (2 * k + 1))


class TestRuleSum:
    """Sums against radial moments shared by the points, on product sphere
    rules: the same degree as each point's own grid series, the same value
    within 1e-12 of its mass, and the value the point gets alone, whichever
    path (shared transform or its own grid series) it takes."""

    COEFFS = TestTwoPassSum.COEFFS

    @staticmethod
    def rule(n, seed, degree=20, r=12, sphere=None):
        """Random radii and weighted values on the product rule
        `sphere_rule(n, degree)`, or on `sphere`."""
        rng = np.random.default_rng(seed)
        sphere = sphere_rule(n, degree) if sphere is None else sphere
        radii = np.append(np.sort(rng.uniform(0.0, 0.999, r - 1)), 0.999)
        return rng, radii, sphere, rng.normal(size=(r, sphere.units.shape[0])) * sphere.weights

    @staticmethod
    def sums(n, coeff, points, radii, sphere, weighted, **kw):
        return eval_coeff_series_rule_sum(
            n, coeff, points, radii, sphere.units, weighted, sphere.rings, **kw
        )

    def assert_matches(self, n, coeff, points, radii, sphere, weighted):
        values, degrees = self.sums(n, coeff, points, radii, sphere, weighted, tol_rel=1e-9)
        assert values.shape == degrees.shape == (points.shape[0],)
        for x, v, k in zip(points, values, degrees):
            want, mass, k_want = rule_sum_reference(n, coeff, x, radii, sphere.units, weighted, 1e-9)
            assert k == k_want
            assert abs(v - want) <= 1e-12 * mass
            alone, _ = self.sums(n, coeff, x[None, :], radii, sphere, weighted, tol_rel=1e-9)
            assert alone[0] == v
        return degrees

    @staticmethod
    def stack(rng, n):
        """Points at the origin, on the pole axis both ways and at random,
        over degrees in each of the first three degree blocks."""
        axis = np.eye(n)[-1]
        points = points_at_norms(rng, n, [0.3, 0.93, 0.0, 0.8, 0.5, 0.93])
        return np.vstack([points, 0.8 * axis, -0.5 * axis])

    # the stack's degrees for each n and coefficient: two in the first
    # degree block (0..63), one in the second and one in the third
    STACK_DEGREES = {
        (2, COEFFS[0]): [0, 19, 34, 106, 325],
        (2, COEFFS[1]): [0, 16, 27, 83, 252],
        (3, COEFFS[0]): [0, 21, 37, 118, 362],
        (3, COEFFS[1]): [0, 17, 31, 97, 299],
    }

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("coeff", COEFFS)
    def test_stack_with_the_origin_across_three_degree_blocks(self, n, coeff):
        # 65 azimuths put K* above 447, the end of the third block: every
        # point takes the shared path
        rng, radii, sphere, weighted = self.rule(n, 40 + n, degree=64)
        if n == 3:
            assert _shared_degree(sphere.rings) > 447
        degrees = self.assert_matches(n, coeff, self.stack(rng, n), radii, sphere, weighted)
        assert sorted(set(degrees)) == self.STACK_DEGREES[n, coeff]

    @pytest.mark.parametrize("degree", [21, 22], ids=["even-azimuths", "even-rings"])
    @pytest.mark.parametrize("coeff", COEFFS)
    def test_a_stack_straddling_the_shared_degree(self, coeff, degree):
        # 22 or 23 azimuths put K* between 191 and 447: the deepest points
        # sum their own grid series, the others take the shared path
        rng, radii, sphere, weighted = self.rule(3, 7, degree=degree)
        k_star = _shared_degree(sphere.rings)
        degrees = self.assert_matches(3, coeff, self.stack(rng, 3), radii, sphere, weighted)
        assert min(d for d in degrees if d > 0) <= k_star < max(degrees)

    @pytest.mark.parametrize("coeff", COEFFS)
    def test_points_past_the_seed_limit_sum_their_own_grid(self, coeff):
        # K_x above _SEED_MAX_DEGREE, where the shared path would be inexact,
        # on a rule of 45 nodes: on the pole axis (repeated cosines), at
        # random, and a shallow point that takes the shared path beside them
        rng, radii, sphere, weighted = self.rule(3, 12, degree=8)
        axis = np.eye(3)[-1]
        points = np.vstack([0.995 * axis, points_at_norms(rng, 3, [0.995, 0.5])])
        degrees = self.assert_matches(3, coeff, points, radii, sphere, weighted)
        assert min(degrees[:2]) > _SEED_MAX_DEGREE and degrees[2] <= _shared_degree(sphere.rings)

    def test_a_deep_point_on_the_pole_axis_holds_no_second_grid(self):
        # 64 radii x 861 nodes on 21 cosines: the point sums its grid series
        # on the distinct cosines and folds `weighted` onto them, so beyond
        # that series it holds 64 x 21 values, not a 64 x 861 grid
        rng, radii, sphere, weighted = self.rule(3, 12, degree=40, r=64)
        axis, coeff = np.eye(3)[-1], self.COEFFS[0]
        cols = np.unique(np.clip(sphere.units @ axis, -1.0, 1.0))
        assert cols.size == 21
        want, degrees = self.sums(3, coeff, 0.995 * axis[None, :], radii, sphere, weighted, tol_rel=1e-9)
        assert degrees[0] > _shared_degree(sphere.rings)
        tracemalloc.start()
        try:
            _series_sum(3, coeff, cols, [radii * 0.995], tol_rel=1e-9)
            series = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            got, _ = self.sums(3, coeff, 0.995 * axis[None, :], radii, sphere, weighted, tol_rel=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == want[0]
        assert peak - series < weighted.nbytes / 4

    @pytest.mark.parametrize("n", [2, 3])
    def test_focused_rules(self, n):
        # a refined circle (n = 2) and asymmetric rings about a tilted pole
        # with a zero-weight probe at the pole (n = 3)
        pole = np.eye(n)[0] + 0.5 * np.eye(n)[1]
        sphere = shell_decomposition(n, 3, (tuple(pole),)).spheres[-1]
        rng, radii, sphere, weighted = self.rule(n, 8, sphere=sphere)
        points = np.vstack([points_at_norms(rng, n, [0.0, 0.5, 0.9]), 0.7 * pole / np.linalg.norm(pole)])
        self.assert_matches(n, self.COEFFS[0], points, radii, sphere, weighted)
        weighted[:, -1] = 1.0  # the probe node is off the rings
        with pytest.raises(ValueError, match="off the rule's rings"):
            self.sums(n, self.COEFFS[0], points, radii, sphere, weighted, tol_rel=1e-9)

    def test_only_product_rules_of_dimension_2_and_3(self):
        units = np.eye(4)
        with pytest.raises(ValueError, match="n in {2, 3}"):
            eval_coeff_series_rule_sum(4, self.COEFFS[0], np.zeros((1, 4)), np.array([0.5]), units,
                                       np.ones((1, 4)), None, tol_rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_boundary_product_raises_as_the_grid_does(self, n):
        _, radii, sphere, weighted = self.rule(n, 9)
        radii[-1] = 1.0
        x = np.eye(n)[:2] * np.array([[0.5], [1.0]])
        with pytest.raises(NonConvergent) as want:
            eval_coeff_series_grid(n, self.COEFFS[0], sphere.units, x[1], [radii], tol_rel=1e-9)
        with pytest.raises(NonConvergent) as got:
            self.sums(n, self.COEFFS[0], x, radii, sphere, weighted, tol_rel=1e-9)
        assert str(got.value) == str(want.value)

    def test_same_error_at_the_cap(self, monkeypatch):
        # a product coefficient: the grid sums its series, so it meets the cap
        monkeypatch.setattr("hball.kernel.KMAX_DEFAULT", 3000)
        _, radii, sphere, weighted = self.rule(2, 10, degree=149)
        x = np.array([[0.3, 0.0], [0.999, 0.0]])
        with pytest.raises(NonConvergent) as want:
            eval_coeff_series_grid(2, self.COEFFS[1], sphere.units, x[1], [radii], tol_rel=1e-10)
        with pytest.raises(NonConvergent) as got:
            self.sums(2, self.COEFFS[1], x, radii, sphere, weighted, tol_rel=1e-10)
        assert str(got.value) == str(want.value)

    def test_the_plain_n2_kernel_passes_the_cap_in_closed_form(self, monkeypatch):
        # the rule sum still meets the cap; the grid is summed in closed form
        monkeypatch.setattr("hball.kernel.KMAX_DEFAULT", 3000)
        _, radii, sphere, weighted = self.rule(2, 10, degree=149)
        x = np.array([[0.3, 0.0], [0.999, 0.0]])
        with pytest.raises(NonConvergent):
            self.sums(2, self.COEFFS[0], x, radii, sphere, weighted, tol_rel=1e-10)
        got = eval_coeff_series_grid(2, self.COEFFS[0], sphere.units, x[1], [radii], tol_rel=1e-10)[0]
        assert_within_closed_form_bound(got, 0.0, radii * 0.999, np.clip(sphere.units[:, 0], -1.0, 1.0))

    def test_non_finite_and_misshapen_inputs(self):
        _, radii, sphere, weighted = self.rule(2, 11)
        coeff = self.COEFFS[0]
        with pytest.raises(ValueError, match="finite"):
            self.sums(2, coeff, np.array([[np.nan, 0.1]]), radii, sphere, weighted, tol_rel=1e-9)
        bad = weighted.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            self.sums(2, coeff, np.zeros((1, 2)), radii, sphere, bad, tol_rel=1e-9)
        with pytest.raises(ValueError, match="shape"):
            self.sums(2, coeff, np.zeros(2), radii, sphere, weighted, tol_rel=1e-9)
        with pytest.raises(ValueError, match="shape"):
            self.sums(2, coeff, np.zeros((1, 2)), radii, sphere, weighted.T, tol_rel=1e-9)


# The rounding bound the n = 2 closed form states, in units of
# eps (1 + b (1 + |log|w||)) times the majorant mass.
STATED_ROUNDING = 4.0


def closed_form_reference(alpha, rho, u):
    """2 Re (1 - rho e^{i theta})^-b - 1 and |1 - rho e^{i theta}| with
    b = 2 + alpha and cos theta = u, in 50-digit mpmath, on the grid rho x u."""
    values = np.empty((len(rho), len(u)))
    moduli = np.empty_like(values)
    with mpmath.workdps(50):
        b = mpmath.mpf(2.0 + alpha)
        for i, r in enumerate(rho):
            for j, c in enumerate(u):
                w = 1 - mpmath.mpf(r) * mpmath.expj(mpmath.acos(mpmath.mpf(c)))
                values[i, j] = float(2 * mpmath.re(w**-b) - 1)
                moduli[i, j] = float(abs(w))
    return values, moduli


def assert_within_closed_form_bound(got, alpha, rho, u):
    want, moduli = closed_form_reference(alpha, rho, u)
    b = 2.0 + alpha
    mass = 2.0 * (1.0 - rho) ** -b - 1.0
    bound = STATED_ROUNDING * np.finfo(float).eps * (1.0 + b * (1.0 + np.abs(np.log(moduli)))) * mass[:, None]
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound)


def closed_form(coeff, u, rho_sets, *, tol_rel):
    """The closed form of `coeff` on the grids rho x u of `rho_sets`, as the
    core (`_evaluate`) runs it on a product grid at n = 2, with K = 0; None
    where the form is not used, which the core would sum as a series (here
    stubbed out)."""
    rho, sets = _stack([np.asarray(r, dtype=float) for r in rho_sets])

    def no_series(n, coeffs, *args, **kwargs):
        return [NonConvergent("summed as a series") for _ in coeffs]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hball.kernel._series_sums", no_series)
        ((result,),) = _evaluate(2, [coeff], [(rho, np.asarray(u, dtype=float), None)], tol_rel=tol_rel)
    if isinstance(result, NonConvergent):
        return None
    values, _, k_used = result
    assert k_used == 0
    return [values[sl] for sl in sets]


class TestPlainN2ClosedForm:
    """Plain upper-branch kernels at n = 2 are summed as 2 Re (1 - z)^-b - 1:
    within the certified series' tolerance inside the cap, within the stated
    rounding bound of mpmath beyond it, and on the series wherever the form
    does not apply or its bound misses the tolerance."""

    @staticmethod
    def grid(seed, rho_max, m=9):
        """Radii in [0, rho_max] with rho_max among them, and m cosines with
        +-1 and 0 among them, as radii of a grid about the pole e1.  Two
        angles are within a factor 4 of 1 - rho_max, where 1 - z cancels."""
        rng = np.random.default_rng(seed)
        rho = np.append(rng.uniform(0.0, rho_max, 4), [0.0, rho_max])
        near = np.cos((1.0 - rho_max) * 2.0 ** rng.uniform(-2.0, 2.0, 2))
        u = np.concatenate([[-1.0, 0.0, 1.0], near, rng.uniform(-1.0, 1.0, m - 5)])
        units = np.stack([u, np.sqrt(1.0 - u**2)], axis=1)
        return rho, u, units

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-2.0, 3.0, exclude_min=True), seed=st.integers(0, 2**16))
    def test_inside_the_cap_it_agrees_with_the_series(self, alpha, seed):
        rho, u, units = self.grid(seed, 0.99)
        coeff = CoeffProduct.kernel(alpha)
        got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-10)[0]
        want, _, masses, _ = _series_sum(2, coeff, np.clip(units[:, 0], -1.0, 1.0), [rho], tol_rel=1e-10)
        assert np.all(np.abs(got - want[0]) <= 1e-10 * masses[0][:, None])

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(-2.0, 3.0, exclude_min=True),
        depth=st.floats(12.0, 40.0),
        seed=st.integers(0, 2**16),
    )
    def test_beyond_the_cap_it_is_within_the_bound_of_mpmath(self, alpha, depth, seed):
        rho, u, units = self.grid(seed, 1.0 - 2.0**-depth, m=6)
        coeff = CoeffProduct.kernel(alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("hball.kernel.KMAX_DEFAULT", 3000)
            with pytest.raises(NonConvergent, match="not certified"):
                _series_sum(2, coeff, u, [rho], tol_rel=1e-10)
            got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-10)[0]
        assert_within_closed_form_bound(got, alpha, rho, np.clip(units[:, 0], -1.0, 1.0))

    def test_a_tolerance_below_the_bound_sums_the_series(self):
        rho, u, units = self.grid(1, 0.6)
        coeff = CoeffProduct.kernel(0.5)
        assert closed_form(coeff, u, [rho], tol_rel=1e-10) is not None
        assert closed_form(coeff, u, [rho], tol_rel=1e-16) is None
        got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-16)[0]
        want = _series_sum(2, coeff, np.clip(units[:, 0], -1.0, 1.0), [rho], tol_rel=1e-16)[0][0]
        assert np.array_equal(got, want)

    def test_an_overflowing_mass_sums_the_series(self):
        rho, u, _ = self.grid(2, 0.9)
        assert closed_form(CoeffProduct.kernel(800.0), u, [rho], tol_rel=1e-10) is None

    def test_plain_kernels_keep_the_plain_form_bit_for_bit(self):
        # 2 exp(-b log|w|) cos(b arg w) - 1 in real arithmetic, at integer
        # and non-integer b alike; u = 1 at rho = 0.999 takes log|w| off
        # Re^2 + Im^2
        rho, u, units = self.grid(5, 0.999)
        rho, u = rho[:, None], u[None, :]
        re_w = (1.0 - rho) + rho * (1.0 - u)
        im_w = -(rho * np.sqrt((1.0 - u) * (1.0 + u)))
        gap = rho * (rho - 2.0 * u)
        assert np.any(gap <= -0.5) and np.any(gap > -0.5)
        with np.errstate(invalid="ignore"):
            log_abs = 0.5 * np.where(gap > -0.5, np.log1p(gap), np.log(re_w**2 + im_w**2))
        arg = np.arctan2(im_w, re_w)
        for alpha in (-1.999, -1.5, -0.5, 0.0, 0.7, 3.0):
            b = 2.0 + alpha
            got = eval_coeff_series_grid(2, CoeffProduct.kernel(alpha), units, np.eye(2)[0], [rho[:, 0]], tol_rel=1e-10)[0]
            assert np.array_equal(got, 2.0 * (np.exp(-b * log_abs) * np.cos(b * arg)) - 1.0)

    # The worst points of a sweep of 4 000 points (b in [0.01, 20], rho up
    # to 1 - 2^-40, u = +-1 and near 1) against 50-digit mpmath, both at
    # b = 0.01 exactly: 2.12 units of the stated bound for the complex
    # power at both, 0.22 and 2.12 for the real form.  The kernel of order
    # 0.01 - 2 has b = 2 + (0.01 - 2), a few ulps above 0.01, where both
    # forms read 2.00 and 2.14 units.
    SWEEP_WORST = ((0.7810980312010538, 0.9999997518295967), (0.7206029622167199, 0.5783683117134981))

    def test_the_worst_points_of_the_sweep_are_within_the_bound_of_mpmath(self):
        alpha = 0.01 - 2.0
        for rho, u in self.SWEEP_WORST:
            units = np.array([[u, math.sqrt((1.0 - u) * (1.0 + u))]])
            got = eval_coeff_series_grid(2, CoeffProduct.kernel(alpha), units, np.eye(2)[0], [[rho]], tol_rel=1e-10)[0]
            assert closed_form(CoeffProduct.kernel(alpha), np.array([u]), [np.array([rho])], tol_rel=1e-10) is not None
            assert_within_closed_form_bound(got, alpha, np.array([rho]), np.array([u]))

    @pytest.mark.parametrize(
        "n,coeff",
        [
            (2, CoeffProduct.kernel(-2.5)),  # half-integer c
            (2, CoeffProduct.kernel(-4.0)),  # c = 4
            (2, CoeffProduct.kernel(-3.5).shifted(0.0, 1.0)),  # an atom_in_* field
            (2, CoeffProduct.kernel(0.0).shifted(1.0, -1.0)),  # negative t
            (3, CoeffProduct.kernel(0.0)),
            (2, CoeffProduct.kernel(-2.7).shifted(0.4, 1.1)),  # non-integer t
            (2, CoeffProduct.kernel(-2.0).shifted(-1.5, 2.0)),  # P(-1) < 0
            (3, CoeffProduct.kernel(-2.0).shifted(3.0, 3.0)),
        ],
    )
    def test_other_coefficients_stay_on_the_series(self, n, coeff):
        rho, u, units = self.grid(3, 0.9)
        units = np.pad(units, ((0, 0), (0, n - 2)))
        if n == 2:
            assert closed_form(coeff, u, [rho], tol_rel=1e-10) is None
        got = eval_coeff_series_grid(n, coeff, units, np.eye(n)[0], [rho], tol_rel=1e-10)[0]
        want = _series_sum(n, coeff, np.clip(units[:, 0], -1.0, 1.0), [rho], tol_rel=1e-10)[0][0]
        assert np.array_equal(got, want)

    def test_a_boundary_radius_raises_as_the_series_does(self):
        _, u, units = self.grid(4, 0.5)
        with pytest.raises(NonConvergent, match=r"\|x\|\|y\| = 1.0 >= 1"):
            eval_coeff_series_grid(2, CoeffProduct.kernel(0.0), units, np.eye(2)[0], [[0.5, 1.0]], tol_rel=1e-10)


# Fields c_k = P(k) gamma_k(q) at n = 2 with P(k) = prod_i (k + c_i) / c_i,
# as (coefficient, q, offsets c_i): the two critical fields of the family
# runs (alpha = 0 and alpha = 1), an upper-branch shift and two fields the
# plain form did not cover.
LIFTED = {
    "critical_alpha0": (CoeffProduct(((-2.0, 1), (3.0, -1), (6.0, 1))), -2.0, (5.0, 6.0, 7.0)),
    "critical_alpha1": (CoeffProduct(((-1.0, 1), (3.0, -1), (5.0, 1))), -1.0, (5.0, 6.0)),
    "upper_shift": (CoeffProduct.kernel(0.3).shifted(0.5, 1.0), 0.3, (2.5,)),
    "plain_upper_shift": (CoeffProduct.kernel(0.0).shifted(0.5, 1.0), 0.0, (2.5,)),
    "lower_atom": (CoeffProduct.kernel(-2.0), -2.0, ()),
}


def lifted_reference(q, offsets, rho, u):
    """2 Re F - 1, |1 - z| and the mass 2 F(rho) - 1 on the grid rho x u, in
    50-digit mpmath, for F = P(theta) G_q with theta = z d/dz: P expanded in
    monomials, theta^m = sum_j S(m, j) z^j (d/dz)^j, and the derivatives of
    G_q = (1 - z)^-(2+q) or -log(1 - z)/z (q = -2, by Leibniz' rule, with
    log1p, which holds its digits at subnormal z)."""
    with mpmath.workdps(50):
        poly = [mpmath.mpf(1)]
        for c in offsets:
            c = mpmath.mpf(c)
            poly = [((poly[m] * c if m < len(poly) else 0) + (poly[m - 1] if m else 0)) / c
                    for m in range(len(poly) + 1)]

        def derivative(z, j):
            w = 1 - z
            if q > -2.0:
                return mpmath.rf(2 + mpmath.mpf(q), j) * w ** (-(2 + mpmath.mpf(q)) - j)
            return sum(
                mpmath.binomial(j, i)
                * (-mpmath.log1p(-z) if i == 0 else mpmath.factorial(i - 1) * w**-i)
                * (-1) ** (j - i) * mpmath.factorial(j - i) * z ** (i - j - 1)
                for i in range(j + 1)
            )

        def lifted(z):
            if z == 0:
                return mpmath.mpf(1)
            return sum(
                poly[m] * sum(mpmath.stirling2(m, j) * z**j * derivative(z, j) for j in range(m + 1))
                for m in range(len(poly))
            )

        values = np.empty((len(rho), len(u)))
        moduli = np.empty_like(values)
        mass = np.array([float(2 * lifted(mpmath.mpf(r)) - 1) for r in rho])
        for i, r in enumerate(rho):
            for j, c in enumerate(u):
                z = mpmath.mpf(r) * mpmath.expj(mpmath.acos(mpmath.mpf(c)))
                values[i, j] = float(2 * mpmath.re(lifted(z)) - 1)
                moduli[i, j] = float(abs(1 - z))
    return values, moduli, mass


class TestLiftedN2ClosedForm:
    """At n = 2 a product coefficient P(k) gamma_k(q) is summed as 2 Re F - 1,
    F the Euler operator P(z d/dz) applied to the atom's generating function:
    within the certified series' tolerance inside the cap and within the
    stated rounding bound of mpmath beyond it."""

    grid = staticmethod(TestPlainN2ClosedForm.grid)

    @pytest.mark.parametrize("name", list(LIFTED))
    def test_the_table_is_the_coefficient(self, name):
        coeff, q, offsets = LIFTED[name]
        ks = np.arange(0.0, 400.0)
        poly = np.prod([(ks + c) / c for c in offsets], axis=0)
        want = np.log(poly) + log_gamma_coeffs(2, q, ks)
        assert np.allclose(coeff.log_values(2, ks), want, rtol=0.0, atol=1e-11)

    def test_the_critical_field_reads_its_terms_off_the_factors(self):
        # (k+5)(k+6)(k+7)/(210 (k+1)): F = (2/w^3 + 14/w^2 + 74/w)/210 + (4/7)(-log w)/z
        form = _N2Form.of(LIFTED["critical_alpha0"][0])
        assert form.lower and form.order == 4.0
        assert np.allclose(form.coefs, np.array([74.0, 14.0, 2.0]) / 210.0, rtol=1e-15, atol=0.0)
        assert form.log_coef == pytest.approx(4.0 / 7.0, rel=1e-15)
        form = _N2Form.of(LIFTED["critical_alpha1"][0])
        # (k+5)(k+6)/30 = 1 + 12 k/30 + k(k-1)/30 and b = 1
        assert not form.lower and form.b == 1.0 and form.order == 3.0
        assert np.allclose(form.coefs, [1.0, 12.0 / 30.0, 2.0 / 30.0], rtol=1e-15, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(list(LIFTED)), seed=st.integers(0, 2**16))
    def test_inside_the_cap_it_agrees_with_the_series(self, name, seed):
        coeff = LIFTED[name][0]
        rho, u, units = self.grid(seed, 0.99)
        assert closed_form(coeff, u, [rho], tol_rel=1e-10) is not None
        got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-10)[0]
        want, _, masses, _ = _series_sum(2, coeff, np.clip(units[:, 0], -1.0, 1.0), [rho], tol_rel=1e-10)
        assert np.all(np.abs(got - want[0]) <= 1e-10 * masses[0][:, None])

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(list(LIFTED)),
        depth=st.floats(12.0, 40.0),
        seed=st.integers(0, 2**16),
    )
    def test_beyond_the_cap_it_is_within_the_bound_of_mpmath(self, name, depth, seed):
        coeff, q, offsets = LIFTED[name]
        rho, u, units = self.grid(seed, 1.0 - 2.0**-depth, m=6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("hball.kernel.KMAX_DEFAULT", 3000)
            with pytest.raises(NonConvergent, match="not certified"):
                _series_sum(2, coeff, u, [rho], tol_rel=1e-10)
            got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-10)[0]
        want, moduli, mass = lifted_reference(q, offsets, rho, np.clip(units[:, 0], -1.0, 1.0))
        order = len(offsets) + (1.0 if q == -2.0 else 2.0 + q)
        bound = STATED_ROUNDING * np.finfo(float).eps * (1.0 + order * (1.0 + np.abs(np.log(moduli))))
        assert np.all(np.abs(got - want) <= bound * mass[:, None])

    def test_a_tolerance_below_the_bound_sums_the_series(self):
        coeff = LIFTED["critical_alpha0"][0]
        rho, u, units = self.grid(6, 0.6)
        assert closed_form(coeff, u, [rho], tol_rel=1e-16) is None
        got = eval_coeff_series_grid(2, coeff, units, np.eye(2)[0], [rho], tol_rel=1e-16)[0]
        want = _series_sum(2, coeff, np.clip(units[:, 0], -1.0, 1.0), [rho], tol_rel=1e-16)[0][0]
        assert np.array_equal(got, want)


# One coefficient of each evaluation that reads the cosines, as (n,
# coefficient): the plain form at integer and at non-integer b, a lifted
# upper form, the lower form at q = -2, and an n = 3 series.
EVALUATION_KINDS = {
    "plain_integer_b": (2, CoeffProduct.kernel(0.0)),
    "plain": (2, CoeffProduct.kernel(0.7)),
    "lifted_upper": (2, LIFTED["upper_shift"][0]),
    "lower": (2, LIFTED["lower_atom"][0]),
    "series_n3": (3, CoeffProduct.kernel(0.0)),
}


@pytest.fixture
def geometries(monkeypatch):
    """The geometries a call forms, counted where `parts` computes."""
    formed = []
    parts = _N2Geometry.parts.func

    def counted(self):
        formed.append(self)
        return parts(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(_N2Geometry, "parts")
    monkeypatch.setattr(_N2Geometry, "parts", prop)
    return formed


class TestRepeatedCosines:
    """A grid evaluates its distinct cosines once and gathers them back to
    the directions: each form and the series give repeated cosines, bit for
    bit, the values of the distinct cosines evaluated alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(list(EVALUATION_KINDS)),
        theta=st.lists(st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, np.pi)), min_size=1, max_size=6),
        azimuth=st.floats(0.0, 2.0 * np.pi),
        rho=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4),
        pole_norm=st.floats(0.5, 1.0),
    )
    # subnormal radii, where the q = -2 form's division by z overflowed
    @example(kind="lower", theta=[0.0], azimuth=0.0, rho=[2.225073858507203e-309], pole_norm=1.0)
    @example(kind="lower", theta=[0.0], azimuth=0.0, rho=[5e-324], pole_norm=1.0)
    def test_mirror_pairs_are_the_distinct_cosines_alone(self, kind, theta, azimuth, rho, pole_norm):
        n, coeff = EVALUATION_KINDS[kind]
        theta = np.array(theta)
        distinct = np.unique(theta)

        def units(t, sign):
            # directions at angle t from the pole e1, mirrored about it by sign
            out = np.zeros((t.shape[0], n))
            out[:, 0] = np.cos(t)
            out[:, 1] = sign * np.sin(t) * np.cos(azimuth)
            if n == 3:
                out[:, 2] = sign * np.sin(t) * np.sin(azimuth)
            return out

        # each angle both ways about the pole, interleaved
        pairs = np.stack([units(theta, 1.0), units(theta, -1.0)], axis=1).reshape(-1, n)
        pole, radii = pole_norm * np.eye(n)[0], [np.array(rho), np.array(rho[:1])]
        got = eval_coeff_series_grid(n, coeff, pairs, pole, radii, tol_rel=1e-10)
        alone = eval_coeff_series_grid(n, coeff, units(distinct, 1.0), pole, radii, tol_rel=1e-10)
        if n == 2:
            u = np.clip(np.cos(distinct), -1.0, 1.0)
            assert closed_form(coeff, u, [r * pole_norm for r in radii], tol_rel=1e-10) is not None
        column = np.repeat(np.searchsorted(distinct, theta), 2)
        for g, a in zip(got, alone, strict=True):
            assert np.array_equal(bits(g), bits(a[:, column]))


class TestBatchedClosedForms:
    """At n = 2 the closed forms of one grid call read one geometry, formed
    when the first form passes its gate: each coefficient of a mixed batch
    gets, bit for bit, the grids of its call alone."""

    # the plain form at integer and non-integer b, a lifted upper form, the
    # lower form at q = -2 and a coefficient with no closed form
    BATCH = [
        CoeffProduct.kernel(0.0),
        CoeffProduct.kernel(0.7),
        LIFTED["upper_shift"][0],
        LIFTED["lower_atom"][0],
        CoeffProduct.kernel(-2.5),
    ]
    THETA = np.array([0.0, 0.3, np.pi, 1.1, -0.3, 2.0, 0.0, -1.1])  # repeated cosines
    UNITS = np.stack([np.cos(THETA), np.sin(THETA)], axis=1)
    POLE = np.array([0.9, 0.0])
    RADII = [np.array([0.0, 0.4, 0.93]), np.array([0.7])]

    def test_each_coefficient_is_its_call_alone(self, geometries):
        rho = [r * 0.9 for r in self.RADII]
        u = np.unique(np.clip(self.UNITS[:, 0], -1.0, 1.0))
        assert len(u) < len(self.THETA)
        used = [closed_form(coeff, u, rho, tol_rel=1e-10) is not None for coeff in self.BATCH]
        assert used == [True, True, True, True, False]
        geometries.clear()
        grid = (np.concatenate(self.RADII), self.UNITS, None)
        batch = eval_coeff_series_grids(2, self.BATCH, self.POLE, [grid], tol_rel=1e-10)
        assert len(geometries) == 1
        for coeff, got in zip(self.BATCH, batch, strict=True):
            (alone,) = eval_coeff_series_grids(2, [coeff], self.POLE, [grid], tol_rel=1e-10)
            for a, b in zip(got, alone, strict=True):
                assert a.shape == (b.shape[0], len(self.THETA))
                assert np.array_equal(bits(a), bits(b))

    def test_no_geometry_when_every_gate_fails(self, geometries):
        # below the rounding bound every coefficient sums its series
        grid = (np.concatenate(self.RADII), self.UNITS, None)
        eval_coeff_series_grids(2, self.BATCH[:4], self.POLE, [grid], tol_rel=1e-16)
        assert geometries == []


class TestAngularTable:
    """The angular rows against mpmath at high degree, relative to the bound
    |Q_k| <= h_k that the tail bounds rest on."""

    def test_legendre_table_near_the_pole(self):
        u = math.cos(1e-4)
        table = zonal_angular_table(3, np.array([u]), 0, 10_001)[:, 0]
        for k in (0, 1, 10, 100, 1000, 5000, 7777, 10_000):
            want = (2 * k + 1) * mpmath.legendre(k, mpmath.mpf(u))
            assert abs(table[k] - float(want)) <= 5e-11 * (2 * k + 1)

    def test_chebyshev_block_product(self):
        us = np.array([math.cos(1e-4), 0.3, 0.0, -0.7, math.cos(3.1), -1.0, 1.0])
        k0 = 90_000
        table = zonal_angular_table(2, us, k0, 1100)
        for j in (0, 1, 511, 512, 513, 1024, 1099):  # across piece boundaries
            for c, u in enumerate(us):
                want = 2 * mpmath.cos((k0 + j) * mpmath.acos(mpmath.mpf(u)))
                assert abs(table[j, c] - float(want)) <= 5e-11 * 2

    @staticmethod
    def one_degree_row(u, d):
        """The n = 2 row of degree d >= 1 as a block of its own reads it:
        its coarse phase times fine phase 0, which is 1, so 2 Re - 0 Im."""
        coarse = np.exp(1j * (d * np.arccos(u)))
        return 2.0 * coarse.real - 0.0 * coarse.imag

    @settings(max_examples=300, deadline=None)
    @given(us=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6), d=st.integers(1, 5000))
    @example(us=[1.0, -1.0, 0.0, -0.0], d=1)
    @example(us=[5e-324, -5e-324, 2.225073858507203e-309, 2.2250738585072014e-308], d=5000)
    @example(us=[0.5, -0.5, math.cos(1e-4)], d=4999)
    def test_one_degree_circle_row_is_its_coarse_phase(self, us, d):
        u = np.array(us)
        got = zonal_angular_table(2, u, d, 1)
        assert got.shape == (1, u.size)
        assert np.array_equal(bits(got[0]), bits(self.one_degree_row(u, d)))

    @pytest.mark.parametrize("k_end", [1, 2, 23, 24, 65, 700, 2000])
    def test_circle_blocks_do_not_depend_on_the_blocks_read_before(self, k_end):
        # the fine phases are built as far as the blocks read them: a block
        # is bit for bit the same whatever was read from its source before
        u = np.concatenate([np.cos(np.linspace(0.0, np.pi, 37)), [0.3, -0.0]])
        blocks = list(_degree_blocks(k_end - 1)) + [(k_end - 1, 1), (0, k_end)]
        in_order, reversed_ = _angular_source(2, u, k_end), _angular_source(2, u, k_end)
        got = [in_order(k0, size) for k0, size in blocks]
        got_reversed = [reversed_(k0, size) for k0, size in blocks[::-1]][::-1]
        for (k0, size), a, b in zip(blocks, got, got_reversed):
            alone = _angular_source(2, u, k_end)(k0, size)
            assert np.array_equal(bits(a), bits(alone)) and np.array_equal(bits(b), bits(alone))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_low_degrees_match_the_scalar_zonal(self, n):
        from hball.special import zonal

        rng = np.random.default_rng(n)
        x = rng.normal(size=(25, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        u = np.clip(x @ x[0], -1.0, 1.0)
        table = zonal_angular_table(n, u, 0, 6)
        want = np.array([[zonal(n, k, xi, x[0]) for xi in x] for k in range(6)])
        assert np.allclose(table, want, rtol=0.0, atol=1e-13)
        assert np.allclose(zonal_angular_table(n, u, 3, 3), table[3:], rtol=0.0, atol=1e-14)


class TestNonFiniteInputs:
    """Non-finite directions, poles, points and radii are refused before any
    series work."""

    coeff = CoeffProduct.kernel(0.0)

    def test_nan_unit(self):
        with pytest.raises(ValueError, match="finite"):
            eval_coeff_series_grid(2, self.coeff, np.array([[np.nan, 0.0]]), (0.5, 0.0), [[0.5]], tol_rel=1e-9)

    def test_nan_radius(self):
        with pytest.raises(ValueError, match="finite"):
            eval_coeff_series_grid(2, self.coeff, np.array([[1.0, 0.0]]), (0.5, 0.0), [[np.nan]], tol_rel=1e-9)

    def test_infinite_pole(self):
        with pytest.raises(ValueError, match="finite"):
            eval_coeff_series_grid(3, self.coeff, np.eye(3), (np.inf, 0.0, 0.0), [[0.5]], tol_rel=1e-9)
        with pytest.raises(ValueError, match="finite"):
            eval_coeff_series_points(3, self.coeff, (0.1, np.nan, 0.0), np.eye(3) * 0.5, tol_abs=1e-9)

    def test_nan_point(self):
        with pytest.raises(ValueError, match="finite"):
            eval_coeff_series_points(2, self.coeff, (0.5, 0.0), np.array([[0.1, np.inf]]), tol_abs=1e-9)
        with pytest.raises(ValueError, match="finite"):
            kernel_eval(2, 0.0, np.array([np.nan, 0.0]), np.array([0.5, 0.0]), 1e-9)


class TestRefusedInputs:
    """A negative radius, paired rows that are not one index into the
    radii per direction, and a unit, pole or point that is not a vector of
    R^n are refused with a ValueError naming the argument before any
    evaluation, not evaluated to values that are not theirs."""

    coeff = CoeffProduct.kernel(0.0)

    @pytest.fixture(autouse=True)
    def no_evaluation(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the evaluation started")

        monkeypatch.setattr("hball.kernel._evaluate", never)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_negative_radius(self, n):
        # unchecked, the series reads -0.5 as 0 and gives 1.0, where the
        # value at -0.25 e1 is 0.2453
        with pytest.raises(ValueError, match="radii must be a 1-d array of finite values >= 0"):
            eval_coeff_series_grid(n, self.coeff, np.eye(n)[:1], 0.5 * np.eye(n)[0], [[-0.5]], tol_rel=1e-9)
        grid = (np.array([0.2, -0.5]), np.eye(n)[:2], np.array([0, 1]))
        with pytest.raises(ValueError, match="radii must be a 1-d array of finite values >= 0"):
            eval_coeff_series_grids(n, [self.coeff], 0.5 * np.eye(n)[0], [grid], tol_rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rows", [[-1, 0], [0, 2], [0], [0, 1, 1], [[0, 1]]])
    def test_rows_that_are_not_one_index_per_direction(self, n, rows):
        # unchecked, -1 reads the last radius, and one row for two
        # directions gives two values on the n = 2 closed form and one on
        # the series
        grids = [(np.array([0.1]), np.eye(n)[:1], np.array([0])), (np.array([0.2, 0.5]), np.eye(n)[:2], rows)]
        with pytest.raises(ValueError, match=r"rows must hold one index in \[0, 2\) per direction"):
            eval_coeff_series_grids(n, [self.coeff], 0.5 * np.eye(n)[0], grids, tol_rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_product_grid_beside_other_grids(self, n):
        # unchecked, the core would read the product grid as pairs
        grids = [(np.array([0.2]), np.eye(n)[:1], np.array([0])), (np.array([0.2, 0.5]), np.eye(n)[:2], None)]
        with pytest.raises(ValueError, match=r"a product grid \(rows None\) must be the only grid"):
            eval_coeff_series_grids(n, [self.coeff], 0.5 * np.eye(n)[0], grids, tol_rel=1e-9)

    def test_vectors_that_are_not_of_width_n(self):
        # unchecked, 2-vectors run at n = 3
        pole, point = (0.5, 0.0), np.array([[0.2, 0.1]])
        with pytest.raises(ValueError, match=r"pole must hold finite vectors of R\^3"):
            eval_coeff_series_grid(3, self.coeff, np.eye(2), pole, [[0.5]], tol_rel=1e-9)
        with pytest.raises(ValueError, match=r"pole must hold finite vectors of R\^3"):
            kernel_eval(3, 0.0, point[0], pole, 1e-9)
        with pytest.raises(ValueError, match=r"units must hold finite vectors of R\^3"):
            eval_coeff_series_grid(3, self.coeff, np.eye(2), (0.5, 0.0, 0.0), [[0.5]], tol_rel=1e-9)
        with pytest.raises(ValueError, match=r"units must hold finite vectors of R\^3"):
            eval_coeff_series_grids(3, [self.coeff], (0.5, 0.0, 0.0), [([0.5], np.eye(2), [0, 0])], tol_rel=1e-9)
        with pytest.raises(ValueError, match=r"points must hold finite vectors of R\^3"):
            eval_coeff_series_points(3, self.coeff, (0.5, 0.0, 0.0), point, tol_abs=1e-9)


class TestTolerances:
    """A NaN, infinite or negative tolerance, or none positive, is refused
    with a ValueError naming it before any series work, on every entry and
    at n = 2 (closed form) as at n = 3."""

    coeff = CoeffProduct.kernel(0.0)

    @pytest.fixture(autouse=True)
    def no_series_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a series was summed")

        monkeypatch.setattr("hball.kernel._certified_degree", never)
        monkeypatch.setattr("hball.kernel._evaluate", never)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_kernel_eval(self, tol):
        with pytest.raises(ValueError, match="tolerance tol_abs must be finite and >= 0"):
            kernel_eval(3, 0.0, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], tol)

    def test_a_zero_tolerance(self):
        with pytest.raises(ValueError, match="a positive tolerance tol_abs is required"):
            kernel_eval(2, 0.0, [0.5, 0.0], [1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="a positive tolerance tol_rel"):
            eval_coeff_series_grid(2, self.coeff, np.eye(2), (0.5, 0.0), [[0.5]], tol_rel=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_grids(self, n, tol):
        with pytest.raises(ValueError, match="tolerance tol_rel must be finite and >= 0"):
            eval_coeff_series_grid(n, self.coeff, np.eye(n), 0.5 * np.eye(n)[0], [[0.5]], tol_rel=tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_points(self, tol):
        with pytest.raises(ValueError, match="tolerance tol_abs must be finite and >= 0"):
            eval_coeff_series_points(3, self.coeff, (0.5, 0.0, 0.0), np.eye(3) * 0.5, tol_abs=tol)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rule_sums(self, n):
        sphere = sphere_rule(n, 8)
        weighted = np.ones((2, sphere.units.shape[0])) * sphere.weights
        with pytest.raises(ValueError, match="tolerance tol_rel must be finite"):
            eval_coeff_series_rule_sum(n, self.coeff, 0.5 * np.eye(n)[:1], np.array([0.3, 0.6]),
                                       sphere.units, weighted, sphere.rings, tol_rel=math.nan)


class TestSubnormalRadii:
    """Every n = 2 form holds at the smallest radii, subnormal ones too,
    where -log(1 - z) / z of the q = -2 form takes its z -> 0 limit."""

    REFERENCE = {  # (q, offsets) of `lifted_reference` per kind
        "plain_integer_b": (0.0, ()),
        "plain": (0.7, ()),
        "lifted_upper": (0.3, (2.5,)),
        "lower": (-2.0, ()),
    }

    @pytest.mark.parametrize("kind", list(REFERENCE))
    def test_values_are_those_of_mpmath(self, kind):
        n, coeff = EVALUATION_KINDS[kind]
        rho = np.array([0.0, 5e-324, 2.225073858507203e-309, 2.2250738585072014e-308, 1e-300])
        u = np.array([-1.0, 0.0, 0.6, 1.0])
        (got,) = closed_form(coeff, u, [rho], tol_rel=1e-10)
        want, _, mass = lifted_reference(*self.REFERENCE[kind], rho, u)
        assert np.all(np.abs(got - want) <= 2 * _EPS * mass[:, None])


def paired_grids(n, seed):
    """Three grids of (radii, units, rows) about the pole e1: shallow radii,
    radii up to 0.9995 and one radius.  Each grid has repeated cosines, the
    pole and its antipode among its directions, and rows drawn at random."""
    rng = np.random.default_rng(seed)
    grids = []
    for radii in ([0.0, 0.05, 0.1], [0.2, 0.9, 0.9995], [0.6]):
        theta = rng.uniform(0.0, np.pi, 12)
        theta = np.concatenate([theta, theta[:4], [0.0, np.pi]])
        azimuth = rng.uniform(0.0, 2.0 * np.pi, theta.shape[0])
        units = np.zeros((theta.shape[0], n))
        units[:, 0] = np.cos(theta)
        units[:, 1] = np.sin(theta) * (np.cos(azimuth) if n == 3 else 1.0)
        if n == 3:
            units[:, 2] = np.sin(theta) * np.sin(azimuth)
        grids.append((np.array(radii), units, rng.integers(0, len(radii), theta.shape[0])))
    return grids


class TestEvaluationCore:
    """`_evaluate` returns K = 0 exactly where an n = 2 closed form is used,
    on product grids and on pairs, and a point, whose tolerance is
    absolute, stays on the series whatever its coefficient."""

    COEFFS = [CoeffProduct.kernel(0.0), LIFTED["upper_shift"][0], LIFTED["lower_atom"][0], CoeffProduct.kernel(-2.5)]
    TOL = 5e-15  # the gates pass on the shallow grids and fail at 0.9

    @staticmethod
    def form_used(coeff, radii):
        form = _N2Form.of(coeff)
        return form is not None and bool(_n2_gate(form, radii, tol_rel=TestEvaluationCore.TOL).all())

    def grids(self):
        rng = np.random.default_rng(3)
        out = []
        for radii in ([0.0, 0.1, 0.3], [0.2, 0.9], [0.5]):
            u = np.concatenate([rng.uniform(-1.0, 1.0, 5), [1.0, -1.0, 0.5, 0.5]])
            out.append((np.array(radii), u, rng.integers(0, len(radii), u.shape[0])))
        return out

    def test_k_is_zero_exactly_where_a_form_is_used(self):
        grids = self.grids()
        used = [[self.form_used(coeff, radii) for radii, _, _ in grids] for coeff in self.COEFFS]
        assert any(map(any, used)) and not all(map(all, used))
        for g, (radii, u, _) in enumerate(grids):
            for i, ((values, tails, k),) in enumerate(_evaluate(2, self.COEFFS, [(radii, u, None)], tol_rel=self.TOL)):
                assert (k == 0) == used[i][g] and values.shape == (radii.shape[0], u.shape[0])
                assert tails.shape == radii.shape and (k > 0 or not tails.any())
        for i, results in enumerate(_evaluate(2, self.COEFFS, grids, tol_rel=self.TOL)):
            for g, (values, tails, k) in enumerate(results):
                assert (k == 0) == used[i][g] and values.shape == tails.shape == grids[g][1].shape
                assert k > 0 or not tails.any()

    def test_a_point_stays_on_the_series(self):
        coeff = CoeffProduct.kernel(0.0)
        rho = np.array([0.0, 0.1, 0.5])
        assert _N2Form.of(coeff) is not None and not _n2_gate(_N2Form.of(coeff), rho, tol_rel=0.0).any()
        first = np.zeros(1, dtype=np.intp)
        points = [(rho[i : i + 1], np.array([0.3]), first) for i in range(rho.shape[0])]
        (results,) = _evaluate(2, [coeff], points, tol_abs=1e-10)
        assert all(k > 0 for _, _, k in results)
        _, _, k_used = eval_coeff_series_points(2, coeff, (0.5, 0.0), np.array([[0.2, 0.0], [0.0, 0.0]]), tol_abs=1e-10)
        assert k_used > 0

    def test_no_form_is_tried_at_a_zero_relative_tolerance(self, monkeypatch):
        # the gate's bound is at least 4 eps times the mass, so none passes
        # at tol_rel = 0: the core skips the lift and the gate
        def never(coeff):
            raise AssertionError("a closed form was tried")

        rho = np.array([0.0, 0.1, 0.5])
        first = np.zeros(1, dtype=np.intp)
        points = [(rho[i : i + 1], np.array([0.3]), first) for i in range(rho.shape[0])]
        (want,) = _evaluate(2, [CoeffProduct.kernel(0.0)], points, tol_abs=1e-10)
        monkeypatch.setattr(_N2Form, "of", staticmethod(never))
        (got,) = _evaluate(2, [CoeffProduct.kernel(0.0)], points, tol_abs=1e-10)
        for (a, ta, ka), (b, tb, kb) in zip(got, want, strict=True):
            assert np.array_equal(bits(a), bits(b)) and np.array_equal(bits(ta), bits(tb)) and ka == kb > 0


class TestPairedSeries:
    """A paired call gives each pair, bit for bit, the entry of its grid in
    a grid call: the n = 2 closed forms elementwise on the pairs, with one
    geometry per call, and every other series, also a closed form whose
    gate fails on a grid, on the same sum as the grid call."""

    KINDS = dict(EVALUATION_KINDS, no_form=(2, CoeffProduct.kernel(-2.5)))
    TOL = 5e-15  # the closed forms' gates pass on the shallow grid alone

    @pytest.fixture
    def sums(self, monkeypatch):
        """The (cosines, radii) of every `_series_sums` call, as bytes."""
        import hball.kernel as kernel

        calls = []
        real = kernel._series_sums

        def recorded(n, coeffs, u, rho_sets, **kw):
            calls.append((u.tobytes(), np.concatenate(rho_sets).tobytes()))
            return real(n, coeffs, u, rho_sets, **kw)

        monkeypatch.setattr(kernel, "_series_sums", recorded)
        return calls

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_pairs_are_the_entries_of_their_grids(self, kind, sums, geometries):
        n, coeff = self.KINDS[kind]
        grids = paired_grids(n, 7)
        if n == 2 and _N2Form.of(coeff) is not None:
            used = [closed_form(coeff, units[:, 0], [radii], tol_rel=self.TOL) is not None
                    for radii, units, _ in grids]
            assert used[0] and not used[1]
        geometries.clear()
        (got,) = eval_coeff_series_grids(n, [coeff], np.eye(n)[0], grids, tol_rel=self.TOL)
        paired = list(sums)
        assert len(geometries) == (n == 2 and _N2Form.of(coeff) is not None)
        sums.clear()
        for (radii, units, rows), values in zip(grids, got, strict=True):
            (grid,) = eval_coeff_series_grid(n, coeff, units, np.eye(n)[0], [radii], tol_rel=self.TOL)
            assert np.array_equal(bits(values), bits(grid[rows, np.arange(rows.shape[0])]))
        # the series of each grid is the grid call's sum
        assert paired == sums

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_grid_whose_series_raises_leaves_the_others(self, n):
        coeff = CoeffProduct.kernel(0.0)
        grids = paired_grids(n, 8)
        grids.insert(1, (np.array([0.5, 1.0]), grids[0][1], grids[0][2] % 2))
        (got,) = eval_coeff_series_grids(n, [coeff], np.eye(n)[0], grids, tol_rel=1e-10)
        with pytest.raises(NonConvergent) as alone:
            eval_coeff_series_grid(n, coeff, grids[1][1], np.eye(n)[0], [grids[1][0]], tol_rel=1e-10)
        assert isinstance(got[1], NonConvergent) and str(got[1]) == str(alone.value)
        for (radii, units, rows), values in zip(grids[::2], got[::2], strict=True):
            (grid,) = eval_coeff_series_grid(n, coeff, units, np.eye(n)[0], [radii], tol_rel=1e-10)
            assert np.array_equal(bits(values), bits(grid[rows, np.arange(rows.shape[0])]))

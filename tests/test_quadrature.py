import math

import numpy as np
import pytest
from conftest import grid_integrand
from scipy.special import betaln

from hball.errors import EvaluationFailure, NonConvergent
from hball.quadrature import (
    BallQuadrature,
    Verdict,
    classify_increments,
    integrate_ball,
    integrate_shells,
    shell_decomposition,
    sphere_rule,
    sup_norm_probe,
)
from hball.special import weight_constant, zonal


def radial_moment(n, gamma, j):
    """n int r^(n-1+2j) (1-r^2)^gamma dr = (n/2) B(n/2 + j, gamma + 1)."""
    return math.exp(math.log(0.5 * n) + betaln(0.5 * n + j, gamma + 1.0))


ONE = lambda pts: np.ones(pts.shape[0])  # noqa: E731
ONE_BALL = grid_integrand(ONE)
ONE_SHELLS = grid_integrand(ONE, shells=True)

# the shell walks, called as (grid, shell integrand)
WALKS = {
    "integrate_shells": lambda d, g: integrate_shells(d, g, 0.0),
    "sup_norm_probe": lambda d, g: sup_norm_probe(g, 1.0, d),
}
# what each walk's refusal names when it certifies no shell
WALK_RESULTS = {"integrate_shells": "shell integral", "sup_norm_probe": "sup probe"}


# values that miss an (m, M) product grid, which must not broadcast
WRONG_SHAPES = {
    "column": lambda m, k: np.ones((m, 1)),
    "flat": lambda m, k: np.ones(m * k),
    "transposed": lambda m, k: np.ones((k, m)),
}


def failing_from_shell(j, exc):
    """Shell integrand equal to 1 that raises `exc` from shell j on (one call
    per shell)."""
    calls = {"n": 0}

    def g(pts):
        calls["n"] += 1
        if calls["n"] > j:
            raise exc
        return np.ones(pts.shape[0])

    return grid_integrand(g, shells=True)


class TestRadialRule:
    def test_beta_moments_exact(self):
        for n in (2, 3):
            for gamma in (0.0, 1.0, 2.5, -0.5):
                q = BallQuadrature.build(n, gamma, 40)
                assert q.radial_nodes.shape == (12,)  # 40 // 4 + 2
                for j in range(0, 2 * 12 - 1, 4):
                    got = float(q.radial_weights @ q.radial_nodes ** (2 * j))
                    want = radial_moment(n, gamma, j)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_weights_sum_to_weighted_mass(self):
        for n in (2, 3):
            for gamma in (0.0, 0.5, 3.0):
                q = BallQuadrature.build(n, gamma, 16)
                assert float(q.radial_weights.sum()) == pytest.approx(
                    weight_constant(n, gamma).value, abs=1e-13
                )

    def test_rejects_nonintegrable_weight(self):
        with pytest.raises(ValueError):
            BallQuadrature.build(2, -1.0, 8)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_a_non_finite_weight_exponent(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            BallQuadrature.build(2, gamma, 8)


class TestSphereRules:
    def test_circle_kills_low_harmonics(self):
        s2 = sphere_rule(2, 40)
        ang = np.arctan2(s2.units[:, 1], s2.units[:, 0])
        for k in range(1, 40):
            assert abs(float(np.cos(k * ang) @ s2.weights)) < 1e-12
            assert abs(float(np.sin(k * ang) @ s2.weights)) < 1e-12

    def test_sphere_kills_zonal_harmonics(self):
        s3 = sphere_rule(3, 20)
        eta = np.array([0.3, -0.5, 0.8])
        eta /= np.linalg.norm(eta)
        for k in range(1, 21):
            zk = np.array([zonal(3, k, u, eta) for u in s3.units])
            assert abs(float(zk @ s3.weights)) < 1e-10

    def test_addition_theorem_reproduces_point_values(self):
        # quadrature of Z_k(zeta, .) p = p(zeta) for degree-k harmonics
        s2 = sphere_rule(2, 32)
        ang = np.arctan2(s2.units[:, 1], s2.units[:, 0])
        zeta_angle = 0.7
        zeta = np.array([np.cos(zeta_angle), np.sin(zeta_angle)])
        for k in (1, 3, 9):
            zk = np.array([zonal(2, k, u, zeta) for u in s2.units])
            for p, pz in ((np.cos(k * ang), np.cos(k * zeta_angle)),
                          (np.sin(k * ang), np.sin(k * zeta_angle))):
                assert float((zk * p) @ s2.weights) == pytest.approx(pz, abs=1e-12)

        s3 = sphere_rule(3, 16)
        zeta = np.array([0.0, 0.0, 1.0])
        harmonics = {
            1: [lambda u: u[:, 2], lambda u: u[:, 0]],
            2: [lambda u: u[:, 0] * u[:, 2], lambda u: 2 * u[:, 2] ** 2 - u[:, 0] ** 2 - u[:, 1] ** 2],
            3: [lambda u: u[:, 2] * (2 * u[:, 2] ** 2 - 3 * (u[:, 0] ** 2 + u[:, 1] ** 2))],
        }
        for k, polys in harmonics.items():
            zk = np.array([zonal(3, k, u, zeta) for u in s3.units])
            for p in polys:
                want = float(p(zeta[None, :])[0])
                assert float((zk * p(s3.units)) @ s3.weights) == pytest.approx(
                    want, abs=1e-10
                )


TILTED = (0.0, math.sqrt(0.5), math.sqrt(0.5))

# the rules whose rings are checked: plain rules at two degrees each, and the
# deepest shell's rule of focused decompositions
RING_RULES = {
    "circle-8": lambda: sphere_rule(2, 8),
    "circle-40": lambda: sphere_rule(2, 40),
    "sphere-8": lambda: sphere_rule(3, 8),
    "sphere-20": lambda: sphere_rule(3, 20),
    "circle-one-focus": lambda: shell_decomposition(2, 4, ((0.6, -0.8),)).spheres[-1],
    "circle-two-foci": lambda: shell_decomposition(2, 4, ((1.0, 0.0), (-0.6, 0.8))).spheres[-1],
    "sphere-tilted-focus": lambda: shell_decomposition(3, 4, (TILTED,)).spheres[-1],
}


class TestRings:
    @pytest.mark.parametrize("rule", RING_RULES.values(), ids=RING_RULES.keys())
    def test_rings_describe_the_structured_nodes(self, rule):
        sph = rule()
        rings = sph.rings
        index = rings.index
        # a permutation of the leading nodes; any others are zero-weight probes
        assert np.array_equal(np.sort(index.ravel()), np.arange(index.size))
        assert np.all(sph.weights[index.size :] == 0.0)
        assert np.all(np.diff(rings.param) > 0.0)
        for i in range(index.shape[0]):
            assert np.abs(rings.units(i, rings.param) - sph.units[index[i]]).max() < 1e-14
            assert np.allclose([rings.a[i] @ rings.a[i], rings.b[i] @ rings.b[i]], 1.0, atol=1e-14)
            assert abs(rings.a[i] @ rings.b[i]) < 1e-14
        # every ring has the same measure, and the surface measure is their mean
        assert float(rings.measure(*rings.span)) == pytest.approx(1.0, abs=1e-14)


class TestIntegrateBall:
    def test_unit_mass(self):
        q = BallQuadrature.build(2, 0.0, 12)
        assert integrate_ball(q, ONE_BALL) == pytest.approx(1.0, abs=1e-13)

    def test_weighted_mass_matches_constant(self):
        q = BallQuadrature.build(2, 1.0, 12)
        assert integrate_ball(q, ONE_BALL) == pytest.approx(0.5, abs=1e-13)

    def test_radial_square_moment(self):
        q = BallQuadrature.build(2, 0.0, 12)
        g = lambda pts: (pts**2).sum(axis=1)  # noqa: E731
        assert integrate_ball(q, grid_integrand(g)) == pytest.approx(0.5, abs=1e-13)

    def test_refinement_stability(self):
        def g(pts):
            return np.exp(pts[:, 0]) * (1.0 + pts[:, 1] ** 2)

        for n in (2, 3):
            q1 = BallQuadrature.build(n, 0.5, 20)
            q2 = BallQuadrature.build(n, 0.5, 56)  # 16 radii against 8, degree 56 against 20
            assert q2.radial_nodes.shape[0] == 2 * q1.radial_nodes.shape[0]
            g_grid = grid_integrand(g)
            assert abs(integrate_ball(q1, g_grid) - integrate_ball(q2, g_grid)) < 1e-8

    def test_wraps_integrand_failures(self):
        def bad(radii, units):
            raise RuntimeError("boom")

        q = BallQuadrature.build(2, 0.0, 8)
        with pytest.raises(EvaluationFailure):
            integrate_ball(q, bad)

    @pytest.mark.parametrize("shape", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
    def test_wrong_shape_is_an_evaluation_failure(self, shape):
        q = BallQuadrature.build(2, 0.0, 8)
        g = lambda radii, units: shape(radii.shape[0], units.shape[0])  # noqa: E731
        with pytest.raises(EvaluationFailure, match="shape"):
            integrate_ball(q, g)


class TestShellIntegrals:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_rejects_a_non_finite_or_zero_focus(self, n, bad):
        focus = (bad,) * n
        with pytest.raises(ValueError, match="foci must be finite and nonzero"):
            shell_decomposition(n, 4, ((1.0,) + (0.0,) * (n - 1), focus))
        with pytest.raises(ValueError, match="foci must be finite and nonzero"):
            shell_decomposition(n, 4, (focus,))

    @pytest.mark.parametrize("n, focus", [(2, (1.0, 0.0, 5.0)), (2, (1.0,)), (3, (1.0, 0.0)), (3, (1.0, 0.0, 0.0, 1.0))])
    def test_rejects_a_focus_of_another_dimension(self, n, focus):
        # unchecked, a 3-component focus at n = 2 gives a rule from its first
        # two components, and a 2-component one at n = 3 fails inside numpy
        with pytest.raises(ValueError, match=f"foci must have {n} components"):
            shell_decomposition(n, 3, (focus,))
        with pytest.raises(ValueError, match=f"foci must have {n} components"):
            shell_decomposition(n, 3, ((1.0,) + (0.0,) * (n - 1), focus))

    def test_compactly_supported_indicator(self):
        d = shell_decomposition(2, 10)
        ind = lambda pts: ((pts**2).sum(axis=1) <= 0.25).astype(float)  # noqa: E731
        si = integrate_shells(d, grid_integrand(ind, shells=True), 0.0)
        assert si.verdict == Verdict.FINITE
        assert si.total == pytest.approx(0.25, rel=1e-6)
        assert all(i == 0.0 for i in si.increments[1:])

    def test_unit_weight_total(self):
        d = shell_decomposition(2, 12)
        si = integrate_shells(d, ONE_SHELLS, 0.0)
        assert si.verdict == Verdict.FINITE
        assert si.total == pytest.approx(1.0, abs=1e-3)  # shells reach 1 - 2^-12

    def test_hyperbolic_volume_diverges(self):
        for n in (2, 3):
            d = shell_decomposition(n, 10)
            si = integrate_shells(d, ONE_SHELLS, -float(n))
            assert si.verdict == Verdict.DIVERGENT

    def test_divergent_increments_match_radial_oracle(self):
        # n = 2, weight -2: shell increment = 1/(1-b^2) - 1/(1-a^2)
        d = shell_decomposition(2, 10)
        si = integrate_shells(d, ONE_SHELLS, -2.0)
        for j in (2, 5, 9):
            a, b = 1 - 2.0**-j, 1 - 2.0 ** -(j + 1)
            want = 1.0 / (1 - b**2) - 1.0 / (1 - a**2)
            assert si.increments[j] == pytest.approx(want, rel=1e-6)

    def test_partial_sums_monotone(self):
        d = shell_decomposition(3, 8)
        g = lambda pts: 1.0 + pts[:, 0] ** 2  # noqa: E731
        si = integrate_shells(d, grid_integrand(g, shells=True), 0.5)
        assert all(b >= a for a, b in zip(si.partial_sums, si.partial_sums[1:]))


class TestSupProbe:
    def test_constant_attains_sup_at_center(self):
        d = shell_decomposition(2, 10)
        c = lambda pts: np.full(pts.shape[0], 2.5)  # noqa: E731
        probe = sup_norm_probe(grid_integrand(c, shells=True), 1.3, d)
        assert probe.sup == pytest.approx(2.5, rel=1e-12)
        assert probe.shell_maxima[0] == probe.sup

    def test_polynomial_maxima_vanish(self):
        d = shell_decomposition(2, 24)
        g = lambda pts: pts[:, 0] ** 2  # noqa: E731
        probe = sup_norm_probe(grid_integrand(g, shells=True), 1.0, d)
        assert probe.shell_maxima[-1] < 1e-6 * max(probe.shell_maxima)

    @pytest.mark.parametrize("walk", list(WALKS.values()), ids=list(WALKS))
    def test_shells_truncate_on_nonconvergence(self, walk):
        d = shell_decomposition(2, 10)
        result = walk(d, failing_from_shell(3, NonConvergent("deep shell")))
        assert result.shells_used == 3

    @pytest.mark.parametrize("name", list(WALKS))
    def test_no_certified_shell_raises(self, name):
        d = shell_decomposition(2, 10)
        with pytest.raises(NonConvergent) as err:
            WALKS[name](d, failing_from_shell(0, NonConvergent("first shell")))
        assert str(err.value) == f"{WALK_RESULTS[name]} certified no shell of a depth-10 grid"
        assert str(err.value.__cause__) == "first shell"

    @pytest.mark.parametrize("walk", list(WALKS.values()), ids=list(WALKS))
    def test_other_errors_name_the_shell(self, walk):
        d = shell_decomposition(2, 10)
        with pytest.raises(EvaluationFailure, match="shell 2"):
            walk(d, failing_from_shell(2, RuntimeError("broken integrand")))

    @pytest.mark.parametrize("walk", list(WALKS.values()), ids=list(WALKS))
    @pytest.mark.parametrize("shape", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
    def test_wrong_shape_is_an_evaluation_failure(self, walk, shape):
        d = shell_decomposition(2, 4)
        g = lambda d, j: shape(d.shells[j].nodes.shape[0], d.spheres[j].units.shape[0])  # noqa: E731
        with pytest.raises(EvaluationFailure, match="shape"):
            walk(d, g)


class TestClassifier:
    def test_too_short_is_inconclusive(self):
        assert classify_increments([1.0, 0.5]) == Verdict.INCONCLUSIVE

    def test_geometric_decay(self):
        inc = [0.5**j for j in range(10)]
        assert classify_increments(inc) == Verdict.FINITE

    def test_vanished_tail(self):
        inc = [1.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert classify_increments(inc) == Verdict.FINITE

    def test_constant_increments_diverge(self):
        assert classify_increments([1.0] * 10) == Verdict.DIVERGENT

    def test_growing_increments_diverge(self):
        assert classify_increments([2.0**j for j in range(10)]) == Verdict.DIVERGENT

    def test_slow_decay_is_inconclusive(self):
        inc = [0.95**j for j in range(12)]
        assert classify_increments(inc) == Verdict.INCONCLUSIVE

    def test_below_floor_never_diverges(self):
        assert classify_increments([1e-15] * 10) == Verdict.FINITE

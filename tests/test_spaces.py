import math

import numpy as np
import pytest

import hball.spaces as spaces
from hball.calculus import (
    DiffPair,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    constant,
    evaluate,
    evaluate_grid,
)
from hball.errors import AdmissibilityError, NonConvergent, UnsupportedPair
from hball.experiments import verification_family
from hball.quadrature import BallQuadrature, Verdict, _frame, shell_decomposition
from hball.spaces import (
    BergmanBesov,
    Bloch,
    DecayVerdict,
    Inclusion,
    LittleBloch,
    Membership,
    besov_norm,
    besov_norm_shells,
    bloch_norm,
    default_shell_grid,
    distance_estimate,
    inclusion_predicate,
    level_set,
    little_bloch_test,
    membership_kernel_atom,
    reproduce,
    reproducing_rule,
    split,
)
from hball.special import weight_constant

ZETA2 = (1.0, 0.0)
ZETA3 = (1.0, 0.0, 0.0)


def besov_rule(n, spec, degree=24):
    return BallQuadrature.build(n, spec.alpha + spec.p * spec.pair.t, degree)


class TestSpecConstruction:
    def test_standard_pairs_are_admissible(self):
        spec = BergmanBesov.standard(1.0, -2.0)
        assert spec.alpha + spec.p * spec.pair.t > -1.0
        assert spec.pair.s == spec.alpha + spec.pair.t
        bspec = Bloch.standard(-2.0)
        assert bspec.alpha + bspec.pair.t > 0.0

    def test_inadmissible_pairs_rejected(self):
        with pytest.raises(AdmissibilityError):
            BergmanBesov(1.0, -2.0, DiffPair(0.0, 0.5))
        with pytest.raises(AdmissibilityError):
            Bloch(0.0, DiffPair(1.0, 0.0))
        with pytest.raises(AdmissibilityError):
            BergmanBesov(-1.0, 0.0, DiffPair(0.0, 1.0))


class TestBesovNorm:
    def test_constant_closed_form(self):
        # D 1 = 1, so the norm is (V_{alpha+pt}/V_alpha)^(1/p)
        for n in (2, 3):
            for p, alpha in ((1.0, 0.5), (2.0, 0.0), (1.5, -1.2)):
                spec = BergmanBesov.standard(p, alpha)
                q = besov_rule(n, spec)
                got = besov_norm(constant(n), spec, q)
                want = (
                    weight_constant(n, spec.alpha + p * spec.pair.t).value
                    / weight_constant(n, alpha).value
                ) ** (1.0 / p)
                assert got == pytest.approx(want, rel=1e-12)

    def test_zero_function(self):
        spec = BergmanBesov.standard(2.0, 0.0)
        q = besov_rule(2, spec)
        assert besov_norm(constant(2, 0.0), spec, q) == 0.0

    def test_homogeneity(self):
        f = HarmonicExpansion(2, (ZonalTerm(2, (0.0, 1.0), 1.0), KernelAtom(0.4, (0.5, 0.0))))
        spec = BergmanBesov.standard(2.0, 1.0)
        q = besov_rule(2, spec)
        base = besov_norm(f, spec, q)
        assert besov_norm(f.scaled(-3.7), spec, q) == pytest.approx(
            3.7 * base, rel=1e-12
        )

    def test_requires_matching_rule_weight(self):
        spec = BergmanBesov.standard(2.0, 0.0)
        q = BallQuadrature.build(2, 0.0, 16)
        with pytest.raises(AdmissibilityError):
            besov_norm(constant(2), spec, q)

    def test_kernel_atom_norm_finite_and_shell_stable(self):
        # beta + n > p (n + s): finite norm, stable under shell-depth doubling
        n, p, s, beta = 2, 1.0, 0.0, 1.5
        atom = HarmonicExpansion(n, (KernelAtom(s, ZETA2),))
        spec = BergmanBesov.standard(p, beta)
        shallow, est1 = besov_norm_shells(atom, spec, shell_decomposition(n, 6, (ZETA2,)))
        deep, est2 = besov_norm_shells(atom, spec, shell_decomposition(n, 12, (ZETA2,)))
        assert deep.verdict == Verdict.FINITE
        assert math.isfinite(est1) and math.isfinite(est2)
        assert est2 == pytest.approx(est1, rel=2e-2)

    def test_critical_atom_norm_diverges(self):
        n, p = 2, 1.0
        atom = HarmonicExpansion(n, (KernelAtom(0.0, ZETA2),))
        spec = BergmanBesov.standard(p, p * (n + 0.0) - n)  # boundary beta
        report, est = besov_norm_shells(atom, spec, shell_decomposition(n, 12, (ZETA2,)))
        assert report.verdict == Verdict.DIVERGENT
        assert est == math.inf


class TestBlochNorm:
    def test_constant(self):
        grid = shell_decomposition(2, 10)
        assert bloch_norm(constant(2, -2.5), Bloch.standard(0.0), grid) == pytest.approx(
            2.5, rel=1e-12
        )

    def test_zero(self):
        grid = shell_decomposition(2, 10)
        assert bloch_norm(constant(2, 0.0), Bloch.standard(1.0), grid) == 0.0

    def test_critical_atom_finite_positive(self):
        alpha, n = 0.0, 2
        atom = HarmonicExpansion(n, (KernelAtom(alpha - n, ZETA2),))
        grid = default_shell_grid(atom)
        spec = Bloch(alpha, DiffPair(alpha + 1.0, 1.0))
        norm = bloch_norm(atom, spec, grid)
        assert 0.0 < norm < math.inf
        # the weighted derivative stalls at a positive boundary level
        from hball.spaces import _bloch_probe

        probe = _bloch_probe(atom, spec, grid)
        assert min(probe.shell_maxima[-3:]) > 0.01 * probe.shell_maxima[0]


class TestNoCertifiedShell:
    """A grid without certified shells has no supremum: an error or an
    inconclusive verdict, never a NaN."""

    ATOM = HarmonicExpansion(2, (KernelAtom(-2.0, ZETA2),))
    SPEC = Bloch(0.0, DiffPair(3.0, 3.0))

    def grid(self):
        return shell_decomposition(2, 0, (ZETA2,))

    def test_bloch_norm_raises(self):
        with pytest.raises(NonConvergent, match="no shell of a depth-0 grid"):
            bloch_norm(self.ATOM, self.SPEC, self.grid())

    def test_distance_estimate_raises(self):
        with pytest.raises(NonConvergent, match="no shell of a depth-0 grid"):
            distance_estimate(self.ATOM, self.SPEC.alpha, self.SPEC.pair, self.grid())

    def test_little_bloch_inconclusive(self):
        assert little_bloch_test(self.ATOM, self.SPEC, self.grid()) == DecayVerdict.INCONCLUSIVE


class TestLittleBloch:
    def test_polynomials_decay(self):
        for n, zeta in ((2, ZETA2), (3, ZETA3)):
            poly = HarmonicExpansion(n, (ZonalTerm(3, zeta),))
            grid = default_shell_grid(poly)
            assert little_bloch_test(poly, LittleBloch.standard(0.5), grid) == DecayVerdict.DECAYING

    def test_constant_decays(self):
        one = constant(2)
        assert little_bloch_test(one, LittleBloch.standard(0.0), default_shell_grid(one)) \
            == DecayVerdict.DECAYING

    def test_critical_atom_does_not_decay(self):
        alpha, n = 1.0, 2
        atom = HarmonicExpansion(n, (KernelAtom(alpha - n, ZETA2),))
        grid = default_shell_grid(atom)
        spec = Bloch(alpha, DiffPair(alpha + 1.0, 1.0))
        assert little_bloch_test(atom, spec, grid) == DecayVerdict.NON_DECAYING


class TestLevelSet:
    def test_constant_closed_form_boundary(self):
        # the threshold radius satisfies r^2 = 1 - eps^(1/(alpha+t))
        n, alpha = 2, 0.0
        one = constant(n)
        pair = Bloch.standard(alpha).pair
        grid = default_shell_grid(one, depth=16)
        eps = 0.3
        rep = level_set(one, alpha, pair, eps, grid, -float(n))
        assert rep.verdict == Verdict.FINITE
        r_star = math.sqrt(1.0 - eps ** (1.0 / (alpha + pair.t)))
        for j, count in enumerate(rep.node_counts):
            shell_lo = 1.0 - 2.0 ** (-j)
            shell_hi = 1.0 - 2.0 ** (-j - 1)
            if shell_lo > r_star:
                assert count == 0
            if shell_hi < r_star:
                assert count > 0
        # total matches the radial closed form up to radial node quantization
        want = 1.0 / (1.0 - r_star**2) - 1.0
        assert rep.integral.total == pytest.approx(want, rel=5e-2)

    def test_threshold_above_norm_gives_empty_set(self):
        one = constant(2, 0.8)
        pair = Bloch.standard(0.0).pair
        grid = default_shell_grid(one, depth=10)
        rep = level_set(one, 0.0, pair, 2.0, grid, -2.0)
        assert sum(rep.node_counts) == 0
        assert rep.integral.total == 0.0

    def test_critical_atom_hyperbolic_divergence(self):
        n, alpha = 2, 0.0
        atom = HarmonicExpansion(n, (KernelAtom(alpha - n, ZETA2),))
        grid = default_shell_grid(atom)
        pair = DiffPair(alpha + 3.0, 3.0)
        norm = bloch_norm(atom, Bloch(alpha, pair), grid)
        rep = level_set(atom, alpha, pair, 0.02 * norm, grid, -float(n))
        assert rep.verdict == Verdict.DIVERGENT

    def test_monotone_in_epsilon_at_node_level(self):
        atom = HarmonicExpansion(2, (KernelAtom(-2.0, ZETA2),))
        grid = default_shell_grid(atom)
        pair = DiffPair(1.0, 1.0)
        reps = [
            level_set(atom, 0.0, pair, eps, grid, -2.0) for eps in (0.05, 0.2, 0.8)
        ]
        for small, large in zip(reps, reps[1:]):
            for a, b in zip(small.node_counts, large.node_counts):
                assert b <= a

    def test_requires_admissible_pair(self):
        with pytest.raises(AdmissibilityError):
            level_set(constant(2), 0.0, DiffPair(1.0, 0.0), 0.1,
                      default_shell_grid(constant(2)), -2.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_angular_measure_against_cap_closed_form(self, n):
        # f = Z_1 with its pole on the grid's polar axis: the level set per
        # radius is a symmetric pair of angular caps {|cos theta| >= c(r)}
        # with exact measure 2 arccos(c)/pi (n = 2) or 1 - c (n = 3)
        from scipy.integrate import quad

        from hball.kernel import gamma_ratio

        zeta = (1.0, 0.0) if n == 2 else (0.0, 0.0, 1.0)
        f = HarmonicExpansion(n, (ZonalTerm(1, zeta),))
        pair = DiffPair(1.0, 1.0)
        grid = default_shell_grid(f, depth=8)
        eps = 0.2
        rep = level_set(f, 0.0, pair, eps, grid, 0.0)
        ratio = gamma_ratio(n, pair.s, pair.t, 1)
        amp = 2.0 if n == 2 else 3.0  # Z_1(r u, zeta) = amp * r cos(theta)

        def cap_measure(r):
            c = eps / ((1.0 - r * r) * ratio * amp * r) if r > 0 else np.inf
            if c >= 1.0:
                return 0.0
            return 2.0 * math.acos(c) / math.pi if n == 2 else 1.0 - c

        for j in (1, 2, 3):
            lo, hi = 1 - 2.0 ** (-j), 1 - 2.0 ** (-j - 1)
            want, err = quad(lambda r: n * r ** (n - 1) * cap_measure(r), lo, hi)
            got = rep.integral.increments[j]
            assert got == pytest.approx(want, rel=2e-3, abs=1e-12)

    def test_report_serialization(self):
        one = constant(2)
        pair = Bloch.standard(0.0).pair
        rep = level_set(one, 0.0, pair, 0.5, default_shell_grid(one, depth=8), -2.0)
        d = rep.to_json_dict()
        assert {"spec", "pair", "epsilon", "shells", "verdict", "node_counts"} <= set(d)


class TestMembershipPredicate:
    def test_spec_examples(self):
        assert membership_kernel_atom(2, 1.0, 0.0, 0.5) == Membership.MEMBER
        assert membership_kernel_atom(2, 1.0, 0.0, 0.0) == Membership.NON_MEMBER
        # n=3, p=2, s=-3: member iff beta > -3
        assert membership_kernel_atom(3, 2.0, -3.0, -2.9) == Membership.MEMBER
        assert membership_kernel_atom(3, 2.0, -3.0, -3.1) == Membership.NON_MEMBER

    def test_boundary_is_excluded(self):
        assert membership_kernel_atom(3, 2.0, -3.0, -3.0) == Membership.NON_MEMBER

    def test_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            membership_kernel_atom(2, 0.5, 0.0, 0.0)


class TestInclusionPredicate:
    def test_critical_integral_space_sits_inside_sup_space(self):
        # (p, p*alpha - n) into sup-norm alpha: the equality case is included
        n, p, alpha = 2, 2.0, 0.5
        frm = BergmanBesov.standard(p, p * alpha - n)
        to = Bloch.standard(alpha)
        assert inclusion_predicate(n, frm, to) == Inclusion.INCLUDED

    def test_decreasing_exponent_strict_condition(self):
        # (2, 0) into (1, beta) iff 1/2 < beta + 1
        frm = BergmanBesov.standard(2.0, 0.0)
        assert inclusion_predicate(2, frm, BergmanBesov.standard(1.0, -0.4)) == Inclusion.INCLUDED
        assert inclusion_predicate(2, frm, BergmanBesov.standard(1.0, -0.6)) == Inclusion.NOT_INCLUDED

    def test_increasing_exponent_weak_condition(self):
        # (1, 0) into (2, beta) iff n <= (beta+n)/2, i.e. beta >= n
        for n in (2, 3):
            frm = BergmanBesov.standard(1.0, 0.0)
            assert inclusion_predicate(n, frm, BergmanBesov.standard(2.0, float(n))) == Inclusion.INCLUDED
            assert inclusion_predicate(n, frm, BergmanBesov.standard(2.0, n - 0.1)) == Inclusion.NOT_INCLUDED

    def test_sup_space_into_integral_space(self):
        # alpha < (beta+1)/p
        frm = Bloch.standard(0.4)
        assert inclusion_predicate(2, frm, BergmanBesov.standard(2.0, 0.0)) == Inclusion.INCLUDED
        assert inclusion_predicate(2, Bloch.standard(0.6), BergmanBesov.standard(2.0, 0.0)) \
            == Inclusion.NOT_INCLUDED

    def test_sup_into_sup_unsupported(self):
        with pytest.raises(UnsupportedPair):
            inclusion_predicate(2, Bloch.standard(0.0), Bloch.standard(1.0))


class TestReproduce:
    def test_constant_reproduces(self):
        for n in (2, 3):
            s, t = 0.5, 1.0
            q = reproducing_rule(n, s, t)
            one = constant(n)
            rng = np.random.default_rng(1)
            for _ in range(4):
                x = rng.uniform(-1, 1, n)
                x *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(x), 1e-12)
                assert reproduce(one, s, t, x, q) == pytest.approx(1.0, abs=1e-6)

    def test_zonal_term_reproduces(self):
        n, s, t = 2, 0.5, 1.0
        q = reproducing_rule(n, s, t)
        f = HarmonicExpansion(n, (ZonalTerm(1, ZETA2, 1.3),))
        for x in ([0.4, 0.2], [-0.7, 0.1], [0.0, 0.85]):
            assert reproduce(f, s, t, x, q) == pytest.approx(
                evaluate(f, x), abs=1e-6
            )

    def test_center_gives_mean_value(self):
        n, s, t = 2, 0.0, 1.5
        q = BallQuadrature.build(n, s + t, 32)
        f = HarmonicExpansion(n, (ZonalTerm(2, (0.0, 1.0), 0.7), ZonalTerm(0, ZETA2, 1.1)))
        assert reproduce(f, s, t, np.zeros(n), q) == pytest.approx(
            evaluate(f, np.zeros(n)), abs=1e-9
        )

    def test_requires_matching_rule(self):
        q = BallQuadrature.build(2, 0.7, 16)
        with pytest.raises(AdmissibilityError):
            reproduce(constant(2), 0.5, 1.0, np.zeros(2), q)


class TestSplit:
    def test_threshold_above_norm_puts_everything_in_f2(self):
        n, alpha = 2, 0.0
        one = constant(n)
        pair = DiffPair(alpha + 1.0, 1.0)
        q = reproducing_rule(n, pair.s, pair.t)
        res = split(one, alpha, pair, 5.0, q)
        for x in ([0.0, 0.0], [0.5, 0.2]):
            assert res.f1(x) == pytest.approx(0.0, abs=1e-12)
            assert res.f2(x) == pytest.approx(1.0, abs=1e-6)

    def test_parts_sum_to_the_function(self):
        n, alpha = 2, 0.0
        one = constant(n)
        pair = DiffPair(1.0, 1.0)
        q = reproducing_rule(n, pair.s, pair.t)
        res = split(one, alpha, pair, 0.5, q)
        for x in ([0.0, 0.0], [0.4, -0.3], [0.8, 0.1]):
            assert res.f1(x) + res.f2(x) == pytest.approx(1.0, abs=1e-6)
        assert res.f2_weighted_sup <= 0.5 * 3.0  # C * eps with a small constant

    def test_critical_atom_residual_shrinks_with_epsilon(self):
        n, alpha = 2, 0.0
        atom = HarmonicExpansion(n, (KernelAtom(alpha - n, ZETA2),))
        pair = DiffPair(alpha - n, 1.0 + n)  # atom's own base keeps the shift exact
        q = BallQuadrature.shell_composite(n, pair.s + pair.t, depth=12, foci=(ZETA2,))
        grid = default_shell_grid(atom)
        norm = bloch_norm(atom, Bloch(alpha, DiffPair(alpha + 1, 1.0)), grid)
        probes = np.array([[0.3, 0.0], [0.6, 0.0], [0.8, 0.0]])
        sups = []
        for eps in (0.5 * norm, 0.1 * norm, 0.02 * norm):
            res = split(atom, alpha, pair, eps, q, probes=probes)
            sups.append(
                max(abs(evaluate(atom, x, 1e-10) - res.f1(x)) for x in probes)
            )
        assert sups[0] > sups[-1]
        assert all(b <= a * 1.5 for a, b in zip(sups, sups[1:]))


class TestDistance:
    def test_polynomial_distance_is_zero(self):
        poly = HarmonicExpansion(2, (ZonalTerm(2, (0.0, 1.0), 1.2),))
        grid = default_shell_grid(poly, depth=14)
        est = distance_estimate(poly, 0.0, DiffPair(2.0, 2.0), grid)
        assert est.upper <= 1e-3 * est.bloch_norm
        assert est.value <= 1e-3 * est.bloch_norm

    def test_zero_function(self):
        zero = constant(2, 0.0)
        est = distance_estimate(zero, 0.0, DiffPair(1.0, 1.0), default_shell_grid(zero))
        assert est.value == 0.0

    def test_critical_atom_distance_positive(self):
        n, alpha = 2, 0.0
        atom = HarmonicExpansion(n, (KernelAtom(alpha - n, ZETA2),))
        grid = default_shell_grid(atom)
        est = distance_estimate(atom, alpha, DiffPair(alpha + 3.0, 3.0), grid)
        assert est.lower > 0.0
        assert est.value > 0.01 * est.bloch_norm


def _bisect_one_step_per_call(field, shell_nodes, exponent, eps, r_idx, lo, hi, lo_in, unit_of):
    """Reference: eight halvings, one grid evaluation each."""
    weight = (1.0 - shell_nodes[r_idx] ** 2) ** exponent
    tol = max(field.tol_rel, 1e-5)
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        vals = evaluate_grid(field.g, shell_nodes, unit_of(mid), tol_rel=tol)
        mid_in = weight * np.abs(vals[r_idx, np.arange(len(r_idx))]) >= eps
        take_lo = mid_in == lo_in
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


class TestBisectLookahead:
    """The lookahead bisection locates the same boundaries, bit for bit, as
    one grid evaluation per halving, in two evaluations per call."""

    J, SHELL_DEPTH = 3, 4

    def critical_field(self, n):
        """The critical atom's derivative field, and half its largest
        weighted value on shell J as the level."""
        _, (_, f, pair), zeta = verification_family(n, 0.0)
        grid = shell_decomposition(n, self.SHELL_DEPTH, (zeta,))
        field = spaces._derivative_field(f, pair, grid)
        exponent = pair.t
        nodes = grid.shells[self.J].nodes
        weighted = (1.0 - nodes**2)[:, None] ** exponent * np.abs(field.eval_shell(grid, self.J))
        return field, grid, nodes, exponent, 0.5 * float(weighted.max()), np.asarray(zeta)

    def level_brackets(self, monkeypatch, field, grid, exponent, eps):
        """The brackets the level-set measure hands to the bisection."""
        seen = []
        real = spaces._bisect_boundaries

        def record(*args):
            seen.append(args)
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(spaces, "_bisect_boundaries", record)
            spaces._shell_level_measures(field, grid, self.J, exponent, eps)
        assert len(seen) == 1
        return seen[0]

    def wide_brackets(self, field, nodes, exponent, eps, zeta):
        """Brackets across the pole direction, where the indicator flips at
        least twice: from -1 to 1 rad and from the pole once round to it."""
        n = zeta.shape[0]
        i = nodes.shape[0] - 1
        r_idx = np.array([i, i])
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0 * np.pi])
        if n == 2:
            base = math.atan2(zeta[1], zeta[0])

            def unit_of(a):
                return np.stack([np.cos(base + a), np.sin(base + a)], axis=1)
        else:
            e1, _ = _frame(zeta)

            def unit_of(th):
                return np.cos(th)[:, None] * zeta[None, :] + np.sin(th)[:, None] * e1[None, :]

        # the indicator along each bracket, sampled densely
        lo_in = []
        for b in range(2):
            path = np.linspace(lo[b], hi[b], 801)
            vals = evaluate_grid(field.g, nodes[i : i + 1], unit_of(path), tol_rel=1e-9)[0]
            status = (1.0 - nodes[i] ** 2) ** exponent * np.abs(vals) >= eps
            assert np.count_nonzero(status[1:] != status[:-1]) >= 2
            lo_in.append(status[0])
        return (field, nodes, exponent, eps, r_idx, lo, hi, np.array(lo_in), unit_of)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_one_step_per_call(self, n, monkeypatch):
        field, grid, nodes, exponent, eps, zeta = self.critical_field(n)
        cases = [
            self.level_brackets(monkeypatch, field, grid, exponent, eps),
            self.wide_brackets(field, nodes, exponent, eps, zeta),
        ]
        lo_in = np.concatenate([case[7] for case in cases])
        assert lo_in.any() and not lo_in.all()

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_grid(*args, **kwargs)

        monkeypatch.setattr(spaces, "evaluate_grid", counted)
        for case in cases:
            calls.clear()
            got = spaces._bisect_boundaries(*case)
            assert len(calls) == 2
            assert np.array_equal(got, _bisect_one_step_per_call(*case))


class TestPairIndependence:
    def test_finiteness_agrees_across_admissible_pairs(self):
        # two admissible pairs must agree on finite vs divergent
        n, p, beta = 2, 1.0, 1.5
        atom_in = HarmonicExpansion(n, (KernelAtom(0.0, ZETA2),))
        atom_out = HarmonicExpansion(n, (KernelAtom(2.0, ZETA2),))
        grid = shell_decomposition(n, 12, (ZETA2,))
        for atom, expected in ((atom_in, Verdict.FINITE), (atom_out, Verdict.DIVERGENT)):
            verdicts = []
            for t in (1.0, 2.0):
                spec = BergmanBesov(p, beta, DiffPair(beta + t, t))
                report, _ = besov_norm_shells(atom, spec, grid)
                verdicts.append(report.verdict)
            assert verdicts[0] == verdicts[1] == expected

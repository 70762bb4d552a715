import gc
import math
import weakref

import numpy as np
import pytest

from conftest import points_at_norms, rule_sum_reference

import hball.spaces as spaces
from hball.calculus import (
    DiffPair,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    apply_D,
    constant,
    evaluate,
    evaluate_grid,
    evaluate_grids,
)
from hball.errors import AdmissibilityError, EvaluationFailure, NonConvergent, UnsupportedPair
from hball.experiments import verification_family
from hball.kernel import CoeffProduct
from hball.quadrature import BallQuadrature, Verdict, shell_decomposition
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

    @pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
    def test_exponent_outside_zero_to_infinity_refused(self, p):
        with pytest.raises(ValueError, match="0 < p < inf"):
            BergmanBesov.standard(p, 0.0)
        with pytest.raises(ValueError, match="0 < p < inf"):
            BergmanBesov(p, 0.0, DiffPair(1.0, 1.0))


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

    def test_level_set_raises(self):
        with pytest.raises(NonConvergent, match="^level-set integral certified no shell of a depth-0 grid$"):
            level_set(self.ATOM, self.SPEC.alpha, self.SPEC.pair, 0.1, self.grid(), -2.0)

    def test_little_bloch_inconclusive(self):
        assert little_bloch_test(self.ATOM, self.SPEC, self.grid()) == DecayVerdict.INCONCLUSIVE

    def test_besov_norm_shells_raises(self):
        with pytest.raises(NonConvergent, match="no shell of a depth-0 grid"):
            besov_norm_shells(self.ATOM, BergmanBesov.standard(2.0, 0.0), self.grid())

    def test_an_overflowing_atom_has_no_norm_estimate(self):
        # its majorant overflows on shell 0, so no shell is certified
        zeta = (1.0, 0.0, 0.0)
        atom = HarmonicExpansion(3, (KernelAtom(3e5, zeta),))
        with pytest.raises(NonConvergent, match="no shell of a depth-12 grid"):
            besov_norm_shells(atom, BergmanBesov.standard(2.0, 0.0), shell_decomposition(3, 12, (zeta,)))


class TestLittleBloch:
    def test_standard_keeps_the_subclass(self):
        spec = LittleBloch.standard(0.5)
        assert type(spec) is LittleBloch
        assert spec.pair == Bloch.standard(0.5).pair

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


def level_measures_of_one_shell(level, bounds):
    """The per-radius level-set measures and the in-set node count of one
    shell, by a pass over that shell alone: its runs per (radius, ring)
    between the span's ends and its boundaries, every other arc summed in
    order by `np.bincount`, and the mean over the rings."""
    rings, status = level.rings, level.status
    cuts = level.flips.sum(axis=2).ravel()
    before = np.cumsum(cuts) - cuts
    lo = np.insert(bounds, before, rings.span[0])
    hi = np.insert(bounds, before + cuts, rings.span[1])
    cell = np.repeat(np.arange(cuts.size), cuts + 1)
    arc = np.arange(cell.size) - np.repeat(before + np.arange(cuts.size), cuts + 1)
    inside = (arc % 2 == 0) == status[:, :, 0].ravel()[cell]
    measures = np.bincount(cell[inside], rings.measure(lo, hi)[inside], minlength=cuts.size)
    return measures.reshape(status.shape[:2]).mean(axis=1), int(status.sum())


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

    @pytest.mark.parametrize(
        "epsilon, weight_exponent",
        [(math.nan, -2.0), (0.0, -2.0), (-0.1, -2.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)],
    )
    def test_refuses_non_positive_epsilon_and_non_finite_weight(self, epsilon, weight_exponent):
        one = constant(2)
        with pytest.raises(ValueError):
            level_set(one, 0.0, Bloch.standard(0.0).pair, epsilon,
                      default_shell_grid(one, depth=8), weight_exponent)

    @pytest.mark.parametrize(
        "zeta",
        [
            pytest.param((1.0, 0.0), id="2"),
            pytest.param((math.cos(1.0), math.sin(1.0)), id="2-tilted"),
            pytest.param((0.0, 0.0, 1.0), id="3"),
            pytest.param((math.sqrt(0.5), 0.0, math.sqrt(0.5)), id="3-tilted-xz"),
            pytest.param((0.0, math.sqrt(0.5), math.sqrt(0.5)), id="3-tilted-yz"),
        ],
    )
    def test_angular_measure_against_cap_closed_form(self, zeta):
        # f = Z_1 with pole zeta: the level set per radius is a symmetric
        # pair of angular caps {|cos theta| >= c(r)} about zeta with exact
        # measure 2 arccos(c)/pi (n = 2) or 1 - c (n = 3).  On the unfocused
        # grid a tilted pole lies off the rule's polar axis, so the caps cut
        # the meridians obliquely; at n = 2 it puts cap boundaries in the
        # circle's wrap gap at some radii.
        from scipy.integrate import quad

        from hball.kernel import gamma_ratio

        n = len(zeta)
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

    def test_a_ring_of_many_arcs_measures_as_its_runs(self):
        # |Z_12(r u, zeta)| = 2 r^12 |cos 12 theta| is above a third of its
        # largest value on 9 arcs of the circle; the arcs are summed in
        # order, which from 8 arcs on may round otherwise than np.sum
        n, j = 2, 2
        f = HarmonicExpansion(n, (ZonalTerm(12, ZETA2),))
        grid = shell_decomposition(n, 4)
        vals = spaces._shell_values(f, grid, j)
        eps = float(np.abs(vals).max()) / 3.0
        level = spaces._level_shell(f, grid, j, 0.0, eps)
        (bounds,), stop = spaces._bisect_boundaries(f, 0.0, eps, [level.brackets])
        assert stop is None
        ((got, count),) = spaces._shell_level_measures([level], [bounds])
        rings = grid.spheres[j].rings
        status = np.abs(vals[:, rings.index]) >= eps
        flips = status != np.roll(status, -1, axis=2)
        per_ring = np.split(bounds, np.cumsum(flips.sum(axis=2).ravel())[:-1])
        runs = []
        for first_in, cuts in zip(status[:, :, 0].ravel(), per_ring):
            edges = np.concatenate([[rings.span[0]], cuts, [rings.span[1]]])
            runs.append(rings.measure(edges[:-1], edges[1:])[int(not first_in) :: 2])
        assert max(r.size for r in runs) >= 8
        want = np.reshape([r.sum() for r in runs], status.shape[:2]).mean(axis=1)
        assert count == status.sum()
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_shells_measured_together_are_each_shell_alone(self, n):
        # one pass over the shells of a walk gives each shell the measures
        # and count, bit for bit, of a pass over that shell alone
        _, (_, f, pair), zeta = verification_family(n, 0.0)
        grid = shell_decomposition(n, 6, (zeta,))
        g = apply_D(f, pair)
        eps = 0.1 * bloch_norm(f, Bloch(0.0, pair), grid)
        levels = [spaces._level_shell(g, grid, j, pair.t, eps) for j in range(grid.depth)]
        bounds, stop = spaces._bisect_boundaries(g, pair.t, eps, [level.brackets for level in levels])
        assert stop is None and sum(b.size > 0 for b in bounds) >= 3
        got = spaces._shell_level_measures(levels, bounds)
        assert len(got) == grid.depth
        for level, shell_bounds, (measures, count) in zip(levels, bounds, got):
            want, want_count = level_measures_of_one_shell(level, shell_bounds)
            assert count == want_count
            assert measures.tobytes() == want.tobytes()
        # the shells past the bisected ones are left out
        assert [m.tobytes() for m, _ in spaces._shell_level_measures(levels, bounds[:2])] == [
            m.tobytes() for m, _ in got[:2]
        ]
        assert spaces._shell_level_measures(levels, []) == []

    def shell_walk_failing_from(self, monkeypatch, j_fail, exc):
        """level_set on a constant, with the indicator of shells >= j_fail
        (the walk's first phase) raising `exc`."""
        real = spaces._level_shell

        def failing(g, grid, j, exponent, eps):
            if j >= j_fail:
                raise exc
            return real(g, grid, j, exponent, eps)

        monkeypatch.setattr(spaces, "_level_shell", failing)
        one = constant(2)
        pair = Bloch.standard(0.0).pair
        return level_set(one, 0.0, pair, 0.5, default_shell_grid(one, depth=8), -2.0)

    def test_shells_truncate_on_nonconvergence(self, monkeypatch):
        rep = self.shell_walk_failing_from(monkeypatch, 3, NonConvergent("deep shell"))
        assert rep.integral.shells_used == 3
        assert len(rep.node_counts) == 3

    def test_other_errors_name_the_shell(self, monkeypatch):
        with pytest.raises(EvaluationFailure, match="shell 2"):
            self.shell_walk_failing_from(monkeypatch, 2, RuntimeError("broken measure"))

    def bisection_failing_on(self, monkeypatch, j_fail, result):
        """level_set of the critical atom at n = 2, where the paired call of
        the bisection (the walk's second phase) gives `result(values)` for
        shell j_fail's pairs, and the same walk without the failure."""
        atom = HarmonicExpansion(2, (KernelAtom(-2.0, ZETA2),))
        grid = default_shell_grid(atom)
        pair = DiffPair(1.0, 1.0)
        eps = 0.5 * bloch_norm(atom, Bloch(0.0, pair), grid)
        g = apply_D(atom, pair)
        assert all(len(spaces._level_shell(g, grid, j, 1.0, eps).brackets[1]) for j in range(4))
        want = level_set(atom, 0.0, pair, eps, grid, -2.0)
        fail_nodes = grid.shells[j_fail].nodes
        real = spaces.evaluate_grids

        def failing(fs, grids, **kw):
            (values,) = real(fs, grids, **kw)
            return [[result(v) if radii is fail_nodes else v for (radii, _, _), v in zip(grids, values)]]

        monkeypatch.setattr(spaces, "evaluate_grids", failing)
        return level_set(atom, 0.0, pair, eps, grid, -2.0), want

    @pytest.mark.parametrize("j_fail", [1, 3])
    def test_a_shell_whose_bisection_raises_ends_the_walk(self, monkeypatch, j_fail):
        got, want = self.bisection_failing_on(monkeypatch, j_fail, lambda v: NonConvergent("deep shell"))
        assert want.integral.shells_used > j_fail
        assert got.integral.increments == want.integral.increments[:j_fail]
        assert got.node_counts == want.node_counts[:j_fail]

    def test_no_shell_bisected_certifies_no_shell(self, monkeypatch):
        with pytest.raises(NonConvergent, match="certified no shell"):
            self.bisection_failing_on(monkeypatch, 0, lambda v: NonConvergent("deep shell"))

    def test_other_bisection_errors_name_the_shells(self, monkeypatch):
        def broken(values):
            raise RuntimeError("broken pairs")

        with pytest.raises(EvaluationFailure, match="shells 0-"):
            self.bisection_failing_on(monkeypatch, 2, broken)

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

    @staticmethod
    def assert_rule_sums(q, kernel_s, points, values, got):
        """`got` against the per-point grid sum of the kernel series over the
        rule, within 1e-12 of its mass."""
        weighted = q.radial_weights[:, None] * values * q.sphere.weights
        v = weight_constant(q.dimension, q.gamma).value
        degrees = []
        for x, g in zip(points, got):
            want, mass, k = rule_sum_reference(
                q.dimension, CoeffProduct.kernel(kernel_s), x, q.radial_nodes, q.units,
                weighted, spaces._RULE_TOL,
            )
            assert abs(g - want / v) <= 1e-12 * mass / v
            degrees.append(k)
        return degrees

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_stack_is_the_per_point_grid_sum(self, n):
        s, t = 0.5, 1.0
        q = reproducing_rule(n, s, t)
        e = np.eye(n)
        f = HarmonicExpansion(n, (KernelAtom(0.3, tuple(0.6 * e[1])), ZonalTerm(2, tuple(e[0]), 0.7)))
        points = points_at_norms(np.random.default_rng(n), n, [0.0, 0.3, 0.8, 0.9])
        got = reproduce(f, s, t, points, q)
        assert got.shape == (4,)
        gv = spaces._rule_derivative(f, s, t, q)
        want = {2: [0, 20, 112, 238], 3: [0, 22, 124, 262]}[n]
        assert self.assert_rule_sums(q, s, points, gv, got) == want
        for x, g in zip(points, got):
            one = reproduce(f, s, t, x, q)
            assert isinstance(one, float) and one == g
            assert one == pytest.approx(evaluate(f, x), abs=1e-6)

    def test_keeps_nothing_under_its_rule(self):
        n, s, t = 2, 0.5, 1.0
        q = reproducing_rule(n, s, t)
        f = HarmonicExpansion(n, (KernelAtom(0.3, (0.0, 0.6)),))
        reproduce(f, s, t, np.array([[0.1, 0.2], [0.3, -0.4]]), q)
        assert q not in spaces._MEMO

    def test_requires_matching_rule(self):
        q = BallQuadrature.build(2, 0.7, 16)
        with pytest.raises(AdmissibilityError):
            reproduce(constant(2), 0.5, 1.0, np.zeros(2), q)


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


def _bisect_one_step_per_call(g, exponent, eps, shell_nodes, r_idx, lo, hi, lo_in, unit_of):
    """Reference: eight halvings, one grid evaluation each."""
    weight = (1.0 - shell_nodes[r_idx] ** 2) ** exponent
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        vals = evaluate_grid(g, shell_nodes, unit_of(mid), tol_rel=spaces._BISECT_TOL)
        mid_in = weight * np.abs(vals[r_idx, np.arange(len(r_idx))]) >= eps
        take_lo = mid_in == lo_in
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


def _bisect_lookahead_per_shell(g, exponent, eps, shell_nodes, r_idx, lo, hi, lo_in, unit_of):
    """Reference: the lookahead bisection of one shell on its own grid,
    one grid evaluation of the shell's nodes per round; a shell without
    brackets evaluates nothing."""
    if not len(r_idx):
        return np.empty(0)
    weight = (1.0 - shell_nodes[r_idx] ** 2) ** exponent
    cols = np.arange(len(r_idx))
    for _ in range(spaces._BISECT_STEPS // spaces._LOOKAHEAD):
        brackets, mids = [(lo, hi)], []
        for i in range(2**spaces._LOOKAHEAD - 1):
            a, b = brackets[i]
            mids.append(0.5 * (a + b))
            brackets += [(a, mids[-1]), (mids[-1], b)]
        units = unit_of(np.concatenate(mids))
        vals = evaluate_grid(g, shell_nodes, units, tol_rel=spaces._BISECT_TOL)
        table = np.stack(mids)
        inside = weight * np.abs(vals[r_idx, np.arange(units.shape[0]).reshape(table.shape)]) >= eps
        node = np.zeros(len(r_idx), dtype=int)
        for _ in range(spaces._LOOKAHEAD):
            take_lo = inside[node, cols] == lo_in
            lo = np.where(take_lo, table[node, cols], lo)
            hi = np.where(take_lo, hi, table[node, cols])
            node = 2 * node + np.where(take_lo, 2, 1)
    return 0.5 * (lo + hi)


class TestMemo:
    def test_fields_do_not_keep_their_grid_alive(self):
        grid = shell_decomposition(2, 3)
        spaces._shell_values(constant(2), grid, 0)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None

    def test_equal_derivatives_share_their_shell_values(self, monkeypatch):
        # D of a constant under either pair is the constant itself, so the
        # second norm reuses every shell of the first
        f = constant(2, 2.0)
        assert apply_D(f, DiffPair(1.0, 1.0)) == apply_D(f, DiffPair(3.0, 3.0)) == f
        depth = 4
        grid = shell_decomposition(2, depth)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_grid(*args, **kwargs)

        monkeypatch.setattr(spaces, "evaluate_grid", counted)
        first = bloch_norm(f, Bloch(0.0, DiffPair(1.0, 1.0)), grid)
        second = bloch_norm(f, Bloch(0.0, DiffPair(3.0, 3.0)), grid)
        assert len(calls) == depth
        assert first == pytest.approx(2.0) and second == pytest.approx(2.0)


    def test_level_magnitudes_are_formed_once_per_field_shell_and_exponent(self, monkeypatch):
        # a distance estimate walks the level sets of one field at many
        # levels; each shell's weighted magnitudes are formed by its first
        # walk and read by the others
        _, (_, atom, pair), zeta = verification_family(2, 0.0)
        grid = shell_decomposition(2, 12, (zeta,))
        made, levels = [], []
        memo, level_shell = spaces._memo, spaces._level_shell

        def spied_memo(owner, key, make):
            def counted():
                made.append(key)
                return make()

            return memo(owner, key, counted)

        def spied_level_shell(g, grid, j, exponent, eps):
            levels.append(eps)
            return level_shell(g, grid, j, exponent, eps)

        monkeypatch.setattr(spaces, "_memo", spied_memo)
        monkeypatch.setattr(spaces, "_level_shell", spied_level_shell)
        est = distance_estimate(atom, 0.0, pair, grid)
        assert est.lower > 0.0 and len(set(levels)) > 3
        g = apply_D(atom, pair)
        magnitudes = [key for key in made if len(key) == 3]
        assert magnitudes == [(g, j, pair.t) for j in range(grid.depth)]
        # the same magnitudes, at a level walked by the estimate
        eps = levels[-1]
        level = level_shell(g, grid, 5, pair.t, eps)
        nodes, rings = grid.shells[5].nodes, grid.spheres[5].rings
        weighted = (1.0 - nodes**2) ** pair.t
        want = weighted[:, None, None] * np.abs(spaces._shell_values(g, grid, 5)[:, rings.index]) >= eps
        assert np.array_equal(level.status, want)


class TestFillShellValues:
    """Filling several fields shell by shell computes exactly the shells
    the walks over them ask for, and the walks read them: the same maxima,
    verdicts and errors as walks that evaluate their own shells."""

    ZETA = (0.0, 0.0, 1.0)
    # the sup-norm pair of weight 0; the last atom's majorant overflows on
    # the grid's deeper shells
    SPEC = Bloch(0.0, DiffPair(1.0, 1.0))
    FS = (
        constant(3),
        HarmonicExpansion(3, (KernelAtom(-5.5, ZETA),)),
        HarmonicExpansion(3, (KernelAtom(150.0, ZETA),)),
    )

    def walks(self, grid):
        maxima = [spaces._bloch_probe(f, self.SPEC, grid).shell_maxima for f in self.FS]
        return maxima, [little_bloch_test(f, self.SPEC, grid) for f in self.FS]

    def test_the_walks_read_what_the_fill_computed(self, monkeypatch):
        fields = [apply_D(f, self.SPEC.pair) for f in self.FS]
        asked = []

        def counted(g, radii, units, **kw):
            asked.append(g)
            return evaluate_grid(g, radii, units, **kw)

        monkeypatch.setattr(spaces, "evaluate_grid", counted)
        alone = shell_decomposition(3, 9, (self.ZETA,))
        want_maxima, want_decay = self.walks(alone)
        failed = len(want_maxima[2])
        assert 0 < failed < alone.depth and len(want_maxima[1]) == alone.depth
        with pytest.raises(NonConvergent) as want_error:
            evaluate_grid(fields[2], alone.shells[failed].nodes, alone.spheres[failed].units, tol_rel=spaces.REL_TOL)
        # each field up to its first failure, the failure once: a second
        # walk over a failed field reads the memoized error
        assert len(asked) == 2 * alone.depth + failed + 1

        filled = []

        def batched(gs, grids, **kw):
            filled.extend(gs)
            return evaluate_grids(gs, grids, **kw)

        monkeypatch.setattr(spaces, "evaluate_grids", batched)
        asked.clear()
        grid = shell_decomposition(3, 9, (self.ZETA,))
        spaces.fill_shell_values([(f, self.SPEC.pair) for f in self.FS + self.FS[1:2]], grid)
        # the constant's field has no series atom and is left to its walks
        assert len(filled) == grid.depth + failed + 1 and fields[0] not in filled
        got_maxima, got_decay = self.walks(grid)
        assert asked == [fields[0]] * grid.depth
        assert got_maxima == want_maxima and got_decay == want_decay
        with pytest.raises(NonConvergent) as got_error:
            spaces._shell_values(fields[2], grid, failed)
        assert str(got_error.value) == str(want_error.value)


class TestBisectLookahead:
    """The lookahead bisection locates the same boundaries, bit for bit, as
    one grid evaluation per halving, in two paired calls over all the
    shells of a walk; each series is summed on the grids that one shell's
    bisection on its own evaluates."""

    J, SHELL_DEPTH = 3, 4

    def critical_derivative(self, n):
        """The critical atom's derivative, and half its largest weighted
        value on shell J as the level."""
        _, (_, f, pair), zeta = verification_family(n, 0.0)
        grid = shell_decomposition(n, self.SHELL_DEPTH, (zeta,))
        g = apply_D(f, pair)
        exponent = pair.t
        nodes = grid.shells[self.J].nodes
        weighted = (1.0 - nodes**2)[:, None] ** exponent * np.abs(spaces._shell_values(g, grid, self.J))
        return g, grid, exponent, 0.5 * float(weighted.max()), np.asarray(zeta)

    def wide_brackets(self, g, grid, exponent, eps, zeta):
        """Brackets along ring 0 of shell J's rule across the pole direction,
        where the indicator flips at least twice: from -1 to 1 rad and from
        the pole once round to it."""
        nodes, rings = grid.shells[self.J].nodes, grid.spheres[self.J].rings
        # parameter 0 of ring 0 is the pole: the focused circle's angle 0 is
        # zeta = (1, 0), and every meridian starts at its focus
        assert np.allclose(rings.units(0, np.zeros(1)), zeta, atol=1e-15)
        i = nodes.shape[0] - 1
        r_idx = np.array([i, i])
        lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0 * np.pi])

        def unit_of(t):
            return rings.units(0, t)

        # the indicator along each bracket, sampled densely
        lo_in = []
        for b in range(2):
            path = np.linspace(lo[b], hi[b], 801)
            vals = evaluate_grid(g, nodes[i : i + 1], unit_of(path), tol_rel=1e-9)[0]
            status = (1.0 - nodes[i] ** 2) ** exponent * np.abs(vals) >= eps
            assert np.count_nonzero(status[1:] != status[:-1]) >= 2
            lo_in.append(status[0])
        return (nodes, r_idx, lo, hi, np.array(lo_in), unit_of)

    def walk_brackets(self, n):
        """The brackets of every shell of the walk, as its first phase
        hands them to the bisection, and the wide brackets as one shell
        more."""
        g, grid, exponent, eps, zeta = self.critical_derivative(n)
        shells = [spaces._level_shell(g, grid, j, exponent, eps).brackets for j in range(grid.depth)]
        shells.append(self.wide_brackets(g, grid, exponent, eps, zeta))
        assert sum(len(shell[1]) > 0 for shell in shells) >= 3
        lo_in = np.concatenate([shell[4] for shell in shells])
        assert lo_in.any() and not lo_in.all()
        return g, exponent, eps, shells

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_one_step_per_call(self, n, monkeypatch):
        g, exponent, eps, shells = self.walk_brackets(n)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_grids(*args, **kwargs)

        monkeypatch.setattr(spaces, "evaluate_grids", counted)
        for shell in [shells[self.J], shells[-1]]:
            calls.clear()
            (got,), stop = spaces._bisect_boundaries(g, exponent, eps, [shell])
            assert len(calls) == 2 and stop is None
            assert np.array_equal(got, _bisect_one_step_per_call(g, exponent, eps, *shell))

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_shells_together_are_each_shell_alone(self, n, monkeypatch):
        import hball.kernel as kernel

        g, exponent, eps, shells = self.walk_brackets(n)
        sums = []
        real = kernel._series_sums

        def recorded(n, coeffs, u, rho_sets, **kw):
            sums.append((coeffs[0], u.tobytes(), np.concatenate(rho_sets).tobytes()))
            return real(n, coeffs, u, rho_sets, **kw)

        monkeypatch.setattr(kernel, "_series_sums", recorded)
        want = [_bisect_lookahead_per_shell(g, exponent, eps, *shell) for shell in shells]
        alone = sorted(sums, key=repr)
        sums.clear()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate_grids(*args, **kwargs)

        monkeypatch.setattr(spaces, "evaluate_grids", counted)
        got, stop = spaces._bisect_boundaries(g, exponent, eps, shells)
        assert len(calls) == 2 and stop is None
        # at n = 3 every series is summed on the grids of the shells alone
        assert sorted(sums, key=repr) == alone
        assert bool(alone) == (n == 3)
        assert len(got) == len(shells)
        for a, b, shell in zip(got, want, shells, strict=True):
            assert np.array_equal(a, b)
            assert np.array_equal(b, _bisect_one_step_per_call(g, exponent, eps, *shell))


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

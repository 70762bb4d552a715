import json
import math
import tracemalloc

import numpy as np
import pytest

from hball.calculus import (
    DiffPair,
    GeneralSeriesAtom,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    _atom_coeff,
    _zonal_values,
    apply_D,
    apply_I,
    constant,
    evaluate,
    evaluate_grid,
    evaluate_grids,
    expansion_from_json,
    expansion_to_json,
    homogeneous_coefficient,
)
from hball.errors import NonConvergent
from hball.kernel import CoeffProduct, eval_coeff_series_grid, gamma_ratio
from hball.special import dim_spherical_harmonics, zonal


def gamma_product_oracle(n, alpha, k):
    out = 1.0
    if alpha > -(1 + n / 2):
        for j in range(k):
            out *= (1 + n / 2 + alpha + j) / (n / 2 + j)
        return out
    for j in range(k):
        out *= (1.0 + j) ** 2 / ((1 - (n / 2 + alpha) + j) * (n / 2 + j))
    return out


ZETA2 = (1.0, 0.0)
ZETA3 = (0.0, 0.0, 1.0)


class TestConstruction:
    def test_zonal_pole_must_be_on_sphere(self):
        with pytest.raises(ValueError):
            ZonalTerm(2, (0.5, 0.0))

    def test_kernel_pole_must_be_in_ball(self):
        with pytest.raises(ValueError):
            KernelAtom(0.0, (1.2, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HarmonicExpansion(3, (ZonalTerm(1, ZETA2),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_refused(self, bad):
        with pytest.raises(ValueError, match="order s must be finite"):
            KernelAtom(bad, ZETA2)
        with pytest.raises(ValueError, match="order s must be finite"):
            expansion_from_json(json.dumps({"dimension": 2, "atoms": [{"kind": "kernel", "s": bad, "pole": [0.5, 0.0]}]}))
        with pytest.raises(ValueError, match="pair's s must be finite"):
            DiffPair(bad, 1.0)
        with pytest.raises(ValueError, match="pair's t must be finite"):
            DiffPair(0.0, bad)

    def test_boundary_pole_listing(self):
        f = HarmonicExpansion(
            2, (KernelAtom(0.0, ZETA2), KernelAtom(0.0, (0.5, 0.0)), ZonalTerm(1, (0.0, 1.0)))
        )
        assert f.boundary_kernel_poles() == (ZETA2,)


class TestEvaluate:
    def test_constant_everywhere(self):
        f = constant(3, 2.5)
        for x in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.0, 0.0, 1.0]):
            assert evaluate(f, x) == pytest.approx(2.5, rel=1e-14)

    def test_kernel_atom_with_central_pole_is_one(self):
        f = HarmonicExpansion(2, (KernelAtom(-1.7, (0.0, 0.0)),))
        assert evaluate(f, [0.6, -0.3]) == pytest.approx(1.0, rel=1e-12)

    def test_kernel_atom_series_oracle_on_pole_ray(self):
        r = 0.65
        f = HarmonicExpansion(2, (KernelAtom(0.0, ZETA2),))
        oracle = sum(
            gamma_product_oracle(2, 0.0, k) * dim_spherical_harmonics(2, k) * r**k
            for k in range(400)
        )
        assert evaluate(f, [r, 0.0], tol=1e-11) == pytest.approx(oracle, abs=1e-9)

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            evaluate(constant(2), [1.2, 0.0])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_non_finite_and_negative_tolerances_refused(self, n, tol):
        # without the check a NaN tolerance runs to the degree cap and an
        # infinite one certifies at degree 1
        f = HarmonicExpansion(n, (KernelAtom(0.0, (1.0,) + (0.0,) * (n - 1)),))
        with pytest.raises(ValueError, match="tolerance tol_abs must be finite"):
            evaluate(f, [0.5] + [0.0] * (n - 1), tol=tol)
        with pytest.raises(ValueError, match="tolerance tol_rel must be finite"):
            evaluate_grid(f, np.array([0.5]), np.eye(n), tol_rel=tol)

    def test_grid_matches_pointwise(self):
        f = HarmonicExpansion(
            3, (KernelAtom(0.4, ZETA3, 1.2), ZonalTerm(2, (1.0, 0.0, 0.0), -0.5))
        )
        radii = np.array([0.2, 0.7])
        units = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        grid = evaluate_grid(f, radii, units, tol_rel=1e-10)
        for i, r in enumerate(radii):
            for j, u in enumerate(units):
                assert grid[i, j] == pytest.approx(
                    evaluate(f, r * u, tol=1e-12), abs=1e-8
                )

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_grid_is_the_zero_grid_accumulation_bit_for_bit(self, count):
        # out = 0, then out += w v atom by atom; the zonal term's negative
        # weight at radius 0 gives -0.0 products, which 0 + w v makes 0.0
        atoms = (
            ZonalTerm(1, ZETA3, -0.7),
            KernelAtom(0.4, (0.0, 0.6, 0.0), 1.2),
            GeneralSeriesAtom(CoeffProduct.kernel(0.3).shifted(0.5, 1.0), (0.5, 0.0, 0.0), -0.3),
        )[:count]
        radii = np.array([0.0, 0.4, 0.9])
        rng = np.random.default_rng(2)
        units = rng.normal(size=(40, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
        want = np.zeros((radii.shape[0], units.shape[0]))
        for atom in atoms:
            if isinstance(atom, ZonalTerm):
                vals = _zonal_values(3, atom.degree, atom.pole, (radii, units, None))
                assert np.signbit(atom.weight * vals[0]).any()
            else:
                vals = eval_coeff_series_grid(3, _atom_coeff(atom), units, atom.pole, [radii], tol_rel=1e-9)[0]
            want += atom.weight * vals
        got = evaluate_grid(HarmonicExpansion(3, atoms), radii, units)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_several_expansions_are_each_one_alone_bit_for_bit(self):
        # series atoms sharing a pole across expansions, zonal terms between
        # them, an expansion with no atoms, and one whose series reaches
        # |x||pole| = 1 on the grid
        pole = (0.0, 0.6, 0.0)
        fs = [
            HarmonicExpansion(3, (ZonalTerm(1, ZETA3, -0.7), KernelAtom(0.4, pole, 1.2))),
            HarmonicExpansion(3, (KernelAtom(-4.0, pole), GeneralSeriesAtom(CoeffProduct.kernel(0.3).shifted(0.5, 1.0), (0.5, 0.0, 0.0), -0.3))),
            HarmonicExpansion(3, ()),
            HarmonicExpansion(3, (KernelAtom(0.4, pole, 2.0), KernelAtom(0.0, ZETA3))),
        ]
        radii = np.array([0.0, 0.4, 0.9, 1.0])
        units = np.random.default_rng(3).normal(size=(30, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
        got = [values for (values,) in evaluate_grids(fs, [(radii, units, None)], tol_rel=1e-9)]
        for f, values in zip(fs[:3], got[:3], strict=True):
            want = evaluate_grid(f, radii, units, tol_rel=1e-9)
            assert values.shape == want.shape and values.tobytes() == want.tobytes()
        with pytest.raises(NonConvergent) as alone:
            evaluate_grid(fs[3], radii, units, tol_rel=1e-9)
        assert isinstance(got[3], NonConvergent) and str(got[3]) == str(alone.value)
        with pytest.raises(ValueError, match="share their dimension"):
            evaluate_grids([constant(2), constant(3)], [(radii, units, None)])

    def test_one_call_per_round_and_pole(self, monkeypatch):
        # round 0 sums the first series atom of every expansion, all on P,
        # in one call; round 1 the second atom of the last, on Q
        import hball.calculus as calculus

        p, q = (0.0, 0.6, 0.0), (0.5, 0.0, 0.0)
        fs = [
            HarmonicExpansion(3, (ZonalTerm(2, ZETA3, -0.7), KernelAtom(0.4, p, 1.2))),
            HarmonicExpansion(3, (KernelAtom(-1.5, p),)),
            HarmonicExpansion(3, (KernelAtom(0.4, p, 2.0), KernelAtom(0.0, q, -0.3))),
        ]
        radii = np.array([0.0, 0.4, 0.9])
        units = np.random.default_rng(4).normal(size=(30, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
        alone = [evaluate_grid(f, radii, units) for f in fs]
        calls = []
        real = calculus.eval_coeff_series_grids

        def spy(n, coeffs, pole, grids, **kw):
            calls.append((tuple(pole), len(coeffs)))
            return real(n, coeffs, pole, grids, **kw)

        monkeypatch.setattr(calculus, "eval_coeff_series_grids", spy)
        got = evaluate_grids(fs, [(radii, units, None)])
        assert calls == [(p, 3), (q, 1)]
        for (values,), want in zip(got, alone, strict=True):
            assert values.tobytes() == want.tobytes()

    def test_one_expansion_holds_its_sum_and_one_atom_grid(self):
        # three series atoms on three poles, on a grid of 62 x 20 000 (9.9 MB)
        atoms = (
            KernelAtom(0.4, (0.3, 0.0, 0.0)),
            KernelAtom(0.4, (0.0, 0.3, 0.0), -1.0),
            KernelAtom(-0.5, (0.0, 0.0, 0.3), 2.0),
        )
        radii = np.linspace(0.0, 0.9, 62)
        units = np.random.default_rng(5).normal(size=(20_000, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]

        def peak_of(f):
            tracemalloc.start()
            try:
                values = evaluate_grid(f, radii, units)
                return values, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = max(peak_of(HarmonicExpansion(3, (atom,)))[1] for atom in atoms)
        values, peak = peak_of(HarmonicExpansion(3, atoms))
        # each atom's call runs beside the sum of the atoms before it
        assert peak <= one + values.nbytes + (1 << 20)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairs_are_the_entries_of_their_grids_bit_for_bit(self, n):
        # a zonal term whose negative weight gives -0.0 at radius 0, series
        # atoms on two poles (at n = 2 a plain, a lifted and a lower-branch
        # closed form, and a series with none), and a grid whose radii reach
        # |x||pole| = 1 for the atom on the sphere
        e = np.eye(n)
        pole = tuple(0.6 * e[1])
        f = HarmonicExpansion(n, (
            ZonalTerm(2, tuple(e[0]), -0.7),
            KernelAtom(0.4, pole, 1.2),
            GeneralSeriesAtom(CoeffProduct.kernel(0.3).shifted(0.5, 1.0), pole, -0.3),
            KernelAtom(-2.5, pole, 0.8),
            KernelAtom(-2.0, tuple(e[0]), 0.5),
        ))
        rng = np.random.default_rng(n)
        units = rng.normal(size=(24, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        units = np.concatenate([units, units[:6]])  # repeated cosines
        grids = [
            (np.array([0.0, 0.4, 0.9]), units, rng.integers(0, 3, units.shape[0])),
            (np.array([0.5, 1.0]), units[:10], rng.integers(0, 2, 10)),
            (np.array([0.95]), units[5:], np.zeros(units.shape[0] - 5, dtype=int)),
        ]
        (got,) = evaluate_grids([f], grids, tol_rel=1e-9)
        for (radii, units, rows), values in zip(grids, got, strict=True):
            try:
                want = evaluate_grid(f, radii, units, tol_rel=1e-9)[rows, np.arange(rows.shape[0])]
            except NonConvergent as exc:
                assert isinstance(values, NonConvergent) and str(values) == str(exc)
                continue
            assert values.tobytes() == want.tobytes()
        assert isinstance(got[1], NonConvergent)
        ((zero,),) = evaluate_grids([HarmonicExpansion(n, ())], grids[:1])
        assert zero.tobytes() == np.zeros(grids[0][2].shape[0]).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_several_expansions_on_several_paired_grids(self, n, monkeypatch):
        # f1's first series atom raises on grid 1, where its |x||pole|
        # reaches 1, and its later atoms are left out there only; one
        # kernel call per round, pole and set of still-live grids
        import hball.calculus as calculus

        e = np.eye(n)
        p, q = tuple(0.6 * e[1]), tuple(0.5 * e[0])
        fs = [
            HarmonicExpansion(n, (ZonalTerm(1, tuple(e[0]), -0.7), KernelAtom(0.4, p, 1.2), KernelAtom(0.0, q, -0.3))),
            HarmonicExpansion(n, (KernelAtom(-2.0, tuple(e[0])), ZonalTerm(2, tuple(e[1]), 0.5), KernelAtom(0.4, p, -1.1))),
            HarmonicExpansion(n, (KernelAtom(0.4, p, 2.0), ZonalTerm(2, tuple(e[0]), -0.4))),
            HarmonicExpansion(n, ()),
        ]
        rng = np.random.default_rng(10 + n)
        units = rng.normal(size=(20, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        grids = [
            (np.array([0.0, 0.4, 0.9]), units, rng.integers(0, 3, 20)),
            (np.array([0.5, 1.0]), units[:8], rng.integers(0, 2, 8)),
            (np.array([0.95]), units[4:], np.zeros(16, dtype=int)),
        ]
        calls = []
        real = calculus.eval_coeff_series_grids

        def spy(n, coeffs, pole, called, **kw):
            ids = tuple(next(g for g, grid in enumerate(grids) if grid[0] is radii) for radii, _, _ in called)
            calls.append((tuple(pole), len(coeffs), ids))
            return real(n, coeffs, pole, called, **kw)

        monkeypatch.setattr(calculus, "eval_coeff_series_grids", spy)
        got = evaluate_grids(fs, grids, tol_rel=1e-9)
        assert calls == [(p, 2, (0, 1, 2)), (tuple(e[0]), 1, (0, 1, 2)), (q, 1, (0, 1, 2)), (p, 1, (0, 2))]
        monkeypatch.undo()
        for f, values in zip(fs, got, strict=True):
            for (radii, units, rows), vals in zip(grids, values, strict=True):
                try:
                    want = evaluate_grid(f, radii, units, tol_rel=1e-9)[rows, np.arange(rows.shape[0])]
                except NonConvergent as exc:
                    assert isinstance(vals, NonConvergent) and str(vals) == str(exc)
                    continue
                assert vals.tobytes() == want.tobytes()
        assert [isinstance(v, NonConvergent) for v in got[1]] == [False, True, False]
        assert not any(isinstance(v, NonConvergent) for f in (0, 2, 3) for v in got[f])


class TestGridChecks:
    """A grid is refused with the kernel's checks and messages before any
    atom is added, also for an expansion of zonal terms alone, which no
    kernel call would check: a row of -1 would read the last radius, too
    few rows give too many values, a negative radius gives the value at
    its absolute value, a NaN radius gives NaNs, and a unit of another
    width fails inside numpy."""

    F = HarmonicExpansion(2, (ZonalTerm(2, (1.0, 0.0)),))
    RADII = np.array([0.2, 0.5])
    UNITS = np.eye(2)
    ROWS = "rows must hold one index in \\[0, 2\\) per direction"
    RADIUS = "radii must be a 1-d array of finite values >= 0"

    @pytest.fixture(autouse=True)
    def no_atom_added(self, monkeypatch):
        import hball.calculus as calculus

        def never(*args, **kwargs):
            raise AssertionError("an atom was added")

        monkeypatch.setattr(calculus, "_zonal_factors", never)
        monkeypatch.setattr(calculus, "eval_coeff_series_grids", never)

    @pytest.mark.parametrize(
        "grid, match",
        [
            ((RADII, UNITS, [-1, 0]), ROWS),
            ((RADII, UNITS, [0]), ROWS),
            ((np.array([-0.5]), UNITS, None), RADIUS),
            ((np.array([np.nan]), UNITS, None), RADIUS),
            ((RADII, np.eye(3)[:2], None), "units must hold finite vectors of R\\^2"),
        ],
    )
    def test_a_zonal_expansion_is_refused_an_invalid_grid(self, grid, match):
        with pytest.raises(ValueError, match=match):
            evaluate_grids([self.F], [grid])
        if grid[2] is None:
            with pytest.raises(ValueError, match=match):
                evaluate_grid(self.F, grid[0], grid[1])

    def test_every_grid_is_checked_before_any_atom(self):
        f = self.F + HarmonicExpansion(2, (KernelAtom(0.0, (0.5, 0.0)),))
        grids = [(self.RADII, self.UNITS, [0, 1]), (self.RADII, self.UNITS, [0, 2])]
        with pytest.raises(ValueError, match=self.ROWS):
            evaluate_grids([self.F, f], grids)
        with pytest.raises(ValueError, match="a product grid \\(rows None\\) must be the only grid"):
            evaluate_grids([f], [grids[0], (self.RADII, self.UNITS, None)])


class TestApplyD:
    def test_order_zero_is_identity(self):
        f = HarmonicExpansion(2, (KernelAtom(0.7, ZETA2), ZonalTerm(3, (0.0, 1.0), 2.0)))
        assert apply_D(f, DiffPair(-1.3, 0.0)) == f

    def test_kernel_shift_is_exact(self):
        f = HarmonicExpansion(3, (KernelAtom(0.25, ZETA3, 1.5),))
        g = apply_D(f, DiffPair(0.25, 1.25))
        assert g.atoms == (KernelAtom(1.5, ZETA3, 1.5),)

    def test_mismatched_base_gives_series_atom(self):
        f = HarmonicExpansion(3, (KernelAtom(0.25, ZETA3),))
        g = apply_D(f, DiffPair(1.0, 0.5))
        assert isinstance(g.atoms[0], GeneralSeriesAtom)

    def test_zonal_rescaled_by_degree_multiplier(self):
        f = HarmonicExpansion(2, (ZonalTerm(3, ZETA2, 2.0),))
        g = apply_D(f, DiffPair(0.5, 1.5))
        assert g.atoms[0].weight == pytest.approx(
            2.0 * gamma_ratio(2, 0.5, 1.5, 3), rel=1e-14
        )

    def test_two_sided_inverse_on_layers(self):
        rng = np.random.default_rng(7)
        f = HarmonicExpansion(
            3, (KernelAtom(-2.1, ZETA3, 1.3), ZonalTerm(2, (1.0, 0.0, 0.0), -0.4))
        )
        for _ in range(8):
            s, t = rng.uniform(-3, 3, 2)
            g = apply_D(apply_D(f, DiffPair(s, t)), DiffPair(s + t, -t))
            h = apply_D(apply_D(f, DiffPair(s + t, -t)), DiffPair(s, t))
            for k in (0, 1, 7, 50, 200):
                base = homogeneous_coefficient(f, k)
                for other in (homogeneous_coefficient(g, k), homogeneous_coefficient(h, k)):
                    for (p0, c0), (p1, c1) in zip(base, other):
                        assert p0 == p1
                        assert c1 == pytest.approx(c0, rel=1e-12, abs=1e-300)

    def test_linearity_at_evaluation_points(self):
        f = HarmonicExpansion(2, (KernelAtom(0.3, ZETA2),))
        g = HarmonicExpansion(2, (ZonalTerm(2, (0.0, 1.0)),))
        a, b = 1.7, -0.6
        combo = f.scaled(a) + g.scaled(b)
        pair = DiffPair(-0.8, 1.4)
        for x in ([0.3, 0.2], [-0.5, 0.1]):
            lhs = evaluate(apply_D(combo, pair), x, tol=1e-12)
            rhs = a * evaluate(apply_D(f, pair), x, tol=1e-12) + b * evaluate(
                apply_D(g, pair), x, tol=1e-12
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bounded_amplification_on_half_ball(self):
        # |D f| on |x| <= 1/2 is controlled by the degree-multiplier majorant
        f = HarmonicExpansion(2, (KernelAtom(0.4, ZETA2, 0.8), ZonalTerm(2, (0.0, 1.0), 1.1)))
        s, t = -0.7, 1.9
        g = apply_D(f, DiffPair(s, t))
        bound = 0.0
        for k in range(0, 2500):
            layer = sum(abs(c) for _, c in homogeneous_coefficient(f, k))
            if layer == 0.0:
                continue
            bound += gamma_ratio(2, s, t, k) * layer * dim_spherical_harmonics(2, k) * 0.5**k
        for x in ([0.5, 0.0], [0.3, -0.4], [0.0, 0.0]):
            assert abs(evaluate(g, x, tol=1e-10)) <= bound * (1 + 1e-9) + 1e-9


class TestApplyI:
    def test_order_zero_reduces_to_evaluate(self):
        f = HarmonicExpansion(2, (ZonalTerm(1, ZETA2, 1.4),))
        x = [0.3, 0.4]
        assert apply_I(f, DiffPair(0.9, 0.0), x) == pytest.approx(
            evaluate(f, x), rel=1e-14
        )

    def test_constant_gives_pure_weight(self):
        f = constant(3)
        x = np.array([0.5, 0.1, 0.0])
        t = 1.7
        want = (1.0 - float(x @ x)) ** t
        assert apply_I(f, DiffPair(-0.4, t), x) == pytest.approx(want, rel=1e-12)

    def test_kernel_atom_shift_formula(self):
        # I f at r zeta equals (1-r^2)^t R_{s+t}(r zeta, zeta)
        s, t, r = 0.0, 1.0, 0.55
        f = HarmonicExpansion(2, (KernelAtom(s, ZETA2),))
        got = apply_I(f, DiffPair(s, t), [r, 0.0], tol=1e-12)
        oracle = (1 - r**2) ** t * sum(
            gamma_product_oracle(2, s + t, k) * 2 * r**k if k else 1.0
            for k in range(600)
        )
        assert got == pytest.approx(oracle, rel=1e-9)


class TestHomogeneousLayers:
    def test_constant_layers(self):
        f = constant(2, 3.0)
        assert homogeneous_coefficient(f, 0) == [(ZETA2, 3.0)]
        assert homogeneous_coefficient(f, 4) == []

    def test_kernel_atom_layer_is_coefficient(self):
        f = HarmonicExpansion(3, (KernelAtom(-2.8, ZETA3),))
        for k in (0, 1, 6):
            [(pole, c)] = homogeneous_coefficient(f, k)
            assert pole == ZETA3
            assert c == pytest.approx(gamma_product_oracle(3, -2.8, k), rel=1e-12)

    def test_layers_scale_under_the_operator(self):
        f = HarmonicExpansion(3, (KernelAtom(0.6, ZETA3, 2.0),))
        s, t = -1.1, 2.2
        g = apply_D(f, DiffPair(s, t))
        for k in (0, 3, 11):
            [(_, c0)] = homogeneous_coefficient(f, k)
            [(_, c1)] = homogeneous_coefficient(g, k)
            assert c1 == pytest.approx(c0 * gamma_ratio(3, s, t, k), rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        f = HarmonicExpansion(
            2,
            (
                KernelAtom(0.3, ZETA2, 1.5),
                ZonalTerm(4, (0.0, 1.0), -0.25),
            ),
        )
        assert expansion_from_json(expansion_to_json(f)) == f

    def test_series_atom_round_trip(self):
        f = apply_D(
            HarmonicExpansion(2, (KernelAtom(0.3, ZETA2),)), DiffPair(1.0, 0.5)
        )
        assert expansion_from_json(expansion_to_json(f)) == f

    def test_wire_format_fields(self):
        f = HarmonicExpansion(2, (ZonalTerm(2, ZETA2, 0.5), KernelAtom(-1.0, (0.3, 0.0))))
        payload = json.loads(expansion_to_json(f))
        assert payload["dimension"] == 2
        kinds = {a["kind"] for a in payload["atoms"]}
        assert kinds == {"zonal", "kernel"}
        zatom = next(a for a in payload["atoms"] if a["kind"] == "zonal")
        assert set(zatom) == {"kind", "k", "pole", "weight"}
        katom = next(a for a in payload["atoms"] if a["kind"] == "kernel")
        assert set(katom) == {"kind", "s", "pole", "weight"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            expansion_from_json('{"dimension": 2, "atoms": [{"kind": "puff", "pole": [1, 0]}]}')


class TestZonalGrid:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_scalar_zonal(self, n):
        rng = np.random.default_rng(n)
        units = rng.normal(size=(30, n))
        units /= np.linalg.norm(units, axis=1)[:, None]
        units[0] = 0.0  # the origin direction of a degenerate grid
        units[1] = units[2]
        pole = 0.8 * units[3]
        radii = np.array([0.0, 0.3, 0.9, 1.0])
        for k in range(6):
            want = np.array([[zonal(n, k, r * u, pole) for u in units] for r in radii])
            got = _zonal_values(n, k, pole, (radii, units, None))
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)

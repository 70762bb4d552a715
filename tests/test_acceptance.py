"""Acceptance battery.

One test per acceptance criterion, each printing a single pass/fail line
with its headline numbers.  Criteria with stated runtime budgets assert
them.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
from conftest import critical_atom_verdicts

from hball.calculus import (
    DiffPair,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    apply_D,
    constant,
    evaluate,
    homogeneous_coefficient,
)
from hball.experiments import (
    ExperimentConfig,
    _quadrature_rows,
    _stirling_rows,
    default_config,
    run_distance,
    run_inclusion_little_bloch,
    run_levelset_characterization,
    run_membership,
    run_kernel_growth,
)
from hball.quadrature import Verdict
from hball.spaces import reproduce, reproducing_rule


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


@lru_cache(maxsize=1)
def _inclusion_report():
    return run_inclusion_little_bloch(default_config("inclusion"))


@lru_cache(maxsize=1)
def _levelset_report():
    return run_levelset_characterization(default_config("levelset"))


@lru_cache(maxsize=1)
def _distance_report():
    return run_distance(default_config("distance"))


def test_criterion_01_kernel_identities():
    """Coefficient-level inverse and kernel-shift identities, 50 random pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    shifts_exact = True
    for _ in range(50):
        n = int(rng.choice([2, 3]))
        s, t = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        pole = np.zeros(n)
        pole[0] = 1.0
        f = HarmonicExpansion(
            n,
            (
                KernelAtom(float(rng.uniform(-3, 3)), tuple(pole), float(rng.uniform(0.5, 2))),
                ZonalTerm(int(rng.integers(0, 5)), tuple(np.roll(pole, 1)), 1.0),
            ),
        )
        for first, second in (
            (DiffPair(s, t), DiffPair(s + t, -t)),
            (DiffPair(s + t, -t), DiffPair(s, t)),
        ):
            g = apply_D(apply_D(f, first), second)
            for k in range(0, 201, 25):
                for (p0, c0), (p1, c1) in zip(
                    homogeneous_coefficient(f, k), homogeneous_coefficient(g, k)
                ):
                    assert p0 == p1
                    if c0 != 0.0:
                        worst = max(worst, abs(c1 - c0) / abs(c0))
        atom = HarmonicExpansion(n, (KernelAtom(s, tuple(pole)),))
        shifted = apply_D(atom, DiffPair(s, t)).atoms[0]
        shifts_exact = shifts_exact and isinstance(shifted, KernelAtom) and shifted.s == s + t
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and shifts_exact and elapsed < 10.0
    _line(1, ok, f"inverse max rel err {worst:.2e}, shifts exact {shifts_exact}, {elapsed:.1f} s")
    assert worst <= 1e-12
    assert shifts_exact
    assert elapsed < 10.0


def test_criterion_02_reproducing_formula():
    """|reproduce - evaluate| <= 1e-6, 10 polynomials + 5 kernel atoms,
    20 probes with |x| <= 0.9, n = 2 and 3."""
    start = time.monotonic()
    s, t = 0.5, 1.0
    worst = 0.0
    for n in (2, 3):
        rng = np.random.default_rng(7 + n)
        e = np.eye(n)
        polys = [constant(n)]
        for k in range(1, 5):
            polys.append(HarmonicExpansion(n, (ZonalTerm(k, tuple(e[0]), 1.0),)))
            u = e[1] if k % 2 else (e[0] + e[1]) / np.linalg.norm(e[0] + e[1])
            polys.append(HarmonicExpansion(n, (ZonalTerm(k, tuple(u), -0.6),)))
        polys.append(
            HarmonicExpansion(n, (ZonalTerm(1, tuple(e[0]), 1.0), ZonalTerm(3, tuple(e[1]), 0.4)))
        )
        atoms = [
            HarmonicExpansion(n, (KernelAtom(sv, tuple(rad * e[idx % n]), wv),))
            for idx, (sv, rad, wv) in enumerate(
                [(0.3, 0.6, 1.0), (-1.2, 0.5, 0.8), (1.0, 0.4, -1.1), (-2.5, 0.7, 1.3), (0.0, 0.55, 0.5)]
            )
        ]
        family = polys[:10] + atoms
        assert len(family) == 15
        q = reproducing_rule(n, s, t)
        probes = []
        for _ in range(20):
            x = rng.normal(size=n)
            x *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(x), 1e-12)
            probes.append(x)
        probes = np.array(probes)
        for f in family:
            for x, got in zip(probes, reproduce(f, s, t, probes, q)):
                want = evaluate(f, x, tol=1e-11)
                worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    _line(2, ok, f"max |reproduce - evaluate| {worst:.2e} over 600 checks, {elapsed:.0f} s")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_03_growth_trichotomy():
    """9-combo grid spanning w < 0, w = 0, w > 0: verdicts 9/9, slopes +-0.1."""
    start = time.monotonic()
    report = run_kernel_growth(default_config("kernel-growth"))
    elapsed = time.monotonic() - start
    rows = report["rows"]
    agreed = sum(r["agree"] for r in rows)
    signs = {(-1 if r["w"] < 0 else (0 if r["w"] == 0 else 1)) for r in rows}
    power_slopes = [(r["slope"], r["w"]) for r in rows if r["expected"] == "power"]
    slopes_ok = all(abs(sl - w) <= 0.1 for sl, w in power_slopes)
    ok = agreed == 9 and signs == {-1, 0, 1} and slopes_ok and elapsed < 300.0
    _line(3, ok, f"verdicts {agreed}/9, power slopes {['%.3f' % s for s, _ in power_slopes]}, {elapsed:.0f} s")
    assert signs == {-1, 0, 1}
    assert agreed == 9
    assert slopes_ok
    assert elapsed < 300.0


def test_criterion_04_membership_agreement():
    """Predicate vs numerical membership, 27/27 off-boundary cells."""
    start = time.monotonic()
    report = run_membership(default_config("membership"))
    elapsed = time.monotonic() - start
    rows = report["rows"]
    agreed = sum(r["agree"] for r in rows)
    ok = len(rows) == 27 and agreed == 27 and elapsed < 300.0
    _line(4, ok, f"agreement {agreed}/{len(rows)}, {elapsed:.0f} s")
    assert len(rows) == 27
    assert agreed == 27
    assert report["summary"]["inconclusive"] == 0
    assert elapsed < 300.0


def test_criterion_05_inclusion_into_little_bloch():
    """Finite critical-norm family members decay; the critical atom does not."""
    report = _inclusion_report()
    rows = report["rows"]
    member_rows = [r for r in rows if r["f"] != "atom_critical"]
    atom_rows = [r for r in rows if r["f"] == "atom_critical"]
    members_ok = all(
        r["norm_verdict"] == "finite" and r["decay"] == "decaying" for r in member_rows
    )
    atoms_ok = all(
        r["norm_verdict"] == "divergent" and r["decay"] == "non_decaying" for r in atom_rows
    )
    combos = {(r["n"], r["alpha"], r["p"]) for r in rows}
    ok = members_ok and atoms_ok and len(combos) == 8
    _line(5, ok, f"{len(member_rows)} member rows decaying, {len(atom_rows)} critical rows non-decaying")
    assert len(combos) == 8
    assert members_ok
    assert atoms_ok


def test_criterion_06_levelset_equivalence():
    """Decaying <=> finite at weight -n for each listed threshold; the
    critical atom diverges at small thresholds."""
    report = _levelset_report()
    rows = [r for r in report["rows"] if "window" not in r]
    equiv_ok = all(r["agree"] for r in rows)
    atom_rows = [r for r in rows if r["f"] == "atom_critical"]
    small_eps_div = all(r["verdicts"]["0.02"] == "divergent" for r in atom_rows)
    anchored_div = all(r["anchored_verdict"] == "divergent" for r in atom_rows)
    ok = equiv_ok and small_eps_div and anchored_div
    _line(6, ok, f"{len(rows)} equivalence rows agree; critical atom divergent at 0.02 norm in {len(atom_rows)}/{len(atom_rows)}")
    assert equiv_ok
    assert small_eps_div
    assert anchored_div


def test_criterion_07_intersection_window():
    """Critical atom: finite at weight beta - p alpha, divergent at -n,
    for beta = p alpha - 1 and alpha + t0 > n."""
    report = _levelset_report()
    rows = [r for r in report["rows"] if "window" in r]
    ok = len(rows) == 8 and all(r["agree"] for r in rows)
    _line(7, ok, f"window rows {sum(r['agree'] for r in rows)}/{len(rows)}")
    assert len(rows) == 8
    assert all(r["agree"] for r in rows)


def test_criterion_08_quadrature_exactness():
    """Radial Beta moments at 1e-12 and spherical orthogonality at 1e-10."""
    rows = _quadrature_rows()
    by_check = {r["check"]: r for r in rows}
    ok = all(r["pass"] for r in rows)
    _line(
        8,
        ok,
        "radial %.1e, circle %.1e, sphere %.1e" % (
            by_check["radial_beta_moments"]["max_rel_error"],
            by_check["circle_orthogonality"]["max_abs"],
            by_check["sphere_zonal_orthogonality"]["max_abs"],
        ),
    )
    assert by_check["radial_beta_moments"]["max_rel_error"] <= 1e-12
    assert by_check["circle_orthogonality"]["max_abs"] <= 1e-12
    assert by_check["sphere_zonal_orthogonality"]["max_abs"] <= 1e-10
    assert by_check["weight_constant_match"]["max_abs_error"] <= 1e-10


def test_criterion_09_coefficient_power_law():
    """gamma_k / k^(alpha+1) stable within 5% between k = 1000 and 4000."""
    rows = _stirling_rows()
    drift = rows[0]["max_rel_drift"]
    # both coefficient branches are exercised by the alpha grid
    branches = {
        (n, alpha): ("upper" if alpha > -(1 + n / 2) else "lower")
        for n in (2, 3)
        for alpha in (-5.0, -2.0, 0.0, 3.0)
    }
    both = {"upper", "lower"} == set(branches.values())
    ok = rows[0]["pass"] and both
    _line(9, ok, f"max drift {drift:.2%} across alpha grid, both branches exercised")
    assert drift <= 0.05
    assert both


def test_criterion_10_distance_estimator():
    """Zero (tight bracket) for polynomials; strictly positive for the
    critical atom, which lies outside the integral-norm space (p, p alpha - n)
    at every exponent p of the pair."""
    report = _distance_report()
    rows = report["rows"]
    poly_rows = [r for r in rows if r["f"] in ("const", "zonal3")]
    atom_rows = [r for r in rows if r["f"] == "atom_critical"]
    approx_rows = [r for r in rows if str(r["f"]).startswith("approximant")]
    polys_ok = all(
        r["bracket"][1] <= 1e-3 * max(r["bloch_norm"], 1e-30) for r in poly_rows
    )
    atoms_ok = all(r["bracket"][0] > 0.0 for r in atom_rows)
    verdicts = critical_atom_verdicts(default_config("distance"))
    per_p = all(v == Verdict.DIVERGENT for v in verdicts.values()) and all(
        r["agree"] for r in approx_rows
    )
    ok = polys_ok and atoms_ok and per_p
    _line(
        10,
        ok,
        f"{len(poly_rows)} polynomial rows at zero, {len(atom_rows)} critical rows positive, "
        f"critical atom divergent at every p {per_p} ({len(verdicts)} cases)",
    )
    assert polys_ok
    assert atoms_ok
    assert per_p, verdicts

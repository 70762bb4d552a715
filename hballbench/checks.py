"""The benchmark's workloads and the reference checks of their reports.

Every check compares a report against a value the benchmark computes itself
(a closed form, a series summed here, a predicate evaluated here) or against
a property the method must have.  None compares against a stored report.
Each check is one operation: `check(workload, report, seed)` returns the same
list of outcomes, in the same order, for every report of a workload, even
an empty one: a row missing from the report is an outcome that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class Outcome:
    name: str
    ok: bool
    detail: str = ""


def _ok(name: str, problems: list[str]) -> Outcome:
    return Outcome(name, not problems, "; ".join(problems))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _rows_by(report: dict, key) -> dict:
    return {key(row): row for row in report.get("rows", [])}


# --- workload configs --------------------------------------------------------

GROWTH_COMBOS = [
    {"n": 2, "p": 2.0, "alpha": 0.0, "d": 0.0},
    {"n": 2, "p": 1.0, "alpha": 1.0, "d": 0.0},
    {"n": 2, "p": 1.0, "alpha": 0.0, "d": 0.0},
    {"n": 2, "p": 2.0, "alpha": -1.0, "d": 0.0},
    {"n": 2, "p": 1.0, "alpha": -0.5, "d": 1.0},
    {"n": 2, "p": 2.0, "alpha": -1.5, "d": 0.0},
]
GROWTH_J_RADII = [3, 4, 5, 6, 7, 8, 9, 10]
GROWTH_SHELLS = 18
FAMILY = ["const", "zonal1", "zonal3", "polymix", "atom_in_25", "atom_in_35", "atom_critical"]


def config(workload: str, seed: int) -> dict:
    """The `ExperimentConfig` JSON of a workload: a subset of the default grid."""
    if workload == "closure-n2":
        return {"name": "distance", "seed": seed, "shells": 12, "tol": 1e-6,
                "parameters": {"n_grid": [2], "alpha_grid": [0.0], "p_pair": [1.0, 2.0]}}
    if workload == "inclusion-n3":
        return {"name": "inclusion", "seed": seed, "shells": 12, "tol": 1e-6,
                "parameters": {"n_grid": [3], "alpha_grid": [0.0], "p_grid": [1.0, 2.0]}}
    if workload == "growth-n2":
        return {"name": "kernel-growth", "seed": seed, "shells": GROWTH_SHELLS, "tol": 1e-6,
                "parameters": {"combos": GROWTH_COMBOS, "j_radii": GROWTH_J_RADII}}
    if workload == "identities":
        return {"name": "verify-identities", "seed": seed, "shells": 12, "tol": 1e-12,
                "parameters": {"pairs": 50, "layers": 200, "reproduce_probes": 40}}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("closure-n2", "inclusion-n3", "growth-n2", "identities")


# --- closure-n2: the distance-to-closure estimator ----------------------------


def _member(n: int, p: float, alpha: float, s: float) -> str:
    """R_s(., zeta) lies in the (p, beta = p alpha - n) integral-norm space
    iff beta + n > p (n + s)."""
    beta = p * alpha - n
    return "member" if beta + n > p * (n + s) else "non_member"


def check_closure(report: dict, seed: int) -> list[Outcome]:
    n, alpha, (p0, p1) = 2, 0.0, (1.0, 2.0)
    rows = _rows_by(report, lambda r: r.get("f"))
    out = []
    for label in ("const", "zonal3", "atom_critical"):
        row = rows.get(label)
        if row is None:
            out.append(Outcome(label, False, "row missing"))
            continue
        problems = []
        norm = row.get("bloch_norm")
        lower, upper = (row.get("bracket") or [None, None])[:2]
        if not all(_finite(v) for v in (norm, lower, upper)):
            out.append(Outcome(label, False, f"non-finite values {norm}, {lower}, {upper}"))
            continue
        if label == "const" and abs(norm - 1.0) > 1e-9:
            # D 1 = 1 and the weight (1-|x|^2)^(alpha+t) peaks at the origin
            problems.append(f"bloch_norm {norm} != 1")
        if label == "atom_critical":
            # the critical atom lies outside the closure: 0 < lower <= upper <= norm
            if not 0.0 < lower <= upper <= norm:
                problems.append(f"bracket {lower}, {upper} not within (0, {norm}]")
        elif not (0.0 <= lower <= upper <= 1e-3 * norm and norm > 0.0):
            # polynomials lie in the closure: the distance is zero
            problems.append(f"bracket {lower}, {upper} exceeds 1e-3 x {norm}")
        out.append(_ok(label, problems))
    for ds in (-1.0, -0.5, 0.5):
        s = alpha - n + ds
        label = f"approximant_s={s}"
        row = rows.get(label)
        if row is None:
            out.append(Outcome(label, False, "row missing"))
            continue
        problems = [
            f"{key} {row.get(key)} != {_member(n, p, alpha, s)}"
            for key, p in (("member_p0", p0), ("member_p1", p1))
            if row.get(key) != _member(n, p, alpha, s)
        ]
        out.append(_ok(label, problems))
    return out


# --- inclusion-n3: the Bergman-Besov space inside the little Bloch space -------


def const_norm(n: int, p: float, shells: int) -> float:
    """Shell-sum norm estimate of the constant 1 over {|x| < rho},
    rho = 1 - 2^-shells: rho^n at p = 1, and at p = 2 the root of
    int_{|x|<rho} (1-|x|^2) dnu = rho^n - n/(n+2) rho^(n+2)."""
    rho = 1.0 - 2.0 ** (-shells)
    if p == 1.0:
        return rho**n
    if p == 2.0:
        return math.sqrt(rho**n - n / (n + 2.0) * rho ** (n + 2))
    raise ValueError("closed form stated for p in {1, 2}")


def check_inclusion(report: dict, seed: int) -> list[Outcome]:
    n, alpha, shells = 3, 0.0, 12
    rows = _rows_by(report, lambda r: (r.get("p"), r.get("f")))
    out = []
    for p in (1.0, 2.0):
        for label in FAMILY:
            name = f"p={p}:{label}"
            row = rows.get((p, label))
            if row is None or row.get("n") != n or row.get("alpha") != alpha:
                out.append(Outcome(name, False, "row missing"))
                continue
            problems = []
            est = row.get("norm_estimate")
            if label == "atom_critical":
                want = ("divergent", "non_decaying")
                if est is not None:
                    problems.append(f"norm_estimate {est} for a divergent norm")
            else:
                want = ("finite", "decaying")
                if not (_finite(est) and est > 0.0):
                    problems.append(f"norm_estimate {est} not finite and positive")
            got = (row.get("norm_verdict"), row.get("decay"))
            if got != want:
                problems.append(f"verdicts {got} != {want}")
            if label == "const" and _finite(est):
                ref = const_norm(n, p, shells)
                if abs(est - ref) > 1e-9 * ref:
                    problems.append(f"norm_estimate {est} != closed form {ref}")
            out.append(_ok(name, problems))
    return out


# --- growth-n2: the weighted kernel integral trichotomy -----------------------


def log_gamma_n2(alpha: float, ks: np.ndarray) -> np.ndarray:
    """log gamma_k(alpha) at n = 2 on the upper branch alpha > -2:
    (2 + alpha)_k / k!, the Taylor coefficients of (1 - z)^-(2 + alpha)."""
    if not alpha > -2.0:
        raise ValueError("closed form stated for alpha > -2")
    a = 2.0 + alpha
    return gammaln(a + ks) - gammaln(a) - gammaln(ks + 1.0)


def growth_curve_reference(alpha: float, radii, shells: int) -> list[float]:
    """int_{|y|<rho} |R_alpha(r e1, y)|^2 dnu(y) for each r, rho = 1 - 2^-shells,
    at n = 2: sum_k gamma_k^2 h_k n/(n+2k) rho^(n+2k) r^(2k) with h_0 = 1,
    h_k = 2, by orthogonality of the zonal harmonics."""
    n = 2
    rho = 1.0 - 2.0 ** (-shells)
    ks = np.arange(0.0, 600_000.0)
    h = np.where(ks == 0.0, 1.0, 2.0)
    log_base = (2.0 * log_gamma_n2(alpha, ks) + np.log(h * n / (n + 2.0 * ks))
                + (n + 2.0 * ks) * math.log(rho))
    return [float(np.sum(np.exp(log_base + 2.0 * ks * math.log(r)))) for r in radii]


def _regime(w: float) -> str:
    return "power" if w > 0 else ("log" if w == 0 else "bounded")


def spot_points(seed: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Seeded radii up to 1 - 2^-10 and unit directions in the plane."""
    rng = np.random.default_rng([seed, int(round(8 * alpha)) + 64])
    radii = 1.0 - 2.0 ** -rng.uniform(1.0, 10.0, size=4)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=8)
    return radii, np.stack([np.cos(theta), np.sin(theta)], axis=1)


SPOT_TOL = 1e-10


def spot_problems(alpha: float, radii: np.ndarray, units: np.ndarray, got: np.ndarray) -> list[str]:
    """Compare kernel values R_alpha(r u, e1) with 2 Re (1-z)^-(2+alpha) - 1,
    z = r (u_0 + i u_1), within SPOT_TOL times the majorant mass
    2 (1-r)^-(2+alpha) - 1."""
    z = radii[:, None] * (units[None, :, 0] + 1j * units[None, :, 1])
    want = 2.0 * np.real((1.0 - z) ** (-(2.0 + alpha))) - 1.0
    mass = 2.0 * (1.0 - radii[:, None]) ** (-(2.0 + alpha)) - 1.0
    err = np.abs(np.asarray(got) - want) / mass
    if np.asarray(got).shape != want.shape or not np.all(err <= SPOT_TOL):
        return [f"kernel values off by {float(np.max(err)):.3g} x mass"]
    return []


def check_growth(report: dict, seed: int) -> list[Outcome]:
    from hball.kernel import CoeffProduct, eval_coeff_series_grid

    rows = report.get("rows", [])
    out = []
    for i, combo in enumerate(GROWTH_COMBOS):
        n, p, alpha, d = combo["n"], combo["p"], combo["alpha"], combo["d"]
        name = f"n={n},p={p},alpha={alpha},d={d}"
        row = rows[i] if i < len(rows) else None
        if row is None or any(row.get(k) != v for k, v in combo.items()):
            out.append(Outcome(name, False, "row missing"))
            continue
        w = p * (n + alpha) - (n + d)
        problems = []
        if row.get("verdict") != _regime(w):
            problems.append(f"verdict {row.get('verdict')} != {_regime(w)} (w = {w})")
        if w > 0 and not (_finite(row.get("slope")) and abs(row["slope"] - w) <= 0.1):
            problems.append(f"slope {row.get('slope')} not within 0.1 of w = {w}")
        if p == 2.0 and d == 0.0:
            curve = row.get("curve") or []
            if len(curve) != len(GROWTH_J_RADII):
                problems.append(f"curve has {len(curve)} points")
            radii = [1.0 - 2.0 ** (-j) for j in GROWTH_J_RADII]
            refs = growth_curve_reference(alpha, radii, GROWTH_SHELLS)
            for (r, v), j, r_exact, ref in zip(curve, GROWTH_J_RADII, radii, refs):
                if abs(r - r_exact) > 1e-9 or not (_finite(v) and abs(v - ref) <= 1e-4 * ref):
                    problems.append(f"curve at j={j}: {v} != {ref}")
        out.append(_ok(name, problems))
    for alpha in sorted({c["alpha"] for c in GROWTH_COMBOS}):
        radii, units = spot_points(seed, alpha)
        name = f"spot_values alpha={alpha}"
        try:
            got = eval_coeff_series_grid(2, CoeffProduct.kernel(alpha), units, (1.0, 0.0),
                                         [radii], tol_rel=SPOT_TOL)[0]
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed operation
            out.append(Outcome(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        out.append(_ok(name, spot_problems(alpha, radii, units, got)))
    return out


# --- identities: the identity battery -----------------------------------------

# (row, numeric field, bound): the accuracy each identity must reach
IDENTITY_BOUNDS = [
    ("two_sided_inverse", "max_rel_error", 1e-12),
    ("kernel_shift_exact", None, None),
    ("radial_beta_moments", "max_rel_error", 1e-12),
    ("circle_orthogonality", "max_abs", 1e-12),
    ("sphere_zonal_orthogonality", "max_abs", 1e-10),
    ("weight_constant_match", "max_abs_error", 1e-10),
    ("coefficient_power_law", "max_rel_drift", 0.05),
    ("pole_ray_growth_exponent", "slope", None),
    ("reproducing_formula_n2", "max_abs_error", 1e-6),
    ("reproducing_formula_n3", "max_abs_error", 1e-6),
]
REPRODUCE_TOL = 1e-6


def reproduce_probes(seed: int):
    """Seeded n = 2 probes: (label, atom spec, point) with |point| <= 0.9.
    An atom spec is ("zonal", degree, pole, weight) or ("kernel", s, pole)."""
    rng = np.random.default_rng([seed, 2])
    angle = rng.uniform(0.0, 2.0 * math.pi, size=3)
    poles = [(math.cos(a), math.sin(a)) for a in angle]
    specs = [
        ("zonal_0", ("zonal", 0, (1.0, 0.0), 1.0)),
        ("zonal_1", ("zonal", 1, poles[0], 1.0)),
        ("zonal_2", ("zonal", 2, poles[1], 0.7)),
        ("kernel_0.3", ("kernel", 0.3, tuple(0.6 * c for c in poles[2]))),
    ]
    points = []
    for _ in range(3):
        r, t = rng.uniform(0.0, 0.9), rng.uniform(0.0, 2.0 * math.pi)
        points.append(np.array([r * math.cos(t), r * math.sin(t)]))
    return [(f"{label}@{i}", spec, x) for label, spec in specs for i, x in enumerate(points)]


def closed_form_n2(spec, x: np.ndarray) -> float:
    """Z_k(x, eta) = 2 Re (x conj(eta))^k (Z_0 = 1) and, for s > -2,
    R_s(x, y) = 2 Re (1 - x conj(y))^-(2+s) - 1, with points as complex numbers."""
    z = complex(x[0], x[1])
    if spec[0] == "zonal":
        _, k, pole, weight = spec
        return weight * (1.0 if k == 0 else 2.0 * ((z * complex(pole[0], -pole[1])) ** k).real)
    _, s, pole = spec
    return 2.0 * ((1.0 - z * complex(pole[0], -pole[1])) ** (-(2.0 + s))).real - 1.0


def check_identities(report: dict, seed: int) -> list[Outcome]:
    from hball.calculus import HarmonicExpansion, KernelAtom, ZonalTerm
    from hball.spaces import reproduce, reproducing_rule

    rows = _rows_by(report, lambda r: r.get("check"))
    out = []
    for check, field, bound in IDENTITY_BOUNDS:
        row = rows.get(check)
        if row is None:
            out.append(Outcome(check, False, "row missing"))
            continue
        problems = [] if row.get("pass") is True else ["pass is not true"]
        value = row.get(field) if field else None
        if check == "pole_ray_growth_exponent":
            # R_0(r e1, e1) grows like (1 - r^2)^-2 along the pole ray at n = 2
            if not (_finite(value) and abs(value - 2.0) <= 0.1):
                problems.append(f"slope {value} not within 0.1 of 2")
        elif field is not None and not (_finite(value) and abs(value) <= bound):
            problems.append(f"{field} {value} exceeds {bound}")
        out.append(_ok(check, problems))

    s, t = 0.5, 1.0
    probes = reproduce_probes(seed)
    try:
        q = reproducing_rule(2, s, t)
    except Exception as exc:  # noqa: BLE001 - every probe then fails
        return out + [Outcome(f"reproduce {label}", False, f"{type(exc).__name__}: {exc}")
                      for label, _, _ in probes]
    for label, spec, x in probes:
        if spec[0] == "zonal":
            atom = ZonalTerm(spec[1], spec[2], spec[3])
        else:
            atom = KernelAtom(spec[1], spec[2])
        try:
            got = reproduce(HarmonicExpansion(2, (atom,)), s, t, x, q)
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed operation
            out.append(Outcome(f"reproduce {label}", False, f"{type(exc).__name__}: {exc}"))
            continue
        want = closed_form_n2(spec, x)
        problems = [] if abs(got - want) <= REPRODUCE_TOL else [f"reproduce {got} != {want}"]
        out.append(_ok(f"reproduce {label}", problems))
    return out


CHECKS = {
    "closure-n2": check_closure,
    "inclusion-n3": check_inclusion,
    "growth-n2": check_growth,
    "identities": check_identities,
}


def check(workload: str, report: dict, seed: int) -> list[Outcome]:
    return CHECKS[workload](report, seed)


"""Named verification experiments and their table emitters.

Each runner takes an `ExperimentConfig`, sweeps a deterministic parameter
grid, and returns a JSON-ready report dict {experiment, config, rows,
summary}; the summary counts hard disagreements and inconclusive cells
separately (an inconclusive verdict is flagged, never counted as a
disagreement).  Reports validate against the packaged schema and are
reproducible: fixed grids, seeded rotations and deterministic reductions,
with combos run in declared order.  Computed row floats are emitted at
REPORT_DIGITS significant digits (see `_at_report_precision`).
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import NamedTuple

import numpy as np
from scipy.special import betaln

from .calculus import (
    DiffPair,
    HarmonicExpansion,
    KernelAtom,
    ZonalTerm,
    apply_D,
    constant,
    evaluate,
    expansion_to_json,
    homogeneous_coefficient,
)
from .errors import NonConvergent
from .kernel import (
    CoeffProduct,
    eval_coeff_series_grids,
    kernel_growth_exponent_probe,
    log_gamma_coeffs,
)
from .quadrature import (
    BallQuadrature,
    Verdict,
    shell_decomposition,
    sphere_rule,
)
from .spaces import (
    BergmanBesov,
    Bloch,
    DecayVerdict,
    Membership,
    besov_norm_shells,
    bloch_norm,
    distance_estimate,
    fill_shell_values,
    level_set,
    little_bloch_test,
    membership_kernel_atom,
    reproduce,
    reproducing_rule,
)
from .spaces import _bloch_probe  # shell maxima anchor for level thresholds
from .special import weight_constant, zonal

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "RegimeFit",
    "RegimeVerdict",
    "default_config",
    "family_manifest",
    "report_to_csv",
    "report_to_json",
    "run_distance",
    "run_experiment",
    "run_inclusion_little_bloch",
    "run_kernel_growth",
    "run_levelset_characterization",
    "run_membership",
    "run_verify_identities",
    "validate_report",
    "verification_family",
]


@dataclass
class ExperimentConfig:
    """Parameters of one experiment run; combos must be admissible on entry."""

    name: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    shells: int = 12
    tol: float = 1e-6

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        """The config of a JSON object; raises ValueError, naming the key,
        unless its fields are of their kinds (`_CONFIG_KINDS`), so that no
        value is coerced (12.9 or true to a shell depth, "1e-6" to a
        tolerance).  Integral floats such as 12.0 are integers there."""
        _check_value(d, _CONFIG_KINDS, "")
        cfg = ExperimentConfig(**d)
        return replace(
            cfg, parameters=dict(cfg.parameters), seed=int(cfg.seed), shells=int(cfg.shells), tol=float(cfg.tol)
        )


class RegimeVerdict(str, Enum):
    BOUNDED = "bounded"
    LOG = "log"
    POWER = "power"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RegimeFit:
    """Growth regime of a weighted kernel integral along |x| -> 1."""

    w: float
    slope: float
    residual: float
    verdict: RegimeVerdict


# Shell grids for the life of the process.  The derivative values on a grid
# are memoized weakly under it (see `hball.spaces`), so keeping the grid is
# what lets inclusion, levelset and distance runs in one process share them.
_GRIDS: dict = {}


def _grid(n: int, depth: int, foci: tuple = (), **kw):
    key = (n, depth, foci, tuple(sorted(kw.items())))
    if key not in _GRIDS:
        _GRIDS[key] = shell_decomposition(n, depth, foci, **kw)
    return _GRIDS[key]


def _rotate(v: tuple, seed: int) -> tuple:
    if seed == 0:
        return v
    ang = 0.61803398875 * seed
    c, s = math.cos(ang), math.sin(ang)
    out = list(v)
    out[0], out[1] = c * v[0] - s * v[1], s * v[0] + c * v[1]
    return tuple(out)


def _unit_vector(n: int, idx: int, seed: int = 0) -> tuple:
    a = 0.9 + 0.7 * idx
    if n == 2:
        u = (math.cos(a), math.sin(a))
    else:
        b = 0.6 + 0.5 * idx
        u = (math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b))
    return _rotate(u, seed)


# Pair policy for the theorem harnesses: member rows use a high-order pair so
# their boundary decay crosses the little-Bloch threshold within the certified
# shell depth; the designated boundary atom uses alpha + t = n + 1 (also the
# window order t0), whose anchored level threshold is certifiably divergent.
_MEMBER_T = 3.0


def _member_pair(alpha: float) -> DiffPair:
    return DiffPair(alpha + _MEMBER_T, _MEMBER_T)


def _atom_pair(n: int, alpha: float) -> DiffPair:
    t = float(n) + 1.0 - alpha
    return DiffPair(alpha + t, t)


def verification_family(n: int, alpha: float, seed: int = 0):
    """The fixed test family at (n, alpha): polynomials, two kernel atoms
    safely inside the critical integral-norm space, and the designated
    boundary atom at the critical parameter (the non-member).

    Returns (members, designated) as lists of (label, expansion, pair).
    """
    zeta = _rotate((1.0,) + (0.0,) * (n - 1), seed)
    pm = _member_pair(alpha)
    members = [
        ("const", constant(n), pm),
        ("zonal1", HarmonicExpansion(n, (ZonalTerm(1, _unit_vector(n, 1, seed)),)), pm),
        ("zonal3", HarmonicExpansion(n, (ZonalTerm(3, _unit_vector(n, 2, seed)),)), pm),
        (
            "polymix",
            HarmonicExpansion(
                n,
                (
                    ZonalTerm(1, _unit_vector(n, 1, seed)),
                    ZonalTerm(2, _unit_vector(n, 3, seed), 0.5),
                ),
            ),
            pm,
        ),
        ("atom_in_25", HarmonicExpansion(n, (KernelAtom(alpha - n - 2.5, zeta),)), pm),
        ("atom_in_35", HarmonicExpansion(n, (KernelAtom(alpha - n - 3.5, zeta),)), pm),
    ]
    designated = (
        "atom_critical",
        HarmonicExpansion(n, (KernelAtom(alpha - n, zeta),)),
        _atom_pair(n, alpha),
    )
    return members, designated, zeta


def family_manifest(n_grid, alpha_grid, seed: int) -> dict:
    """JSON manifest of the fixed test family, embedded in reports so that
    formal runs pin exactly which functions and operator pairs were tested."""
    out = {}
    for n in n_grid:
        for alpha in alpha_grid:
            members, designated, _ = verification_family(n, alpha, seed)
            out[f"n{n}_alpha{alpha}"] = [
                {
                    "label": label,
                    "expansion": json.loads(expansion_to_json(f)),
                    "pair": {"s": pair.s, "t": pair.t},
                }
                for label, f, pair in members + [designated]
            ]
    return out


# Declared output precision of computed report floats.  Series are certified
# only to REL_TOL = 1e-7 of their majorant mass, so 10 digits discard nothing
# certified, while the last bits of the raw floats vary with the CPU kernels
# that numpy and BLAS dispatch to (about 1e-16 relative).
REPORT_DIGITS = 10


def _at_report_precision(value):
    """`value` with every float correctly rounded to REPORT_DIGITS significant
    digits, through nested dicts, lists and tuples.  Other leaves (bool, int,
    None, str) are returned as they are; non-finite floats stay non-finite."""
    if isinstance(value, float):
        return float(f"{value:.{REPORT_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _at_report_precision(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_at_report_precision(v) for v in value)
    return value


def _report(experiment: str, cfg: ExperimentConfig, rows, disagreements: int, inconclusive: int) -> dict:
    """Assemble and validate a report.  Every verdict and `agree` decision is
    made on the full-precision values before the rows are rounded to the
    declared precision; the config is echoed as given."""
    report = {
        "experiment": experiment,
        "config": cfg.to_json_dict(),
        "rows": _at_report_precision(rows),
        "summary": {
            "pass": bool(disagreements == 0),
            "disagreements": int(disagreements),
            "inconclusive": int(inconclusive),
            "rows": len(rows),
        },
    }
    validate_report(report)
    return report


def _family_report(name: str, cfg: ExperimentConfig, rows_of) -> dict:
    """Report of an experiment on the fixed test family.

    For each (n, alpha) of the config, in config order, `rows_of(n, alpha,
    members, designated, grid)` gives the rows on the family's focused grid
    (see `verification_family`).  A row whose `agree` is None counts as
    inconclusive, one whose `agree` is False as a disagreement.  The echoed
    config carries the family manifest.
    """
    n_grid, alpha_grid = cfg.parameters["n_grid"], cfg.parameters["alpha_grid"]
    rows = []
    for n in n_grid:
        for alpha in alpha_grid:
            members, designated, zeta = verification_family(n, alpha, cfg.seed)
            rows += rows_of(n, alpha, members, designated, _grid(n, cfg.shells, (zeta,)))
    inconclusive = sum(r["agree"] is None for r in rows)
    disagreements = sum(r["agree"] is False for r in rows)
    manifest = family_manifest(n_grid, alpha_grid, cfg.seed)
    cfg = replace(cfg, parameters={**cfg.parameters, "family": manifest})
    return _report(name, cfg, rows, disagreements, inconclusive)


# --- kernel growth (weighted kernel integral trichotomy) ----------------------


def _growth_integral_curves(n: int, combos, radii: np.ndarray, depth: int, tol: float) -> list:
    """I(r) = int |R_alpha(r e1, y)|^p (1-|y|^2)^d dnu(y) at the radii r,
    one curve per combo of the dimension n, or the NonConvergent of its
    alpha.

    Per shell, the kernels of every distinct alpha are evaluated in one grid
    call (`eval_coeff_series_grids`) on the radius sets stacked into one
    product grid, which shares the Legendre table at n = 3 and the closed
    forms' geometry at n = 2.  A
    kernel value depends on its radius and its cosine u = <y/|y|, e1>
    alone, so the call gets one direction per distinct cosine (exact
    `np.unique` of the dot products, the cosines the kernel finds) and the
    sphere weights are folded onto those cosines: a curve adds wr |V|^p
    folded per shell, over the radius sets stacked into V in one product
    per combo.  An alpha whose series raises keeps its first
    NonConvergent and leaves the later shells' calls."""
    e1 = (1.0,) + (0.0,) * (n - 1)
    pole = np.asarray(e1)
    grid = _grid(n, depth, (e1,), azimuth=8)
    alphas = list(dict.fromkeys(combo["alpha"] for combo in combos))
    totals = np.zeros((len(combos), len(radii)))
    failed: dict = {}
    for shell, sph in zip(grid.shells, grid.spheres):
        live = [alpha for alpha in alphas if alpha not in failed]
        if not live:
            break
        _, first, inv = np.unique(sph.units @ pole, return_index=True, return_inverse=True)
        folded = np.bincount(inv, weights=sph.weights)
        stacked = np.concatenate([shell.nodes * r for r in radii])
        results = eval_coeff_series_grids(
            n, [CoeffProduct.kernel(alpha) for alpha in live], pole,
            [(stacked, sph.units[first], None)], tol_rel=min(tol, 1e-8),
        )
        vals = {}
        for alpha, (result,) in zip(live, results):
            if isinstance(result, NonConvergent):
                failed[alpha] = result
            else:
                vals[alpha] = np.abs(result).reshape(len(radii), -1, first.shape[0])  # (radius set, node, cosine)
        for c, combo in enumerate(combos):
            if combo["alpha"] not in vals:
                continue
            wr = shell.weights * (1.0 - shell.nodes**2) ** combo["d"]
            totals[c] += np.matmul(wr, vals[combo["alpha"]] ** combo["p"]) @ folded
    return [failed.get(combo["alpha"], row) for combo, row in zip(combos, totals)]


# The regime fit reads the last this many radii.
_FIT_RADII = 5


def _fit_regime(radii: np.ndarray, values: np.ndarray, w: float) -> RegimeFit:
    big_l = np.log(1.0 / (1.0 - radii[-_FIT_RADII:] ** 2))
    log_i = np.log(values[-_FIT_RADII:])
    slope, intercept = np.polyfit(big_l, log_i, 1)
    diffs = np.diff(values)
    ratio_d = float(np.mean(diffs[-3:]) / np.mean(diffs[:3]))
    resid_pow = float(np.sqrt(np.mean((log_i - (slope * big_l + intercept)) ** 2)))
    if ratio_d >= 2.0:
        return RegimeFit(w, float(slope), resid_pow, RegimeVerdict.POWER)
    if ratio_d <= 0.45:
        return RegimeFit(w, float(slope), resid_pow, RegimeVerdict.BOUNDED)
    if 0.45 < ratio_d < 2.0 and np.all(diffs > 0.0):
        return RegimeFit(w, float(slope), resid_pow, RegimeVerdict.LOG)
    return RegimeFit(w, float(slope), resid_pow, RegimeVerdict.INCONCLUSIVE)


def run_kernel_growth(cfg: ExperimentConfig) -> dict:
    """Fit the growth regime of the weighted kernel integrals and compare
    against the sign of w = p(n+alpha) - (n+d)."""
    combos = cfg.parameters["combos"]
    radii = np.array([1.0 - 2.0 ** (-j) for j in cfg.parameters["j_radii"]])
    # the combos of one dimension share one grid call per shell
    dims: dict[int, list[int]] = {}
    for i, combo in enumerate(combos):
        dims.setdefault(combo["n"], []).append(i)
    curves = [None] * len(combos)
    for n, members in dims.items():
        results = _growth_integral_curves(n, [combos[i] for i in members], radii, cfg.shells, cfg.tol)
        for i, values in zip(members, results):
            curves[i] = values
    # the series failure of the first combo that has one
    for values in curves:
        if isinstance(values, NonConvergent):
            raise values

    def one(combo, radii, values):
        n, p, alpha, d = combo["n"], combo["p"], combo["alpha"], combo["d"]
        w = p * (n + alpha) - (n + d)
        fit = _fit_regime(radii, values, w)
        if w > 0:
            expected = RegimeVerdict.POWER
        elif w == 0:
            expected = RegimeVerdict.LOG
        else:
            expected = RegimeVerdict.BOUNDED
        slope_ok = (fit.verdict != RegimeVerdict.POWER) or abs(fit.slope - w) <= 0.1
        return {
            "n": n, "p": p, "alpha": alpha, "d": d, "w": w,
            "verdict": fit.verdict.value,
            "expected": expected.value,
            "slope": fit.slope,
            "residual": fit.residual,
            "slope_ok": bool(slope_ok),
            "curve": [[float(r), float(v)] for r, v in zip(radii, values)],
            "agree": bool(fit.verdict == expected and slope_ok),
        }

    rows = [one(combo, radii, values) for combo, values in zip(combos, curves)]
    inconclusive = sum(r["verdict"] == "inconclusive" for r in rows)
    disagreements = sum((not r["agree"]) and r["verdict"] != "inconclusive" for r in rows)
    return _report("kernel-growth", cfg, rows, disagreements, inconclusive)


# --- membership (kernel atoms in the integral-norm spaces) ---------------------


def _shell_norm(f: HarmonicExpansion, spec: BergmanBesov, grid) -> tuple[Verdict, float | None]:
    """Shell verdict and norm estimate of f in spec, the estimate None when
    it is not finite; INCONCLUSIVE and None when no shell is certified."""
    try:
        report, estimate = besov_norm_shells(f, spec, grid)
    except NonConvergent:
        return Verdict.INCONCLUSIVE, None
    return report.verdict, estimate if math.isfinite(estimate) else None


def run_membership(cfg: ExperimentConfig) -> dict:
    """Predicate vs shell-sum verdict for kernel-atom membership."""
    n = cfg.parameters["n"]
    p_grid = cfg.parameters["p_grid"]
    s_grid = cfg.parameters["s_grid"]
    delta_grid = cfg.parameters["delta_grid"]
    zeta = _rotate((1.0,) + (0.0,) * (n - 1), cfg.seed)
    grid = _grid(n, cfg.shells, (zeta,))
    combos = [
        (p, s, delta) for p in p_grid for s in s_grid for delta in delta_grid
    ]

    def one(combo):
        p, s, delta = combo
        beta = p * (n + s) - n + delta
        predicate = membership_kernel_atom(n, p, s, beta)
        atom = HarmonicExpansion(n, (KernelAtom(s, zeta),))
        spec = BergmanBesov.standard(p, beta)
        verdict, norm_est = _shell_norm(atom, spec, grid)
        if verdict == Verdict.FINITE:
            numeric = Membership.MEMBER.value
        elif verdict == Verdict.DIVERGENT:
            numeric = Membership.NON_MEMBER.value
        else:
            numeric = "inconclusive"
        return {
            "p": p, "s": s, "beta": beta, "boundary_margin": delta,
            "predicate": predicate.value,
            "numeric": numeric,
            "norm_estimate": norm_est,
            "agree": bool(numeric == predicate.value),
        }

    rows = [one(combo) for combo in combos]
    inconclusive = sum(r["numeric"] == "inconclusive" for r in rows)
    disagreements = sum((not r["agree"]) and r["numeric"] != "inconclusive" for r in rows)
    return _report("membership", cfg, rows, disagreements, inconclusive)


# --- inclusion into the boundary-vanishing space -------------------------------


def run_inclusion_little_bloch(cfg: ExperimentConfig) -> dict:
    """Every family member with finite critical integral norm must have a
    decaying weighted derivative; the designated critical atom must not."""

    def rows_of(n, alpha, members, designated, grid):
        family = members + [designated]
        specs = [BergmanBesov.standard(p, p * alpha - n) for p in cfg.parameters["p_grid"]]
        # every field the rows walk, under the integral-norm pair for each p
        # and under the sup-norm pair, filled shell by shell together: each
        # shell's series share one angular table
        fill_shell_values(
            [(f, spec.pair) for spec in specs for _, f, _ in family]
            + [(f, pair) for _, f, pair in family],
            grid,
        )
        rows = []
        for p, spec in zip(cfg.parameters["p_grid"], specs):
            for label, f, pair in family:
                verdict, norm_est = _shell_norm(f, spec, grid)
                in_space = verdict == Verdict.FINITE
                decay = little_bloch_test(f, Bloch(alpha, pair), grid)
                if verdict == Verdict.INCONCLUSIVE or decay == DecayVerdict.INCONCLUSIVE:
                    agree = None
                elif in_space:
                    agree = decay == DecayVerdict.DECAYING
                else:
                    agree = decay == DecayVerdict.NON_DECAYING
                rows.append(
                    {
                        "n": n, "alpha": alpha, "p": p, "f": label,
                        "norm_verdict": verdict.value,
                        "norm_estimate": norm_est,
                        "decay": decay.value,
                        "agree": agree,
                    }
                )
        return rows

    return _family_report("inclusion", cfg, rows_of)


# --- level-set characterizations ----------------------------------------------


def _stall_level(f: HarmonicExpansion, alpha: float, pair: DiffPair, grid) -> float:
    """Anchor threshold: half the stalled boundary level of the weighted
    derivative (the scale at which cone-shaped level sets are resolved
    within the certified shell depth)."""
    probe = _bloch_probe(f, Bloch(alpha, pair), grid)
    return 0.5 * min(probe.shell_maxima[-3:])


def run_levelset_characterization(cfg: ExperimentConfig) -> dict:
    """Level-set finiteness vs boundary decay, and the intersection-closure
    window (critical atom finite at weight beta - p alpha, divergent at -n).

    Nothing but the window's admissibility depends on p: each row's norms,
    verdicts and level sets are computed once per (n, alpha) and emitted
    for every p of the config."""
    fractions = cfg.parameters["eps_fractions"]

    def rows_of(n, alpha, members, designated, grid):
        member_rows = []
        for label, f, pair in members + [designated]:
            norm = bloch_norm(f, Bloch(alpha, pair), grid)
            decay = little_bloch_test(f, Bloch(alpha, pair), grid)
            verdicts = {}
            for frac in fractions:
                rep = level_set(f, alpha, pair, frac * norm, grid, -float(n))
                verdicts[str(frac)] = rep.verdict.value
            row = {
                "decay": decay.value,
                "bloch_norm": norm,
                "levelset_weight": -float(n),
                "verdicts": verdicts,
            }
            if label == designated[0]:
                eps0 = _stall_level(f, alpha, pair, grid)
                rep0 = level_set(f, alpha, pair, eps0, grid, -float(n))
                row["anchored_epsilon"] = eps0
                row["anchored_verdict"] = rep0.verdict.value
            all_finite = all(v == Verdict.FINITE.value for v in verdicts.values())
            any_div = any(v == Verdict.DIVERGENT.value for v in verdicts.values()) or (
                row.get("anchored_verdict") == Verdict.DIVERGENT.value
            )
            if decay == DecayVerdict.INCONCLUSIVE or (not all_finite and not any_div):
                row["agree"] = None
            elif decay == DecayVerdict.DECAYING:
                row["agree"] = all_finite
            else:
                row["agree"] = (not all_finite) and any_div
            member_rows.append((label, row))

        # intersection-closure window: beta = p*alpha - 1, so the weight
        # beta - p*alpha is -1 at every p.  The designated pair has the window
        # order t0 = n + 1 - alpha (`_atom_pair`), so the window's threshold
        # and hyperbolic level set are the anchored eps0 and rep0 above.
        label, f, pair0 = designated
        t0 = pair0.t
        rep_window = level_set(f, alpha, pair0, eps0, grid, -1.0)
        rows = []
        for p in cfg.parameters["p_grid"]:
            rows += [{"n": n, "alpha": alpha, "p": p, "f": lab, **row} for lab, row in member_rows]
            beta = p * alpha - 1.0
            if not (alpha + t0 > n and beta + p * t0 > -1.0):
                raise ValueError("window parameters violate their admissibility bounds")
            rows.append(
                {
                    "n": n, "alpha": alpha, "p": p, "f": label,
                    "window": {"beta": beta, "t0": t0, "epsilon": eps0},
                    "verdict_window_weight": rep_window.verdict.value,
                    "verdict_hyperbolic": rep0.verdict.value,
                    "agree": bool(
                        rep_window.verdict == Verdict.FINITE
                        and rep0.verdict == Verdict.DIVERGENT
                    ),
                }
            )
        return rows

    return _family_report("levelset", cfg, rows_of)


# --- distance estimator ---------------------------------------------------------


def run_distance(cfg: ExperimentConfig) -> dict:
    """Level-set distance estimates: zero for polynomials and strictly
    positive for the designated critical atom; the approximant rows check
    that the membership boundary agrees across the exponent pair."""
    p0, p1 = cfg.parameters["p_pair"]

    def rows_of(n, alpha, members, designated, grid):
        rows = []
        for label, f, pair in [members[0], members[2], designated]:
            est = distance_estimate(f, alpha, pair, grid)
            is_poly = label != designated[0]
            ok = (
                est.upper <= 1e-3 * max(est.bloch_norm, 1e-30)
                if is_poly
                else est.lower > 0.0
            )
            rows.append(
                {
                    "n": n, "alpha": alpha, "f": label,
                    "estimate": est.value,
                    "bracket": [est.lower, est.upper],
                    "bloch_norm": est.bloch_norm,
                    "inconclusive_probes": est.inconclusive,
                    "agree": bool(ok),
                }
            )
        # exponent-consistency of the approximant boundary
        for ds in (-1.0, -0.5, 0.5):
            s = alpha - n + ds
            m0 = membership_kernel_atom(n, p0, s, p0 * alpha - n)
            m1 = membership_kernel_atom(n, p1, s, p1 * alpha - n)
            rows.append(
                {
                    "n": n, "alpha": alpha, "f": f"approximant_s={s}",
                    "member_p0": m0.value, "member_p1": m1.value,
                    "agree": bool(m0 == m1),
                }
            )
        return rows

    return _family_report("distance", cfg, rows_of)


# --- identity battery -----------------------------------------------------------


def _random_atom(rng, n: int) -> HarmonicExpansion:
    kind = rng.integers(0, 3)
    pole = tuple(_unit_vector(n, int(rng.integers(0, 7))))
    weight = float(rng.uniform(0.5, 2.0))
    if kind == 0:
        return HarmonicExpansion(n, (ZonalTerm(int(rng.integers(0, 5)), pole, weight),))
    s = float(rng.uniform(-3.0, 3.0))
    scale = float(rng.uniform(0.2, 1.0)) if kind == 2 else 1.0
    pole = tuple(scale * c for c in pole)
    return HarmonicExpansion(n, (KernelAtom(s, pole, weight),))


def _identity_rows(seed: int, pairs: int, layers: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []

    worst = 0.0
    shift_exact = True
    for _ in range(pairs):
        n = int(rng.choice([2, 3]))
        s, t = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        f = _random_atom(rng, n)
        # two-sided inverse, both orders
        for first, second in ((DiffPair(s, t), DiffPair(s + t, -t)),
                              (DiffPair(s + t, -t), DiffPair(s, t))):
            g = apply_D(apply_D(f, first), second)
            for k in range(0, layers + 1, 23):
                for (p0, c0), (p1, c1) in zip(
                    homogeneous_coefficient(f, k), homogeneous_coefficient(g, k)
                ):
                    if c0 != 0.0:
                        worst = max(worst, abs(c1 - c0) / abs(c0))
        # kernel shift is exact on kernel atoms built at the pair base
        atom = KernelAtom(s, _unit_vector(n, 3))
        shifted = apply_D(HarmonicExpansion(n, (atom,)), DiffPair(s, t)).atoms[0]
        shift_exact = shift_exact and isinstance(shifted, KernelAtom) and shifted.s == s + t
    rows.append(
        {
            "check": "two_sided_inverse",
            "pairs": pairs,
            "max_rel_error": worst,
            "pass": bool(worst <= 1e-12),
        }
    )
    rows.append({"check": "kernel_shift_exact", "pairs": pairs, "pass": bool(shift_exact)})
    return rows


def _quadrature_rows() -> list[dict]:
    rows = []
    worst = 0.0
    for n in (2, 3):
        for gamma in (0.0, 1.0, 2.5, -0.5):
            q = BallQuadrature.build(n, gamma, 24)
            for j in (0, 3, 7, 11):
                got = float(q.radial_weights @ (q.radial_nodes ** (2 * j)))
                want = math.exp(math.log(0.5 * n) + betaln(0.5 * n + j, gamma + 1.0))
                worst = max(worst, abs(got - want) / abs(want))
    rows.append({"check": "radial_beta_moments", "max_rel_error": worst, "pass": bool(worst <= 1e-12)})

    worst2 = 0.0
    s2 = sphere_rule(2, 48)
    ang = np.arctan2(s2.units[:, 1], s2.units[:, 0])
    for k in (1, 7, 31, 47):
        worst2 = max(worst2, abs(float(np.cos(k * ang) @ s2.weights)))
        worst2 = max(worst2, abs(float(np.sin(k * ang) @ s2.weights)))
    rows.append({"check": "circle_orthogonality", "max_abs": worst2, "pass": bool(worst2 <= 1e-12)})

    worst3 = 0.0
    s3 = sphere_rule(3, 24)
    eta = np.array([0.3, -0.5, 0.8])
    eta /= np.linalg.norm(eta)
    for k in (1, 5, 13, 24):
        zk = np.array([zonal(3, k, u, eta) for u in s3.units])
        worst3 = max(worst3, abs(float(zk @ s3.weights)))
    rows.append({"check": "sphere_zonal_orthogonality", "max_abs": worst3, "pass": bool(worst3 <= 1e-10)})

    worstv = 0.0
    for n in (2, 3):
        for alpha in (0.0, 0.5, 2.0):
            q = BallQuadrature.build(n, alpha, 16)
            got = float(q.radial_weights.sum())
            worstv = max(worstv, abs(got - weight_constant(n, alpha).value))
    rows.append({"check": "weight_constant_match", "max_abs_error": worstv, "pass": bool(worstv <= 1e-10)})
    return rows


def _stirling_rows() -> list[dict]:
    rows = []
    ks = np.array([1000.0, 4000.0])
    worst = 0.0
    for n in (2, 3):
        for alpha in (-5.0, -2.0, 0.0, 3.0):
            vals = np.exp(log_gamma_coeffs(n, alpha, ks) - (alpha + 1.0) * np.log(ks))
            rel = abs(vals[0] - vals[1]) / vals[1]
            worst = max(worst, float(rel))
    rows.append({"check": "coefficient_power_law", "max_rel_drift": worst, "pass": bool(worst <= 0.05)})
    return rows


def _growth_probe_rows() -> list[dict]:
    radii = [1.0 - 2.0 ** (-j) for j in range(3, 12)]
    table = kernel_growth_exponent_probe(2, 0.0, (1.0, 0.0), radii)
    rs = np.array([r for r, _ in table])
    vs = np.array([v for _, v in table])
    big_l = np.log(1.0 / (1.0 - rs**2))
    slope = float(np.polyfit(big_l[-5:], np.log(vs[-5:]), 1)[0])
    return [
        {
            "check": "pole_ray_growth_exponent",
            "slope": slope,
            "expected": 2.0,
            "pass": bool(abs(slope - 2.0) <= 0.1),
        }
    ]


def _reproduce_rows(seed: int, probes: int) -> list[dict]:
    rng = np.random.default_rng(seed + 1)
    rows = []
    for n in (2, 3):
        s, t = 0.5, 1.0
        q = reproducing_rule(n, s, t)
        worst = 0.0
        fam = [
            constant(n),
            HarmonicExpansion(n, (ZonalTerm(1, _unit_vector(n, 1)),)),
            HarmonicExpansion(n, (ZonalTerm(2, _unit_vector(n, 2), 0.7),)),
            HarmonicExpansion(n, (KernelAtom(0.3, tuple(0.6 * c for c in _unit_vector(n, 4))),)),
        ]
        for f in fam:
            xs = np.empty((probes, n))
            for x in xs:
                x[:] = rng.uniform(-1.0, 1.0, size=n)
                x *= rng.uniform(0.0, 0.9) / max(np.linalg.norm(x), 1e-12)
            for x, got in zip(xs, reproduce(f, s, t, xs, q)):
                worst = max(worst, abs(float(got) - evaluate(f, x, tol=1e-11)))
        rows.append(
            {
                "check": f"reproducing_formula_n{n}",
                "max_abs_error": worst,
                "pass": bool(worst <= 1e-6),
            }
        )
    return rows


def run_verify_identities(cfg: ExperimentConfig) -> dict:
    """Identity battery: operator inverse/shift, quadrature exactness,
    coefficient power law, pole-ray growth, reproducing formula.  A count
    the config leaves out takes its value in the default config."""
    counts = {**_DECLARED["verify-identities"].config["parameters"], **cfg.parameters}
    rows = (
        _identity_rows(cfg.seed, counts["pairs"], counts["layers"])
        + _quadrature_rows()
        + _stirling_rows()
        + _growth_probe_rows()
        + _reproduce_rows(cfg.seed, counts["reproduce_probes"])
    )
    disagreements = sum(not r["pass"] for r in rows)
    return _report("verify-identities", cfg, rows, disagreements, 0)


# --- dispatch, validation, serialization ---------------------------------------


@dataclass(frozen=True)
class _Optional:
    """The kind of an object's key that may be left out."""

    kind: object


class _Experiment(NamedTuple):
    """An experiment: its runner, the kind of value each parameter key
    takes (see `_check_value`) and its default config, given by the fields
    that are not the name."""

    run: Callable[[ExperimentConfig], dict]
    kinds: dict
    config: dict


_DECLARED = {
    "kernel-growth": _Experiment(
        run_kernel_growth,
        {"combos": [{"n": "dimension", "p": "positive", "alpha": "finite", "d": "weight"}],
         "j_radii": ["nonnegative"]},
        {
            "parameters": {
                "combos": [
                    {"n": 2, "p": 2.0, "alpha": 0.0, "d": 0.0},
                    {"n": 3, "p": 2.0, "alpha": 0.0, "d": 1.0},
                    {"n": 2, "p": 1.0, "alpha": 1.0, "d": 0.0},
                    {"n": 2, "p": 1.0, "alpha": 0.0, "d": 0.0},
                    {"n": 3, "p": 1.0, "alpha": 0.0, "d": 0.0},
                    {"n": 2, "p": 2.0, "alpha": -1.0, "d": 0.0},
                    {"n": 2, "p": 1.0, "alpha": -0.5, "d": 1.0},
                    {"n": 3, "p": 1.0, "alpha": -1.0, "d": 0.5},
                    {"n": 2, "p": 2.0, "alpha": -1.5, "d": 0.0},
                ],
                "j_radii": [3, 4, 5, 6, 7, 8, 9, 10],
            },
            "shells": 18,
        },
    ),
    "membership": _Experiment(
        run_membership,
        # p >= 1, where the membership predicate is stated
        {"n": "dimension", "p_grid": ["exponent"], "s_grid": ["finite"], "delta_grid": ["finite"]},
        {"parameters": {"n": 2, "p_grid": [1.0, 1.5, 2.0], "s_grid": [-1.0, 0.0, 0.5],
                        "delta_grid": [-1.5, -0.75, 0.75]}},
    ),
    "inclusion": _Experiment(
        run_inclusion_little_bloch,
        {"n_grid": ["dimension"], "alpha_grid": ["finite"], "p_grid": ["positive"]},
        {"parameters": {"n_grid": [2, 3], "alpha_grid": [0.0, 1.0], "p_grid": [1.0, 2.0]}},
    ),
    "levelset": _Experiment(
        run_levelset_characterization,
        # eps_fractions are fractions of the Bloch norm
        {"n_grid": ["dimension"], "alpha_grid": ["finite"], "p_grid": ["positive"], "eps_fractions": ["positive"]},
        {"parameters": {"n_grid": [2, 3], "alpha_grid": [0.0, 1.0], "p_grid": [1.0, 2.0],
                        "eps_fractions": [0.5, 0.1, 0.02]}},
    ),
    "distance": _Experiment(
        run_distance,
        {"n_grid": ["dimension"], "alpha_grid": ["finite"], "p_pair": ["exponent"]},
        {"parameters": {"n_grid": [2, 3], "alpha_grid": [0.0, 1.0], "p_pair": [1.0, 2.0]}},
    ),
    "verify-identities": _Experiment(
        run_verify_identities,
        # layers is the highest degree checked; a count left out takes its
        # default
        {"pairs": _Optional("count"), "layers": _Optional("degree"), "reproduce_probes": _Optional("count")},
        {"parameters": {"pairs": 50, "layers": 200, "reproduce_probes": 4}, "tol": 1e-12},
    ),
}

EXPERIMENTS = {name: experiment.run for name, experiment in _DECLARED.items()}


def default_config(name: str) -> ExperimentConfig:
    """A new copy of the default config of experiment `name`."""
    if name not in _DECLARED:
        raise ValueError(f"unknown experiment {name!r}")
    return ExperimentConfig(name, **copy.deepcopy(_DECLARED[name].config))


def run_experiment(name: str, cfg: ExperimentConfig | None = None) -> dict:
    """Run experiment `name` on `cfg` (its default config when None).

    Raises ValueError, before any work, for an unknown name or a config
    the experiment cannot run (`_check_config`), such as another
    experiment's.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    cfg = cfg if cfg is not None else default_config(name)
    _check_config(name, cfg)
    return EXPERIMENTS[name](cfg)


def _check_config(name: str, cfg: ExperimentConfig) -> None:
    """Raise ValueError, naming the key, unless the config's fields are of
    their kinds (`_CONFIG_KINDS`), the config is one of experiment `name`
    (another experiment's would fail inside the runner), the shell depth
    is >= 1, the tolerance is finite and positive, the parameters are of
    the kinds the experiment declares (`_DECLARED`) and the rules that
    span the entries of one key hold: p_pair holds two exponents, and
    j_radii at least _FIT_RADII values j, strictly increasing, whose radii
    1 - 2^-j are distinct and below 1.0 as doubles (the growth fit reads
    the last _FIT_RADII of them, and a radius of 1.0 divides by zero)."""
    _check_value(vars(cfg), _CONFIG_KINDS, "")
    if cfg.name != name:
        raise ValueError(f"config is for experiment {cfg.name!r}, not {name!r}")
    if not isinstance(cfg.shells, int) or cfg.shells < 1:
        raise ValueError(f"shells must be an integer >= 1, not {cfg.shells!r}")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise ValueError(f"tol must be finite and positive, not {cfg.tol!r}")
    parameters = cfg.parameters
    _check_value(parameters, _DECLARED[cfg.name].kinds, "parameters")
    if "p_pair" in parameters and len(parameters["p_pair"]) != 2:
        raise ValueError(f"p_pair must hold two exponents, not {parameters['p_pair']!r}")
    j_radii = parameters.get("j_radii")
    if j_radii is None:
        return
    if len(j_radii) < _FIT_RADII:
        raise ValueError(f"j_radii must hold at least {_FIT_RADII} values, not {j_radii!r}")
    if any(b <= a for a, b in zip(j_radii, j_radii[1:])):
        raise ValueError(f"j_radii must be strictly increasing, not {j_radii!r}")
    radii = [1.0 - 2.0**-j for j in j_radii]
    if radii[-1] >= 1.0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"j_radii must give distinct radii 1 - 2^-j below 1.0, not {j_radii!r}")


def _schema() -> dict:
    with resources.files("hball.data").joinpath("report.schema.json").open("r") as fh:
        return json.load(fh)


# The JSON Schema (draft 7) types as `jsonschema` reads them: a bool is
# neither an integer nor a number, and a float with an integral value is an
# integer.
_SCHEMA_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real),
}


def _finite_number(value) -> bool:
    return _SCHEMA_TYPES["number"](value) and math.isfinite(value)


def _integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, int)


# What a value of each kind must be, and the test of it.
_KINDS = {
    "experiment": ("the name of an experiment", lambda v: isinstance(v, str) and v in _DECLARED),
    "object": ("an object", _SCHEMA_TYPES["object"]),
    "integer": ("of type integer", _SCHEMA_TYPES["integer"]),
    "number": ("of type number", _SCHEMA_TYPES["number"]),
    "dimension": ("2 or 3", lambda n: _integer(n) and n in (2, 3)),
    "finite": ("finite", _finite_number),
    "positive": ("finite and > 0", lambda v: _finite_number(v) and v > 0.0),
    "exponent": ("finite and >= 1", lambda p: _finite_number(p) and p >= 1.0),
    "weight": ("finite and > -1", lambda d: _finite_number(d) and d > -1.0),
    "nonnegative": ("finite and >= 0", lambda j: _finite_number(j) and j >= 0.0),
    "count": ("an integer >= 1", lambda k: _integer(k) and k >= 1),
    "degree": ("an integer >= 0", lambda k: _integer(k) and k >= 0),
}

# The kinds of a config's fields; a field left out takes its default
# (`ExperimentConfig.from_json_dict`).
_CONFIG_KINDS = {
    "name": "experiment",
    "parameters": _Optional("object"),
    "seed": _Optional("integer"),
    "shells": _Optional("integer"),
    "tol": _Optional("number"),
}


def _check_value(value, kind, where: str) -> None:
    """Raise ValueError, naming the place `where`, unless `value` is of
    `kind`: the name of a kind in `_KINDS`, [kind] for a nonempty list of
    that kind, or {key: kind} for an object with no other key and each
    key's value of its kind, a key of kind `_Optional` only when present.
    A key left out reads as None, which no kind in `_KINDS` holds."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{where} must be a nonempty list, not {value!r}")
        for i, entry in enumerate(value):
            _check_value(entry, kind[0], f"{where}[{i}]")
    elif isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where or 'the config'} must be an object, not {value!r}")
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in kind:
                raise ValueError(f"unknown key {prefix}{key}; {where or 'the config'} takes {sorted(kind)}")
        for key, sub in kind.items():
            if isinstance(sub, _Optional):
                if key not in value:
                    continue
                sub = sub.kind
            _check_value(value.get(key), sub, f"{prefix}{key}")
    else:
        what, valid = _KINDS[kind]
        if not valid(value):
            raise ValueError(f"{where} must be {what}, not {value!r}")


# The keywords `_check_schema` reads; "$schema" and "title" constrain nothing.
_SCHEMA_KEYWORDS = frozenset({
    "$schema", "title", "type", "required", "properties", "additionalProperties",
    "items", "minimum", "exclusiveMinimum",
})


def _check_schema(value, schema: dict, where: str) -> None:
    """Raise ValueError, naming the place, unless `value` meets `schema`.

    Reads the keywords the report schema uses: type, required, properties,
    additionalProperties (false only), items, minimum and exclusiveMinimum,
    each with its JSON Schema meaning.  Any other keyword is refused, so a
    schema edit cannot go unchecked."""
    unknown = set(schema) - _SCHEMA_KEYWORDS
    if unknown or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"unsupported schema at {where}: {sorted(unknown) or schema}")
    if "type" in schema and not _SCHEMA_TYPES[schema["type"]](value):
        raise ValueError(f"{where} is not of type {schema['type']}: {value!r}")
    if _SCHEMA_TYPES["number"](value):
        # written as the failing comparison, so that NaN passes as it does
        # in JSON Schema validators
        if "minimum" in schema and value < schema["minimum"]:
            raise ValueError(f"{where} is less than {schema['minimum']}: {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ValueError(f"{where} is not above {schema['exclusiveMinimum']}: {value!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        missing = [k for k in schema.get("required", ()) if k not in value]
        if missing:
            raise ValueError(f"{where} misses required keys {missing}")
        if "additionalProperties" in schema:
            extra = sorted(set(value) - set(properties))
            if extra:
                raise ValueError(f"{where} has keys the schema does not allow: {extra}")
        for key, sub in properties.items():
            if key in value:
                _check_schema(value[key], sub, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_schema(item, schema["items"], f"{where}[{i}]")


def validate_report(report: dict) -> None:
    """Raise ValueError unless `report` meets `data/report.schema.json`."""
    _check_schema(report, _schema(), "report")


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = json.dumps(value)
    else:
        out[prefix] = value


def report_to_csv(report: dict) -> str:
    import csv
    import io

    flat_rows = []
    for row in report["rows"]:
        flat: dict = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    fields = sorted({k for fr in flat_rows for k in fr})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for fr in flat_rows:
        writer.writerow(fr)
    return buf.getvalue()

"""Space-level semantics: norms, level sets, membership, inclusion, distance.

The two-parameter family here consists of integral-norm spaces (exponent p,
weight alpha, norm ||(1-|x|^2)^t D f||_{L^p((1-|x|^2)^alpha dnu)} for an
admissible operator pair with alpha + p t > -1) and sup-norm spaces (weight
alpha, sup (1-|x|^2)^(alpha+t) |D f|, admissible when alpha + t > 0), plus
the "little" subspace of the latter whose weighted derivative vanishes at the
boundary.  Level sets of the weighted derivative, integrated against
(1-|x|^2)^w dnu over dyadic shells, produce the finite/divergent verdicts
that characterize closure membership; the distance functional is estimated by
bisecting the level threshold on that verdict.

All operations are reentrant; weighted-derivative fields are cached per
(function, pair, grid), so the field values on the grid nodes are computed
once.  Each level threshold still locates its own level-set boundaries by
bisection, which evaluates the field between nodes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calculus import DiffPair, HarmonicExpansion, apply_D, evaluate_grid
from .errors import AdmissibilityError, NonConvergent, UnsupportedPair
from .kernel import CoeffProduct, eval_coeff_series_grid
from .quadrature import (
    BallQuadrature,
    ShellDecomposition,
    ShellIntegral,
    SupProbe,
    Verdict,
    integrate_ball,
    integrate_shells,
    sup_norm_probe,
)
from .special import weight_constant

__all__ = [
    "BergmanBesov",
    "Bloch",
    "DecayVerdict",
    "DistanceEstimate",
    "Inclusion",
    "LevelSetReport",
    "LittleBloch",
    "Membership",
    "SplitResult",
    "besov_norm",
    "besov_norm_shells",
    "bloch_norm",
    "default_shell_grid",
    "distance_estimate",
    "inclusion_predicate",
    "level_set",
    "little_bloch_test",
    "membership_kernel_atom",
    "reproduce",
    "reproducing_rule",
    "split",
]

REL_TOL = 1e-7


class DecayVerdict(str, Enum):
    DECAYING = "decaying"
    NON_DECAYING = "non_decaying"
    INCONCLUSIVE = "inconclusive"


class Membership(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"


class Inclusion(str, Enum):
    INCLUDED = "included"
    NOT_INCLUDED = "not_included"


@dataclass(frozen=True)
class BergmanBesov:
    """Integral-norm space (p, alpha) with its admissible operator pair."""

    p: float
    alpha: float
    pair: DiffPair

    def __post_init__(self):
        if not self.p > 0.0:
            raise AdmissibilityError("the exponent p must be positive")
        if not self.alpha + self.p * self.pair.t > -1.0:
            raise AdmissibilityError(
                f"pair (s={self.pair.s}, t={self.pair.t}) is inadmissible: "
                f"alpha + p t = {self.alpha + self.p * self.pair.t} <= -1"
            )

    @staticmethod
    def standard(p: float, alpha: float) -> "BergmanBesov":
        """Default admissible pair: smallest integer t with alpha + p t > -1,
        based at s = alpha + t (which keeps kernel atoms built at s exact)."""
        t = float(max(0, math.ceil((-1.0 - alpha) / p) + 1))
        return BergmanBesov(p, alpha, DiffPair(alpha + t, t))


@dataclass(frozen=True)
class Bloch:
    """Sup-norm space of weight alpha with its admissible operator pair."""

    alpha: float
    pair: DiffPair

    def __post_init__(self):
        if not self.alpha + self.pair.t > 0.0:
            raise AdmissibilityError(
                f"pair (s={self.pair.s}, t={self.pair.t}) is inadmissible: "
                f"alpha + t = {self.alpha + self.pair.t} <= 0"
            )

    @staticmethod
    def standard(alpha: float) -> "Bloch":
        t = float(max(1, math.ceil(-alpha) + 1))
        return Bloch(alpha, DiffPair(alpha + t, t))


@dataclass(frozen=True)
class LittleBloch(Bloch):
    """Boundary-vanishing subspace of the sup-norm space (same admissibility)."""

    @staticmethod
    def standard(alpha: float) -> "LittleBloch":
        t = float(max(1, math.ceil(-alpha) + 1))
        return LittleBloch(alpha, DiffPair(alpha + t, t))


class _ShellField:
    """Grid-aware evaluations of a fixed expansion on a shell decomposition."""

    def __init__(self, g: HarmonicExpansion, grid: ShellDecomposition, tol_rel: float):
        self.g = g
        self.grid = grid
        self.tol_rel = tol_rel
        self._cache: dict[int, np.ndarray] = {}

    def eval_shell(self, d: ShellDecomposition, j: int) -> np.ndarray:
        if d is not self.grid:
            raise ValueError("field evaluated on a foreign grid")
        if j not in self._cache:
            self._cache[j] = evaluate_grid(
                self.g, d.shells[j].nodes, d.spheres[j].units, tol_rel=self.tol_rel
            )
        return self._cache[j]


# Bisection steps per level-set boundary, and how many of them one series
# call resolves: each call evaluates every midpoint the next _LOOKAHEAD steps
# can visit, so _BISECT_STEPS // _LOOKAHEAD calls make all the steps.
_BISECT_STEPS = 8
_LOOKAHEAD = 4


def _bisect_boundaries(
    field: _ShellField,
    shell_nodes: np.ndarray,
    exponent: float,
    eps: float,
    r_idx: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    lo_in: np.ndarray,
    unit_of,
) -> np.ndarray:
    """Locate indicator boundaries between bracketing directions.

    Each bracket is (radius index, lo angle, hi angle) with the indicator
    status at the lo end; the angular parametrization is supplied by
    `unit_of`.  All brackets advance together, _BISECT_STEPS halvings each.

    A grid evaluation costs a full kernel series sum whatever the number of
    directions, so each of the _BISECT_STEPS // _LOOKAHEAD rounds evaluates
    the dyadic tree of midpoints _LOOKAHEAD levels below every bracket in one
    call and then replays the _LOOKAHEAD lo/hi decisions on that table.  The
    tree's midpoints are formed by the same `0.5 * (lo + hi)` as halving one
    step at a time, and the call keeps the full `shell_nodes` and the same
    tolerance: the truncation degree depends only on the radii, so every
    visited midpoint gets the value, and every decision the outcome, of a
    bisection that evaluates one halving per call.
    """
    cols = np.arange(len(r_idx))
    weight = (1.0 - shell_nodes[r_idx] ** 2) ** exponent
    # boundary location tolerates a much looser series tolerance than the
    # field values themselves
    tol = max(field.tol_rel, 1e-5)
    for _ in range(_BISECT_STEPS // _LOOKAHEAD):
        # heap order: node i halves its bracket, whose lower and upper halves
        # are brackets of nodes 2i+1 and 2i+2
        brackets = [(lo, hi)]
        mids = []
        for i in range(2**_LOOKAHEAD - 1):
            a, b = brackets[i]
            mid = 0.5 * (a + b)
            mids.append(mid)
            brackets += [(a, mid), (mid, b)]
        units = np.concatenate([unit_of(mid) for mid in mids])
        vals = evaluate_grid(field.g, shell_nodes, units, tol_rel=tol)
        # (node, bracket) tables; each bracket keeps the row of its radius
        table = np.stack(mids)
        diag = vals[r_idx, np.arange(units.shape[0]).reshape(table.shape)]
        inside = weight * np.abs(diag) >= eps
        node = np.zeros(len(r_idx), dtype=int)
        for _ in range(_LOOKAHEAD):
            mid = table[node, cols]
            take_lo = inside[node, cols] == lo_in
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
            node = 2 * node + np.where(take_lo, 2, 1)
    return 0.5 * (lo + hi)


def _runs_measure_circle(angles: np.ndarray, status: np.ndarray, cuts: dict) -> float:
    """Normalized arc measure of the in-set on the circle.

    `cuts` maps a gap index k (between sorted node k and k+1, cyclic) to the
    located boundary angle; each cut flips the status once.
    """
    m = angles.shape[0]
    if not cuts:
        return 1.0 if status[0] else 0.0
    ordered = sorted(cuts.items())
    total = 0.0
    # walk arcs between consecutive cuts; the arc starting at cut k carries
    # the status of node k+1 (the first node after the boundary)
    for idx, (k, a) in enumerate(ordered):
        k2, a2 = ordered[(idx + 1) % len(ordered)]
        width = (a2 - a) % (2.0 * np.pi)
        if width == 0.0:
            width = 2.0 * np.pi
        if status[(k + 1) % m]:
            total += width
    return total / (2.0 * np.pi)


def _runs_measure_polar(status: np.ndarray, cuts: dict) -> float:
    """Normalized measure of the in-set on a polar great-circle ring.

    Segment measures are exact in the cosine; `cuts` maps gap index to the
    located polar angle.
    """
    if not cuts:
        return 1.0 if status[0] else 0.0
    bounds = [0.0] + [a for _, a in sorted(cuts.items())] + [np.pi]
    total = 0.0
    inside = bool(status[0])
    for a, b in zip(bounds[:-1], bounds[1:]):
        if inside:
            total += 0.5 * (math.cos(a) - math.cos(b))
        inside = not inside
    return total


def _shell_level_measures(
    field: _ShellField,
    grid: ShellDecomposition,
    j: int,
    exponent: float,
    eps: float,
) -> tuple[np.ndarray, int]:
    """Per-radius spherical measure of the level set on shell j, plus the
    count of in-set grid nodes (the node-wise indicator samples)."""
    vals = field.eval_shell(grid, j)
    shell, sph = grid.shells[j], grid.spheres[j]
    weighted = (1.0 - shell.nodes**2) ** exponent
    status_full = weighted[:, None] * np.abs(vals) >= eps
    count = int(status_full[:, : sph.structured].sum())
    m_r = shell.nodes.shape[0]
    measures = np.zeros(m_r)

    if grid.dimension == 2:
        order = np.argsort(sph.angles)
        ang = sph.angles[order]
        status = status_full[:, : sph.structured][:, order]
        m = ang.shape[0]
        nxt = np.roll(np.arange(m), -1)
        r_idx, lo, hi, lo_in, keys = [], [], [], [], []
        for i in range(m_r):
            flip = np.nonzero(status[i] != status[i, nxt])[0]
            for k in flip:
                a, b = ang[k], ang[(k + 1) % m]
                if (k + 1) % m == 0:
                    b += 2.0 * np.pi
                r_idx.append(i)
                lo.append(a)
                hi.append(b)
                lo_in.append(status[i, k])
                keys.append((i, int(k)))
        if r_idx:
            bounds = _bisect_boundaries(
                field, shell.nodes, exponent, eps,
                np.array(r_idx), np.array(lo), np.array(hi), np.array(lo_in),
                lambda a: np.stack([np.cos(a), np.sin(a)], axis=1),
            )
        cuts_by_radius: list[dict] = [dict() for _ in range(m_r)]
        for pos, (i, k) in enumerate(keys):
            cuts_by_radius[i][k] = float(bounds[pos]) % (2.0 * np.pi)
        for i in range(m_r):
            measures[i] = _runs_measure_circle(ang, status[i], cuts_by_radius[i])
        return measures, count

    # n = 3: rings of constant azimuth about the rule's polar axis
    order = np.argsort(sph.polar)
    theta = sph.polar[order]
    n_t, n_phi = sph.polar.shape[0], sph.azimuth.shape[0]
    status = status_full[:, : sph.structured].reshape(m_r, n_t, n_phi)[:, order, :]
    from .quadrature import _frame

    e1, e2 = _frame(sph.axis)

    r_idx, lo, hi, lo_in, keys = [], [], [], [], []
    for i in range(m_r):
        flips = np.nonzero(status[i, :-1, :] != status[i, 1:, :])
        for k, a in zip(*flips):
            r_idx.append(i)
            lo.append(theta[k])
            hi.append(theta[k + 1])
            lo_in.append(status[i, k, a])
            keys.append((i, int(a), int(k)))
    if r_idx:
        phis = np.array([sph.azimuth[a] for _, a, _ in keys])

        def unit_of(th):
            return (
                np.cos(th)[:, None] * sph.axis[None, :]
                + np.sin(th)[:, None]
                * (np.cos(phis)[:, None] * e1[None, :] + np.sin(phis)[:, None] * e2[None, :])
            )

        bounds = _bisect_boundaries(
            field, shell.nodes, exponent, eps,
            np.array(r_idx), np.array(lo), np.array(hi), np.array(lo_in), unit_of,
        )
    cuts: list[list[dict]] = [[dict() for _ in range(n_phi)] for _ in range(m_r)]
    for pos, (i, a, k) in enumerate(keys):
        cuts[i][a][k] = float(bounds[pos])
    for i in range(m_r):
        ring = [
            _runs_measure_polar(status[i, :, a], cuts[i][a]) for a in range(n_phi)
        ]
        measures[i] = float(np.mean(ring))
    return measures, count


def _level_shell_integral(
    field: _ShellField,
    grid: ShellDecomposition,
    exponent: float,
    epsilon: float,
    weight_exponent: float,
) -> tuple[ShellIntegral, tuple[int, ...]]:
    from .quadrature import classify_increments

    increments: list[float] = []
    counts: list[int] = []
    for j in range(grid.depth):
        try:
            measures, count = _shell_level_measures(field, grid, j, exponent, epsilon)
        except NonConvergent:
            break
        shell = grid.shells[j]
        wr = shell.weights * (1.0 - shell.nodes**2) ** weight_exponent
        increments.append(float(wr @ measures))
        counts.append(count)
    partial = np.cumsum(increments)
    integral = ShellIntegral(
        tuple(increments),
        tuple(float(p) for p in partial),
        classify_increments(increments),
        len(increments),
    )
    return integral, tuple(counts)


class _AbsPower:
    """|field|^p as a shell field (p-th power of the derivative magnitude)."""

    def __init__(self, field: _ShellField, p: float):
        self.field = field
        self.p = p

    def eval_shell(self, d: ShellDecomposition, j: int) -> np.ndarray:
        return np.abs(self.field.eval_shell(d, j)) ** self.p


class _GridFn:
    """Adapter exposing an expansion evaluation as a ball-rule integrand."""

    def __init__(self, g: HarmonicExpansion, transform=None, tol_rel: float = 1e-9):
        self.g = g
        self.transform = transform
        self.tol_rel = tol_rel

    def eval_grid(self, radii: np.ndarray, units: np.ndarray) -> np.ndarray:
        vals = evaluate_grid(self.g, radii, units, tol_rel=self.tol_rel)
        return vals if self.transform is None else self.transform(vals)


_FIELDS: "weakref.WeakKeyDictionary[ShellDecomposition, dict]" = weakref.WeakKeyDictionary()


def _derivative_field(
    f: HarmonicExpansion, pair: DiffPair, grid: ShellDecomposition, tol_rel: float = REL_TOL
) -> _ShellField:
    per_grid = _FIELDS.setdefault(grid, {})
    key = (f, pair, tol_rel)
    if key not in per_grid:
        per_grid[key] = _ShellField(apply_D(f, pair), grid, tol_rel)
    return per_grid[key]


def default_shell_grid(
    f: HarmonicExpansion, depth: int | None = None, **kwargs
) -> ShellDecomposition:
    """Shell grid focused toward the boundary kernel poles of f.

    Functions with boundary kernel poles are capped at the depth the series
    truncation can certify; everything else (polynomials, interior poles)
    evaluates exactly and probes much deeper.
    """
    from .quadrature import shell_decomposition

    foci = f.boundary_kernel_poles()
    if depth is None:
        depth = 12 if foci else 28
    return shell_decomposition(f.dimension, depth, foci=foci, **kwargs)


# --- norms -------------------------------------------------------------------


def besov_norm(f: HarmonicExpansion, spec: BergmanBesov, q: BallQuadrature) -> float:
    """(1/V_alpha * int |D f|^p (1-|x|^2)^(alpha+pt) dnu)^(1/p).

    The quadrature rule must carry the boundary weight alpha + p t.  For
    p < 1 this is only a quasinorm.
    """
    if not isinstance(spec, BergmanBesov):
        raise AdmissibilityError("besov_norm expects an integral-norm space spec")
    gamma = spec.alpha + spec.p * spec.pair.t
    if gamma <= -1.0:
        raise AdmissibilityError("alpha + p t must exceed -1")
    if abs(q.gamma - gamma) > 1e-9:
        raise AdmissibilityError(
            f"quadrature weight {q.gamma} does not match alpha + p t = {gamma}"
        )
    g = apply_D(f, spec.pair)
    integrand = _GridFn(g, transform=lambda v: np.abs(v) ** spec.p)
    va = weight_constant(f.dimension, spec.alpha).value
    return (integrate_ball(q, integrand) / va) ** (1.0 / spec.p)


def besov_norm_shells(
    f: HarmonicExpansion, spec: BergmanBesov, grid: ShellDecomposition
) -> tuple[ShellIntegral, float]:
    """Shell partial sums of the p-th power of the integral norm.

    Returns (shell report, norm estimate); the estimate is inf when the
    shell increments are classified divergent.  This is the numerical side
    of the kernel-atom membership check.
    """
    gamma = spec.alpha + spec.p * spec.pair.t
    if gamma <= -1.0:
        raise AdmissibilityError("alpha + p t must exceed -1")
    field = _derivative_field(f, spec.pair, grid)
    report = integrate_shells(grid, _AbsPower(field, spec.p), gamma)
    va = weight_constant(f.dimension, spec.alpha).value
    scaled = ShellIntegral(
        tuple(i / va for i in report.increments),
        tuple(p / va for p in report.partial_sums),
        report.verdict,
        report.shells_used,
    )
    if scaled.verdict == Verdict.DIVERGENT:
        return scaled, float("inf")
    return scaled, scaled.total ** (1.0 / spec.p)


def bloch_norm(f: HarmonicExpansion, spec: Bloch, grid: ShellDecomposition) -> float:
    """sup over grid nodes of (1-|x|^2)^(alpha+t) |D f|.

    Raises NonConvergent when no shell of the grid is certified.
    """
    if not isinstance(spec, Bloch):
        raise AdmissibilityError("bloch_norm expects a sup-norm space spec")
    probe = _bloch_probe(f, spec, grid)
    return probe.sup


def _bloch_probe(f: HarmonicExpansion, spec: Bloch, grid: ShellDecomposition) -> SupProbe:
    field = _derivative_field(f, spec.pair, grid)
    return sup_norm_probe(field, spec.alpha + spec.pair.t, grid)


def little_bloch_test(
    f: HarmonicExpansion,
    spec: Bloch,
    grid: ShellDecomposition,
    *,
    decay_fraction: float = 1e-6,
    stall_fraction: float = 1e-2,
    window: int = 5,
) -> DecayVerdict:
    """Boundary-decay verdict for the weighted derivative.

    Decaying when the certified shell maxima fall below decay_fraction times
    the shell-0 maximum with a monotone tail; non-decaying when the last
    maxima stall above stall_fraction times the shell-0 maximum; inconclusive
    otherwise, and when no shell is certified.
    """
    try:
        probe = _bloch_probe(f, spec, grid)
    except NonConvergent:
        return DecayVerdict.INCONCLUSIVE
    maxima = probe.shell_maxima
    if len(maxima) < window + 1:
        return DecayVerdict.INCONCLUSIVE
    m0 = maxima[0]
    if m0 == 0.0:
        return DecayVerdict.DECAYING
    tail = maxima[-window:]
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
    if maxima[-1] <= decay_fraction * m0 and monotone:
        return DecayVerdict.DECAYING
    if min(maxima[-3:]) >= stall_fraction * m0:
        return DecayVerdict.NON_DECAYING
    return DecayVerdict.INCONCLUSIVE


# --- level sets and distance --------------------------------------------------


@dataclass(frozen=True)
class LevelSetReport:
    """Shell-resolved picture of {(1-|x|^2)^alpha |I f| >= epsilon}.

    `node_counts` are the per-shell counts of grid nodes inside the set;
    `integral` holds the weighted increments/partials and the verdict.
    """

    alpha: float
    pair: DiffPair
    epsilon: float
    weight_exponent: float
    node_counts: tuple[int, ...]
    integral: ShellIntegral

    @property
    def verdict(self) -> Verdict:
        return self.integral.verdict

    def to_json_dict(self) -> dict:
        d = {
            "spec": {"alpha": self.alpha, "weight_exponent": self.weight_exponent},
            "pair": {"s": self.pair.s, "t": self.pair.t},
            "epsilon": self.epsilon,
        }
        d.update(self.integral.to_json_dict())
        d["node_counts"] = list(self.node_counts)
        return d


def level_set(
    f: HarmonicExpansion,
    alpha: float,
    pair: DiffPair,
    epsilon: float,
    grid: ShellDecomposition,
    weight_exponent: float,
) -> LevelSetReport:
    """Indicator of (1-|x|^2)^alpha |I f| >= epsilon integrated over shells
    against (1-|x|^2)^weight_exponent dnu.

    The weighted magnitude equals (1-|x|^2)^(alpha+t) |D f|, so admissibility
    requires alpha + t > 0.
    """
    if not alpha + pair.t > 0.0:
        raise AdmissibilityError("level sets require alpha + t > 0")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    field = _derivative_field(f, pair, grid)
    integral, counts = _level_shell_integral(
        field, grid, alpha + pair.t, epsilon, weight_exponent
    )
    return LevelSetReport(alpha, pair, epsilon, weight_exponent, counts, integral)


@dataclass(frozen=True)
class DistanceEstimate:
    """Bisection bracket for inf{eps : the eps-level set has finite
    hyperbolic-type volume}, the level-set distance estimator."""

    value: float
    lower: float
    upper: float
    bloch_norm: float
    inconclusive: int

    def bracket_width(self) -> float:
        return self.upper - self.lower


def distance_estimate(
    f: HarmonicExpansion,
    alpha: float,
    pair: DiffPair,
    grid: ShellDecomposition,
    *,
    rel_bracket: float = 1e-3,
    max_iterations: int = 40,
) -> DistanceEstimate:
    """Bisect epsilon on the finite/divergent verdict at weight -n.

    Finite verdicts lower the upper bracket, divergent ones raise the lower
    bracket; inconclusive verdicts are retried at off-center points and
    counted.  The reported value is the bracket midpoint.  Raises
    NonConvergent when no shell of the grid is certified.
    """
    if not alpha + pair.t > 0.0:
        raise AdmissibilityError("the distance estimator requires alpha + t > 0")
    norm = bloch_norm(f, Bloch(alpha, pair), grid)
    if norm == 0.0:
        return DistanceEstimate(0.0, 0.0, 0.0, 0.0, 0)
    n = f.dimension
    field = _derivative_field(f, pair, grid)

    def verdict(eps: float) -> Verdict:
        integral, _ = _level_shell_integral(field, grid, alpha + pair.t, eps, -float(n))
        return integral.verdict

    lo, hi = 0.0, norm
    inconclusive = 0
    for _ in range(max_iterations):
        if hi - lo <= rel_bracket * norm:
            break
        decided = False
        for frac in (0.5, 0.4, 0.6):
            eps = lo + frac * (hi - lo)
            v = verdict(eps)
            if v == Verdict.FINITE:
                hi = eps
                decided = True
                break
            if v == Verdict.DIVERGENT:
                lo = eps
                decided = True
                break
            inconclusive += 1
        if not decided:
            break
    return DistanceEstimate(0.5 * (lo + hi), lo, hi, norm, inconclusive)


# --- membership and inclusion --------------------------------------------------


def membership_kernel_atom(n: int, p: float, s: float, beta: float) -> Membership:
    """Whether the kernel atom R_s(., zeta), zeta on the sphere, has finite
    (p, beta) integral norm: member iff beta + n > p (n + s), boundary
    excluded."""
    if p < 1.0:
        raise ValueError("the membership predicate is stated for p >= 1")
    return Membership.MEMBER if beta + n > p * (n + s) else Membership.NON_MEMBER


def inclusion_predicate(n: int, spec_from, spec_to) -> Inclusion:
    """Sharp inclusion conditions between the integral-norm and sup-norm spaces.

    Integral (p, alpha) into integral (q, beta): (alpha+1)/p < (beta+1)/q when
    q < p, and (alpha+n)/p <= (beta+n)/q when p <= q.  Sup-norm alpha into
    integral (p, beta): alpha < (beta+1)/p.  Integral (p, beta) into sup-norm
    alpha: alpha >= (beta+n)/p.  Sup-norm into sup-norm is not handled here
    (it is the strict chain alpha < beta of nested spaces).
    """
    from_besov = isinstance(spec_from, BergmanBesov)
    to_besov = isinstance(spec_to, BergmanBesov)
    if from_besov and to_besov:
        p, alpha = spec_from.p, spec_from.alpha
        q, beta = spec_to.p, spec_to.alpha
        if q < p:
            ok = (alpha + 1.0) / p < (beta + 1.0) / q
        else:
            ok = (alpha + n) / p <= (beta + n) / q
        return Inclusion.INCLUDED if ok else Inclusion.NOT_INCLUDED
    if isinstance(spec_from, Bloch) and to_besov:
        ok = spec_from.alpha < (spec_to.alpha + 1.0) / spec_to.p
        return Inclusion.INCLUDED if ok else Inclusion.NOT_INCLUDED
    if from_besov and isinstance(spec_to, Bloch):
        ok = spec_to.alpha >= (spec_from.alpha + n) / spec_from.p
        return Inclusion.INCLUDED if ok else Inclusion.NOT_INCLUDED
    raise UnsupportedPair(
        "sup-norm into sup-norm inclusions reduce to the strict weight chain"
    )


# --- reproducing representation ------------------------------------------------


def reproducing_rule(
    n: int,
    s: float,
    t: float,
    *,
    x_max: float = 0.9,
    target: float = 1e-8,
    degree_margin: int = 32,
) -> BallQuadrature:
    """Ball rule sized so that the kernel-series aliasing of the reproducing
    integral at |x| <= x_max stays below `target` (computed, not guessed).

    A degree-j alias term is bounded by gamma_j(s) h_j x_max^j times the
    radial moment of r^(2j) against the rule weight, which decays like a
    Beta function; accounting for that damping keeps the rule small.
    """
    from scipy.special import betaln

    from .special import log_dim_spherical_harmonics

    coeff = CoeffProduct.kernel(s)
    log_rho = math.log(x_max)
    log_gate = math.log(target) + math.log(1.0 - x_max)
    k = 16
    while k < 20_000:
        ks = np.array([float(k)])
        log_radial = math.log(0.5 * n) + betaln(0.5 * n + k, s + t + 1.0)
        log_term = (
            float(coeff.log_values(n, ks)[0])
            + float(log_dim_spherical_harmonics(n, ks)[0])
            + k * log_rho
            + log_radial
        )
        if log_term < log_gate:
            break
        k += 16
    degree = k + degree_margin
    return BallQuadrature.build(n, s + t, degree)


_REPRODUCE_CACHE: "weakref.WeakKeyDictionary[BallQuadrature, dict]" = weakref.WeakKeyDictionary()


def reproduce(
    f: HarmonicExpansion,
    s: float,
    t: float,
    x,
    q: BallQuadrature,
    *,
    tol_rel: float = 1e-9,
) -> float:
    """Integral representation (1/V_{s+t}) int R_s(x, y) (1-|y|^2)^{s+t}
    (D f)(y) dnu(y); equals f(x) for f in a sup-norm space of weight alpha
    with s > alpha - 1 and alpha + t > 0.

    Derivative values on the rule's grid are cached per (rule, f, s, t), so
    sweeping probe points costs one kernel evaluation each.
    """
    gamma = s + t
    if abs(q.gamma - gamma) > 1e-9:
        raise AdmissibilityError(
            f"quadrature weight {q.gamma} does not match s + t = {gamma}"
        )
    x = np.asarray(x, dtype=float)
    per_rule = _REPRODUCE_CACHE.setdefault(q, {})
    key = (f, float(s), float(t), tol_rel)
    if key not in per_rule:
        g = apply_D(f, DiffPair(s, t))
        per_rule[key] = evaluate_grid(g, q.radial_nodes, q.units, tol_rel=tol_rel)
    gv = per_rule[key]
    kv = eval_coeff_series_grid(
        f.dimension, CoeffProduct.kernel(s), q.units, x, [q.radial_nodes], tol_rel=tol_rel
    )[0]
    v = weight_constant(f.dimension, gamma).value
    return float(q.radial_weights @ (kv * gv) @ q.sphere.weights) / v


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Level-set splitting f = f1 + f2 of the reproducing integral.

    f1 integrates over the epsilon-level-set nodes, f2 over the complement;
    both are quadrature-backed callables on single points.  d_f1 / d_f2
    evaluate the order-t derivative images (kernel shifted under the
    integral sign).  f2_weighted_sup is the measured sup over the probe
    points of (1-|x|^2)^(alpha+t) |D f2|, to be compared against epsilon.
    """

    epsilon: float
    f1: object
    f2: object
    d_f1: object
    d_f2: object
    f2_weighted_sup: float
    probes: np.ndarray


def split(
    f: HarmonicExpansion,
    alpha: float,
    pair: DiffPair,
    epsilon: float,
    q: BallQuadrature,
    *,
    probes: np.ndarray | None = None,
    tol_rel: float = 1e-9,
) -> SplitResult:
    """Split the reproducing integral along the epsilon level set.

    Requires the rule weight to equal s + t and alpha + t > 0.  The level
    set is resolved node-wise on the rule's grid.
    """
    s, t = pair.s, pair.t
    if not alpha + t > 0.0:
        raise AdmissibilityError("the splitting requires alpha + t > 0")
    if abs(q.gamma - (s + t)) > 1e-9:
        raise AdmissibilityError("quadrature weight must equal s + t")
    n = f.dimension
    g = apply_D(f, pair)
    gv = evaluate_grid(g, q.radial_nodes, q.units, tol_rel=tol_rel)
    w_boundary = (1.0 - q.radial_nodes**2) ** (alpha + t)
    mask = (w_boundary[:, None] * np.abs(gv)) >= epsilon
    v = weight_constant(n, s + t).value

    def _integral(x, kernel_s: float, masked: np.ndarray) -> float:
        kv = eval_coeff_series_grid(
            n, CoeffProduct.kernel(kernel_s), q.units, np.asarray(x, float),
            [q.radial_nodes], tol_rel=tol_rel,
        )[0]
        return float(q.radial_weights @ (kv * gv * masked) @ q.sphere.weights) / v

    f1 = lambda x: _integral(x, s, mask)  # noqa: E731
    f2 = lambda x: _integral(x, s, ~mask)  # noqa: E731
    d_f1 = lambda x: _integral(x, s + t, mask)  # noqa: E731
    d_f2 = lambda x: _integral(x, s + t, ~mask)  # noqa: E731

    if probes is None:
        pole = np.zeros(n)
        pole[0] = 1.0
        probes = np.array([r * pole for r in (0.0, 0.3, 0.6, 0.8, 0.9)])
    sup = 0.0
    for xp in probes:
        r2 = float(np.dot(xp, xp))
        sup = max(sup, (1.0 - r2) ** (alpha + t) * abs(d_f2(xp)))
    return SplitResult(epsilon, f1, f2, d_f1, d_f2, sup, probes)

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

All operations are reentrant.  Values derived on a shell grid live as
long as it does (`_memo` holds them weakly under it), keyed by the
derivative expansion itself and the shell (`_shell_values`), so equal
derivatives, whatever function and operator pair they come from, are
evaluated once per shell; their weighted magnitudes on the shell's rings
are kept the same way per exponent (`_level_shell`).  Grids belong to the
caller; the experiments keep theirs for the life of the process.  A ball
rule keeps nothing: its product grid holds len(radial_nodes) x len(units)
values (14.5 MB on the n = 3 reproducing rule), so the reproducing
integral evaluates its derivative grid once per call and releases it.
Each level threshold still locates
its own level-set boundaries: it bisects every flip of the indicator
between neighboring nodes along the rings of the shell's sphere rule
(`quadrature.Rings`), which evaluates the derivative between nodes.  A
level-set walk does so in two phases: it walks the shells for their
indicators and brackets up to the first shell whose values raise
NonConvergent, then bisects the brackets of all those shells together,
each round in one paired call (`calculus.evaluate_grids`) that gives every
midpoint the value at its own bracket's radius, and measures all those
shells in one pass.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betaln

from .calculus import (
    DiffPair,
    HarmonicExpansion,
    ZonalTerm,
    apply_D,
    evaluate_grid,
    evaluate_grids,
)
from .errors import AdmissibilityError, EvaluationFailure, NonConvergent, UnsupportedPair
from .kernel import CoeffProduct, eval_coeff_series_rule_sum, log_coeff_block, log_dim_block
from .quadrature import (
    BallQuadrature,
    Rings,
    ShellDecomposition,
    ShellIntegral,
    SupProbe,
    Verdict,
    integrate_ball,
    integrate_shells,
    shell_decomposition,
    sup_norm_probe,
    walk_shells,
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
    "besov_norm",
    "besov_norm_shells",
    "bloch_norm",
    "default_shell_grid",
    "distance_estimate",
    "fill_shell_values",
    "inclusion_predicate",
    "level_set",
    "little_bloch_test",
    "membership_kernel_atom",
    "reproduce",
    "reproducing_rule",
]

REL_TOL = 1e-7

# Relative tolerance of the reproducing integral, `reproduce`: of D f on
# the rule's grid and of the kernel series summed against it.
_RULE_TOL = 1e-9

# The settings of `little_bloch_test`, `distance_estimate` and
# `reproducing_rule`; each docstring says how they are used.
_DECAY_WINDOW = 5
_DECAY_FRACTION = 1e-6
_STALL_FRACTION = 1e-2
_REL_BRACKET = 1e-3
_MAX_BISECTIONS = 40
_ALIAS_X_MAX = 0.9
_ALIAS_TARGET = 1e-8
_DEGREE_MARGIN = 32


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


def _check_exponent(p: float) -> None:
    if not 0.0 < p < math.inf:
        raise AdmissibilityError(f"the exponent p must satisfy 0 < p < inf, got p = {p}")


@dataclass(frozen=True)
class BergmanBesov:
    """Integral-norm space (p, alpha) with its admissible operator pair."""

    p: float
    alpha: float
    pair: DiffPair

    def __post_init__(self):
        _check_exponent(self.p)
        if not self.alpha + self.p * self.pair.t > -1.0:
            raise AdmissibilityError(
                f"pair (s={self.pair.s}, t={self.pair.t}) is inadmissible: "
                f"alpha + p t = {self.alpha + self.p * self.pair.t} <= -1"
            )

    @staticmethod
    def standard(p: float, alpha: float) -> "BergmanBesov":
        """Default admissible pair (s, t) = (alpha + t, t), with the order
        t = max(0, ceil((-1 - alpha)/p) + 1).

        This t is admissible (alpha + p t > -1) but not always the smallest
        admissible integer: it is one more whenever (-1 - alpha)/p exceeds
        -1 and is not an integer, e.g. p = 1, alpha = -1.5 gives t = 2 where
        t = 1 already has alpha + p t = -0.5.  The base s = alpha + t keeps
        kernel atoms built at s exact.  The membership experiment's pairs,
        and so its report, rest on this formula."""
        _check_exponent(p)
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

    @classmethod
    def standard(cls, alpha: float) -> "Bloch":
        t = float(max(1, math.ceil(-alpha) + 1))
        return cls(alpha, DiffPair(alpha + t, t))


@dataclass(frozen=True)
class LittleBloch(Bloch):
    """Boundary-vanishing subspace of the sup-norm space (same admissibility)."""


# Bisection steps per level-set boundary, and how many of them one round
# resolves: each round evaluates every midpoint the next _LOOKAHEAD steps
# can visit, so _BISECT_STEPS // _LOOKAHEAD rounds make all the steps.
_BISECT_STEPS = 8
_LOOKAHEAD = 4
# Boundary location tolerates a much looser series tolerance than the shell
# values themselves.
_BISECT_TOL = 1e-5


def _bisect_boundaries(g: HarmonicExpansion, exponent: float, eps: float, shells: list):
    """Locate indicator boundaries between bracketing directions, on the
    shells of a level-set walk all together.

    `shells` holds per shell (shell_nodes, r_idx, lo, hi, lo_in, unit_of):
    each bracket is (radius index, lo angle, hi angle) with the indicator
    status at the lo end; the angular parametrization is supplied by
    `unit_of`, which maps a parameter per bracket, repeated bracket-wise
    for each midpoint of the tree, to directions.  All brackets of all
    shells advance together, _BISECT_STEPS halvings each.

    A call costs about the same whatever its number of directions, so each
    of the _BISECT_STEPS // _LOOKAHEAD rounds evaluates the dyadic tree of
    midpoints _LOOKAHEAD levels below every bracket of every shell in one
    paired call (`evaluate_grids`), each shell's midpoints on the
    directions of one `unit_of` call and each at its own bracket's radius,
    and then replays the _LOOKAHEAD lo/hi decisions on that table.  The tree's
    midpoints are formed by the same `0.5 * (lo + hi)` as halving one step
    at a time, and a pair's value is bit for bit that of the grid of the
    full `shell_nodes` and the one tolerance _BISECT_TOL at its radius: the
    truncation degree depends only on the radii, so every visited midpoint
    gets the value, and every decision the outcome, of a bisection that
    evaluates one halving per grid call.  A shell without brackets takes no
    part in the calls.

    Returns (boundaries, stop): the boundaries per shell, up to the first
    shell on which a round's series raised NonConvergent, and that error,
    or None when every shell is bisected.
    """
    shells = list(shells)
    sizes = [len(r_idx) for _, r_idx, *_ in shells]
    ends = np.cumsum([0] + sizes)
    r_idx, lo, hi, lo_in = (
        np.concatenate([shell[i] for shell in shells] + [np.empty(0, dtype=dtype)])
        for i, dtype in ((1, np.intp), (2, float), (3, float), (4, bool))
    )
    weight = np.concatenate(
        [(1.0 - nodes[rows] ** 2) ** exponent for nodes, rows, *_ in shells] + [np.empty(0)]
    )
    stop = None
    for _ in range(_BISECT_STEPS // _LOOKAHEAD):
        if not lo.size:
            break
        # heap order: node i halves its bracket, whose lower and upper halves
        # are brackets of nodes 2i+1 and 2i+2
        brackets = [(lo, hi)]
        mids = []
        for i in range(2**_LOOKAHEAD - 1):
            a, b = brackets[i]
            mid = 0.5 * (a + b)
            mids.append(mid)
            brackets += [(a, mid), (mid, b)]
        # (node, bracket) table; each bracket keeps the value at its radius
        table = np.stack(mids)
        live = [j for j, size in enumerate(sizes) if size]
        grids = []
        for j in live:
            nodes, rows, *_, unit_of = shells[j]
            # the shell's midpoints node by node, each pair at its radius
            units = unit_of(table[:, ends[j] : ends[j + 1]].ravel())
            grids.append((nodes, units, np.tile(rows, table.shape[0])))
        (values,) = evaluate_grids([g], grids, tol_rel=_BISECT_TOL)
        failed = next((k for k, v in enumerate(values) if isinstance(v, NonConvergent)), None)
        if failed is not None:
            # the walk stops at that shell, as at a shell whose values failed
            stop, keep = values[failed], live[failed]
            shells, sizes, ends, values = shells[:keep], sizes[:keep], ends[: keep + 1], values[:failed]
            r_idx, lo, hi, lo_in, weight, table = (
                a[..., : ends[-1]] for a in (r_idx, lo, hi, lo_in, weight, table)
            )
        vals = np.concatenate([v.reshape(table.shape[0], -1) for v in values] + [table[:, :0]], axis=1)
        inside = weight * np.abs(vals) >= eps
        cols = np.arange(lo.shape[0])
        node = np.zeros(lo.shape[0], dtype=int)
        for _ in range(_LOOKAHEAD):
            mid = table[node, cols]
            take_lo = inside[node, cols] == lo_in
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
            node = 2 * node + np.where(take_lo, 2, 1)
    bounds = 0.5 * (lo + hi)
    return [bounds[a:b] for a, b in zip(ends[:-1], ends[1:])], stop


@dataclass(frozen=True, eq=False)
class _LevelShell:
    """Phase 1 of a level-set walk on one shell: the indicator on the
    shell's nodes and the brackets of its flips.

    `status` is the indicator per (radius, ring, position) and `flips`
    marks a flip between a position and the next along the ring (across
    the wrap gap too, on a closed ring).  `brackets` are the flips as
    `_bisect_boundaries` takes a shell's: (shell_nodes, r_idx, lo, hi,
    lo_in, unit_of)."""

    rings: Rings
    status: np.ndarray
    flips: np.ndarray
    brackets: tuple


def _level_shell(
    g: HarmonicExpansion, grid: ShellDecomposition, j: int, exponent: float, eps: float
) -> _LevelShell:
    """The indicator and the brackets of shell j at the level eps
    (`_LevelShell`).

    The weighted magnitudes (1 - r^2)^exponent |g| on the shell's rings
    depend on the field, the shell and the exponent alone, not on eps: they
    are formed once per (g, j, exponent) and memoized under the grid
    (`_memo`), as the shell's values are (`_shell_values`, which raises
    their NonConvergent), so each level only compares them with eps."""
    shell, rings = grid.shells[j], grid.spheres[j].rings

    def magnitudes():
        vals = _shell_values(g, grid, j)
        weighted = (1.0 - shell.nodes**2) ** exponent
        return weighted[:, None, None] * np.abs(vals[:, rings.index])

    status = _memo(grid, (g, j, exponent), magnitudes) >= eps
    # each node against its successor on the ring; an open ring's last
    # node has none
    flips = np.zeros_like(status)
    flips[..., :-1] = status[..., :-1] != status[..., 1:]
    if rings.closed:
        flips[..., -1] = status[..., -1] != status[..., 0]
    r_idx, ring, k = np.nonzero(flips)
    ends = np.append(rings.param, rings.span[1])
    brackets = (
        shell.nodes, r_idx, ends[k], ends[k + 1], status[r_idx, ring, k],
        lambda t: rings.units(np.resize(ring, t.shape), t),
    )
    return _LevelShell(rings, status, flips, brackets)


def _shell_level_measures(levels: list, bounds: list) -> list[tuple[np.ndarray, int]]:
    """Per shell of a level-set walk, the per-radius spherical measure of
    the level set and the count of in-set grid nodes (the node-wise
    indicator samples), from the shells' indicators (`_LevelShell`) and
    their boundaries (`_bisect_boundaries`), one array per shell; the first
    len(bounds) shells of `levels` are measured.

    Each flip of the indicator between neighboring nodes of a ring has
    been bisected along the ring to a boundary; the measure per radius is
    the mean over the rings of their in-set runs.  The runs of every
    (shell, radius, ring) are measured in one pass: each one's arcs run
    from its span's start through its boundaries to its span's end, and
    every other arc, from the first when the ring starts inside, is summed
    in order by `np.bincount`.  The measure of an arc depends only on
    whether the rings are closed, which the shells of one grid share.  Each
    shell then takes the mean over its rings alone, so a shell's measures
    are bit for bit those it has when measured alone."""
    levels = levels[: len(bounds)]
    if not levels:
        return []
    # boundaries per (shell, radius, ring), and each shell's number of cells
    cuts = [level.flips.sum(axis=2).ravel() for level in levels]
    sizes = [c.size for c in cuts]
    cuts = np.concatenate(cuts)
    before = np.cumsum(cuts) - cuts
    spans = np.array([level.rings.span for level in levels])
    bounds = np.concatenate(bounds)
    lo = np.insert(bounds, before, np.repeat(spans[:, 0], sizes))
    hi = np.insert(bounds, before + cuts, np.repeat(spans[:, 1], sizes))
    cell = np.repeat(np.arange(cuts.size), cuts + 1)
    arc = np.arange(cell.size) - np.repeat(before + np.arange(cuts.size), cuts + 1)
    first_in = np.concatenate([level.status[:, :, 0].ravel() for level in levels])
    inside = (arc % 2 == 0) == first_in[cell]
    measures = np.bincount(cell[inside], levels[0].rings.measure(lo, hi)[inside], minlength=cuts.size)
    ends = np.cumsum([0] + sizes)
    return [
        (measures[a:b].reshape(level.status.shape[:2]).mean(axis=1), int(level.status.sum()))
        for level, a, b in zip(levels, ends[:-1], ends[1:])
    ]


def _level_shell_integral(
    g: HarmonicExpansion,
    grid: ShellDecomposition,
    exponent: float,
    epsilon: float,
    weight_exponent: float,
) -> tuple[ShellIntegral, tuple[int, ...]]:
    """Weighted level-set measure over the certified shells, with the
    per-shell in-set node counts; NonConvergent when no shell is certified.

    The walk has two phases.  The first walks the shells for their
    indicators and brackets (`walk_shells` over `_level_shell`, which reads
    each shell's memoized weighted magnitudes), up to the first shell whose
    values raise NonConvergent.  The second bisects the brackets of all
    those shells together (`_bisect_boundaries`), whose rounds make one
    paired call each over all the shells, and measures all the shells
    bisected in one pass (`_shell_level_measures`); it stops at the first
    shell whose bisection raised NonConvergent, as the first phase does.
    When that is shell 0 the walk certified no shell, and NonConvergent is
    raised from the bisection's, as `walk_shells` raises it; otherwise each
    measured shell's term is formed in one pass.  Any other error is raised
    as an EvaluationFailure that names its shell (`walk_shells`), or the
    shells of the second phase."""
    levels = walk_shells(grid, lambda j: _level_shell(g, grid, j, exponent, epsilon), "level-set integral")
    try:
        bounds, stop = _bisect_boundaries(g, exponent, epsilon, [level.brackets for level in levels])
        measures = _shell_level_measures(levels, bounds)
    except Exception as exc:  # noqa: BLE001 - as `walk_shells` does, name the shells
        raise EvaluationFailure(f"level-set boundaries failed on shells 0-{len(levels) - 1}: {exc}") from exc
    if not measures:
        raise NonConvergent(f"level-set integral certified no shell of a depth-{grid.depth} grid") from stop
    increments = []
    for shell, (per_radius, _) in zip(grid.shells, measures):
        wr = shell.weights * (1.0 - shell.nodes**2) ** weight_exponent
        increments.append(float(wr @ per_radius))
    return ShellIntegral.from_increments(increments), tuple(count for _, count in measures)


_MEMO: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def _memo(owner, key, make):
    """`make()`, computed once per `key` and kept while `owner` (the shell
    grid the value lives on) is alive."""
    per_owner = _MEMO.setdefault(owner, {})
    if key not in per_owner:
        per_owner[key] = make()
    return per_owner[key]


def _shell_values(g: HarmonicExpansion, grid: ShellDecomposition, j: int) -> np.ndarray:
    """g on shell j's product grid at REL_TOL, memoized under the grid; a
    NonConvergent is memoized too, and raised again with the same text."""

    def eval_shell():
        try:
            return evaluate_grid(g, grid.shells[j].nodes, grid.spheres[j].units, tol_rel=REL_TOL)
        except NonConvergent as exc:
            # kept without its traceback, whose frames would hold the grid
            # that keys it
            return exc.with_traceback(None)

    values = _memo(grid, (g, j), eval_shell)
    if isinstance(values, NonConvergent):
        raise NonConvergent(*values.args)
    return values


def _has_series(g: HarmonicExpansion) -> bool:
    return not all(isinstance(atom, ZonalTerm) for atom in g.atoms)


def _shell_field(f: HarmonicExpansion, pair: DiffPair) -> HarmonicExpansion:
    """The field whose shell values (`_shell_values`) the walks over f
    under `pair` read, D f of the pair: the key of their memo entries."""
    return apply_D(f, pair)


def fill_shell_values(fields, grid: ShellDecomposition) -> None:
    """Memoize the shell values of several fields on one grid, each field
    an (f, pair) whose walks read D f of the pair (`_shell_field`), shell
    by shell, so that the series of each shell are summed in one call
    (`evaluate_grids`) and its series share one angular table.

    A walk over a field asks for its shells in order up to the first that
    raises NonConvergent (`walk_shells`), so a field is filled up to that
    shell, its error memoized there: the fill computes exactly the shells
    that the walks over the fields would, and the walks then read them.  A
    field without series atoms shares no series call and is left to its
    walks, so its grids are not held beside the deeper shells' sums."""
    fields = [g for g in dict.fromkeys(_shell_field(f, pair) for f, pair in fields) if _has_series(g)]
    memo = _MEMO.setdefault(grid, {})
    for j in range(grid.depth):
        todo = [g for g in fields if (g, j) not in memo]
        values = evaluate_grids(todo, [(grid.shells[j].nodes, grid.spheres[j].units, None)], tol_rel=REL_TOL)
        for g, (v,) in zip(todo, values):
            memo[(g, j)] = v.with_traceback(None) if isinstance(v, NonConvergent) else v
        fields = [g for g in fields if not isinstance(memo[(g, j)], NonConvergent)]


def default_shell_grid(f: HarmonicExpansion, depth: int | None = None) -> ShellDecomposition:
    """Shell grid focused toward the boundary kernel poles of f.

    Functions with boundary kernel poles are capped at the depth the series
    truncation can certify; everything else (polynomials, interior poles)
    evaluates exactly and probes much deeper.
    """
    foci = f.boundary_kernel_poles()
    if depth is None:
        depth = 12 if foci else 28
    return shell_decomposition(f.dimension, depth, foci=foci)


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

    def integrand(radii: np.ndarray, units: np.ndarray) -> np.ndarray:
        return np.abs(evaluate_grid(g, radii, units, tol_rel=1e-9)) ** spec.p

    va = weight_constant(f.dimension, spec.alpha).value
    return (integrate_ball(q, integrand) / va) ** (1.0 / spec.p)


def besov_norm_shells(
    f: HarmonicExpansion, spec: BergmanBesov, grid: ShellDecomposition
) -> tuple[ShellIntegral, float]:
    """Shell partial sums of the p-th power of the integral norm.

    Returns (shell report, norm estimate); the estimate is inf when the
    shell increments are classified divergent.  This is the numerical side
    of the kernel-atom membership check.  Raises NonConvergent when no
    shell of the grid is certified.
    """
    gamma = spec.alpha + spec.p * spec.pair.t
    if gamma <= -1.0:
        raise AdmissibilityError("alpha + p t must exceed -1")
    g = _shell_field(f, spec.pair)
    report = integrate_shells(grid, lambda d, j: np.abs(_shell_values(g, d, j)) ** spec.p, gamma)
    va = weight_constant(f.dimension, spec.alpha).value
    scaled = ShellIntegral(
        tuple(i / va for i in report.increments),
        tuple(p / va for p in report.partial_sums),
        report.verdict,
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
    g = _shell_field(f, spec.pair)
    return sup_norm_probe(lambda d, j: _shell_values(g, d, j), spec.alpha + spec.pair.t, grid)


def little_bloch_test(f: HarmonicExpansion, spec: Bloch, grid: ShellDecomposition) -> DecayVerdict:
    """Boundary-decay verdict for the weighted derivative.

    Decaying when the certified shell maxima fall below _DECAY_FRACTION
    times the shell-0 maximum with a monotone tail over the last
    _DECAY_WINDOW; non-decaying when the last maxima stall above
    _STALL_FRACTION times the shell-0 maximum; inconclusive otherwise, and
    when no shell is certified.
    """
    try:
        probe = _bloch_probe(f, spec, grid)
    except NonConvergent:
        return DecayVerdict.INCONCLUSIVE
    maxima = probe.shell_maxima
    if len(maxima) < _DECAY_WINDOW + 1:
        return DecayVerdict.INCONCLUSIVE
    m0 = maxima[0]
    if m0 == 0.0:
        return DecayVerdict.DECAYING
    tail = maxima[-_DECAY_WINDOW:]
    monotone = all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
    if maxima[-1] <= _DECAY_FRACTION * m0 and monotone:
        return DecayVerdict.DECAYING
    if min(maxima[-3:]) >= _STALL_FRACTION * m0:
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
    requires alpha + t > 0.  epsilon must be positive (inf gives the empty
    set) and weight_exponent finite, or ValueError is raised.  Raises
    NonConvergent when no shell of the grid is certified.
    """
    if not alpha + pair.t > 0.0:
        raise AdmissibilityError("level sets require alpha + t > 0")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(weight_exponent):
        raise ValueError("the weight exponent must be finite")
    integral, counts = _level_shell_integral(
        _shell_field(f, pair), grid, alpha + pair.t, epsilon, weight_exponent
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


def distance_estimate(
    f: HarmonicExpansion,
    alpha: float,
    pair: DiffPair,
    grid: ShellDecomposition,
) -> DistanceEstimate:
    """Bisect epsilon on the finite/divergent verdict at weight -n.

    Finite verdicts lower the upper bracket, divergent ones raise the lower
    bracket; inconclusive verdicts are retried at off-center points and
    counted.  It stops at a bracket _REL_BRACKET of the Bloch norm wide or
    after _MAX_BISECTIONS steps; the reported value is the bracket
    midpoint.  Raises NonConvergent when no shell of the grid is certified.
    """
    if not alpha + pair.t > 0.0:
        raise AdmissibilityError("the distance estimator requires alpha + t > 0")
    norm = bloch_norm(f, Bloch(alpha, pair), grid)
    if norm == 0.0:
        return DistanceEstimate(0.0, 0.0, 0.0, 0.0, 0)
    n = f.dimension
    g = _shell_field(f, pair)

    def verdict(eps: float) -> Verdict:
        integral, _ = _level_shell_integral(g, grid, alpha + pair.t, eps, -float(n))
        return integral.verdict

    lo, hi = 0.0, norm
    inconclusive = 0
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= _REL_BRACKET * norm:
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


def reproducing_rule(n: int, s: float, t: float) -> BallQuadrature:
    """Ball rule sized so that the kernel-series aliasing of the reproducing
    integral at |x| <= _ALIAS_X_MAX stays below _ALIAS_TARGET (computed, not
    guessed).

    A degree-j alias term is bounded by gamma_j(s) h_j _ALIAS_X_MAX^j times
    the radial moment of r^(2j) against the rule weight, which decays like
    a Beta function; accounting for that damping keeps the rule small.
    """
    coeff = CoeffProduct.kernel(s)
    log_rho = math.log(_ALIAS_X_MAX)
    log_gate = math.log(_ALIAS_TARGET) + math.log(1.0 - _ALIAS_X_MAX)
    k = 16
    while k < 20_000:
        log_radial = math.log(0.5 * n) + betaln(0.5 * n + k, s + t + 1.0)
        log_term = (
            float(log_coeff_block(n, coeff, k, k + 1)[0])
            + float(log_dim_block(n, k, k + 1)[0])
            + k * log_rho
            + log_radial
        )
        if log_term < log_gate:
            break
        k += 16
    degree = k + _DEGREE_MARGIN
    return BallQuadrature.build(n, s + t, degree)


def _rule_derivative(f: HarmonicExpansion, s: float, t: float, q: BallQuadrature) -> np.ndarray:
    """D^t_s f on the rule's product grid, a fresh array on every call; it
    is not kept, so a caller holds it only while it needs it."""
    return evaluate_grid(apply_D(f, DiffPair(s, t)), q.radial_nodes, q.units, tol_rel=_RULE_TOL)


def _rule_integral(q: BallQuadrature, kernel_s: float, x, values: np.ndarray, volume: float):
    """(1/volume) times the rule sum of R_s(x, .) against `values` on the
    rule's product grid, whose structure the sphere rule's rings give: a
    float for one point x of shape (n,), a (P,) array for a stack of shape
    (P, n).  `values` is consumed: the radial and sphere weights are
    applied to it in place, so pass a fresh grid."""
    x = np.asarray(x, dtype=float)
    values *= q.radial_weights[:, None]
    values *= q.sphere.weights
    sums, _ = eval_coeff_series_rule_sum(
        q.dimension, CoeffProduct.kernel(kernel_s), np.atleast_2d(x), q.radial_nodes,
        q.units, values, q.sphere.rings, tol_rel=_RULE_TOL,
    )
    sums = sums / volume
    return float(sums[0]) if x.ndim == 1 else sums


def reproduce(f: HarmonicExpansion, s: float, t: float, x, q: BallQuadrature):
    """Integral representation (1/V_{s+t}) int R_s(x, y) (1-|y|^2)^{s+t}
    (D f)(y) dnu(y); equals f(x) for f in a sup-norm space of weight alpha
    with s > alpha - 1 and alpha + t > 0.  Both series, of D f and of the
    kernel, are certified to _RULE_TOL relative to their majorant mass.

    `x` is one point of shape (n,), giving a float, or a stack of shape
    (P, n), giving a (P,) array.  Each call evaluates D f on the rule's
    grid once, sums it and releases it; nothing is cached, so probes cost
    least as one stack.  The points of a stack share the radial moments of
    the kernel series and, by the addition theorem, their angular transform
    over the rule's rings (`kernel.eval_coeff_series_rule_sum`), so a stack
    of probes costs one pass over the rule's nodes plus O(K_x^2) work per
    point; an n = 3 point past the rule's K* sums its own grid series over
    the nodes instead.
    """
    gamma = s + t
    if abs(q.gamma - gamma) > 1e-9:
        raise AdmissibilityError(
            f"quadrature weight {q.gamma} does not match s + t = {gamma}"
        )
    v = weight_constant(f.dimension, gamma).value
    return _rule_integral(q, s, x, _rule_derivative(f, s, t, q), v)

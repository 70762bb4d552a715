"""Weighted integration over the unit ball and sphere (n = 2, 3).

Two complementary node families:

* `BallQuadrature`: composite radial Gauss-Jacobi (in u = r^2, weight
  u^(n/2-1) (1-u)^gamma) x spherical product rules.  Exact on
  (1-|x|^2)^gamma * polynomials up to a declared total degree; used for the
  smooth integrals (norms, reproducing integrals).

* `ShellDecomposition`: dyadic shells 1 - r_j = 2^-j with per-shell
  Gauss-Legendre radial nodes and per-shell spherical rules whose angular
  resolution refines toward declared focus directions.  Used for divergence
  monitoring, suprema and level sets, where the action concentrates near the
  boundary (and, for kernel atoms, near their poles).

Every sphere rule also describes its nodes as `Rings`: great-circle arcs
through the nodes, parametrized in the frame the rule's units are built
from.  At n = 2 the one ring is the closed circle; at n = 3 the rings are
the open meridians from the rule's pole.  Level-set code locates indicator
boundaries along the rings and measures the runs between them exactly in
the ring parameter.

Integrands are evaluated on product grids of radii x directions, the
tensor structure that makes kernel series affordable near the boundary:

* a ball-rule integrand is ``g(radii, units)`` and returns the values at
  the points r u, shape (len(radii), len(units));
* a shell integrand is ``g(d, j)`` and returns the values on shell j's
  product grid, shape (len(d.shells[j].nodes), len(d.spheres[j].units)).

A result of any other shape raises EvaluationFailure.  Node reductions use
numpy's pairwise summation, so results are deterministic for a fixed rule.

Every shell walk (shell integrals, sup probes, level sets) follows the stop
rule of `walk_shells`: it stops at the first shell that raises NonConvergent
and answers on the certified shells before it; any other failure on a shell
raises EvaluationFailure.  A walk with no certified shell has no answer, and
`walk_shells` raises NonConvergent for it.  A level-set walk walks its
shells once with `walk_shells` for their indicators and then bisects them
all together; where the bisection stops on a shell, the walk answers on
the shells before it by the same rule (`spaces._level_shell_integral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import roots_jacobi

from .errors import EvaluationFailure, NonConvergent
from .special import check_dimension

__all__ = [
    "BallQuadrature",
    "RadialShell",
    "Rings",
    "ShellDecomposition",
    "ShellIntegral",
    "SphereRule",
    "SupProbe",
    "Verdict",
    "classify_increments",
    "integrate_ball",
    "integrate_shells",
    "shell_decomposition",
    "sphere_rule",
    "sup_norm_probe",
    "walk_shells",
]

_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# Dyadic refinement levels of a focused angular rule beyond its shell index.
_REFINE_EXTRA = 8
# Gauss-Legendre radii per dyadic shell, and the degree of a shell's sphere
# rule without foci (the base partition of a focused circle rule).
_RADIAL_PER_SHELL = 8
_BASE_ANGULAR = 32

# The verdict convention of `classify_increments`; the floor is relative to
# max(1, sum of the increments).
VERDICT_WINDOW = 5
VERDICT_GROWTH_WINDOW = 2
VERDICT_DECAY_RATIO = 0.9
VERDICT_GROWTH_RATIO = 0.99
VERDICT_FLOOR = 1e-12


class Verdict(str, Enum):
    FINITE = "finite"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class Rings:
    """A sphere rule's structured nodes as rings of directions.

    Ring i passes through the nodes `index[i]` at the increasing parameters
    `param`, in the directions cos t a[i] + sin t b[i] of the orthonormal
    pair (a[i], b[i]).  A closed ring (n = 2, the circle) carries dt / 2 pi
    over the period `span`; an open ring (n = 3, a meridian, t in [0, pi])
    carries sin t dt / 2.  The surface measure is the mean over the rings.
    """

    index: np.ndarray
    param: np.ndarray
    a: np.ndarray
    b: np.ndarray
    closed: bool

    @property
    def span(self) -> tuple[float, float]:
        if self.closed:
            return float(self.param[0]), float(self.param[0]) + 2.0 * np.pi
        return 0.0, np.pi

    def units(self, ring, t: np.ndarray) -> np.ndarray:
        """Directions at the parameters `t` on ring `ring` (one index, or
        one per parameter)."""
        return np.cos(t)[:, None] * self.a[ring] + np.sin(t)[:, None] * self.b[ring]

    def measure(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Measures of the arcs [lo, hi] of one ring."""
        if self.closed:
            return (hi - lo) / (2.0 * np.pi)
        return 0.5 * (np.cos(lo) - np.cos(hi))


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Nodes and weights for the normalized surface measure (weights sum to 1).

    `rings` describes the leading, structured nodes as rings of directions,
    so that level-set code can locate indicator boundaries between
    neighboring nodes.  Zero-weight probe nodes may follow them, so that
    suprema and indicator samples see distinguished directions exactly.
    """

    dimension: int
    units: np.ndarray
    weights: np.ndarray
    degree: int
    rings: Rings


def _circle_rings(angles: np.ndarray) -> Rings:
    """The closed circle through the increasing `angles`."""
    return Rings(
        np.arange(angles.shape[0])[None, :], angles,
        np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), closed=True,
    )


def _meridian_rings(polar, azimuth, axis, e1, e2) -> Rings:
    """Meridians from `axis` at the `azimuth` angles of the frame (e1, e2),
    through the nodes (polar p, azimuth q) numbered p * len(azimuth) + q."""
    order = np.argsort(polar)
    index = order[None, :] * azimuth.shape[0] + np.arange(azimuth.shape[0])[:, None]
    b = np.cos(azimuth)[:, None] * e1 + np.sin(azimuth)[:, None] * e2
    return Rings(index, polar[order], np.broadcast_to(axis, b.shape), b, closed=False)


def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product rule integrating spherical harmonics of degree 1..degree to 0.

    n = 2: uniform angular grid; n = 3: Gauss-Legendre in the polar cosine
    times a uniform azimuth, about the pole z with azimuth 0 at x.
    """
    n = check_dimension(n)
    if n == 2:
        m = max(int(degree) + 1, 8)
        angles = 2.0 * np.pi * np.arange(m) / m
        rings = _circle_rings(angles)
        return SphereRule(2, rings.units(0, angles), np.full(m, 1.0 / m), degree, rings)
    if n == 3:
        ell = max((int(degree) + 2) // 2, 4)
        m = max(int(degree) + 1, 8)
        t, wt = np.polynomial.legendre.leggauss(ell)
        phi = 2.0 * np.pi * np.arange(m) / m
        st = np.sqrt(1.0 - t**2)
        units = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.repeat(t, m),
            ],
            axis=1,
        )
        weights = np.repeat(wt * 0.5, m) / m
        x, y, z = np.eye(3)
        return SphereRule(3, units, weights, degree, _meridian_rings(np.arccos(t), phi, z, x, y))
    raise ValueError("sphere rules are implemented for n in {2, 3}")


def _merge_bounds(bounds, lo, hi, tol=1e-12):
    vals = sorted(b for b in bounds if lo - tol <= b <= hi + tol)
    out = [lo]
    for b in vals:
        if b - out[-1] > tol:
            out.append(min(max(b, lo), hi))
    if hi - out[-1] > tol:
        out.append(hi)
    else:
        out[-1] = hi
    return np.asarray(out)


def _gl3_cells(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3-point Gauss-Legendre nodes/weights on each cell of a 1-d partition."""
    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * _GL3_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL3_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _focused_circle_rule(foci_angles, depth: int, base: int) -> SphereRule:
    """Circle rule refined dyadically toward each focus angle (exact partition)."""
    bounds = set(np.linspace(-np.pi, np.pi, base + 1))
    for phi in foci_angles:
        for b in range(depth + 1):
            for sgn in (-1.0, 1.0):
                a = phi + sgn * np.pi * 2.0 ** (-b)
                a = math.remainder(a, 2.0 * math.pi)
                bounds.add(a)
        bounds.add(math.remainder(phi, 2.0 * math.pi))
    part = _merge_bounds(bounds, -np.pi, np.pi)
    nodes, weights = _gl3_cells(part)
    rings = _circle_rings(nodes)
    # probe nodes at the foci themselves
    probes = np.asarray(foci_angles, dtype=float)
    units = rings.units(0, np.concatenate([nodes, probes]))
    weights = np.concatenate([weights / (2.0 * np.pi), np.zeros(len(probes))])
    return SphereRule(2, units, weights / weights.sum(), 0, rings)


def _frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(helper, axis)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(axis, e1)


def _focused_polar_rule(axis: np.ndarray, depth: int, azimuth: int, base: int) -> SphereRule:
    """n = 3 rule with the polar angle (from `axis`) refined dyadically to 0."""
    bounds = {0.0, np.pi}
    bounds.update(np.pi * j / base for j in range(1, base))
    bounds.update(np.pi * 2.0 ** (-b) for b in range(0, depth + 1))
    part = _merge_bounds(bounds, 0.0, np.pi)
    theta, wt = _gl3_cells(part)
    phi = 2.0 * np.pi * np.arange(azimuth) / azimuth
    rings = _meridian_rings(theta, phi, axis, *_frame(axis))
    units = rings.units(np.tile(np.arange(azimuth), len(theta)), np.repeat(theta, azimuth))
    units = np.vstack([units, axis[None, :]])
    weights = np.repeat(0.5 * np.sin(theta) * wt, azimuth) / azimuth
    weights = np.concatenate([weights, [0.0]])
    return SphereRule(3, units, weights / weights.sum(), 0, rings)


@dataclass(frozen=True, eq=False)
class RadialShell:
    """Dyadic radial shell [1-2^-j, 1-2^-(j+1)) with Gauss-Legendre nodes.

    Weights carry the radial volume factor n r^(n-1) dr of the normalized
    measure; boundary weights (1-r^2)^w are applied by the consuming
    operation.  Zero-weight probe radii may be included.
    """

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class ShellDecomposition:
    """Shells j = 0..J-1 partitioning {r < 1 - 2^-J}, with per-shell sphere rules."""

    dimension: int
    shells: tuple[RadialShell, ...]
    spheres: tuple[SphereRule, ...]

    @property
    def depth(self) -> int:
        return len(self.shells)


def shell_decomposition(
    n: int,
    depth: int = 12,
    foci: tuple = (),
    *,
    azimuth: int = 16,
) -> ShellDecomposition:
    """Build the dyadic shell grid, _RADIAL_PER_SHELL Gauss-Legendre radii
    per shell times a sphere rule of degree _BASE_ANGULAR; angular rules
    refine toward `foci`.

    n = 2 supports any number of focus directions (exact circle partition);
    n = 3 refines the polar angle toward the first focus only, which covers
    expansions with a single boundary kernel pole.  Only a focus' direction
    counts; a focus without n components, or a NaN, inf or zero one, is
    refused with ValueError.
    """
    n = check_dimension(n)
    if n not in (2, 3):
        raise ValueError("shell decompositions are implemented for n in {2, 3}")
    foci = tuple(tuple(float(c) for c in f) for f in foci)
    if any(len(f) != n for f in foci):
        raise ValueError(f"foci must have {n} components each, got {foci}")
    # a NaN or inf focus would give NaN directions, a zero one no direction
    if not all(all(map(math.isfinite, f)) and any(f) for f in foci):
        raise ValueError(f"foci must be finite and nonzero, got {foci}")
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(_RADIAL_PER_SHELL)
    shells = []
    spheres = []
    for j in range(depth):
        lo = 1.0 - 2.0 ** (-j)
        hi = 1.0 - 2.0 ** (-j - 1)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r = mid + half * gl_nodes
        w = half * gl_weights * n * r ** (n - 1)
        if j == 0:
            r = np.concatenate([[0.0], r])
            w = np.concatenate([[0.0], w])
        shells.append(RadialShell(r, w))
        if not foci:
            spheres.append(sphere_rule(n, _BASE_ANGULAR))
        elif n == 2:
            angles = [math.atan2(f[1], f[0]) for f in foci]
            spheres.append(_focused_circle_rule(angles, j + _REFINE_EXTRA, _BASE_ANGULAR))
        else:
            axis = np.asarray(foci[0], dtype=float)
            axis = axis / np.linalg.norm(axis)
            spheres.append(_focused_polar_rule(axis, j + _REFINE_EXTRA, azimuth, 8))
    return ShellDecomposition(n, tuple(shells), tuple(spheres))


@dataclass(frozen=True, eq=False)
class BallQuadrature:
    """Radial Gauss-Jacobi x sphere rule for integrals against (1-|x|^2)^gamma dnu.

    Radial weights include the boundary weight and the radial volume factor,
    so the weight sum equals the total weighted mass V_gamma.
    """

    dimension: int
    gamma: float
    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    sphere: SphereRule
    degree: int

    @staticmethod
    def build(n: int, gamma: float, degree: int) -> "BallQuadrature":
        """Rule exact (to roundoff) on (1-|x|^2)^gamma * {total degree <= degree}:
        max(8, degree // 4 + 2) Gauss-Jacobi radii times the sphere rule of
        `degree`."""
        n = check_dimension(n)
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if gamma <= -1.0:
            raise ValueError("the radial weight exponent must exceed -1")
        m = max(8, degree // 4 + 2)
        x, w = roots_jacobi(m, gamma, 0.5 * n - 1.0)
        u = 0.5 * (x + 1.0)
        radial_nodes = np.sqrt(u)
        radial_weights = 0.5 * n * (2.0 ** -(0.5 * n + gamma)) * w
        sph = sphere_rule(n, degree)
        return BallQuadrature(n, float(gamma), radial_nodes, radial_weights, sph, degree)

    @property
    def units(self) -> np.ndarray:
        return self.sphere.units


def _grid_shaped(vals, radii: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The integrand's values, refused unless they cover the radii x units grid."""
    vals = np.asarray(vals, dtype=float)
    shape = (radii.shape[0], units.shape[0])
    if vals.shape != shape:
        raise EvaluationFailure(f"integrand returned shape {vals.shape} on a {shape} grid")
    return vals


def integrate_ball(q: BallQuadrature, g) -> float:
    """Quadrature estimate of the integral of g(x) (1-|x|^2)^gamma dnu(x).

    `g(radii, units)` gives the values on the rule's product grid.
    NonConvergent propagates; any other exception from g is wrapped in
    EvaluationFailure.
    """
    try:
        vals = g(q.radial_nodes, q.sphere.units)
    except NonConvergent:
        raise
    except Exception as exc:  # noqa: BLE001 - contract: surface node failures
        raise EvaluationFailure(f"integrand failed at quadrature nodes: {exc}") from exc
    vals = _grid_shaped(vals, q.radial_nodes, q.sphere.units)
    return float(q.radial_weights @ vals @ q.sphere.weights)


def classify_increments(increments) -> Verdict:
    """Finite / divergent verdict from nonnegative per-shell increments.

    Finite when the last VERDICT_WINDOW increments decay geometrically
    (ratio <= VERDICT_DECAY_RATIO) or have vanished below the floor;
    divergent when the tail is bounded below (the last VERDICT_GROWTH_WINDOW
    ratios >= VERDICT_GROWTH_RATIO and the last increment above the floor).
    Divergence is not provable numerically; these thresholds are the
    declared convention used consistently by every verdict in the library.
    """
    inc = np.asarray(list(increments), dtype=float)
    if inc.size < VERDICT_WINDOW + 1:
        return Verdict.INCONCLUSIVE
    total = float(inc.sum())
    floor_abs = VERDICT_FLOOR * max(1.0, total)
    tail = inc[-VERDICT_WINDOW:]
    if np.all(tail <= floor_abs):
        return Verdict.FINITE
    prev = inc[-(VERDICT_WINDOW + 1) : -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(prev > 0.0, tail / np.maximum(prev, 1e-300), np.inf)
    ratios = np.where((prev <= floor_abs) & (tail <= floor_abs), 0.0, ratios)
    if np.all(ratios <= VERDICT_DECAY_RATIO):
        return Verdict.FINITE
    if np.all(ratios[-VERDICT_GROWTH_WINDOW:] >= VERDICT_GROWTH_RATIO) and inc[-1] >= floor_abs:
        return Verdict.DIVERGENT
    return Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class ShellIntegral:
    """Per-shell increments and partial sums of a nonnegative shell integral."""

    increments: tuple[float, ...]
    partial_sums: tuple[float, ...]
    verdict: Verdict

    @classmethod
    def from_increments(cls, increments) -> "ShellIntegral":
        """Partial sums and verdict of the certified increments."""
        inc = tuple(increments)
        return cls(inc, tuple(float(p) for p in np.cumsum(inc)), classify_increments(inc))

    @property
    def shells_used(self) -> int:
        return len(self.increments)

    @property
    def total(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0

    def to_json_dict(self) -> dict:
        return {
            "shells": [
                {"j": j, "increment": inc, "partial": part}
                for j, (inc, part) in enumerate(zip(self.increments, self.partial_sums))
            ],
            "verdict": self.verdict.value,
        }


def walk_shells(d: ShellDecomposition, shell_fn, what: str) -> list:
    """`shell_fn(j)` for the shells j = 0, 1, ... of `d` up to the first that
    raises NonConvergent: returns the results of the shells before it.  When
    no shell is certified the walk has no answer, and NonConvergent is
    raised naming `what`, the walk's result, from the first shell's error.
    Any other exception is wrapped in an EvaluationFailure naming the
    shell."""
    results, stop = [], None
    for j in range(d.depth):
        try:
            results.append(shell_fn(j))
        except NonConvergent as exc:
            stop = exc
            break
        except Exception as exc:  # noqa: BLE001 - contract: surface shell failures
            raise EvaluationFailure(f"shell evaluation failed on shell {j}: {exc}") from exc
    if not results:
        raise NonConvergent(f"{what} certified no shell of a depth-{d.depth} grid") from stop
    return results


def integrate_shells(d: ShellDecomposition, g, weight_exponent: float) -> ShellIntegral:
    """Shell-wise integral of g(x) (1-|x|^2)^weight_exponent dnu, g >= 0,
    over the certified shells (see `walk_shells`, which raises
    NonConvergent when there are none); `g(d, j)` gives the values on shell
    j."""

    def increment(j: int) -> float:
        shell, sph = d.shells[j], d.spheres[j]
        vals = _grid_shaped(g(d, j), shell.nodes, sph.units)
        wr = shell.weights * (1.0 - shell.nodes**2) ** weight_exponent
        return float(wr @ vals @ sph.weights)

    return ShellIntegral.from_increments(walk_shells(d, increment, "shell integral"))


@dataclass(frozen=True)
class SupProbe:
    """Weighted supremum estimate with the per-shell maxima sequence."""

    shell_maxima: tuple[float, ...]

    @property
    def sup(self) -> float:
        return max(self.shell_maxima)

    @property
    def shells_used(self) -> int:
        return len(self.shell_maxima)


def sup_norm_probe(f_like, alpha_plus_t: float, grid: ShellDecomposition) -> SupProbe:
    """sup over nodes of (1-|x|^2)^(alpha+t) |f(x)| plus per-shell maxima.

    `f_like(grid, j)` gives the values on shell j.  The caller guarantees
    alpha + t > 0 (checked upstream); zero-weight probe nodes participate,
    so distinguished directions are sampled exactly.
    The maxima cover the certified shells (see `walk_shells`, which raises
    NonConvergent when there are none).
    """

    def shell_max(j: int) -> float:
        shell = grid.shells[j]
        vals = _grid_shaped(f_like(grid, j), shell.nodes, grid.spheres[j].units)
        weighted = (1.0 - shell.nodes**2) ** alpha_plus_t
        return float(np.max(weighted[:, None] * np.abs(vals)))

    return SupProbe(tuple(walk_shells(grid, shell_max, "sup probe")))

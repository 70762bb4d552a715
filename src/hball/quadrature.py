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

Integrands are evaluated either as plain vectorized callables on (N, n)
point arrays or as grid-aware objects exposing ``eval_grid(radii, units)``;
the latter keeps the radius x direction tensor structure that makes kernel
series affordable near the boundary.  Node reductions use numpy's pairwise
summation, so results are deterministic for a fixed rule.
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
]

_GL3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


class Verdict(str, Enum):
    FINITE = "finite"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Nodes and weights for the normalized surface measure (weights sum to 1).

    Zero-weight probe nodes may be appended so that suprema and indicator
    samples see distinguished directions exactly.  The structural metadata
    (`angles` for n = 2; `polar`, `azimuth`, `axis` for n = 3 product rules)
    describes the leading `structured` nodes and lets level-set code locate
    indicator boundaries between neighboring directions.
    """

    dimension: int
    units: np.ndarray
    weights: np.ndarray
    degree: int
    structured: int = 0
    angles: np.ndarray | None = None
    polar: np.ndarray | None = None
    azimuth: np.ndarray | None = None
    axis: np.ndarray | None = None


def _circle_units(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def sphere_rule(n: int, degree: int) -> SphereRule:
    """Product rule integrating spherical harmonics of degree 1..degree to 0.

    n = 2: uniform angular grid; n = 3: Gauss-Legendre in the polar cosine
    times a uniform azimuth.
    """
    n = check_dimension(n)
    if n == 2:
        m = max(int(degree) + 1, 8)
        angles = 2.0 * np.pi * np.arange(m) / m
        return SphereRule(
            2, _circle_units(angles), np.full(m, 1.0 / m), degree,
            structured=m, angles=angles,
        )
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
        return SphereRule(
            3, units, weights, degree,
            structured=ell * m, polar=np.arccos(t), azimuth=phi,
            axis=np.array([0.0, 0.0, 1.0]),
        )
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
    units = _circle_units(nodes)
    weights = weights / (2.0 * np.pi)
    structured = nodes.shape[0]
    # probe nodes at the foci themselves
    probes = _circle_units(np.asarray(list(foci_angles)))
    units = np.vstack([units, probes]) if len(foci_angles) else units
    weights = np.concatenate([weights, np.zeros(len(foci_angles))])
    return SphereRule(
        2, units, weights / weights.sum(), 0, structured=structured, angles=nodes
    )


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
    e1, e2 = _frame(axis)
    dirs = (
        np.cos(theta)[:, None, None] * axis[None, None, :]
        + np.sin(theta)[:, None, None]
        * (np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2)
    )
    units = dirs.reshape(-1, 3)
    weights = np.repeat(0.5 * np.sin(theta) * wt, azimuth) / azimuth
    structured = units.shape[0]
    units = np.vstack([units, axis[None, :]])
    weights = np.concatenate([weights, [0.0]])
    return SphereRule(
        3, units, weights / weights.sum(), 0,
        structured=structured, polar=theta, azimuth=phi, axis=axis,
    )


@dataclass(frozen=True, eq=False)
class RadialShell:
    """Dyadic radial shell [1-2^-j, 1-2^-(j+1)) with Gauss-Legendre nodes.

    Weights carry the radial volume factor n r^(n-1) dr of the normalized
    measure; boundary weights (1-r^2)^w are applied by the consuming
    operation.  Zero-weight probe radii may be included.
    """

    index: int
    r_lo: float
    r_hi: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class ShellDecomposition:
    """Shells j = 0..J-1 partitioning {r < 1 - 2^-J}, with per-shell sphere rules."""

    dimension: int
    shells: tuple[RadialShell, ...]
    spheres: tuple[SphereRule, ...]
    foci: tuple[tuple[float, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.shells)


def shell_decomposition(
    n: int,
    depth: int = 12,
    foci: tuple = (),
    *,
    radial_per_shell: int = 8,
    base_angular: int = 32,
    azimuth: int = 16,
    refine_extra: int = 8,
) -> ShellDecomposition:
    """Build the dyadic shell grid; angular rules refine toward `foci`.

    n = 2 supports any number of focus directions (exact circle partition);
    n = 3 refines the polar angle toward the first focus only, which covers
    expansions with a single boundary kernel pole.
    """
    n = check_dimension(n)
    if n not in (2, 3):
        raise ValueError("shell decompositions are implemented for n in {2, 3}")
    foci = tuple(tuple(float(c) for c in f) for f in foci)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(radial_per_shell)
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
        shells.append(RadialShell(j, lo, hi, r, w))
        if not foci:
            spheres.append(sphere_rule(n, base_angular))
        elif n == 2:
            angles = [math.atan2(f[1], f[0]) for f in foci]
            spheres.append(_focused_circle_rule(angles, j + refine_extra, base_angular))
        else:
            axis = np.asarray(foci[0], dtype=float)
            axis = axis / np.linalg.norm(axis)
            spheres.append(_focused_polar_rule(axis, j + refine_extra, azimuth, 8))
    return ShellDecomposition(n, tuple(shells), tuple(spheres), foci)


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
    def build(
        n: int,
        gamma: float,
        degree: int,
        *,
        radial_count: int | None = None,
        sphere_degree: int | None = None,
    ) -> "BallQuadrature":
        """Rule exact (to roundoff) on (1-|x|^2)^gamma * {total degree <= degree}."""
        n = check_dimension(n)
        if gamma <= -1.0:
            raise ValueError("the radial weight exponent must exceed -1")
        m = radial_count if radial_count is not None else max(8, degree // 4 + 2)
        x, w = roots_jacobi(m, gamma, 0.5 * n - 1.0)
        u = 0.5 * (x + 1.0)
        radial_nodes = np.sqrt(u)
        radial_weights = 0.5 * n * (2.0 ** -(0.5 * n + gamma)) * w
        sph = sphere_rule(n, sphere_degree if sphere_degree is not None else degree)
        return BallQuadrature(n, float(gamma), radial_nodes, radial_weights, sph, degree)

    @staticmethod
    def shell_composite(
        n: int,
        gamma: float,
        depth: int = 12,
        *,
        radial_per_shell: int = 12,
        sphere_degree: int = 64,
        foci: tuple = (),
    ) -> "BallQuadrature":
        """Shell-based ball rule for integrands concentrated near the boundary.

        The boundary weight (1-r^2)^gamma is evaluated explicitly at the
        piecewise Gauss-Legendre nodes, so gamma may be any real.
        """
        d = shell_decomposition(
            n, depth, foci, radial_per_shell=radial_per_shell, base_angular=sphere_degree
        )
        nodes = np.concatenate([s.nodes for s in d.shells])
        weights = np.concatenate(
            [s.weights * (1.0 - s.nodes**2) ** gamma for s in d.shells]
        )
        sph = d.spheres[-1] if foci else sphere_rule(n, sphere_degree)
        return BallQuadrature(n, float(gamma), nodes, weights, sph, 0)

    @property
    def units(self) -> np.ndarray:
        return self.sphere.units

    def node_count(self) -> int:
        return self.radial_nodes.shape[0] * self.sphere.units.shape[0]


def _grid_values(g, radii: np.ndarray, units: np.ndarray, n: int) -> np.ndarray:
    """Evaluate `g` on the product grid; grid-aware objects keep the structure."""
    if hasattr(g, "eval_grid"):
        return np.asarray(g.eval_grid(radii, units))
    points = radii[:, None, None] * units[None, :, :]
    vals = g(points.reshape(-1, n))
    return np.asarray(vals, dtype=float).reshape(radii.shape[0], units.shape[0])


def integrate_ball(q: BallQuadrature, g) -> float:
    """Quadrature estimate of the integral of g(x) (1-|x|^2)^gamma dnu(x).

    `g` is a vectorized callable on (N, n) arrays or a grid-aware object.
    NonConvergent propagates; any other exception from g is wrapped in
    EvaluationFailure.
    """
    try:
        vals = _grid_values(g, q.radial_nodes, q.sphere.units, q.dimension)
    except NonConvergent:
        raise
    except Exception as exc:  # noqa: BLE001 - contract: surface node failures
        raise EvaluationFailure(f"integrand failed at quadrature nodes: {exc}") from exc
    return float(q.radial_weights @ vals @ q.sphere.weights)


def classify_increments(
    increments,
    *,
    decay_ratio: float = 0.9,
    growth_ratio: float = 0.99,
    floor: float = 1e-12,
    window: int = 5,
    growth_window: int = 2,
) -> Verdict:
    """Finite / divergent verdict from nonnegative per-shell increments.

    Finite when the last `window` increments decay geometrically (ratio <=
    decay_ratio) or have vanished below the floor; divergent when the tail
    is bounded below (the last `growth_window` ratios >= growth_ratio and
    the last increment above the floor).  Divergence is not provable
    numerically; these thresholds are the declared convention used
    consistently by every verdict in the library.
    """
    inc = np.asarray(list(increments), dtype=float)
    if inc.size < window + 1:
        return Verdict.INCONCLUSIVE
    total = float(inc.sum())
    floor_abs = floor * max(1.0, total)
    tail = inc[-window:]
    if np.all(tail <= floor_abs):
        return Verdict.FINITE
    prev = inc[-(window + 1) : -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(prev > 0.0, tail / np.maximum(prev, 1e-300), np.inf)
    ratios = np.where((prev <= floor_abs) & (tail <= floor_abs), 0.0, ratios)
    if np.all(ratios <= decay_ratio):
        return Verdict.FINITE
    if np.all(ratios[-growth_window:] >= growth_ratio) and inc[-1] >= floor_abs:
        return Verdict.DIVERGENT
    return Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class ShellIntegral:
    """Per-shell increments and partial sums of a nonnegative shell integral."""

    increments: tuple[float, ...]
    partial_sums: tuple[float, ...]
    verdict: Verdict
    shells_used: int

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


def _shell_values(g, d: ShellDecomposition, j: int) -> np.ndarray:
    if hasattr(g, "eval_shell"):
        return np.asarray(g.eval_shell(d, j))
    shell, sph = d.shells[j], d.spheres[j]
    return _grid_values(g, shell.nodes, sph.units, d.dimension)


def integrate_shells(d: ShellDecomposition, g, weight_exponent: float) -> ShellIntegral:
    """Shell-wise integral of g(x) (1-|x|^2)^weight_exponent dnu, g >= 0.

    Evaluation stops at the first shell whose integrand cannot be certified
    (NonConvergent); the verdict is formed on the certified prefix.
    """
    increments = []
    for j in range(d.depth):
        try:
            vals = _shell_values(g, d, j)
        except NonConvergent:
            break
        except Exception as exc:  # noqa: BLE001
            raise EvaluationFailure(f"shell integrand failed on shell {j}: {exc}") from exc
        shell, sph = d.shells[j], d.spheres[j]
        wr = shell.weights * (1.0 - shell.nodes**2) ** weight_exponent
        increments.append(float(wr @ vals @ sph.weights))
    partial = np.cumsum(increments)
    return ShellIntegral(
        tuple(increments),
        tuple(float(p) for p in partial),
        classify_increments(increments),
        len(increments),
    )


@dataclass(frozen=True)
class SupProbe:
    """Weighted supremum estimate with the per-shell maxima sequence."""

    sup: float
    shell_maxima: tuple[float, ...]
    shells_used: int


def sup_norm_probe(f_like, alpha_plus_t: float, grid: ShellDecomposition) -> SupProbe:
    """sup over nodes of (1-|x|^2)^(alpha+t) |f(x)| plus per-shell maxima.

    The caller guarantees alpha + t > 0 (checked upstream); zero-weight probe
    nodes participate, so distinguished directions are sampled exactly.
    Shells past the first uncertified one are dropped; when no shell is
    certified there is no supremum and NonConvergent is raised.
    """
    maxima = []
    stop = None
    for j in range(grid.depth):
        try:
            vals = _shell_values(f_like, grid, j)
        except NonConvergent as exc:
            stop = exc
            break
        except Exception as exc:  # noqa: BLE001
            raise EvaluationFailure(f"probe integrand failed on shell {j}: {exc}") from exc
        shell = grid.shells[j]
        weighted = (1.0 - shell.nodes**2) ** alpha_plus_t
        maxima.append(float(np.max(weighted[:, None] * np.abs(vals))))
    if not maxima:
        raise NonConvergent(
            f"sup probe certified no shell of a depth-{grid.depth} grid"
        ) from stop
    return SupProbe(max(maxima), tuple(maxima), len(maxima))

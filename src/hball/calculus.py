"""Harmonic functions as finite atom sums, and the radial operators on them.

A function is modelled as a finite sum of atoms: explicit zonal terms
(homogeneous harmonic polynomials Z_k(., pole) with a unit pole) and kernel
atoms R_s(., pole).  The operator of order t based at s acts on homogeneous
layers by the coefficient multiplier gamma_k(s+t)/gamma_k(s); on this family
the action is exact at the coefficient level.  Applying it to a kernel atom
with a mismatched base parameter yields a general coefficient-product atom,
evaluated by the same certified truncation machinery as the kernels.

An expansion is evaluated at points (`evaluate`, the pointwise reference)
and by one core on grids (`evaluate_grids`): product grids of radii x
directions, or pairs of grid entries, one radius per direction, over
several grids at once, each pair bit for bit its product grid's entry.
The core checks every grid before any atom is added, and adds each
expansion's atoms in their order, in rounds: a zonal term's factors are
computed once per grid, and the series atoms of a round on one pole and
one set of still-live grids are summed in one kernel call
(`eval_coeff_series_grids`).  So expansions evaluated together are each,
bit for bit, the expansion evaluated alone on each grid.

Expansions are immutable after construction; everything here is reentrant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonConvergent
from .kernel import (
    CoeffProduct,
    check_grids,
    eval_coeff_series_grids,
    eval_coeff_series_points,
    gamma_ratio,
    log_coeff_block,
    zonal_angular_table,
)
from .special import check_dimension, zonal

__all__ = [
    "Atom",
    "DiffPair",
    "GeneralSeriesAtom",
    "HarmonicExpansion",
    "KernelAtom",
    "ZonalTerm",
    "apply_D",
    "apply_I",
    "constant",
    "evaluate",
    "evaluate_grid",
    "evaluate_grids",
    "expansion_from_json",
    "expansion_to_json",
    "homogeneous_coefficient",
]

_POLE_TOL = 1e-9


@dataclass(frozen=True)
class DiffPair:
    """Parameters (s, t) of a radial differential operator of order t."""

    s: float
    t: float

    def __post_init__(self):
        for name in ("s", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"an operator pair's {name} must be finite, got {getattr(self, name)}")


def _as_pole(pole) -> tuple[float, ...]:
    return tuple(float(c) for c in pole)


@dataclass(frozen=True)
class ZonalTerm:
    """weight * Z_k(., pole): a homogeneous harmonic polynomial of degree k."""

    degree: int
    pole: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pole", _as_pole(self.pole))
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if abs(np.linalg.norm(self.pole) - 1.0) > _POLE_TOL:
            raise ValueError("a zonal term's pole must lie on the unit sphere")


@dataclass(frozen=True)
class KernelAtom:
    """weight * R_s(., pole) with |pole| <= 1."""

    s: float
    pole: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"a kernel atom's order s must be finite, got {self.s}")
        object.__setattr__(self, "pole", _as_pole(self.pole))
        if np.linalg.norm(self.pole) > 1.0 + _POLE_TOL:
            raise ValueError("a kernel atom's pole must lie in the closed ball")


@dataclass(frozen=True)
class GeneralSeriesAtom:
    """weight * sum_k c_k Z_k(., pole) with c_k a product of kernel coefficients.

    Produced by applying an operator to a kernel atom with a mismatched base
    parameter; not part of the serialized input surface unless it occurs.
    """

    coeff: CoeffProduct
    pole: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pole", _as_pole(self.pole))
        if np.linalg.norm(self.pole) > 1.0 + _POLE_TOL:
            raise ValueError("a series atom's pole must lie in the closed ball")


Atom = Union[ZonalTerm, KernelAtom, GeneralSeriesAtom]


@dataclass(frozen=True)
class HarmonicExpansion:
    """A harmonic function on the ball, as an immutable finite sum of atoms."""

    dimension: int
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        check_dimension(self.dimension)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for atom in self.atoms:
            if len(atom.pole) != self.dimension:
                raise ValueError("atom pole dimension does not match the expansion")

    def scaled(self, c: float) -> "HarmonicExpansion":
        return HarmonicExpansion(
            self.dimension,
            tuple(_replace_weight(a, a.weight * c) for a in self.atoms),
        )

    def __add__(self, other: "HarmonicExpansion") -> "HarmonicExpansion":
        if other.dimension != self.dimension:
            raise ValueError("cannot add expansions of different dimensions")
        return HarmonicExpansion(self.dimension, self.atoms + other.atoms)

    def boundary_kernel_poles(self) -> tuple[tuple[float, ...], ...]:
        """Poles of non-polynomial atoms sitting on the sphere (growth foci)."""
        out = []
        for a in self.atoms:
            if isinstance(a, (KernelAtom, GeneralSeriesAtom)):
                if abs(np.linalg.norm(a.pole) - 1.0) <= _POLE_TOL and a.pole not in out:
                    out.append(a.pole)
        return tuple(out)


def _replace_weight(atom: Atom, weight: float) -> Atom:
    if isinstance(atom, ZonalTerm):
        return ZonalTerm(atom.degree, atom.pole, weight)
    if isinstance(atom, KernelAtom):
        return KernelAtom(atom.s, atom.pole, weight)
    return GeneralSeriesAtom(atom.coeff, atom.pole, weight)


def constant(n: int, value: float = 1.0) -> HarmonicExpansion:
    """The constant function as a degree-0 zonal term."""
    pole = (1.0,) + (0.0,) * (n - 1)
    return HarmonicExpansion(n, (ZonalTerm(0, pole, value),))


def _atom_coeff(atom: Atom) -> CoeffProduct:
    if isinstance(atom, KernelAtom):
        return CoeffProduct.kernel(atom.s)
    if isinstance(atom, GeneralSeriesAtom):
        return atom.coeff
    raise TypeError("zonal terms have no coefficient product")


def evaluate(f: HarmonicExpansion, x, tol: float = 1e-9) -> float:
    """Pointwise value of f, each series atom truncated to tail bound <= tol.

    Requires |x| <= 1; at |x| = 1 every series atom must still satisfy
    |x||pole| < 1, otherwise NonConvergent is raised.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r > 1.0 + _POLE_TOL:
        raise ValueError("evaluation point must lie in the closed ball")
    total = 0.0
    for atom in f.atoms:
        if isinstance(atom, ZonalTerm):
            total += atom.weight * zonal(f.dimension, atom.degree, x, np.asarray(atom.pole))
        else:
            vals, _, _ = eval_coeff_series_points(
                f.dimension, _atom_coeff(atom), atom.pole, x[None, :], tol_abs=tol
            )
            total += atom.weight * float(vals[0])
    return total


def _zonal_factors(n: int, degree: int, pole, radii: np.ndarray, units: np.ndarray):
    """(r^degree per radius, (|u| |pole|)^degree Q_degree(cos angle) per
    direction), whose products are Z_degree(r u, pole), computed exactly;
    `special.zonal` is the scalar form."""
    pole = np.asarray(pole, dtype=float)
    if degree == 0:
        return np.ones(radii.shape[0]), np.ones(units.shape[0])
    scale = np.linalg.norm(units, axis=1) * float(np.linalg.norm(pole))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(units @ pole / scale, -1.0, 1.0)
    q = zonal_angular_table(n, np.where(scale > 0.0, cos, 1.0), degree, 1)[0]
    return radii**degree, np.where(scale > 0.0, scale**degree * q, 0.0)


def _zonal_values(n: int, degree: int, pole, grid) -> np.ndarray:
    """Z_degree on a grid (radii, units, rows) from its factors
    (`_zonal_factors`): spread over the product grid, or read at the
    pairs."""
    radii, units, rows = grid
    radial, angular = _zonal_factors(n, degree, pole, radii, units)
    if rows is None:
        return radial[:, None] * angular[None, :]
    return radial[rows] * angular


def _accumulate(total, vals, weight: float):
    """total + weight * vals, in place: the first atom's as 0 + w v (a -0.0
    becomes 0.0), or the atom's NonConvergent, which ends the sum."""
    if isinstance(vals, NonConvergent):
        return vals
    vals *= weight
    if total is None:
        vals += 0.0
        return vals
    total += vals
    return total


def evaluate_grids(fs, grids, *, tol_rel: float = 1e-9) -> list:
    """Values of each expansion of `fs` on each grid (radii, units, rows):
    rows None for the product grid {r * u}, then the only grid of its
    call, or one index into the radii per direction for the pairs
    radii[rows[i]] * units[i].  Returns per expansion, per grid, its
    values, of shape (len(radii), len(units)) on a product grid and
    (len(units),) at pairs, each pair bit for bit the entry (rows[i], i)
    of its product grid, or the NonConvergent of the expansion's first
    series atom that raised one on that grid.

    Every grid is checked once, before any atom is added (`check_grids`).
    Each expansion adds its atoms in their order, in rounds: round r adds
    its zonal terms up to its r-th series atom, then that atom.  A zonal
    term's factors are computed once per grid (`_zonal_values`).  The r-th
    series atoms of all expansions on one pole and one set of still-live
    grids are summed in one call (`eval_coeff_series_grids`), whose series
    share their angular table per grid, and each value is scaled and added
    in place before the next call, so an expansion holds at most its sums
    and one atom's values.  Series atoms are certified relative to their
    own majorant mass, so the accuracy is relative to the atom's local size
    rather than absolute.  The rounds after an expansion's first
    NonConvergent on a grid leave out its atoms there.
    """
    fs = list(fs)
    if len({f.dimension for f in fs}) > 1:
        raise ValueError("the expansions of one grid evaluation must share their dimension")
    if not fs:
        return []
    n = fs[0].dimension
    grids = check_grids(n, grids)
    totals = [[None] * len(grids) for _ in fs]
    added = [0] * len(fs)  # atoms of each expansion added so far
    while True:
        batches: dict[tuple, list] = {}  # (pole, live grids) -> expansions whose next atom is a series on it
        for i, f in enumerate(fs):
            live = tuple(g for g, total in enumerate(totals[i]) if not isinstance(total, NonConvergent))
            if not live:
                continue
            for atom in f.atoms[added[i]:]:
                if not isinstance(atom, ZonalTerm):
                    batches.setdefault((atom.pole, live), []).append(i)
                    break
                for g in live:
                    totals[i][g] = _accumulate(
                        totals[i][g], _zonal_values(n, atom.degree, atom.pole, grids[g]), atom.weight
                    )
                added[i] += 1
        if not batches:
            break
        for (pole, live), where in batches.items():
            atoms = [fs[i].atoms[added[i]] for i in where]
            values = eval_coeff_series_grids(
                n, [_atom_coeff(atom) for atom in atoms], pole, [grids[g] for g in live], tol_rel=tol_rel
            )
            for i, atom, per_grid in zip(where, atoms, values):
                for g, vals in zip(live, per_grid):
                    totals[i][g] = _accumulate(totals[i][g], vals, atom.weight)
                added[i] += 1
            del values, per_grid, vals
    shapes = [(radii.shape[0], units.shape[0]) if rows is None else rows.shape for radii, units, rows in grids]
    return [[np.zeros(shape) if t is None else t for t, shape in zip(row, shapes)] for row in totals]


def evaluate_grid(
    f: HarmonicExpansion,
    radii: np.ndarray,
    units: np.ndarray,
    *,
    tol_rel: float = 1e-9,
) -> np.ndarray:
    """Values of f on the product grid {r * u}, shape (len(radii),
    len(units)): `evaluate_grids` of the one expansion f on that grid,
    raising the NonConvergent of its first series atom that fails."""
    ((values,),) = evaluate_grids([f], [(radii, units, None)], tol_rel=tol_rel)
    if isinstance(values, NonConvergent):
        raise values
    return values


def apply_D(f: HarmonicExpansion, pair: DiffPair) -> HarmonicExpansion:
    """Image of f under the operator of order pair.t based at pair.s.

    Zonal terms are rescaled by the exact degree multiplier.  A kernel atom
    whose base parameter equals pair.s shifts exactly to a kernel atom at
    s + t; any other series atom picks up the multiplier as extra coefficient
    factors.
    """
    s, t = float(pair.s), float(pair.t)
    atoms: list[Atom] = []
    for atom in f.atoms:
        if isinstance(atom, ZonalTerm):
            ratio = gamma_ratio(f.dimension, s, t, atom.degree)
            atoms.append(ZonalTerm(atom.degree, atom.pole, atom.weight * ratio))
        else:
            coeff = _atom_coeff(atom).shifted(s, t)
            single = coeff.single_kernel_parameter()
            if single is not None:
                atoms.append(KernelAtom(single, atom.pole, atom.weight))
            else:
                atoms.append(GeneralSeriesAtom(coeff, atom.pole, atom.weight))
    return HarmonicExpansion(f.dimension, tuple(atoms))


def apply_I(f: HarmonicExpansion, pair: DiffPair, x, tol: float = 1e-9) -> float:
    """(1-|x|^2)^t * (D f)(x) for the operator with parameters `pair`."""
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    if r2 >= 1.0:
        raise ValueError("the weighted derivative is evaluated at interior points")
    return (1.0 - r2) ** pair.t * evaluate(apply_D(f, pair), x, tol)


def homogeneous_coefficient(f: HarmonicExpansion, k: int) -> list[tuple[tuple[float, ...], float]]:
    """The degree-k homogeneous layer of f as zonal terms (pole, coefficient).

    A kernel or series atom contributes its coefficient c_k; a zonal term
    contributes its weight when its degree matches.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    out: list[tuple[tuple[float, ...], float]] = []
    for atom in f.atoms:
        if isinstance(atom, ZonalTerm):
            if atom.degree == k:
                out.append((atom.pole, atom.weight))
        else:
            log_c = log_coeff_block(f.dimension, _atom_coeff(atom), k, k + 1)[0]
            out.append((atom.pole, atom.weight * math.exp(float(log_c))))
    return out


# --- JSON surface -----------------------------------------------------------
#
# {"dimension": n, "atoms": [{"kind": "zonal", "k": ..., "pole": [...], "weight": ...},
#                            {"kind": "kernel", "s": ..., "pole": [...], "weight": ...},
#                            {"kind": "series", "factors": [[alpha, e], ...], ...}]}


def _atom_to_dict(atom: Atom) -> dict:
    if isinstance(atom, ZonalTerm):
        return {"kind": "zonal", "k": atom.degree, "pole": list(atom.pole), "weight": atom.weight}
    if isinstance(atom, KernelAtom):
        return {"kind": "kernel", "s": atom.s, "pole": list(atom.pole), "weight": atom.weight}
    return {
        "kind": "series",
        "factors": [[a, e] for a, e in atom.coeff.factors],
        "pole": list(atom.pole),
        "weight": atom.weight,
    }


def _atom_from_dict(d: dict) -> Atom:
    kind = d["kind"]
    if kind == "zonal":
        return ZonalTerm(int(d["k"]), tuple(d["pole"]), float(d.get("weight", 1.0)))
    if kind == "kernel":
        return KernelAtom(float(d["s"]), tuple(d["pole"]), float(d.get("weight", 1.0)))
    if kind == "series":
        coeff = CoeffProduct(tuple((float(a), int(e)) for a, e in d["factors"]))
        return GeneralSeriesAtom(coeff, tuple(d["pole"]), float(d.get("weight", 1.0)))
    raise ValueError(f"unknown atom kind {kind!r}")


def expansion_to_json(f: HarmonicExpansion) -> str:
    payload = {"dimension": f.dimension, "atoms": [_atom_to_dict(a) for a in f.atoms]}
    return json.dumps(payload, sort_keys=True)


def expansion_from_json(text: str) -> HarmonicExpansion:
    d = json.loads(text)
    return HarmonicExpansion(int(d["dimension"]), tuple(_atom_from_dict(a) for a in d["atoms"]))

"""Harmonic functions as finite atom sums, and the radial operators on them.

A function is modelled as a finite sum of atoms: explicit zonal terms
(homogeneous harmonic polynomials Z_k(., pole) with a unit pole) and kernel
atoms R_s(., pole).  The operator of order t based at s acts on homogeneous
layers by the coefficient multiplier gamma_k(s+t)/gamma_k(s); on this family
the action is exact at the coefficient level.  Applying it to a kernel atom
with a mismatched base parameter yields a general coefficient-product atom,
evaluated by the same certified truncation machinery as the kernels.

An expansion is evaluated at points (`evaluate`), on product grids of
radii x directions (`evaluate_grid(s)`), and at pairs of grid entries, one
radius per direction, over several grids at once (`evaluate_pairs`): there
zonal terms and the n = 2 closed forms compute only the pairs, while a
series atom sums each grid and reads its pairs off it, so every pair is bit
for bit its grid's entry.  Grid and pair evaluations add an expansion's
atoms in their order (`_accumulate`), so expansions evaluated together
are each, bit for bit, the expansion evaluated alone; `evaluate_grids`
sums the series atoms of several expansions in rounds, one call per
round and pole.

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
    eval_coeff_series_grids,
    eval_coeff_series_pairs,
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
    "evaluate_pairs",
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


def _zonal_grid(n: int, degree: int, pole, radii: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Z_degree on the product grid radii x units (`_zonal_factors`)."""
    radial, angular = _zonal_factors(n, degree, pole, radii, units)
    return radial[:, None] * angular[None, :]


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


def evaluate_grids(
    fs,
    radii: np.ndarray,
    units: np.ndarray,
    *,
    tol_rel: float = 1e-9,
) -> list:
    """Values of each expansion of `fs` on the product grid {r * u}: per
    expansion, its (len(radii), len(units)) grid, or the NonConvergent of
    its first series atom that raised one.

    Each expansion adds its atoms in their order, in rounds: round r adds
    its zonal terms up to its r-th series atom, then that atom.  The r-th
    series atoms of all expansions on one pole are summed in one call
    (`eval_coeff_series_grids`), whose series share their angular table,
    and each grid is scaled and added in place before the next call, so an
    expansion holds at most its sum and one atom's grid.  Series atoms are
    certified relative to their own majorant mass, so the accuracy is
    relative to the atom's local size rather than absolute.  The rounds
    after an expansion's first NonConvergent leave out its atoms.
    """
    fs = list(fs)
    radii = np.asarray(radii, dtype=float)
    units = np.asarray(units, dtype=float)
    if len({f.dimension for f in fs}) > 1:
        raise ValueError("the expansions of one grid evaluation must share their dimension")
    totals = [None] * len(fs)
    added = [0] * len(fs)  # atoms of each expansion added so far
    while True:
        batches: dict[tuple, list] = {}  # pole -> expansions whose next atom is a series on it
        for i, f in enumerate(fs):
            if isinstance(totals[i], NonConvergent):
                continue
            for atom in f.atoms[added[i]:]:
                if not isinstance(atom, ZonalTerm):
                    batches.setdefault(atom.pole, []).append(i)
                    break
                totals[i] = _accumulate(
                    totals[i], _zonal_grid(f.dimension, atom.degree, atom.pole, radii, units), atom.weight
                )
                added[i] += 1
        if not batches:
            break
        for pole, where in batches.items():
            atoms = [fs[i].atoms[added[i]] for i in where]
            values = eval_coeff_series_grids(
                fs[0].dimension, [_atom_coeff(atom) for atom in atoms], units, pole, [radii], tol_rel=tol_rel
            )
            for i, atom, grids in zip(where, atoms, values):
                vals = grids if isinstance(grids, NonConvergent) else grids[0]
                totals[i] = _accumulate(totals[i], vals, atom.weight)
                added[i] += 1
            del values, grids, vals
    return [np.zeros((radii.shape[0], units.shape[0])) if t is None else t for t in totals]


def evaluate_grid(
    f: HarmonicExpansion,
    radii: np.ndarray,
    units: np.ndarray,
    *,
    tol_rel: float = 1e-9,
) -> np.ndarray:
    """Values of f on the product grid {r * u}, shape (len(radii),
    len(units)): `evaluate_grids` of the one expansion f, raising the
    NonConvergent of its first series atom that fails."""
    (values,) = evaluate_grids([f], radii, units, tol_rel=tol_rel)
    if isinstance(values, NonConvergent):
        raise values
    return values


def evaluate_pairs(
    f: HarmonicExpansion,
    grids,
    *,
    tol_rel: float = 1e-9,
) -> list:
    """Values of f at pairs of points of several product grids: per grid
    (radii, units, rows), the values at radii[rows[i]] * units[i], each bit
    for bit the entry (rows[i], i) of `evaluate_grid(f, radii, units)`, or
    the NonConvergent of f's first series atom that raised one on that
    grid.

    Only the pairs are computed where an atom allows it: a zonal term is
    its radial factor at the pair's radius times its angular factor at the
    pair's direction (`_zonal_factors`), and each series atom makes one
    `eval_coeff_series_pairs` call over all the grids, which evaluates the
    n = 2 closed forms on the pairs alone and sums every other series on
    its grid, one call per grid as `evaluate_grid` makes it.  Each grid adds
    f's atoms in their order, as `evaluate_grids` does, and leaves out the
    atoms after its first NonConvergent.
    """
    grids = [
        (np.asarray(radii, dtype=float), np.asarray(units, dtype=float), np.asarray(rows, dtype=np.intp))
        for radii, units, rows in grids
    ]
    totals: list = [None] * len(grids)
    for atom in f.atoms:
        live = [i for i, total in enumerate(totals) if not isinstance(total, NonConvergent)]
        if isinstance(atom, ZonalTerm):
            values = []
            for i in live:
                radii, units, rows = grids[i]
                radial, angular = _zonal_factors(f.dimension, atom.degree, atom.pole, radii, units)
                values.append(radial[rows] * angular)
        else:
            values = eval_coeff_series_pairs(
                f.dimension, _atom_coeff(atom), atom.pole, [grids[i] for i in live], tol_rel=tol_rel
            )
        for i, vals in zip(live, values):
            totals[i] = _accumulate(totals[i], vals, atom.weight)
    return [np.zeros(rows.shape[0]) if t is None else t for t, (_, _, rows) in zip(totals, grids)]


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

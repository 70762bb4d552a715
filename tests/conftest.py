import numpy as np

from hball.experiments import _grid, verification_family
from hball.kernel import _series_sum, eval_coeff_series_grid
from hball.spaces import BergmanBesov, besov_norm_shells


def grid_integrand(formula, *, shells=False):
    """The point formula `formula`, a vectorized callable on (N, n) arrays,
    as a ball-rule integrand g(radii, units) or, with shells=True, as a
    shell integrand g(d, j)."""

    def on_grid(radii, units):
        points = radii[:, None, None] * units[None, :, :]
        vals = formula(points.reshape(-1, units.shape[1]))
        return np.asarray(vals, dtype=float).reshape(radii.shape[0], units.shape[0])

    if shells:
        return lambda d, j: on_grid(d.shells[j].nodes, d.spheres[j].units)
    return on_grid


def critical_atom_verdicts(cfg):
    """Shell verdict of the distance experiment's critical atom in the
    integral-norm space (p, p alpha - n), on the experiment's family grid,
    for every (n, alpha) of `cfg` and every p of its p_pair.  The atom sits
    on that space's membership boundary, so each verdict should be
    divergent."""
    verdicts = {}
    for n in cfg.parameters["n_grid"]:
        for alpha in cfg.parameters["alpha_grid"]:
            _, (_, atom, _), zeta = verification_family(n, alpha, cfg.seed)
            grid = _grid(n, cfg.shells, (zeta,))
            for p in cfg.parameters["p_pair"]:
                spec = BergmanBesov.standard(p, p * alpha - n)
                verdicts[(n, alpha, p)] = besov_norm_shells(atom, spec, grid)[0].verdict
    return verdicts


def points_at_norms(rng, n, norms):
    """Random points of R^n with the given norms."""
    x = rng.normal(size=(len(norms), n))
    return x * (np.asarray(norms) / np.linalg.norm(x, axis=1))[:, None]


def rule_sum_reference(n, coeff, x, radii, units, weighted, tol_rel):
    """The rule sum of the series at one point x as a full grid: the values
    of `eval_coeff_series_grid` summed against `weighted`.  Returns (value,
    mass, K): the weighted majorant mass of the series and its last degree
    (0 at the origin, where only the constant term is summed)."""
    values = eval_coeff_series_grid(n, coeff, units, x, [radii], tol_rel=tol_rel)[0]
    value = float(np.sum(values * weighted))
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return value, float(np.sum(np.abs(weighted))), 0
    _, _, masses, k_used = _series_sum(n, coeff, np.ones(1), [radii * norm], tol_rel=tol_rel)
    return value, float(masses[0] @ np.abs(weighted).sum(axis=1)), k_used

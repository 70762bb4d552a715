import numpy as np

from hball.experiments import _grid, verification_family
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

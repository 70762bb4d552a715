import numpy as np

from hball.errors import NonConvergent
from hball.experiments import _grid, verification_family
from hball.kernel import KMAX_DEFAULT, _h_step_fractions
from hball.spaces import BergmanBesov, besov_norm_shells
from hball.special import log_dim_spherical_harmonics


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


def certified_degree_reference(n, coeff, rho_sets, *, tol_rel, tol_abs=0.0, kmax=KMAX_DEFAULT, min_terms=0):
    """The smallest degree K >= max(min_terms, 1) at which the tail bound of
    the majorant sum_k c_k h_k rho^k meets tol_abs + tol_rel mass on every
    radius of every set, the mass summed up to K one degree at a time.

    Every degree is tested, 100 at a time, from degree 0: the bound past k
    is c_(k+1) h_(k+1) rho^(k+1) / (1 - rho ratio), with ratio the product
    of the step fractions (k+1+a)/(k+1+b) that exceed 1, and infinite where
    rho ratio >= 1.  Returns (tails, masses, K), one tail and one mass
    vector per set; raises NonConvergent as the kernel does at the cap."""
    rho = np.concatenate([np.asarray(r, dtype=float) for r in rho_sets])
    ends = np.cumsum([0] + [len(r) for r in rho_sets])
    with np.errstate(divide="ignore"):
        log_rho = np.log(np.maximum(rho, 0.0))
    fracs = coeff.step_fractions(n) + _h_step_fractions(n)
    mass = np.zeros(rho.shape[0])
    for k0 in range(0, kmax + 1, 100):
        ks = np.arange(k0, min(k0 + 100, kmax + 1), dtype=float)
        k1 = np.append(ks, ks[-1] + 1.0)[1:]
        log_ch = coeff.log_values(n, k1) + log_dim_spherical_harmonics(n, k1)
        ratio = np.ones(ks.shape)
        for a, b in fracs:
            v = (k1 + a) / (k1 + b)
            ratio = np.where(v > 1.0, ratio * v, ratio)
        geo = rho[:, None] * ratio[None, :]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            log_pow = np.where(ks[None, :] == 0.0, 0.0, ks[None, :] * log_rho[:, None])
            terms = np.exp(coeff.log_values(n, ks)[None, :] + log_pow)
            terms *= np.exp(log_dim_spherical_harmonics(n, ks))[None, :]
            masses = np.cumsum(np.concatenate([mass[:, None], terms], axis=1), axis=1)[:, 1:]
            head = np.exp(log_ch[None, :] + k1[None, :] * log_rho[:, None])
            tails = np.where(geo < 1.0, head / np.maximum(1.0 - geo, 1e-300), np.inf)
        ok = np.all(tails <= tol_abs + tol_rel * masses, axis=0) & (ks >= max(min_terms, 1))
        if ok.any():
            j = int(np.argmax(ok))
            sets = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
            return [tails[sl, j] for sl in sets], [masses[sl, j] for sl in sets], k0 + j
        mass = masses[:, -1]
    worst = float(rho.max()) if rho.size else 0.0
    raise NonConvergent(f"series not certified within {kmax} terms (worst |x||y| = {worst})")


def recurrence_rows(n, u, k0, size, state):
    """Rows k0..k0+size-1 of Q_k(u) by the per-degree Chebyshev (n = 2) or
    Gegenbauer (n >= 3) recurrence; `state` carries the last two degrees."""
    lam = 0.5 * (n - 2)
    out = np.empty((size, u.shape[0]))
    for i, k in enumerate(range(k0, k0 + size)):
        if k == 0:
            base = np.ones(u.shape[0])
        elif k == 1:
            base = u.copy() if n == 2 else 2.0 * lam * u
        elif n == 2:
            base = 2.0 * u * state[0] - state[1]
        else:
            base = (2.0 * u * (k + lam - 1.0) * state[0] - (k + 2.0 * lam - 2.0) * state[1]) / k
        state[:] = [base, state[0]]
        out[i] = 1.0 if k == 0 else (2.0 * base if n == 2 else ((2.0 * k + n - 2.0) / (n - 2.0)) * base)
    return out


def streamed_reference(n, coeff, u, rho_sets, *, tol_rel=0.0, tol_abs=0.0, kmax=200_000, matmul=True):
    """The sum that streams the recurrence over every column up to the
    degree `certified_degree_reference` finds: the reference for the stop
    degree, the tails, the masses, the values and the error at the cap."""
    u = np.asarray(u, dtype=float)
    tails, masses, k_used = certified_degree_reference(
        n, coeff, rho_sets, tol_rel=tol_rel, tol_abs=tol_abs, kmax=kmax
    )
    with np.errstate(divide="ignore"):
        log_rhos = [np.log(np.maximum(r, 0.0)) for r in rho_sets]
    state = [None, None]
    if matmul:
        values = [np.zeros((r.shape[0], u.shape[0])) for r in rho_sets]
    else:
        values = [np.zeros(r.shape[0]) for r in rho_sets]
    for k0 in range(0, k_used + 1, 64):
        size = min(64, k_used + 1 - k0)
        q = recurrence_rows(n, u, k0, size, state)
        kf = np.arange(k0, k0 + size, dtype=float)
        log_c = coeff.log_values(n, kf)
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            for i, log_rho in enumerate(log_rhos):
                log_pow = np.where(kf[None, :] == 0.0, 0.0, kf[None, :] * log_rho[:, None])
                p = np.exp(log_c[None, :] + log_pow)
                values[i] += p @ q if matmul else np.einsum("mk,km->m", p, q)
    return values, tails, masses, k_used


def rule_sum_reference(n, coeff, x, radii, units, weighted, tol_rel):
    """The rule sum of the series at one point x as a full grid: the series
    cut at the degree K that `certified_degree_reference` finds, summed by
    `streamed_reference` on the grid radii x units, against `weighted`.
    Returns (value, mass, K): the weighted majorant mass of the series and
    its last degree (0 at the origin, where only the constant term is
    summed)."""
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return float(np.sum(weighted)), float(np.sum(np.abs(weighted))), 0
    u = np.clip(units @ (np.asarray(x) / norm), -1.0, 1.0)
    (values,), _, (mass,), k_used = streamed_reference(n, coeff, u, [radii * norm], tol_rel=tol_rel)
    return float(np.sum(values * weighted)), float(mass @ np.abs(weighted).sum(axis=1)), k_used

"""Coefficients and certified evaluation of the extended harmonic kernels.

The kernels R_alpha(x, y) = sum_k gamma_k(alpha) Z_k(x, y) on the unit ball
are defined for every real alpha by a two-branch coefficient formula; the
coefficients grow like k^(alpha+1).  This module computes the coefficients
(log domain, both branches), the coefficient ratios implementing the radial
differential operators, and truncated kernel sums with a rigorous tail bound
derived from |Z_k(x, y)| <= h_k (|x||y|)^k together with a certified bound on
the growth ratio of gamma_k h_k.

Series are summed adaptively and a `NonConvergent` error is raised when the
degree cap, the module constant KMAX_DEFAULT, is reached before the tail
bound certifies the requested accuracy (in particular for |x||y| = 1, where
the series need not converge).  Before any work, ValueError refuses
non-finite directions, poles, points and radii, negative radii, vectors
that are not of R^n, paired rows that are not one index into their radii
per direction, a product grid beside other grids, and NaN, infinite or
negative tolerances.

A series sum runs in two passes, for a batch of coefficients on one grid
(a single coefficient is the batch of one).  Z_k(x, pole) = (|x||pole|)^k
Q_k(u) depends on the direction only through u = <x/|x|, pole/|pole|>.
Pass 1 sums each coefficient's majorant c_k h_k rho^k degree block by
degree block until the tail bound certifies at a block's end, and then
fixes K, the smallest degree whose tail bound certifies every rho set,
without any angular work; K depends on the series alone, not on the blocks
or the batch.  Pass 1 returns all it computes that pass 2 reads, so its
result depends on its arguments alone (`_certified_degree`).  Pass 2 sums
the whole batch against one angular table up to the largest K, built over
the distinct u and gathered back to the directions, or over the directions
themselves when no u repeats.  The table's rows are Q_k / s_k
(`_angular_source`): 2 cos k theta from products of unit phases at n = 2,
P_k(u) with s_k = 2k+1 at n = 3, and the Gegenbauer recurrence at n >= 4.
Each term s_k c_k rho^k is formed per degree block as the radial factor
(rho/rho_max)^k, shared by the batch, times the coefficient factor s_k c_k
rho_max^k that pass 1 computed at the largest radius, and multiplied
against _TABLE_COLUMNS columns of the table at a time (`_angular_pass`).
The table is built over as many columns at a time as keep its held rows
(every degree at n = 3, one degree block otherwise), and a product of the
radii, within _TABLE_CHUNK_BYTES, and at least _TABLE_COLUMNS, so a call
holds its outputs and a few such pieces however deep its series goes.  A
coefficient whose series raises NonConvergent leaves the others of its
batch summed, and no value depends on the other coefficients of its batch
or on the other directions of its call.

Every degree block reads log c_k and log h_k from one held table
(`_LogTables`): series calls in a row mostly share their coefficients, and
each used to recompute both from degree 0.  The table of log h_k is kept
per dimension n and those of log c_k for the coefficients of the most
recent batch only, keyed by n and the `CoeffProduct`.  A table grows by the
degrees a request asks past the held ones, each computed by the
elementwise formula on exactly those degrees, so every value is bit for bit
a fresh `CoeffProduct.log_values` or `log_dim_spherical_harmonics`, and no
result depends on what the table held before; a request starting past the
held degrees is computed on its own.  A table holds fewer than twice the
largest degree end it kept, so the tables hold at most 16 (sum_c k_c +
sum_n k_n) bytes, with k_c that end for the batch's coefficient c and k_n
that of log h_k at n.

Grids, pairs and points are evaluated by one core, `_evaluate`, on grids
(rho, u, rows): the radii times |pole|, the cosines to the pole, and None
for the product grid rho x u or one radius row per direction for pairs,
each pair bit for bit its product grid's entry.  Product grids and pairs
reach it through one checked entry, `eval_coeff_series_grids`, which
takes the same grids with the radii and unit directions before the
pole's scaling (`check_grids`); a point is the one pair of its own 1 x 1
grid (`eval_coeff_series_points`).  At n = 2 the kernels and their
derivative fields have closed forms: with z = x conj(pole) the values
are 2 Re F(z) - 1, F = sum_k c_k z^k, and when c_k = P(k) gamma_k(q), P
a polynomial that the operator pairs of the coefficient contribute, F is
the Euler operator P(z d/dz) applied to the atom's generating function:
(1 - z)^-(2+q) on the upper branch, and -log(1 - z)/z for q = -2
(`_N2Form`).  The core uses a
form, with K = 0, on every grid whose radii pass its gate, where its
stated rounding bound meets the tolerance (`_n2_gate`), at the pairs alone
and with one geometry per call.  That bound is relative to the form's
mass, so a point's absolute tolerance, with tol_rel = 0, tries no form
and keeps the point on the series, as are the other coefficients
(non-integer or negative operator orders, other lower-branch atoms),
n >= 3 and rule sums.

Rule sums sum the series against a product sphere rule's weighted
values for a stack of points (`eval_coeff_series_rule_sum`).  Pass 1 fixes
each point's K as above.  The radial moments sum_i r_i^k weighted[i, j]
are built a chunk of degrees at a time, and by the addition theorem their
angular transform is shared by the points too: the DFT over the circle at
n = 2; at n = 3, the DFT over each ring's equispaced azimuths followed by
one associated-Legendre recurrence over the rings (`_AssociatedLegendre`).
A point then costs O(K) at n = 2 and O(K^2) at n = 3, not O(K M) over the
rule's M directions.  Past a degree K* read off the rule's shape
(`_shared_degree`), where the shared ring work, which grows as K^2, would
cost more, an n = 3 point sums its own grid series on the distinct
cosines of the rule's nodes (`_evaluate`) and weights it, the same finite
sum in another order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, legendre_p_all

from .errors import NonConvergent
from .special import check_dimension, log_dim_spherical_harmonics

__all__ = [
    "CoeffProduct",
    "KernelCoefficient",
    "KernelEval",
    "KMAX_DEFAULT",
    "gamma_coeff",
    "gamma_ratio",
    "kernel_eval",
    "kernel_growth_exponent_probe",
    "log_gamma_coeffs",
    "zonal_angular_table",
]

# Hard cap on the truncation degree of every series; beyond it evaluation is
# refused rather than returning an uncertified value.
KMAX_DEFAULT = 200_000

_PROBE_TOL = 1e-10  # relative tolerance of `kernel_growth_exponent_probe`

_BLOCK_MAX = 4096

# Largest angular table of pass 2 wider than _TABLE_COLUMNS, and largest
# product of the radii against such a table, in bytes; also the bound on a
# rule sum's moment and ring-spectrum chunks.
_TABLE_CHUNK_BYTES = 4 << 20

# Columns per product of pass 2, fixed so that every product has one
# shape: OpenBLAS picks its kernel by the shape, so a width set by the
# call would let a value depend in its last bits on the other directions of
# its call.  A table holds up to this many columns however deep its series,
# 8 (K+1) 8 bytes: 6.3 MB at K = 98 140.  Widths of 16 and 32 made the
# default distance experiment slower, and 4 pass 2 of inclusion-n3
# (BENCH_shared_legendre.json).
_TABLE_COLUMNS = 8

# Degrees per chunk of the radial moments of `eval_coeff_series_rule_sum`.
_MOMENT_ROWS = 64

# A point of an n = 3 rule sum sums its own grid series once its K_x passes
# K* = _SHARED_FACTOR * M / A for a rule of M nodes on A rings (M / A
# azimuths): the shared ring work grows as K^2 A and a grid series' as K M.
# K* was tuned against a streamed Gegenbauer recurrence per point, since
# deleted: on the identity battery's reproducing rule (241 azimuths, 121
# rings, K* = 2169), the shared path took one point at K = 2000 1.9x that
# recurrence's time and 40 points 0.37x (BENCH_smallest_degree.json).  The
# grid series is faster per point than the recurrence was: at K = 1774 one
# point took 0.59-0.68 s against 0.97-1.26 s streamed and 1.7-2.5 s on the
# shared path.  So a lone point below K* may now pay up to about 4x its
# grid series' time, while stacks still gain: 40 points at K <= 124 took
# 0.08-0.11 s shared against 0.88-1.17 s as 40 grids
# (BENCH_rule_sum_grid.json).
_SHARED_FACTOR = 9.0

# Seed scale of `_AssociatedLegendre`: its values are carried times
# 2^_SEED_EXP, so that sectoral seeds down to 2^-1982 stay normal numbers.
# That keeps the rows exact to rounding below degree 3734 on every ring;
# K* stays below _SEED_MAX_DEGREE.  On the identity battery's 121 rings,
# sum_m (2 - delta_m0) (y_k^m)^2 = 2k+1 held within 6e-13 up to k = 3500
# and failed first at k = 3725, on the ring with sin theta = 0.372.
_SEED_EXP = 960
_SEED_UNSCALE = 2.0**-_SEED_EXP
_SEED_MAX_DEGREE = 3000

# Rows of one e^{i k0 theta} e^{i j theta} piece of an n = 2 table.
_PIECE_ROWS = 512

# Multiple of eps in the rounding bound of the n = 2 closed form, in units
# of eps (1 + B (1 + |log|w||)) mass.  For plain kernels with b = 2 + alpha
# in [0.01, 20] (B = b; the b term is the rounding of w^-b), 4 000 points
# against 50-digit mpmath, with rho up to 1 - 2^-40 and u = +-1 and near 1,
# gave at most 2.10 in real arithmetic, exp(-b log|w|) cos(b arg w), and
# 2.12 for the complex power w**-b it replaced, both worst at b = 0.01; a
# second sweep of 4 000 points gave 2.05 for both.
# Against 40- to 50-digit mpmath the lifted fields gave at most 1.75
# (B = `_N2Form.order` up to 22, the family's fields below 1).
_CLOSED_FORM_ROUNDING = 4.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _is_upper_branch(n: int, alpha: float) -> bool:
    # the branch boundary alpha = -(1 + n/2) itself belongs to the lower branch
    return alpha > -(1.0 + 0.5 * n)


def log_gamma_coeffs(n: int, alpha: float, ks) -> np.ndarray:
    """log gamma_k(alpha), vectorized over degrees k >= 0.

    Upper branch (alpha > -(1+n/2)):  (1+n/2+alpha)_k / (n/2)_k.
    Lower branch (alpha <= -(1+n/2)): ((1)_k)^2 / ((1-(n/2+alpha))_k (n/2)_k).
    All Pochhammer arguments are positive on their branch, so everything is a
    difference of log-gamma values.
    """
    n = check_dimension(n)
    ks = np.asarray(ks, dtype=float)
    b = 0.5 * n
    if _is_upper_branch(n, alpha):
        a = 1.0 + 0.5 * n + alpha
        return (gammaln(a + ks) - gammaln(a)) - (gammaln(b + ks) - gammaln(b))
    c = 1.0 - (0.5 * n + alpha)
    one = gammaln(1.0 + ks)  # log (1)_k = log k!
    return 2.0 * one - (gammaln(c + ks) - gammaln(c)) - (gammaln(b + ks) - gammaln(b))


def _gamma_step_fractions(n: int, alpha: float) -> tuple[tuple[float, float], ...]:
    """gamma_{k+1}(alpha)/gamma_k(alpha) as a product of factors (k+a)/(k+b)."""
    if _is_upper_branch(n, alpha):
        return ((1.0 + 0.5 * n + alpha, 0.5 * n),)
    return ((1.0, 1.0 - (0.5 * n + alpha)), (1.0, 0.5 * n))


def _h_step_fractions(n: int) -> tuple[tuple[float, float], ...]:
    """h_{k+1}/h_k as a product of factors (k+a)/(k+b); valid for k >= 1."""
    return ((0.5 * n, 0.5 * n - 1.0), (float(n - 2), 1.0))


def _step_ratio_bound(fracs, k0: int) -> float:
    """Upper bound, valid for every k >= k0 >= 1, on prod (k+a)/(k+b).

    Each factor is monotone in k with limit 1, so it is bounded by
    max(1, value at k0); the bound does not grow with k0.
    """
    out = 1.0
    for a, b in fracs:
        v = (k0 + a) / (k0 + b)
        if v > 1.0:
            out *= v
    return out


@dataclass(frozen=True)
class CoeffProduct:
    """A coefficient sequence c_k = prod_i gamma_k(alpha_i)^{e_i}, e_i integer.

    Kernel atoms are the single-factor case; images under the radial
    differential operators append a (s+t, +1), (s, -1) pair.  The
    representation is closed under those operators and cancels exactly,
    which is what makes the kernel-shift identity exact.
    """

    factors: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        # an infinite order would pass the upper-branch test, a NaN order
        # would blame the degree cap
        if not all(math.isfinite(a) for a, _ in self.factors):
            raise ValueError(f"the orders in factors must be finite, got {self.factors}")

    @staticmethod
    def kernel(s: float) -> "CoeffProduct":
        return CoeffProduct(((float(s), 1),))

    def shifted(self, s: float, t: float) -> "CoeffProduct":
        """Coefficients after multiplying by gamma_k(s+t)/gamma_k(s)."""
        return CoeffProduct(self.factors + ((float(s + t), 1), (float(s), -1))).simplified()

    def simplified(self) -> "CoeffProduct":
        merged: dict[float, int] = {}
        for a, e in self.factors:
            merged[a] = merged.get(a, 0) + e
        kept = tuple(sorted((a, e) for a, e in merged.items() if e != 0))
        return CoeffProduct(kept)

    def single_kernel_parameter(self):
        """The alpha with c_k = gamma_k(alpha), if this is a plain kernel."""
        if len(self.factors) == 1 and self.factors[0][1] == 1:
            return self.factors[0][0]
        return None

    def log_values(self, n: int, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        out = np.zeros_like(ks)
        for a, e in self.factors:
            out = out + e * log_gamma_coeffs(n, a, ks)
        return out

    def step_fractions(self, n: int) -> tuple[tuple[float, float], ...]:
        fracs: list[tuple[float, float]] = []
        for a, e in self.factors:
            base = _gamma_step_fractions(n, a)
            for _ in range(abs(e)):
                if e > 0:
                    fracs.extend(base)
                else:
                    fracs.extend((q, p) for p, q in base)
        return tuple(fracs)


@dataclass(frozen=True)
class KernelCoefficient:
    """A single kernel coefficient gamma_k(alpha) (> 0 for all real alpha, k)."""

    alpha: float
    k: int
    value: float


def gamma_coeff(n: int, alpha: float, k: int) -> KernelCoefficient:
    """gamma_k(alpha), the degree-k coefficient of the extended kernel."""
    if k < 0 or k != int(k):
        raise ValueError("degree must be a nonnegative integer")
    value = float(np.exp(log_gamma_coeffs(n, alpha, np.array([float(k)]))[0]))
    return KernelCoefficient(float(alpha), int(k), value)


def gamma_ratio(n: int, s: float, t: float, k: int) -> float:
    """gamma_k(s+t)/gamma_k(s), the degree-k multiplier of the operator of
    order t based at s.  Computed in the log domain; behaves like k^t."""
    if k < 0 or k != int(k):
        raise ValueError("degree must be a nonnegative integer")
    if k == 0 or t == 0.0:
        return 1.0
    ks = np.array([float(k)])
    log_r = log_gamma_coeffs(n, s + t, ks) - log_gamma_coeffs(n, s, ks)
    return float(np.exp(log_r[0]))


class _DegreeTable:
    """Values v(k), k = 0, 1, ..., of one elementwise function of the degree,
    each computed once and served as read-only slices.

    A request for degrees k0 <= k < k_end grows the table by its degrees
    past the held ones, computed by v on exactly those degrees, so every
    served value is bit for bit what v gives on any array holding its
    degree.  A request that starts past the held degrees is computed on its
    own and not kept, so the table holds only degrees that requests asked
    for.  The buffer at least doubles when it grows, so it holds fewer than
    2 k_end values for the largest k_end of a kept request.  The buffer and
    its filled length are replaced together, so a reader never sees an
    unfilled degree."""

    def __init__(self, values_of):
        self._values_of = values_of
        self._state = (np.empty(0), 0)  # (buffer, degrees filled)

    @property
    def nbytes(self) -> int:
        return self._state[0].nbytes

    def block(self, k0: int, k_end: int) -> np.ndarray:
        buf, filled = self._state
        if k0 > filled:
            out = self._values_of(np.arange(k0, k_end, dtype=float))
        else:
            if k_end > filled:
                if k_end > buf.shape[0]:
                    grown = np.empty(max(k_end, 2 * buf.shape[0]))
                    grown[:filled] = buf[:filled]
                    buf = grown
                buf[filled:k_end] = self._values_of(np.arange(filled, k_end, dtype=float))
                self._state = (buf, k_end)
            out = buf[k0:k_end]
        out.flags.writeable = False
        return out


class _LogTables:
    """The log-coefficient tables every degree block reads: log h_k for each
    dimension n asked, and log c_k for the coefficients of the most recent
    batch only.

    A batch is the coefficients one series call sums (`hold`); a lookup
    of a coefficient outside the batch makes it a batch of one.  Series
    calls in a row mostly share their batch, and one table per coefficient
    ever asked would hold every deep walk's degrees; keeping only the
    latest batch bounds the held bytes by 16 (sum_c k_c + sum_n k_n), with
    k_c the largest degree end of a kept request of the batch's coefficient
    c and k_n that of log h_k at n.  On the n = 3 inclusion benchmark the
    108 series calls are 12 shells of one batch of 9 coefficients."""

    def __init__(self):
        self._dims: dict[int, _DegreeTable] = {}
        self._coeffs: dict[tuple, _DegreeTable] = {}  # (n, c) -> its table

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in (*self._dims.values(), *self._coeffs.values()))

    def hold(self, n: int, coeffs) -> None:
        """Make the (n, c), c in `coeffs`, the batch: keep their tables and
        drop every other coefficient's."""
        held = self._coeffs
        self._coeffs = {
            (n, c): held.get((n, c)) or _DegreeTable(lambda ks, c=c: c.log_values(n, ks))
            for c in coeffs
        }

    def coeffs(self, n: int, coeff: CoeffProduct) -> _DegreeTable:
        if (n, coeff) not in self._coeffs:
            self.hold(n, [coeff])
        return self._coeffs[(n, coeff)]

    def dims(self, n: int) -> _DegreeTable:
        table = self._dims.get(n)
        if table is None:
            table = self._dims[n] = _DegreeTable(lambda ks: log_dim_spherical_harmonics(n, ks))
        return table


_LOG_TABLES = _LogTables()


def log_coeff_block(n: int, coeff: CoeffProduct, k0: int, k_end: int) -> np.ndarray:
    """log c_k for k0 <= k < k_end, read-only, bit for bit
    `coeff.log_values(n, ks)`; served from the held table (`_LogTables`)."""
    return _LOG_TABLES.coeffs(n, coeff).block(k0, k_end)


def log_dim_block(n: int, k0: int, k_end: int) -> np.ndarray:
    """log h_k for k0 <= k < k_end, read-only, bit for bit
    `log_dim_spherical_harmonics(n, ks)`; served from the held table."""
    return _LOG_TABLES.dims(n).block(k0, k_end)


class _ZonalAngular:
    """Streams the angular factors Q_k(u) with Z_k(x, y) = (|x||y|)^k Q_k(u)
    at n >= 3 by the Gegenbauer recurrence with lambda = (n-2)/2.

    Each degree is one in-place step on three rolling buffers, which
    `block` copies out row by row.
    """

    def __init__(self, n: int, u: np.ndarray):
        self.n = n
        self._two_u = 2.0 * np.asarray(u, dtype=float)
        self.k = 0
        m = self._two_u.shape[0]
        self._p1 = np.empty(m)  # degree k-1 base polynomial
        self._p2 = np.empty(m)  # degree k-2
        self._free = np.empty(m)  # receives degree k

    def block(self, k0: int, size: int) -> np.ndarray:
        """Rows k0 <= k < k0 + size of Q, shape (size, len(u)); the rows
        stream, so k0 is where the previous block ended."""
        if k0 != self.k:
            raise ValueError(f"the recurrence is at degree {self.k}, not {k0}")
        n, lam = self.n, 0.5 * (self.n - 2)
        out = np.empty((size, self._two_u.shape[0]))
        for row in out:
            k, base = self.k, self._free
            if k == 0:
                base.fill(1.0)
            elif k == 1:
                # 2 lam u, exactly
                np.multiply(lam, self._two_u, out=base)
            else:
                # (2 u (k+lam-1) p1 - (k+2lam-2) p2) / k, in this operation
                # order; p2 is free after this step
                np.multiply(self._two_u, k + lam - 1.0, out=base)
                base *= self._p1
                self._p2 *= k + 2.0 * lam - 2.0
                base -= self._p2
                base /= k
            self._free, self._p2, self._p1 = self._p2, self._p1, base
            self.k += 1
            # Q_k = (2k + n - 2) / (n - 2) times the base polynomial, Q_0 = 1
            np.multiply(1.0 if k == 0 else (2.0 * k + n - 2.0) / (n - 2.0), base, out=row)
        return out


def _unit_phases(ks: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """e^{i k theta}, shape (len(ks), len(theta))."""
    return np.exp(1j * (ks[:, None] * theta[None, :]))


def _circle_rows(u: np.ndarray, k_end: int):
    """rows(k0, size): rows k0 <= k < k0 + size <= k_end of Q_k(u) = 2 cos
    k theta (DLMF 18.5), Q_0 = 1, the n = 2 table, shape (size, len(u)),
    for any degree block, with no recurrence.

    Row k0 + s + j is 2 Re(e^{i (k0+s) theta} e^{i j theta}) over pieces
    of _PIECE_ROWS rows from k0, so a row costs one complex product per
    entry.  The fine phases e^{i j theta}, j < min(k_end, _PIECE_ROWS), are
    built only as far as the pieces read them, each e^{i a theta} e^{i b
    theta} from two tables of at most about sqrt(_PIECE_ROWS) phases, a a
    multiple of the second table's length.  Phase 0 is 1 and needs no
    table, so a one-row block, such as the one degree of a zonal term, is
    2 Re e^{i k0 theta} - 0 Im e^{i k0 theta} from its coarse phase alone.
    Neither the pieces nor the phases of a row depend on the other cosines,
    on the blocks read before or, from k0, on size or k_end; the phases
    take at most twice the bytes of a block of _PIECE_ROWS rows."""
    theta = np.arccos(u)
    cols = theta.shape[0]
    span = min(k_end, _PIECE_ROWS)
    step = math.isqrt(_PIECE_ROWS - 1) + 1
    # 2 Re and 2 Im of the fine phases, rows below `built` filled
    fine_re, fine_im = np.empty((span, cols)), np.empty((span, cols))
    fine_re[:1], fine_im[:1] = 2.0, 0.0
    built = 1

    def phases(m: int) -> tuple[np.ndarray, np.ndarray]:
        """The first m rows of fine_re and fine_im, filled on demand."""
        nonlocal built
        if m > built:
            a0 = built - built % step
            fine = (
                _unit_phases(np.arange(float(a0), m, step), theta)[:, None, :]
                * _unit_phases(np.arange(float(min(step, m))), theta)[None, :, :]
            ).reshape(-1, cols)[built - a0 : m - a0]
            np.multiply(2.0, fine.real, out=fine_re[built:m])
            np.multiply(2.0, fine.imag, out=fine_im[built:m])
            built = m
        return fine_re[:m], fine_im[:m]

    def rows(k0: int, size: int) -> np.ndarray:
        out = np.empty((size, cols))
        # e^{i (k0+s) theta} at the start s of each piece
        coarse = np.exp(1j * (np.arange(k0, k0 + size, _PIECE_ROWS)[:, None] * theta[None, :]))
        for s, start in zip(range(0, size, _PIECE_ROWS), coarse):
            piece = out[s : s + _PIECE_ROWS]
            re, im = phases(piece.shape[0])
            np.multiply(re, start.real, out=piece)
            piece -= im * start.imag
        if k0 == 0 and size:
            out[0] = 1.0
        return out

    return rows


def _legendre_table(u: np.ndarray, k_end: int) -> np.ndarray:
    """P_k(u) for 0 <= k < k_end, shape (k_end, len(u)), from scipy's
    `legendre_p_all` (DLMF 18.9).  Its recurrence drifts at u = +-1 (by
    1.4e-9 at k = 98 239), where P_k(u) = u^k exactly, so those columns are
    set to u^k."""
    out = legendre_p_all(k_end - 1, u)[0]
    ends = np.abs(u) == 1.0
    if ends.any():
        out[:, ends] = u[ends][None, :] ** np.arange(k_end, dtype=float)[:, None]
    return out


def _angular_source(n: int, u: np.ndarray, k_end: int):
    """rows(k0, size): rows k0 <= k < k0 + size <= k_end of the angular
    table over the cosines u, shape (size, len(u)), asked in degree order;
    each row is Q_k(u) / s_k (`_table_scale`).  The one source of pass 2
    and of `zonal_angular_table`.
    - n = 2: Q_k = 2 cos k theta and Q_0 = 1, from products of unit phases
      (`_circle_rows`), so any degree block costs one complex product per
      entry.
    - n = 3: P_k(u), slices of one `_legendre_table` up to k_end, which
      computes every degree from 0.
    - n >= 4: Q_k(u) by the Gegenbauer recurrence of `_ZonalAngular`,
      stepped from degree 0 block by block.
    """
    if n == 2:
        return _circle_rows(u, k_end)
    if n == 3:
        table = _legendre_table(u, k_end)
        return lambda k0, size: table[k0 : k0 + size]
    return _ZonalAngular(n, u).block


def _table_scale(n: int, k0: int, size: int) -> np.ndarray:
    """s_k for k0 <= k < k0 + size, Q_k = s_k times the rows of
    `_angular_source`: 2k+1 at n = 3, 1 otherwise."""
    if n == 3:
        return 2.0 * np.arange(k0, k0 + size, dtype=float) + 1.0
    return np.ones(size)


def zonal_angular_table(n: int, u, k0: int, size: int) -> np.ndarray:
    """The angular factors Q_k(u) for k0 <= k < k0 + size, shape (size, len(u)).

    Z_k(x, y) = (|x||y|)^k Q_k(u), with u the cosine of the angle between x
    and y and |Q_k| <= h_k.  The rows of `_angular_source`, which pass 2
    sums against, times s_k: at n = 2 any degree block costs one complex
    product per entry, and a block of one degree d, as a zonal term of
    `calculus` asks for, is 2 Re e^{i d theta} off its one coarse phase
    (`_circle_rows`); at n >= 3 every degree from 0 is computed, so callers
    ask from k0 = 0.
    """
    u = np.asarray(u, dtype=float)
    rows = _angular_source(n, u, k0 + size)
    if n > 3:
        rows(0, k0)  # the recurrence steps from degree 0
    out = rows(k0, size)
    if n == 3:
        out *= _table_scale(n, k0, size)[:, None]
    return out


def _degree_blocks(kmax: int):
    """(k0, size) of the summation blocks: 64 rows, doubling to _BLOCK_MAX,
    the last one ending at kmax."""
    k0, block = 0, 64
    while k0 <= kmax:
        size = min(block, kmax - k0 + 1)
        yield k0, size
        k0 += size
        block = min(2 * block, _BLOCK_MAX)


def _powers(log_c: np.ndarray, kf: np.ndarray, log_rho: np.ndarray) -> np.ndarray:
    """c_k rho^k = exp(log c_k + k log rho), shape (len(rho), len(k)), with
    the k = 0 convention 0 * log(0) = 0.  Built in one buffer; each entry
    takes the same two roundings and the same exp as the formula."""
    out = np.multiply.outer(log_rho, kf)
    out[:, kf == 0.0] = 0.0
    out += log_c
    return np.exp(out, out=out)


def _log_radii(rho: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(rho, 0.0))


def _angular_pass(n: int, cols: np.ndarray, rho: np.ndarray, terms) -> None:
    """Pass 2 for a batch of coefficients on one grid: add each
    coefficient's terms of degrees 0..K to its acc (radii x cols).

    `terms` holds (acc, factors) per coefficient, its factors s_k c_k
    rho_ref^k (`_table_scale`), rho_ref the largest radius, one per degree
    block of `_degree_blocks`, the last one cut at K.  The degree-k row of
    a coefficient is the radial factor (rho/rho_ref)^k, shared by the
    batch, times its factor; the factor is at most c_k h_k rho_ref^k, a
    term of the majorant that pass 1 summed to a finite mass, so it does
    not overflow where c_k alone would.  The radial factor of a degree
    block is (rho/rho_ref)^j (rho/rho_ref)^k0, j below the block size: the
    block's rows carry the first part and its product is scaled by the
    second, so no radial factor is held at radii x K.  One table of
    `_angular_source` up to the largest K serves every coefficient, read
    block by block over as many columns at a time as keep the rows it
    holds (every degree at n = 3, one degree block otherwise) and a
    product of the radii within _TABLE_CHUNK_BYTES, at least
    _TABLE_COLUMNS.  Each coefficient's rows are cut at its K and
    multiplied against each chunk of _TABLE_COLUMNS columns of the table.
    Where the columns take several passes, a block's rows are formed once
    and kept for the later passes if the batch's rows take no more bytes
    than the held table rows, and formed again per pass otherwise.  The
    chunk width is fixed, and the columns past the last whole chunk are
    copied per degree block into a chunk padded with zeros, so every
    product has the shape that the degree block and K give, no table row
    is computed for the padding, and a value does not depend on the other
    directions of its call or on the other coefficients of its batch."""
    rho_ref = float(rho.max())
    with np.errstate(divide="ignore"):
        # all radii 0: the radial factors are 1 and the coefficient factors 0^k
        log_ratio = _log_radii(rho) - math.log(rho_ref) if rho_ref > 0.0 else np.zeros(rho.shape[0])
    k_end = max(sum(f.shape[0] for f in factors) for _, factors in terms)
    blocks = list(_degree_blocks(k_end - 1))
    k0s = np.array([k0 for k0, _ in blocks], dtype=float)
    span = max(size for _, size in blocks)
    with np.errstate(under="ignore", invalid="ignore"):
        steps = _powers(np.zeros(span), np.arange(span, dtype=float), log_ratio)
        starts = _powers(np.zeros(k0s.shape[0]), k0s, log_ratio)
    # the rows a table holds at once: every degree at n = 3, whose Legendre
    # table is computed from degree 0, one degree block otherwise
    held_rows = k_end if n == 3 else span
    # columns per table, a multiple of _TABLE_COLUMNS: as many as keep the
    # held rows and a product of the radii within _TABLE_CHUNK_BYTES, at
    # least one chunk
    width = _TABLE_COLUMNS * max(
        1, _TABLE_CHUNK_BYTES // (8 * max(held_rows, rho.shape[0]) * _TABLE_COLUMNS)
    )
    # each coefficient's rows of a degree block, kept for the later tables
    # when there are several and the batch's rows take no more bytes than
    # the held table rows: forming them once per table cost as much as the
    # products in calls of one coefficient over many tables
    rows_bytes = 8 * rho.shape[0] * sum(f.shape[0] for _, factors in terms for f in factors)
    held = {} if cols.shape[0] > width and rows_bytes <= 8 * held_rows * width else None

    def add_block(t0: int, b: int, rows: np.ndarray) -> None:
        """Add degree block b, its rows over the columns from t0."""
        size, w = rows.shape
        whole = w - w % _TABLE_COLUMNS
        if whole < w:
            # the last columns, padded with zeros to a whole chunk
            rest = np.zeros((size, _TABLE_COLUMNS))
            rest[:, : w - whole] = rows[:, whole:]
        for c, (acc, factors) in enumerate(terms):
            if b >= len(factors):
                continue
            cut = factors[b].shape[0]
            lhs = held.get((c, b)) if held is not None else None
            if lhs is None:
                lhs = steps[:, :cut] * factors[b]
                if held is not None:
                    held[(c, b)] = lhs
            if whole:
                # one product per chunk of _TABLE_COLUMNS columns, written
                # as (radius, chunk, column), so that the block adds to acc
                # with no copy
                chunks = rows[:cut, :whole].reshape(cut, -1, _TABLE_COLUMNS)
                block = np.empty((rho.shape[0], chunks.shape[1], _TABLE_COLUMNS))
                np.matmul(lhs, chunks.transpose(1, 0, 2), out=block.transpose(1, 0, 2))
                block *= starts[:, b : b + 1, None]
                acc[:, t0 : t0 + whole] += block.reshape(rho.shape[0], whole)
            if whole < w:
                block = lhs @ rest[:cut]
                block *= starts[:, b : b + 1]
                acc[:, t0 + whole : t0 + w] += block[:, : w - whole]

    for t0 in range(0, cols.shape[0], width):
        # each table, and each block's rows, are released before the next
        # are built
        rows_of = _angular_source(n, cols[t0 : t0 + width], k_end)
        for b, (k0, size) in enumerate(blocks):
            add_block(t0, b, rows_of(k0, size))
        del rows_of


def _stack(rho_sets: list[np.ndarray]) -> tuple[np.ndarray, list[slice]]:
    """The rho sets stacked into one radius vector, and where each set sits;
    a lone set is its own stack, with no copy."""
    if len(rho_sets) == 1:
        return rho_sets[0], [slice(0, rho_sets[0].shape[0])]
    ends = np.cumsum([0] + [r.shape[0] for r in rho_sets])
    return np.concatenate(rho_sets), [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


def _certified_degree(
    n: int,
    coeff: CoeffProduct,
    rho: np.ndarray,
    sets: list[slice],
    *,
    tol_abs: float,
    tol_rel: float,
):
    """Pass 1 of a series sum: K, the smallest degree k >= 1 whose tail
    bound certifies every rho set, and pass 2's coefficient factors.

    The tail bound past degree k is H_(k+1) / (1 - rho ratio), H_k = c_k
    h_k rho^k and ratio `_step_ratio_bound` at k+1, and it certifies when
    it meets tol_abs + tol_rel mass, the mass summed up to k.  Walks the
    degree blocks (64 rows, doubling to _BLOCK_MAX) up to KMAX_DEFAULT on
    the majorant and tests the bound at each block's end.  The ratio bounds
    H_(k+1) / H_k for every later k and does not grow with k, so once the bound
    certifies at k it certifies at every later degree: the first block
    whose end certifies holds K, and K does not depend on the blocks.  The
    masses are summed one degree at a time for the same reason.  `rho` is
    the rho sets stacked (`_stack`) and `sets` their slices.  Returns
    (tails, masses, K, factors): one tail and one mass vector per set, and
    per degree block the factors s_k c_k rho_max^k of pass 2
    (`_angular_pass`, `_table_scale`), off the block's c_k rho^k at the
    largest radius, the last block cut at K; no factors when rho is empty.
    The result depends on the arguments alone, not on the held log tables.
    """
    rho_max = float(rho.max()) if rho.size else 0.0
    if rho_max >= 1.0:
        raise NonConvergent(f"series evaluated at |x||y| = {rho_max} >= 1")

    log_rho = _log_radii(rho)
    fracs = coeff.step_fractions(n) + _h_step_fractions(n)
    ref = int(np.argmax(rho)) if rho.size else None  # the largest radius
    mass = np.zeros(rho.shape[0])
    factors = []

    for k0, size in _degree_blocks(KMAX_DEFAULT):
        # one degree past the block: log c_k h_k there heads the tail bound
        kf = np.arange(k0, k0 + size + 1, dtype=float)
        log_c = log_coeff_block(n, coeff, k0, k0 + size + 1)
        log_h = log_dim_block(n, k0, k0 + size + 1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            p = _powers(log_c[:size], kf[:size], log_rho)  # c_k rho^k, (radii, B)
            # the mass up to each degree of the block, (radii, B)
            masses = p * np.exp(log_h[:size])
            masses[:, 0] += mass
            np.cumsum(masses, axis=1, out=masses)
        mass = masses[:, -1].copy()
        if not np.all(np.isfinite(mass)):
            # an infinite mass would meet any relative tolerance
            raise NonConvergent(
                f"series majorant overflows by degree {k0 + size - 1} "
                f"(worst |x||y| = {rho_max})"
            )

        def tail(k):
            """The tail bound past degree k of the block, per radius."""
            k1 = k + 1
            geo = rho * _step_ratio_bound(fracs, k1)
            log_first = float(log_c[k1 - k0]) + float(log_h[k1 - k0])
            with np.errstate(over="ignore", under="ignore"):
                head = np.exp(log_first + k1 * log_rho)
                return np.where(geo < 1.0, head / np.maximum(1.0 - geo, 1e-300), np.inf)

        k_used = k0 + size - 1
        t = tail(k_used) if k_used >= 1 else None
        if t is None or not np.all(t <= tol_abs + tol_rel * mass):
            # released before the next block's, which raised the peak RSS
            # of the n = 3 inclusion experiment by 0.9 MB
            del masses
            if ref is not None:
                factors.append(p[ref] * _table_scale(n, k0, size))
            continue
        # the smallest degree of the block that certifies: the first degree
        # that certifies one radius (`_first_certified`, the largest radius
        # first), checked on every radius by `tail` itself; a radius that
        # fails there certifies only later, so the search goes on past that
        # degree on that radius
        row, k_lo = ref, max(k0, 1)
        while k_lo < k_used:
            k = k_lo if row is None else _first_certified(
                rho[row], log_rho[row], fracs, log_c + log_h, masses[row], k0, k_lo, k_used,
                tol_abs, tol_rel,
            )
            t_k = tail(k)
            fails = ~(t_k <= tol_abs + tol_rel * masses[:, k - k0])
            if not fails.any():
                k_used, t = k, t_k
                break
            row, k_lo = int(np.argmax(fails)), k + 1
        if ref is not None:
            factors.append(p[ref, : k_used - k0 + 1] * _table_scale(n, k0, k_used - k0 + 1))
        m = masses[:, k_used - k0]
        return [t[sl] for sl in sets], [m[sl].copy() for sl in sets], k_used, factors
    raise NonConvergent(
        f"series not certified within {KMAX_DEFAULT} terms (worst |x||y| = {rho_max})"
    )


def _first_certified(rho, log_rho, fracs, log_ch, masses, k0, k_lo, k_end, tol_abs, tol_rel):
    """The first degree k_lo <= k < k_end of a block starting at k0 whose
    tail bound meets its tolerance at the one radius rho, or k_end: the
    formula of `tail` in `_certified_degree`, on all those degrees at once.
    `log_ch` holds log c_k h_k and `masses` the mass at rho up to each
    degree, both from degree k0 on."""
    k1 = np.arange(k_lo + 1, k_end + 1)
    kf = k1.astype(float)
    ratio = np.ones(kf.shape)  # `_step_ratio_bound` at each k1
    for a, b in fracs:
        v = (kf + a) / (kf + b)
        ratio = np.where(v > 1.0, ratio * v, ratio)
    geo = rho * ratio
    with np.errstate(over="ignore", under="ignore"):
        head = np.exp(log_rho * kf + log_ch[k1 - k0])
        tails = np.where(geo < 1.0, head / np.maximum(1.0 - geo, 1e-300), np.inf)
    ok = tails <= tol_abs + tol_rel * masses[k_lo - k0 : k_end - k0]
    return k_lo + int(np.argmax(ok)) if ok.any() else k_end


def _series_sums(
    n: int,
    coeffs,
    u: np.ndarray,
    rho_sets: list[np.ndarray],
    *,
    tol_abs: float = 0.0,
    tol_rel: float = 0.0,
) -> list:
    """Sum sum_k c_k rho^k Q_k(u) with a certified truncation-error bound,
    for each coefficient c of `coeffs` on one grid.

    Each rho set is a radius vector and its values are the full
    (len(rho), len(u)) product grid.  Returns, per coefficient, (values,
    tails, masses, K) where `masses` are the majorant sums sum c_k h_k
    rho^k used for relative tolerances and K, the last degree included, is
    the smallest degree whose tail bound certifies every set; or the
    NonConvergent that its series raised, which leaves the others summed.

    Pass 1 (`_certified_degree`) fixes each coefficient's K on the
    majorant and returns its pass-2 factors.  Pass 2 (`_angular_pass`) then
    sums the whole batch against one angular table (`_angular_source`) up
    to the largest K, at every n, over the cosines u as given: a caller
    whose cosines repeat passes the distinct ones (`_distinct`).  Each
    coefficient's rows are formed per degree block from a radial factor
    shared by the batch and the coefficient's own factors s_k c_k
    rho_max^k, which pass 1 returns off its blocks at the largest radius,
    so no c_k rho^k is computed twice.  All rho sets share each product.
    Beyond the outputs a call holds those factors, K + 1 values per
    coefficient, the radial factors of one degree block, the held rows of
    the table and a product of the radii against them, each of at most
    max(_TABLE_CHUNK_BYTES, 8 (K+1) _TABLE_COLUMNS, 8 len(rho)
    _TABLE_COLUMNS) bytes, rows of no more bytes than the held table rows
    and, at n = 2, the phases of `_circle_rows`, at most _PIECE_ROWS
    complex values per column.  A coefficient's results do not depend on
    the others of its batch, and a value does not depend on the other
    cosines of the call.
    """
    u = np.asarray(u, dtype=float)
    rho, sets = _stack([np.asarray(r, dtype=float) for r in rho_sets])
    accs = [np.zeros((rho.shape[0], u.shape[0])) for _ in coeffs]
    _LOG_TABLES.hold(n, coeffs)

    results, terms = [], []
    for coeff, acc in zip(coeffs, accs):
        try:
            tails, masses, k_used, factors = _certified_degree(
                n, coeff, rho, sets, tol_abs=tol_abs, tol_rel=tol_rel
            )
        except NonConvergent as exc:
            results.append(exc)
            continue
        if factors:
            terms.append((acc, factors))
        results.append(([acc[sl] for sl in sets], tails, masses, k_used))
    if terms:
        _angular_pass(n, u, rho, terms)
    return results


def _require_tolerances(**tols: float) -> None:
    """Refuse NaN, infinite and negative tolerances, and all zero, before
    any series work: NaN runs to the cap and inf certifies at degree 1."""
    for name, tol in tols.items():
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"the tolerance {name} must be finite and >= 0, got {tol!r}")
    if not any(tol > 0.0 for tol in tols.values()):
        raise ValueError(f"a positive tolerance {' or '.join(tols)} is required")


def _unit_and_norm(p: np.ndarray) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        return np.zeros_like(p), 0.0
    return p / norm, norm


def _vectors(name: str, n: int, a) -> np.ndarray:
    """`a` as an (m, n) array, refused unless it holds finite vectors of
    R^n: a NaN would give NaN values, and another width a cosine that is
    not its own."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != n or not np.isfinite(a).all():
        raise ValueError(f"{name} must hold finite vectors of R^{n}, got an array of shape {a.shape}")
    return a


def _radii(radii) -> np.ndarray:
    """`radii` as a vector, refused unless finite and >= 0: a NaN radius
    would never certify, and the series would read a negative one as 0."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not ((radii >= 0.0) & (radii < np.inf)).all():
        raise ValueError("radii must be a 1-d array of finite values >= 0")
    return radii


def check_grids(n: int, grids) -> list:
    """`grids` as a list of grids (radii, units, rows) of arrays, refused
    unless each holds radii >= 0 (`_radii`), vectors of R^n as its units
    (`_vectors`) and as rows either None, for the product grid radii x
    units, then the only grid of the list, or one index into the radii per
    direction, for pairs: an index of -1 would read the last radius, and
    too few rows would give too few values."""
    checked = []
    for radii, units, rows in grids:
        radii, units = _radii(radii), _vectors("units", n, units)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.shape != units.shape[:1] or (rows.size and (rows.min() < 0 or rows.max() >= radii.shape[0])):
                raise ValueError(f"rows must hold one index in [0, {radii.shape[0]}) per direction")
        checked.append((radii, units, rows))
    if len(checked) > 1 and any(rows is None for _, _, rows in checked):
        raise ValueError("a product grid (rows None) must be the only grid of its call")
    return checked


def _n2_lift(coeff: CoeffProduct):
    """(q, offsets) with c_k = gamma_k(q) prod_i (k + c_i) / c_i at n = 2, or
    None.

    Each (s, -1) factor pairs with an (s + t, +1) factor, t a positive
    integer and both orders on the upper branch; the pair is
    gamma_k(s+t) / gamma_k(s) = (2+s+k)_t / (2+s)_t, the offsets
    2 + s, ..., 2 + s + t - 1.  Exactly one (q, +1) factor is left over.
    """
    ups = sorted(a for a, e in coeff.factors for _ in range(e))
    offsets = []
    for s in sorted(a for a, e in coeff.factors for _ in range(-e)):
        top = next((a for a in ups if a > s and float(a - s).is_integer()), None)
        if top is None or not _is_upper_branch(2, s):
            return None
        ups.remove(top)
        offsets.extend(2.0 + s + i for i in range(int(top - s)))
    if len(ups) != 1:
        return None
    return ups[0], offsets


def _factorial_basis(offsets, step):
    """The coefficients a_j of prod_i (k + c_i) / c_i in a factorial basis
    phi_j with (k + c) phi_j = phi_{j+1} + step(c, j) phi_j; None if some
    step(c, j) is negative, so every coefficient is a sum of nonnegative
    products."""
    a = [1.0]
    for c in sorted(offsets):
        steps = [step(c, j) for j in range(len(a))]
        if min(steps) < 0.0:
            return None
        a = [
            (steps[j] * a[j] if j < len(a) else 0.0) / c + (a[j - 1] / c if j else 0.0)
            for j in range(len(a) + 1)
        ]
    return a


@dataclass(frozen=True)
class _N2Form:
    """F(z) = sum_k c_k z^k at n = 2 for c_k = P(k) gamma_k(q), with P =
    prod_i (k + c_i) / c_i of degree d; the grid values are 2 Re F - 1.

    F = P(z d/dz) G_q with G_q = sum_k gamma_k(q) z^k, w = 1 - z:
    - upper branch, b = 2 + q > 0: G_q = w^-b.  With P(k) = sum_j p_j k(k-1)
      ...(k-j+1), F = w^-b sum_j p_j (b)_j (z/w)^j; `coefs` are p_j (b)_j.
    - q = -2 (c = 2 on the lower branch): gamma_k = 1/(k+1), G_q = -log(w)/z.
      With P(k) = sum_j r_j (k+1)_j, P(k) = r_0 + (k+1) Q(k) and Q(k) =
      sum_j q_j (k+1)_j, q_j = sum_{i >= j} r_{i+1} i!/j!, so F = sum_j
      q_j j! w^-(j+1) + r_0 (-log w)/z; `coefs` are q_j j! and `log_coef`
      is r_0 = P(-1).
    Every coefficient is >= 0, so the sum of |terms| at z is at most F(|z|)
    and the rounding bound is relative to the majorant mass 2 F(rho) - 1.
    """

    lower: bool
    b: float
    coefs: tuple[float, ...]
    log_coef: float = 0.0

    @staticmethod
    def of(coeff: CoeffProduct) -> "_N2Form | None":
        lift = _n2_lift(coeff)
        if lift is None:
            return None
        q, offsets = lift
        if _is_upper_branch(2, q):
            b = 2.0 + q
            p = _factorial_basis(offsets, lambda c, j: c + j)
            coefs = tuple(pj * math.prod(b + i for i in range(j)) for j, pj in enumerate(p))
            return _N2Form(False, b, coefs)
        if q != -2.0:
            return None
        r = _factorial_basis(offsets, lambda c, j: c - 1.0 - j)
        if r is None:
            return None
        coefs = [
            math.fsum(r[i + 1] * math.factorial(i) for i in range(j, len(r) - 1))
            for j in range(len(r) - 1)
        ]
        return _N2Form(True, 0.0, tuple(coefs), r[0])

    @property
    def order(self) -> float:
        """B of the rounding bound: b + d, or d + 1 at q = -2, where the
        logarithm counts as one power of 1/w."""
        if self.lower:
            return len(self.coefs) + 1.0
        return self.b + (len(self.coefs) - 1)

    @property
    def plain(self) -> bool:
        """P = 1 on the upper branch: F = w^-b reads neither z nor w."""
        return not self.lower and len(self.coefs) == 1

    def __call__(self, z, w, log_abs, arg):
        """Re F at z, given w = 1 - z, log |w| and arg w.

        The upper forms take w^-b = exp(-b log|w|) e^{-i b arg w} on the
        principal branch (DLMF 4.2), in real arithmetic, for every b: the
        plain form is exp(-b log|w|) cos(b arg w) and reads neither z nor
        w.  The others read z / w, or 1 / w and log w = log|w| + i arg w
        at q = -2 (real or complex arrays).  There -log(w) / z is taken
        as its z -> 0 limit 1 wherever |z| is below the smallest normal
        double: the division overflows at a subnormal z, and the limit is
        exact to rounding, the next term being z / 2."""
        if not self.lower:
            mag = np.exp(-self.b * log_abs)
            phase = self.b * arg
            if self.plain:
                return mag * np.cos(phase)
        y = 1.0 / w if self.lower else z / w
        poly = self.coefs[-1] if self.coefs else 0.0
        for c in self.coefs[-2::-1]:
            poly = poly * y + c
        if not self.lower:
            # Re((cos - i sin)(b arg w) poly)
            return mag * (np.cos(phase) * np.real(poly) + np.sin(phase) * np.imag(poly))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(np.abs(z) < _TINY, 1.0, -(log_abs + 1j * arg) / z)
        return np.real(y * poly + self.log_coef * log_term)


class _N2Geometry:
    """w = 1 - z at the points of one evaluation at n = 2, formed once for
    every closed form of the evaluation (`_evaluate`).

    z = rho e^{i theta} with cos theta = u, and 1 - z is formed without
    cancellation as w = (1 - rho) + rho (1 - u) - i rho sqrt((1 - u)(1 + u));
    the sign of Im w does not change Re F.  `rho` and `u` broadcast to the
    points: a column of radii and a row of cosines for a grid, or one radius
    per cosine for pairs; the radii lie in [0, 1).  Every part is
    elementwise in its radius and cosine, so a point gets the same value
    on a grid and as a pair.  `parts` forms sin theta, Re w, Im w, log |w|
    and arg w on first use, in real arithmetic: log |w| is log1p(gap) / 2
    with gap = rho (rho - 2u) = |w|^2 - 1 where gap > -1/2 and log(Re^2 +
    Im^2) / 2 below, and arg w is atan2.  `complex` forms z and w as
    complex arrays on first use, for the forms with P != 1.  An evaluation
    whose forms all fail their gates forms neither.
    """

    def __init__(self, rho: np.ndarray, u: np.ndarray):
        self.rho, self.u = rho, u

    @functools.cached_property
    def parts(self):
        """(sin theta, Re w, Im w, log |w|, arg w), each of the points'
        shape but sin theta, which has the cosines' shape."""
        rho, u = self.rho, self.u
        with np.errstate(invalid="ignore", divide="ignore"):
            sin = np.sqrt((1.0 - u) * (1.0 + u))
            re_w = (1.0 - rho) + rho * (1.0 - u)
            im_w = rho * -sin
            gap = rho - 2.0 * u
            gap *= rho  # |w|^2 - 1
            log_abs = np.log1p(gap)
            low = gap <= -0.5
            if low.any():
                log_abs[low] = np.log(np.square(re_w[low]) + np.square(im_w[low]))
            log_abs *= 0.5
            arg = np.arctan2(im_w, re_w)
        return sin, re_w, im_w, log_abs, arg

    @functools.cached_property
    def complex(self):
        """(z, w) as complex arrays at the points."""
        sin, re_w, im_w, _, _ = self.parts
        return self.rho * (self.u + 1j * sin), re_w + 1j * im_w


def _n2_gate(form: _N2Form, rho: np.ndarray, *, tol_rel: float) -> np.ndarray:
    """Per radius of `rho` (in [0, 1)), whether the rounding bound of the
    closed form `form` meets tol_rel times its mass there, the mass finite.

    The rounding error is at most _CLOSED_FORM_ROUNDING eps (1 + B (1 +
    |log|w||)) mass with B = `order` and mass = 2 F(rho) - 1, the majorant;
    since 1 - rho <= |w| <= 1 + rho, |log|w|| <= -log(1 - rho) bounds it
    per radius.  Elementwise in the radius, so radii may be stacked."""
    log_gap = np.log1p(-rho)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mass = 2.0 * form(rho, 1.0 - rho, log_gap, 0.0) - 1.0
        bound = _CLOSED_FORM_ROUNDING * _EPS * (1.0 + form.order * (1.0 - log_gap)) * mass
        return np.isfinite(mass) & (bound <= tol_rel * mass)


def _distinct(u: np.ndarray):
    """(cols, inv): the distinct cosines, by exact `np.unique`, and each
    direction's column among them; (u, None) when no cosine repeats, so
    that no second grid is gathered, as for a point's one cosine."""
    if u.shape[0] < 2:
        return u, None
    cols = np.unique(u)
    if cols.shape[0] == u.shape[0]:
        return u, None
    return cols, np.searchsorted(cols, u)


def _evaluate(n: int, coeffs, grids, *, tol_abs: float = 0.0, tol_rel: float = 0.0) -> list:
    """sum_k c_k rho^k Q_k(u) for each coefficient c of `coeffs` on each
    grid, certified to tol_abs + tol_rel times the majorant mass: the one
    core of grids, pairs and points.

    A grid is (rho, u, rows): radii (times |pole|), cosines to the pole,
    and rows either None, for the product grid rho x u, then the only grid
    of its call, or one index into rho per direction, for pairs, the
    entries (rows[i], i) of that grid.  Returns per coefficient, per grid,
    (values, tails, K), with tails per radius or per pair and K = 0 for a
    closed form, or the NonConvergent raised, which leaves the others.

    At n = 2 each coefficient that `_N2Form` covers passes one gate
    (`_n2_gate`) over the radii inside [0, 1) of every grid stacked, and
    is evaluated in closed form on each grid whose radii all pass and
    whose values are finite, with one geometry (`_N2Geometry`) over the
    product grid or the pairs of those grids.  The gate's bound is at
    least _CLOSED_FORM_ROUNDING eps times the mass, so at tol_rel = 0 none
    would pass, and no form is tried.  The rest sums
    the series, one `_series_sums` batch per grid on its distinct cosines
    (`_distinct`), which are found only where a product grid or a series
    reads them; pairs read their entries off that grid.  No value depends
    on the other coefficients, grids or directions of the call.
    """
    results = [[None] * len(grids) for _ in coeffs]
    product = bool(grids) and grids[0][2] is None
    distinct = [None] * len(grids)  # per grid, its `_distinct` once found
    outs = [None] * len(coeffs)
    if product:
        rho, u, _ = grids[0]
        distinct[0] = _distinct(u)
        if distinct[0][1] is not None:
            # the gathered grids, allocated before the work: callers keep
            # such grids (shell values are cached), and one allocated last
            # sits above the freed temporaries on the heap, which raised the
            # peak RSS of the n = 3 inclusion experiment by 0.3-0.5 MB
            outs = [np.empty((rho.shape[0], u.shape[0])) for _ in coeffs]

    def read(i: int, g: int, values: np.ndarray) -> np.ndarray:
        """Coefficient i's values on grid g off its values on the grid's
        distinct cosines: at its pairs, or gathered back to its directions
        (mode "clip" writes with no buffer: the indices are in range)."""
        _, inv = distinct[g]
        rows = grids[g][2]
        if rows is not None:
            return values[rows, np.arange(rows.shape[0]) if inv is None else inv]
        return values if inv is None else np.take(values, inv, axis=1, out=outs[i], mode="clip")

    inside = [
        g for g, (rho, _, _) in enumerate(grids) if n == 2 and tol_rel > 0.0 and rho.size and rho.max() < 1.0
    ]
    if inside:
        rho, sets = _stack([grids[g][0] for g in inside])
        used = {}  # coefficient -> (its form, the grids whose radii pass its gate)
        for i, coeff in enumerate(coeffs):
            form = _N2Form.of(coeff)
            if form is not None:
                gate = _n2_gate(form, rho, tol_rel=tol_rel)
                passed = [g for g, sl in zip(inside, sets) if gate[sl].all()]
                if passed:
                    used[i] = (form, passed)
        if used:
            formed = sorted({g for _, passed in used.values() for g in passed})
            if product:
                geometry = _N2Geometry(grids[0][0][:, None], distinct[0][0][None, :])
            else:
                geometry = _N2Geometry(
                    np.concatenate([grids[g][0][grids[g][2]] for g in formed]),
                    np.concatenate([grids[g][1] for g in formed]),
                )
                ends = np.cumsum([grids[g][1].shape[0] for g in formed])[:-1]
            _, _, _, log_abs, arg = geometry.parts
            for i, (form, passed) in used.items():
                z, w = (None, None) if form.plain else geometry.complex
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    values = 2.0 * form(z, w, log_abs, arg) - 1.0  # 2 Re F - 1
                for g, v in zip(formed, [values] if product else np.split(values, ends)):
                    if g in passed and np.all(np.isfinite(v)):
                        results[i][g] = (read(i, g, v) if product else v, np.zeros(v.shape[0]), 0)

    for g, (rho, u, rows) in enumerate(grids):
        series = [i for i, result in enumerate(results) if result[g] is None]
        if not series:
            continue
        if distinct[g] is None:
            distinct[g] = _distinct(u)
        sums = _series_sums(
            n, [coeffs[i] for i in series], distinct[g][0], [rho], tol_abs=tol_abs, tol_rel=tol_rel
        )
        for i, summed in zip(series, sums):
            if not isinstance(summed, NonConvergent):
                (values,), (tails,), _, k_used = summed
                summed = (read(i, g, values), tails if rows is None else tails[rows], k_used)
            results[i][g] = summed
    return results


def eval_coeff_series_grids(
    n: int,
    coeffs,
    pole,
    grids,
    *,
    tol_rel: float,
) -> list:
    """Evaluate sum_k c_k Z_k(x, pole) for each coefficient c of `coeffs`,
    all on one pole, on grids (radii, units, rows), each value certified to
    tol_rel times the majorant mass at its radius.

    `units` is an (M, n) array of unit vectors and `radii` a vector of radii
    >= 0; `rows` is None for the product grid radii x units, then the only
    grid of its call, or one index into the radii per direction for the
    pairs x = radii[rows[i]] units[i], each bit for bit the entry
    (rows[i], i) of its product grid (`check_grids`).  Returns per
    coefficient, per grid, its values, of shape (len(radii), M) on a
    product grid and (M,) at pairs, or the NonConvergent its series raised
    on that grid, which leaves the others evaluated.  The grids, scaled by
    |pole|, are those of one `_evaluate` call: its series share one
    angular table per grid, and at n = 2 a closed form is evaluated at the
    pairs alone, with one geometry per call.
    """
    _require_tolerances(tol_rel=tol_rel)
    pole_unit, pole_norm = _unit_and_norm(_vectors("pole", n, [pole])[0])
    grids = check_grids(n, grids)
    if pole_norm == 0.0:
        # only the k = 0 term survives: the sum is identically c_0 = 1
        shapes = [
            (radii.shape[0], units.shape[0]) if rows is None else rows.shape for radii, units, rows in grids
        ]
        return [[np.ones(shape) for shape in shapes] for _ in coeffs]
    grids = [(radii * pole_norm, np.clip(units @ pole_unit, -1.0, 1.0), rows) for radii, units, rows in grids]
    return [
        [result if isinstance(result, NonConvergent) else result[0] for result in results]
        for results in _evaluate(n, coeffs, grids, tol_rel=tol_rel)
    ]


def eval_coeff_series_grid(
    n: int,
    coeff: CoeffProduct,
    units: np.ndarray,
    pole,
    radii_sets,
    *,
    tol_rel: float,
):
    """Evaluate sum_k c_k Z_k(x, pole) on product grids radii x units:
    `eval_coeff_series_grids` of the one coefficient `coeff` on the product
    grid of the radius sets stacked, raising its NonConvergent; the grid of
    a radius set of m radii has shape (m, M)."""
    radii, sets = _stack([np.asarray(r, dtype=float) for r in radii_sets])
    ((values,),) = eval_coeff_series_grids(n, [coeff], pole, [(radii, units, None)], tol_rel=tol_rel)
    if isinstance(values, NonConvergent):
        raise values
    return [values[sl] for sl in sets]


def eval_coeff_series_points(
    n: int,
    coeff: CoeffProduct,
    pole,
    points: np.ndarray,
    *,
    tol_abs: float,
):
    """Evaluate sum_k c_k Z_k(x, pole) at a flat (N, n) array of points,
    each value certified to the absolute tolerance tol_abs.

    Each point is the one pair of its own 1 x 1 grid in one `_evaluate`
    call, cut at its own K, and an absolute tolerance keeps it on the
    series.  Returns (values, tails, degree_used), degree_used the largest
    K (0 when no series is summed).
    """
    _require_tolerances(tol_abs=tol_abs)
    pole_unit, pole_norm = _unit_and_norm(_vectors("pole", n, [pole])[0])
    points = _vectors("points", n, np.atleast_2d(np.asarray(points, dtype=float)))
    if pole_norm == 0.0:
        return np.ones(points.shape[0]), np.zeros(points.shape[0]), 0
    norms = np.linalg.norm(points, axis=1)
    with np.errstate(invalid="ignore"):
        u = points @ pole_unit / np.where(norms > 0.0, norms, 1.0)
    u = np.clip(np.where(norms > 0.0, u, 1.0), -1.0, 1.0)
    rho = norms * pole_norm
    first = np.zeros(1, dtype=np.intp)
    (results,) = _evaluate(
        n, [coeff], [(rho[i : i + 1], u[i : i + 1], first) for i in range(rho.shape[0])], tol_abs=tol_abs
    )
    values, tails = np.empty(rho.shape[0]), np.empty(rho.shape[0])
    k_used = 0
    for i, result in enumerate(results):
        if isinstance(result, NonConvergent):
            raise result
        values[i], tails[i], k_used = result[0][0], result[1][0], max(k_used, result[2])
    return values, tails, k_used


def _moment_rows(cols: int) -> int:
    """Degrees per chunk of radial moments over `cols` columns: _MOMENT_ROWS,
    fewer when a chunk would pass _TABLE_CHUNK_BYTES."""
    return max(1, min(_MOMENT_ROWS, _TABLE_CHUNK_BYTES // (8 * max(cols, 1))))


def _legendre_factors(k: int, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of `_AssociatedLegendre` at degree k >= 1 for m = 0..k-1:
    a_m = sqrt((4k^2 - 1) / (k^2 - m^2)) and b_m = 1 / a_m at degree k - 1
    (0 at m = k - 1); `m2` holds the squares m^2."""
    m2 = m2[:k]
    a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m2))
    j = k - 1.0
    b = np.sqrt((j * j - m2) / (4.0 * j * j - 1.0))
    return a, b


class _AssociatedLegendre:
    """Streams y_k^m(cos theta), m = 0..k, over columns of unit directions
    given by c = cos theta and s = sin theta >= 0, one degree per step.

    y_k^m = sqrt(4 pi) ybar_k^m, with ybar_k^m the fully normalized
    associated Legendre functions, so that by the addition theorem (DLMF
    14.30.9, 18.18.9)
        (2k+1) P_k(cos t cos t' + sin t sin t' cos phi)
            = sum_{m=0}^{k} (2 - delta_m0) y_k^m(t) y_k^m(t') cos(m phi),
    and |y_k^m| <= sqrt(2k+1).  Each order m runs the forward column
    recurrence in k, y_k^m = a_m (c y_{k-1}^m - b_m y_{k-2}^m)
    (`_legendre_factors`), from the sectoral seed y_k^k = sqrt((2k+1)/(2k))
    s y_{k-1}^{k-1}.  The values are carried times 2^_SEED_EXP (Holmes and
    Featherstone 2002), so they stay below 2^(_SEED_EXP + 11) for k < 2^21,
    and a seed y_m^m ~ s^m stays a normal number while m log2(1/s) <
    _SEED_EXP + 1022.  y_k^m is negligible until m falls to k s, so the
    seeds that matter stay normal on every column while k < (_SEED_EXP +
    1022) e / log2(e) = 3734 (worst at s = 1/e).  Past that, a seed can
    stick at the smallest subnormal while the true one keeps shrinking, and
    the rows blow up; `_shared_degree` keeps to _SEED_MAX_DEGREE.  Three
    rolling (kmax+1) x columns buffers hold degrees k, k-1, k-2; rows above
    a buffer's degree stay zero.
    """

    def __init__(self, c: np.ndarray, s: np.ndarray, kmax: int):
        self._c, self._s = c, s
        self._bufs = [np.zeros((kmax + 1, c.shape[0])) for _ in range(3)]
        self.k = 0

    def step(self, a: np.ndarray, b: np.ndarray, cols: int) -> np.ndarray:
        """The scaled rows m = 0..k of the next degree k on the first `cols`
        columns, shape (k+1, cols); (a, b) are `_legendre_factors` of k.
        `cols` may only shrink from step to step."""
        k = self.k
        new, p1, p2 = (self._bufs[(k - i) % 3] for i in range(3))
        if k == 0:
            new[0, :cols] = 2.0**_SEED_EXP
        else:
            out = new[:k, :cols]
            np.multiply(p1[:k, :cols], self._c[:cols], out=out)
            out -= p2[:k, :cols] * b[:, None]
            out *= a[:, None]
            seed = math.sqrt((2.0 * k + 1.0) / (2.0 * k))
            np.multiply(p1[k - 1, :cols], seed * self._s[:cols], out=new[k, :cols])
        self.k += 1
        return new[: k + 1, :cols]


def _synthesis(phi: float, re: np.ndarray, im: np.ndarray) -> float:
    """sum_m Re(e^{i m phi} (re_m + i im_m)) over one point's contiguous
    terms, so that its value does not depend on the other points."""
    mphi = np.arange(re.shape[0]) * phi
    return float(np.sum(np.cos(mphi) * re - np.sin(mphi) * im))


def _circle_sums(coeff, points, degrees, radii, rings, weighted) -> np.ndarray:
    """Rule sums at n = 2, where Q_k(cos(phi_x - phi_j)) = (2 - delta_k0)
    Re(e^{i k phi_x} e^{-i k phi_j}): each degree's moments fold once into
    C_k = sum_j e^{-i k phi_j} M_kj over the circle's nodes, and a point
    sums c_k |x|^k (2 - delta_k0) Re(e^{i k phi_x} C_k) for k <= K_x."""
    nodes, angle = rings.index[0], rings.param
    w = weighted[:, nodes]
    k_end = int(degrees.max(initial=0)) + 1
    rows = _moment_rows(nodes.shape[0])
    log_r = _log_radii(radii)
    c = np.empty(k_end, dtype=complex)
    for k0 in range(0, k_end, rows):
        kf = np.arange(k0, k0 + rows, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            moments = _powers(np.zeros(rows), kf, log_r).T @ w
        phases = np.exp(-1j * (kf[:, None] * angle[None, :]))
        c[k0 : k0 + rows] = np.einsum("kj,kj->k", moments, phases)[: k_end - k0]
    c[1:] *= 2.0
    log_x = _log_radii(np.linalg.norm(points, axis=1))
    phi = np.arctan2(points @ rings.b[0], points @ rings.a[0])
    values = np.empty(points.shape[0])
    for p, k in enumerate(degrees):
        kf = np.arange(k + 1, dtype=float)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            c_x = _powers(log_coeff_block(2, coeff, 0, k + 1), kf, log_x[p : p + 1])[0]
        values[p] = _synthesis(phi[p], c_x * c.real[: k + 1], c_x * c.imag[: k + 1])
    return values


def _meridian_frame(units, rings):
    """(axis, e1, e2, t, B) of an n = 3 rule's meridians: the pole, the
    frame in which meridian b has azimuth 2 pi b / B, and the cosines t_a of
    the rings, read off the nodes of meridian 0.  Refuses azimuths that are
    not equispaced, which the azimuthal DFT needs."""
    axis, e1 = rings.a[0], rings.b[0]
    e2 = np.cross(axis, e1)
    n_az = rings.index.shape[0]
    phi = np.mod(np.arctan2(rings.b @ e2, rings.b @ e1), 2.0 * np.pi)
    want = 2.0 * np.pi * np.arange(n_az) / n_az
    if not np.allclose(phi, want, rtol=0.0, atol=1e-12):
        raise ValueError("the meridians of an n = 3 rule sum must be equispaced in azimuth")
    return axis, e1, e2, units[rings.index[0]] @ axis, n_az


def _ring_spectra(weighted, index, t):
    """(table, H): the DFT over each ring's B equispaced azimuths of the
    weighted values, for m = 0..B//2, shape (R, B//2 + 1, 2, 2, H) with
    axes (radius, m, sum or difference, re or im, ring) flattened past R.

    The real part is the product of the even part x_b + x_{B-b} with
    cos(2 pi m b / B) and the imaginary part that of the odd part
    x_b - x_{B-b} with -sin, b <= B/2, at the exact phases (m b mod B) / B;
    numpy's FFT took 4x longer at the prime B = 241.  It runs over chunks of
    radii and writes into the table, so that no temporary exceeds
    _TABLE_CHUNK_BYTES, and beside the table at most a chunk of values, one
    half-size part of it and one spectrum are live: 23.0 MB traced with its
    14.6 MB table on the identity battery's n = 3 rule.  When the ring
    cosines t are symmetric about the equator, ring a of the H = ceil(A/2)
    kept rings carries the sum and the difference of the spectra of rings a
    and A-1-a (the equator, for odd A, its own spectrum twice); otherwise
    H = A and both copies are the ring's own spectrum."""
    n_az, n_rings = index.shape
    n_bins, pairs = n_az // 2 + 1, (n_az - 1) // 2
    even_b = np.arange(n_bins)  # b = B/2, for even B, has no partner
    turns = 2.0 * np.pi * (np.outer(even_b, even_b) % n_az) / n_az
    cos, sin = np.cos(turns), -np.sin(turns[:, 1 : pairs + 1])
    symmetric = bool(np.array_equal(t, -t[::-1]))
    half = (n_rings + 1) // 2 if symmetric else n_rings
    table = np.empty((weighted.shape[0], n_bins, 2, 2, half))

    def store(part, j, spectrum):  # spectrum: (radii, bins, A)
        near = spectrum[..., :half]
        if symmetric:
            far = spectrum[..., ::-1][..., :half]
            np.add(near, far, out=part[:, :, 0, j])
            np.subtract(near, far, out=part[:, :, 1, j])
            if n_rings % 2:
                part[:, :, :, j, -1] = near[:, :, None, -1]
        else:
            part[:, :, 0, j] = part[:, :, 1, j] = near

    def transform(part, rows):
        # each product is formed only when it is stored, and x is released
        # before the even part's product, so that at most x, one half-size
        # part of it and one spectrum are live
        x = np.take(rows, flat, axis=1).reshape(-1, n_az, n_rings)
        up, down = x[:, 1 : pairs + 1], x[:, : n_az - pairs - 1 : -1]
        store(part, 1, sin @ (up - down))
        even = x[:, :n_bins].copy()
        even[:, 1 : pairs + 1] += down
        del x, up, down
        store(part, 0, cos @ even)

    step, flat = max(1, _TABLE_CHUNK_BYTES // (8 * index.size)), index.ravel()
    for i0 in range(0, weighted.shape[0], step):
        transform(table[i0 : i0 + step], weighted[i0 : i0 + step])
    return table.reshape(weighted.shape[0], -1), half


def _meridian_sums(coeff, points, degrees, radii, units, rings, weighted) -> np.ndarray:
    """Rule sums at n = 3 by the addition theorem (`_AssociatedLegendre`):
        sum_j Q_k(x^.z_j) M_kj
            = sum_m (2 - delta_m0) y_k^m(x^) Re(e^{i m phi_x} C_k(m)),
        C_k(m) = sum_a y_k^m(t_a) sum_b e^{-i m phi_b} M_k(a, b).
    The moments of the weighted values' azimuthal DFT (`_ring_spectra`; bin
    m mod B, conjugated past B/2) are taken _moment_rows degrees at a time,
    and no bin above the chunk's last degree.  When the rings are symmetric
    about the equator, y_k^m(-t) = (-1)^(k+m) y_k^m(t) folds each pair into
    one ring carrying the sum (k + m even) or the difference of their
    transforms.  One recurrence over the rings gives each degree's C_k; one
    over the points' directions, scaled by |x|^k and cut at each point's
    K_x, folds c_k C_k into per-point accumulators, which each point sums on
    its own at the end (`_synthesis`)."""
    axis, e1, e2, t, n_az = _meridian_frame(units, rings)
    n_rings = t.shape[0]
    table, half = _ring_spectra(weighted, rings.index, t)

    k_max = int(degrees.max(initial=0))
    order = np.argsort(-degrees, kind="stable")
    sorted_deg = degrees[order]
    x = points[order]
    norms = np.linalg.norm(x, axis=1)
    log_x = _log_radii(norms)
    x_units = x / np.where(norms > 0.0, norms, 1.0)[:, None]
    px, py = x_units @ e1, x_units @ e2
    ring_sin = np.sqrt((1.0 - t[:half]) * (1.0 + t[:half]))
    rings_y = _AssociatedLegendre(t[:half], ring_sin, k_max)
    points_y = _AssociatedLegendre(x_units @ axis, np.hypot(px, py), k_max)

    m = np.arange(k_max + 1)
    m2 = m.astype(float) ** 2
    bin_ = m % n_az
    flipped = bin_ > n_az // 2
    bin_ = np.where(flipped, n_az - bin_, bin_)
    parity = (m & 1, 1 - (m & 1))  # S or D at even and odd k
    # (2 - delta_m0) on both parts; past B/2 the bin is conjugated
    weight = np.where(m == 0, 1.0, 2.0)[:, None] * np.stack(
        [np.ones(k_max + 1), np.where(flipped, -1.0, 1.0)], axis=1
    )
    acc = np.zeros((k_max + 1, 2, x.shape[0]))  # per point: re, im per order m

    n_bins = n_az // 2 + 1
    rows = _moment_rows(table.shape[1])
    log_r = _log_radii(radii)
    for k0 in range(0, k_max + 1, rows):
        kf = np.arange(k0, k0 + rows, dtype=float)
        bins = min(n_bins, k0 + rows)  # a degree below B/2 reads no higher bin
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            moments = _powers(np.zeros(rows), kf, log_r).T @ table[:, : bins * 4 * half]
        moments = moments.reshape(rows, bins, 2, 2, half)
        c_k = np.exp(log_coeff_block(3, coeff, k0, k0 + rows))
        for k in range(k0, min(k0 + rows, k_max + 1)):
            a, b = _legendre_factors(k, m2) if k else (None, None)
            y = rings_y.step(a, b, half) * _SEED_UNSCALE
            g = moments[k - k0][bin_[: k + 1], parity[k & 1][: k + 1]]  # (k+1, 2, half)
            c = np.einsum("mh,mch->mc", y, g)
            c *= c_k[k - k0] * weight[: k + 1]
            cols = int(np.count_nonzero(sorted_deg >= k))
            # |x|^k unscaled, for the points still below their K_x
            scale = _SEED_UNSCALE * np.exp(k * log_x[:cols]) if k else _SEED_UNSCALE
            z = points_y.step(a, b, cols) * scale
            acc[: k + 1, :, :cols] += z[:, None, :] * c[:, :, None]

    phi = np.arctan2(py, px)
    values = np.empty(x.shape[0])
    for i, k in enumerate(sorted_deg):
        values[order[i]] = _synthesis(phi[i], acc[: k + 1, 0, i], acc[: k + 1, 1, i])
    return values


def _shared_degree(rings) -> float:
    """K*: an n = 3 point with K_x above it sums its own grid series instead
    of sharing the ring transform (`_meridian_sums`).  It is _SHARED_FACTOR
    M / A for M nodes on A rings, and never more than _SEED_MAX_DEGREE,
    where the shared path's seeds would stop being exact."""
    return min(_SHARED_FACTOR * rings.index.size / rings.index.shape[1], _SEED_MAX_DEGREE)


def eval_coeff_series_rule_sum(
    n: int,
    coeff: CoeffProduct,
    points,
    radii,
    units,
    weighted,
    rings,
    *,
    tol_rel: float,
):
    """Rule sums sum_ij weighted[i, j] sum_k c_k Z_k(x, radii[i] units[j])
    for each point x of a (P, n) stack, on a product sphere rule whose
    nodes `rings` (the rule's `quadrature.Rings`) describes.

    Each point's series is cut at K_x, the smallest degree whose tail bound
    certifies every radius |x| radii[i] (`_certified_degree`), the degree
    at which `_evaluate` stops for that grid.  The result is that truncated
    series on the grid radii x units, summed against `weighted` in another
    order:

        sum_{k <= K_x} c_k |x|^k sum_j Q_k(u_j) M_kj,
        u_j = <x/|x|, units[j]>,  M_kj = sum_i radii[i]^k weighted[i, j].

    The moments M do not depend on x, and by the addition theorem neither
    does their angular transform: the DFT of the moments over the circle
    (n = 2, `_circle_sums`) or over each ring's equispaced azimuths followed
    by the ring sums against y_k^m (n = 3, `_meridian_sums`).  That work is
    done once per call, built _MOMENT_ROWS degrees at a time (fewer when a
    chunk would pass _TABLE_CHUNK_BYTES), so no (K+1) x M table is held;
    then a point costs O(K_x) at n = 2 and O(K_x^2) at n = 3.  An n = 3
    point with K_x above K* (`_shared_degree`) sums its own grid series
    instead (`_evaluate`, the same K_x), over radii |x| radii and the
    distinct cosines u_j (`_distinct`), and that grid against `weighted`
    folded onto them by a per-radius `np.bincount`, so beside `weighted` it
    holds no radii x nodes grid.  The path is chosen from K_x alone, and neither path lets a
    point's value depend on the other points.  A point at the origin keeps
    only the k = 0 term.  Nodes off the rings must carry zero weighted
    values.  Returns (values,
    degrees), each of shape (P,).
    """
    _require_tolerances(tol_rel=tol_rel)
    if n not in (2, 3):
        raise ValueError("rule sums are implemented for n in {2, 3}")
    points, radii, units = _vectors("points", n, points), _radii(radii), _vectors("units", n, units)
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape != (radii.shape[0], units.shape[0]) or not np.all(np.isfinite(weighted)):
        raise ValueError("weighted values must be finite, of shape (len(radii), len(units))")
    off_rings = np.ones(units.shape[0], dtype=bool)
    off_rings[rings.index] = False
    if np.any(weighted[:, off_rings]):
        raise ValueError("nodes off the rule's rings must carry zero weighted values")

    x_units = np.zeros(points.shape)
    norms = np.zeros(points.shape[0])
    degrees = np.zeros(points.shape[0], dtype=int)
    for p, x in enumerate(points):
        x_units[p], norms[p] = _unit_and_norm(x)
        if norms[p] > 0.0:
            rho, sets = _stack([radii * norms[p]])
            degrees[p] = _certified_degree(n, coeff, rho, sets, tol_abs=0.0, tol_rel=tol_rel)[2]

    if n == 2:
        return _circle_sums(coeff, points, degrees, radii, rings, weighted), degrees
    values = np.empty(points.shape[0])
    deep = degrees > _shared_degree(rings)
    if not deep.all():
        values[~deep] = _meridian_sums(
            coeff, points[~deep], degrees[~deep], radii, units, rings, weighted
        )
    for p in np.flatnonzero(deep):
        cols, inv = _distinct(np.clip(units @ x_units[p], -1.0, 1.0))
        ((grid,),) = _evaluate(n, [coeff], [(radii * norms[p], cols, None)], tol_rel=tol_rel)
        if isinstance(grid, NonConvergent):
            raise grid
        grid = grid[0]
        folded = weighted
        if inv is not None:
            # the weighted values summed per distinct cosine, radius by radius
            folded = np.empty(grid.shape)
            for row, w in zip(folded, weighted):
                row[:] = np.bincount(inv, weights=w, minlength=cols.shape[0])
        values[p] = np.vdot(grid, folded)
    return values, degrees


@dataclass(frozen=True)
class KernelEval:
    """A truncated kernel value with its certified truncation-error bound."""

    value: float
    degree_used: int
    tail_bound: float


def kernel_eval(n: int, alpha: float, x, y, tol: float) -> KernelEval:
    """R_alpha(x, y) summed up to K, the smallest degree whose tail bound
    is at most the absolute tolerance `tol`; `degree_used` is K and
    `tail_bound` that bound.

    Requires |x||y| < 1 (one argument may lie on the sphere when the other is
    interior); raises NonConvergent at |x||y| = 1 or when the degree cap
    KMAX_DEFAULT is reached first, and ValueError unless `tol` is finite and
    positive.
    """
    n = check_dimension(n)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values, tails, k_used = eval_coeff_series_points(
        n, CoeffProduct.kernel(alpha), y, x[None, :], tol_abs=tol
    )
    return KernelEval(float(values[0]), int(k_used), float(tails[0]))


def kernel_growth_exponent_probe(n, alpha, zeta, radii):
    """|R_alpha(r zeta, zeta)| along the radial ray toward the kernel pole,
    certified to _PROBE_TOL relative to the majorant mass.

    `radii` must be strictly increasing inside [0, 1).  Returns a list of
    (r, |R_alpha(r zeta, zeta)|) pairs.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    if radii[0] < 0.0 or radii[-1] >= 1.0:
        raise ValueError("radii must lie in [0, 1)")
    zeta = np.asarray(zeta, dtype=float)
    unit, norm = _unit_and_norm(zeta)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("zeta must be a unit vector")
    (values,) = eval_coeff_series_grid(
        n, CoeffProduct.kernel(alpha), unit[None, :], unit, [radii], tol_rel=_PROBE_TOL
    )
    mags = np.abs(values[:, 0])
    return [(float(r), float(v)) for r, v in zip(radii, mags)]

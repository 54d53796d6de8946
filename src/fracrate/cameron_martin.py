"""Cameron-Martin operators of fractional Brownian motion with H > 1/2.

Implements the lifting operator K that maps L2([0,T]) onto the space of
admissible shifts, its time derivative Kdot, the inverse K^{-1}, the
normalizing constant c_H and the induced Hilbert norm.  The doubly singular
kernel z^(1/2-H) (s-z)^(H-3/2) of Kdot is integrated exactly per cell via
regularized incomplete Beta functions.  The hypersingular difference
quotient of K^{-1} is split into a closed-form part carrying the weight
singularity plus a smooth-difference integral that is product-integrated
exactly per cell (details on ``_kdot_inverse_core``); this keeps the
inverse uniformly accurate up to H near 1, where linear interpolation of
the weighted difference alone loses the accuracy budget.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma

from .errors import InvalidInputError, RegularityError
from .gridpath import GridPath, l2_norm


def c_H(hurst):
    """Normalizing constant of the fBm kernel operator, positive root.

    Defined for any Hurst index in (0,1); equals 1 at H = 1/2.
    """
    h = float(hurst)
    if not (0.0 < h < 1.0):
        raise InvalidInputError(f"Hurst index must lie in (0,1), got {h}")
    c2 = 2.0 * h * gamma(1.5 - h) * gamma(h + 0.5) / gamma(2.0 - 2.0 * h)
    return float(np.sqrt(c2))


@functools.lru_cache(maxsize=1)
def _fractions(n):
    """Reduced fractions of the strict lower triangle of an n-row table.

    An entry (i, j), j < i, of a table depends on x = j/i alone.  Returns
    (x, pos, k): x holds every reduced j/i with i < n, first the k with
    x <= 1/2 in row order (0/1 and 1/2 lead), then the mirrors (i-j)/i of
    the k - 2 others in the same order; pos[e] is the place in x of the
    reduced form of entry e of the triangle read row by row.  Striking out
    (d i, d j) for every d >= 2 leaves the coprime pairs; one strided copy
    per d, ascending, then carries positions to the other entries, and the
    last write into (i, j) comes from d = gcd(i, j), whose source is reduced.
    """
    lo = np.arange(n // 2 + 1) <= np.arange(n)[:, None] // 2  # 2j <= i
    lo[0] = False
    for d in range(2, n):
        lo[d::d, ::d] = False
    i, j = np.nonzero(lo)
    k = i.size
    idx = np.empty((n, n), dtype=np.int32)
    idx[i, j] = np.arange(k)
    idx[i[2:], i[2:] - j[2:]] = np.arange(k, 2 * k - 2)  # 0/1 and 1/2 have no mirror
    for d in range(2, n):
        m = (n - 1) // d
        idx[d::d, : d * m : d] = idx[1 : m + 1, :m]
    x = np.concatenate((j / i, (i - j)[2:] / i[2:]))
    pos = idx[np.tri(n, n, -1, dtype=bool)]
    x.flags.writeable = pos.flags.writeable = False
    return x, pos, k


# a row block of a table holds at most this many entries
_MAX_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n, pos, vals, fill=0.0):
    """Rows 1..n-1 of the table of ``vals`` read through ``pos`` (see
    ``_fractions``), a few rows at a time.  Yields (i0, i1, block), the
    (i1 - i0, i1) block holding rows i0..i1-1: the value of entry (i, j) at
    j < i, ``fill`` at j >= i.  A block has at most ``_MAX_BLOCK_ELEMENTS``
    entries, or one row."""
    step = max(1, _MAX_BLOCK_ELEMENTS // n)
    for i0 in range(1, n, step):
        i1 = min(n, i0 + step)
        tri = np.tri(i1 - i0, i1, i0 - 1, dtype=bool)
        block = np.full(tri.shape, fill)
        block[tri] = vals[pos[i0 * (i0 - 1) // 2 : i1 * (i1 - 1) // 2]]
        yield i0, i1, block


def _step_table(n, pos, vals):
    """(n, n) table of the steps v(i, j+1) - v(i, j), j < i - 1, along the
    rows of the table v of ``vals`` read through ``pos``; zero elsewhere,
    the cell next to t_i included (``lastP`` of ``inverse_tables``)."""
    out = np.zeros((n, n))
    for i0, i1, block in _row_blocks(n, pos, vals):
        steps = np.diff(block, axis=1)
        np.fill_diagonal(steps[:, i0 - 1 :], 0.0)
        out[i0:i1, : i1 - 1] = steps
    return out


class HurstContext:
    """Hurst index plus derived constants and cached kernel tables.

    Each table is O(n^2) memory, built on first use and kept on the
    instance, so every rate evaluation on the same grid reuses it: the Kdot
    matrix, the inverse-lift tables, and the cell table only when
    ``cell_table`` itself is called (``apply_KH``); ``kdot_matrix`` does not
    keep the cell table it is built from.  The reduced-fraction index the
    tables are built from is cached per n at module level (``_fractions``,
    the last n only), so contexts at several H on one grid share it.  A
    build holds its tables, one vector over the reduced fractions per
    table, and row blocks of at most ``_MAX_BLOCK_ELEMENTS`` entries.
    Instances are immutable after construction and safe to share across
    workers.
    """

    def __init__(self, hurst, n, dt):
        h = float(hurst)
        if not (0.5 < h < 1.0):
            raise InvalidInputError(f"HurstContext requires H in (1/2,1), got {h}")
        if n < 2 or dt <= 0:
            raise InvalidInputError(f"bad grid: n={n}, dt={dt}")
        self.H = h
        self.n = int(n)
        self.dt = float(dt)
        self.cH = c_H(h)
        self._cell_table = None
        self._kdot_matrix = None
        self._inverse_tables = None

    @property
    def times(self):
        return self.dt * np.arange(self.n)

    def _cell_blocks(self):
        """Row blocks (i0, i1, cells) of ``cell_table``: cells holds its rows
        i0..i1-1 in i1 - 1 columns."""
        a, b = 1.5 - self.H, self.H - 0.5
        x, pos, _ = _fractions(self.n)
        # row i is closed by I_1(a, b) = 1 at column i
        for i0, i1, ix in _row_blocks(self.n, pos, betainc(a, b, x), fill=1.0):
            yield i0, i1, np.diff(ix, axis=1) * beta_fn(a, b)

    def cell_table(self):
        """T[i, j] = int_{t_j}^{t_{j+1}} z^(1/2-H) (t_i - z)^(H-3/2) dz, j < i.

        Dimensionless: with x = z/t_i the cell integral is an increment of
        the incomplete Beta function with parameters (3/2-H, H-1/2).
        """
        if self._cell_table is None:
            T = np.zeros((self.n, self.n - 1))
            for i0, i1, cells in self._cell_blocks():
                T[i0:i1, : i1 - 1] = cells
            self._cell_table = T
        return self._cell_table

    def kdot_matrix(self):
        """Dense matrix of Kdot acting on node values of the input.

        The input is read as the piecewise-constant path of its cell
        midpoints (v_j + v_{j+1})/2, so row i is half of cell_table row i
        at columns j and j + 1; the cell table itself is not kept.
        """
        if self._kdot_matrix is None:
            M = np.zeros((self.n, self.n))
            pref = (self.cH / gamma(self.H - 0.5)) * self.times ** (self.H - 0.5)
            for i0, i1, cells in self._cell_blocks():
                cells *= 0.5
                rows = M[i0:i1, :i1]
                rows[:, :-1] = cells
                rows[:, 1:] += cells
                rows *= pref[i0:i1, None]
            self._kdot_matrix = M
        return self._kdot_matrix

    def inverse_tables(self):
        """Cell-exact moment tables for the inverse-lift integral.

        For the integral of s^(1/2-H) (psi(t_i)-psi(s)) (t_i-s)^(-H-1/2)
        against a piecewise-linear psi, rows hold the per-cell increments of
        B_x(3/2-H, 1/2-H) (via dM0) and B_x(5/2-H, 1/2-H) (via dR), both
        obtained from positive-parameter incomplete Beta values through the
        contiguous recurrence; lastP carries the regularized moment of the
        cell adjacent to the evaluation point, where the raw moments diverge
        but the difference structure cancels the divergence exactly.
        """
        if self._inverse_tables is None:
            n, h = self.n, self.H
            a = 1.5 - h
            b0 = 0.5 - h
            bfull = beta_fn(a, a)
            x, pos, k = _fractions(n)
            P = np.empty(x.size)
            betainc(a, a, x[:k], out=P[:k])
            # I_x(a, a) = 1 - I_{1-x}(a, a) (DLMF 8.17.4) past x = 1/2
            np.subtract(1.0, P[2:k], out=P[k:])
            P *= bfull
            # R = (a P - x^a (1-x)^b0) / b0, one temporary at a time
            R = 1.0 - x
            R **= b0
            R *= x**a
            np.subtract(a * P, R, out=R)
            R /= b0
            lastP = np.zeros(n)
            lastP[1:] = bfull - P[pos[np.cumsum(np.arange(1, n)) - 1]]  # entries (i, i - 1)
            P += R
            dM0 = _step_table(n, pos, P)
            del P  # P + R goes before dR is allocated
            self._inverse_tables = (dM0, _step_table(n, pos, R), lastP)
        return self._inverse_tables

    def check_grid(self, v: GridPath, op):
        """Raise ``InvalidInputError`` unless v is a finite path on this grid
        starting at t = 0, the domain of every operator built on it."""
        if v.n != self.n or abs(v.dt - self.dt) > 1e-12 * self.dt:
            raise InvalidInputError(f"{op}: path grid {v!r} does not match {self!r}")
        if abs(v.t0) > 1e-12:
            raise InvalidInputError(f"{op}: Cameron-Martin operators act on paths starting at t=0")
        if not np.all(np.isfinite(v.values)):
            raise InvalidInputError(f"{op}: path contains non-finite values")

    def __repr__(self):
        return f"HurstContext(H={self.H}, n={self.n}, dt={self.dt})"


def apply_KH_dot(v: GridPath, ctx: HurstContext) -> GridPath:
    """Weak derivative of the lifted path, s -> Kdot v(s)."""
    ctx.check_grid(v, "apply_KH_dot")
    out = ctx.kdot_matrix() @ v.values
    return v.with_values(out)


def apply_KH(v: GridPath, ctx: HurstContext) -> GridPath:
    """Lift v from L2 into the admissible-shift space; output vanishes at 0.

    The outer time integral uses trapezoid values of the regular factor
    h(s) = Kdot v(s)/s^(H-1/2), with its finite limit at 0, against the
    exact cell integrals of the power weight s^(H-1/2), so the integrable
    kernel singularity at s = 0 costs no accuracy.
    """
    ctx.check_grid(v, "apply_KH")
    mids = 0.5 * (v.values[:-1] + v.values[1:])
    h = (ctx.cH / gamma(ctx.H - 0.5)) * (ctx.cell_table() @ mids)
    h[0] = ctx.cH * gamma(1.5 - ctx.H) * mids[0]
    p = ctx.H + 0.5
    dpow = np.diff(ctx.times**p) / p
    incr = 0.5 * (h[:-1] + h[1:]) * dpow[:, None]
    return v.with_values(np.concatenate((np.zeros((1, v.dim)), np.cumsum(incr, axis=0))))


def _kdot_inverse_core(psi, ctx, psi_half=None):
    """Inverse-lift bracket applied to grid values (n, d) of a derivative path.

    Splitting the weighted difference w(t)-w(s), w(s) = s^(1/2-H) psi(s),
    into psi(t)*(t^(1/2-H)-s^(1/2-H)) plus s^(1/2-H)*(psi(t)-psi(s)) lets
    the first (hypersingular) part be integrated in closed form, leaving
        gamma_H t^(1/2-H) psi(t)
          + (H-1/2) t^(H-1/2) int_0^t s^(1/2-H) (psi(t)-psi(s)) (t-s)^(-H-1/2) ds
    with gamma_H = Gamma(3/2-H)^2 / Gamma(2-2H).  The remaining integral is
    product-integrated exactly per cell against the linear interpolant of
    psi via the cached moment tables, one matrix product for all columns.
    The value at t = 0, where the bracket is genuinely singular unless psi
    vanishes, is the half-step surrogate (the bracket evaluated at dt/2 on
    the local interpolant).  A given ``psi_half`` (d,) is the input at dt/2;
    row 0 of psi is then read at dt/2 as well.
    """
    h = ctx.H
    t = ctx.times
    gamma_h = gamma(1.5 - h) ** 2 / gamma(2.0 - 2.0 * h)
    dM0, dR, lastP = ctx.inverse_tables()
    # the s^(H-1/2) component of lifted-path derivatives inverts exactly to
    # a constant and defeats linear interpolation near 0: fit it out first
    lo, hi = (4, 40) if ctx.n >= 48 else (1, ctx.n)
    tt = t[lo:hi]
    basis = np.column_stack([tt ** (h - 0.5), np.ones(len(tt)), tt])
    beta = np.linalg.lstsq(basis, psi[lo:hi], rcond=None)[0][0]
    cusp = t[:, None] ** (h - 0.5) * beta
    th = 0.5 * ctx.dt
    if psi_half is not None:
        cusp[0] = beta * th ** (h - 0.5)
        psi_half = psi_half - cusp[0]
    psi = psi - cusp
    cusp_out = beta / (ctx.cH * gamma(1.5 - h))
    slopes = np.diff(psi, axis=0) / ctx.dt
    offs = psi[:-1] - slopes * t[:-1, None]
    # cells strictly before the evaluation node
    const_part = psi[1:] * dM0[1:].sum(axis=1)[:, None] - dM0[1:, :-1] @ offs
    slope_part = dR[1:, :-1] @ slopes
    i2 = t[1:, None] ** (1.0 - 2.0 * h) * const_part
    i2 += t[1:, None] ** (2.0 - 2.0 * h) * (-slope_part + slopes * lastP[1:, None])
    out = np.empty(psi.shape)
    out[1:] = gamma_h * t[1:, None] ** (0.5 - h) * psi[1:] + (h - 0.5) * t[1:, None] ** (h - 0.5) * i2
    # half-step surrogate at the origin: the local interpolant is linear
    if psi_half is None:
        psi_half = 0.5 * (psi[0] + psi[1])
    bfull = beta_fn(1.5 - h, 1.5 - h)
    out[0] = gamma_h * th ** (0.5 - h) * psi_half
    out[0] += (h - 0.5) * bfull * slopes[0] * th ** (1.5 - h)
    return out / (ctx.cH * gamma(1.5 - h)) + cusp_out


def kdot_inverse(psi_values, ctx: HurstContext, psi_half=None):
    """Inverse of Kdot applied to grid values (n,) or (n, d) of a derivative
    path, column by column; the output has the shape of the input.

    ``psi_half``, one value per column, is the input at the half step dt/2
    when row 0 holds it rather than the value at t = 0 (the forward
    quotient of ``apply_KH_inverse``).  Raises ``RegularityError`` when the
    inverse diverges.
    """
    arr = np.asarray(psi_values, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] != ctx.n:
        raise InvalidInputError("psi grid does not match context")
    out = _kdot_inverse_core(arr.reshape(ctx.n, -1), ctx, psi_half)
    if not np.all(np.isfinite(out)):
        raise RegularityError("Kdot inverse diverged on this input")
    return out.reshape(arr.shape)


def apply_KH_inverse(u: GridPath, ctx: HurstContext) -> GridPath:
    """Inverse lift: recover the L2 pre-image of a path with u(0) = 0.

    The derivative of u is taken by centered finite differences (one-sided
    second order at the final point).  At t = 0 the forward difference
    already sits at the half step, where ``kdot_inverse`` evaluates the
    otherwise singular bracket.
    """
    ctx.check_grid(u, "apply_KH_inverse")
    if np.max(np.abs(u.values[0])) > 1e-10 * max(1.0, np.max(np.abs(u.values))):
        raise InvalidInputError("apply_KH_inverse requires u(0) = 0")
    psi = u.derivative()
    psi[0] = (u.values[1] - u.values[0]) / u.dt
    return u.with_values(kdot_inverse(psi, ctx, psi_half=psi[0]))


def hH_norm(u: GridPath, ctx: HurstContext) -> float:
    """Cameron-Martin norm: L2 norm of the inverse lift, by trapezoid."""
    pre = apply_KH_inverse(u, ctx)
    return l2_norm(pre.values, u.dt)

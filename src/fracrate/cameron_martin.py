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


def _smallest_prime_factors(n):
    """spf[k] = smallest prime factor of k, for 2 <= k < n."""
    spf = np.arange(n)
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return spf


def _beta_rows(out, a, b):
    """Fill out[i, :i] with I_{j/i}(a, b), j < i, for every row i >= 1.

    An entry depends on x = j/i alone, so ``betainc`` runs once per reduced
    fraction.  Where j shares a prime p with i, the entry is copied from row
    i/p at j/p: both quotients round to the same double.  With a == b the
    entries past i/2 are 1 - I_{1-x}(a, a) (DLMF 8.17.4), so the row costs
    half its coprime entries.
    """
    spf = _smallest_prime_factors(out.shape[0])
    for i in range(1, out.shape[0]):
        row = out[i, :i]
        fresh = np.ones(i, dtype=bool)
        k = i
        while k > 1:
            p = int(spf[k])
            row[::p] = out[i // p, : i // p]
            fresh[::p] = False
            while k % p == 0:
                k //= p
        half = i // 2 + 1 if a == b else i
        j = np.flatnonzero(fresh[:half])
        row[j] = betainc(a, b, j / i)
        if a == b:
            row[half:] = 1.0 - row[i - half : 0 : -1]


class HurstContext:
    """Hurst index plus derived constants and cached kernel tables.

    The cell table is O(n^2) memory and is built lazily on first use; at the
    desk scales targeted here (n <= 8192) this is acceptable and every rate
    evaluation on the same grid reuses it.  Instances are immutable after
    construction and safe to share across workers.
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

    def cell_table(self):
        """T[i, j] = int_{t_j}^{t_{j+1}} z^(1/2-H) (t_i - z)^(H-3/2) dz, j < i.

        Dimensionless: with x = z/t_i the cell integral is an increment of
        the incomplete Beta function with parameters (3/2-H, H-1/2).
        """
        if self._cell_table is None:
            n, h = self.n, self.H
            a, b = 1.5 - h, h - 0.5
            bab = beta_fn(a, b)
            T = np.zeros((n, n - 1))
            _beta_rows(T, a, b)
            for i in range(1, n):  # I_1(a, b) = 1 closes the last cell
                T[i, :i] = bab * np.diff(T[i, :i], append=1.0)
            self._cell_table = T
        return self._cell_table

    def kdot_matrix(self):
        """Dense matrix of Kdot acting on node values of the input.

        The input is read as the piecewise-constant path of its cell
        midpoints (v_j + v_{j+1})/2.
        """
        if self._kdot_matrix is None:
            n = self.n
            T = self.cell_table()
            pref = np.zeros(n)
            pref[1:] = (self.cH / gamma(self.H - 0.5)) * self.times[1:] ** (self.H - 0.5)
            M = np.zeros((n, n))
            M[:, :-1] += 0.5 * T
            M[:, 1:] += 0.5 * T
            self._kdot_matrix = pref[:, None] * M
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
            dM0 = np.zeros((n, n))
            dR = np.zeros((n, n))
            lastP = np.zeros(n)
            _beta_rows(dM0, a, a)  # row i holds I_x(a, a) until it is converted
            for i in range(1, n):
                x = np.arange(i) / i
                P = bfull * dM0[i, :i]
                R = (a * P - x**a * (1.0 - x) ** b0) / b0
                lastP[i] = bfull - P[i - 1]
                dM0[i, i - 1] = 0.0
                if i > 1:
                    dM0[i, : i - 1] = np.diff(P + R)
                    dR[i, : i - 1] = np.diff(R)
            self._inverse_tables = (dM0, dR, lastP)
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

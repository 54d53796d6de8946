"""Grid-based fractional integrals, Marchaud derivatives and Young integrals.

All singular kernels ((t-r)^(a-1), (t-r)^(-a-1), (r-s)^(-a-1)) are integrated
in closed form cell by cell against the piecewise-linear interpolant of the
input path (product integration).  Naive quadrature at the singularity either
diverges or loses all accuracy, so none is used anywhere in this module.

Conventions
-----------
* Left-sided operators act from the first grid point a = t0; right-sided
  operators act from the last grid point b = t0 + (n-1)*dt and are computed
  by time reversal of the left-sided machinery.
* Marchaud derivatives return 0 at the anchoring endpoint itself (the Weyl
  representation carries an open-interval indicator); for paths that do not
  vanish there the one-sided limit is infinite and tests evaluate strictly
  inside the interval.
* ``young_integral`` evaluates the fractional integration-by-parts formula
  int f dg = -int D^a_{left} (f - f(a)) * D^{1-a}_{right} (g - g(b)) dt
  (Zaehle, PTRF 111, 1998) on every prefix interval, plus the
  exactly-known contribution of the constant part f(a).  The trapezoid
  weight of a node does not depend on the prefix, so the running integral
  over all prefixes is five convolutions against fixed kernels and two
  cumulative sums, O(n log n) in all: product integration by FFT (Hairer,
  Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).
* Every convolution is ``_fftconv``, ``scipy.signal.fftconvolve``'s
  algorithm on ``scipy.fft`` (``scipy.signal`` costs about half a second
  to import).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gamma

from .errors import InvalidInputError, RegularityError
from .gridpath import GridPath, trapezoid_weights


def _fftconv(a, b):
    """Full linear convolution of two real 1-d arrays, as ``fftconvolve``."""
    if len(a) == 1 or len(b) == 1:
        return a * b
    size = len(a) + len(b) - 1
    fast = next_fast_len(size, True)
    return irfft(rfft(a, fast) * rfft(b, fast), fast)[:size]


@dataclass(frozen=True)
class FracOrder:
    """Fractional order in (0,1) with an anchoring side."""

    alpha: float
    side: str = "left"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 or self.alpha == 1.0):
            raise InvalidInputError(f"order must lie in (0,1], got {self.alpha}")
        if self.side not in ("left", "right"):
            raise InvalidInputError(f"side must be 'left' or 'right', got {self.side!r}")


# ---------------------------------------------------------------------------
# cell-exact kernel moments
# ---------------------------------------------------------------------------

def _rl_weights(alpha, n, dt):
    """Moments of (u)^(alpha-1) over cells [(m-1)dt, m dt], m = 1..n-1.

    Returns (M0, M1) such that for piecewise-linear f,
    int_a^{t_k} (t_k - r)^(alpha-1) f(r) dr
        = sum_{j<k} f_j M0[k-j] + slope_j M1[k-j],
    exactly.  Index 0 of the returned arrays is unused padding.
    """
    m = np.arange(n, dtype=float)
    pa = m**alpha
    M0 = np.zeros(n)
    M1 = np.zeros(n)
    M0[1:] = dt**alpha * np.diff(pa) / alpha
    pa1 = m ** (alpha + 1.0)
    M1[1:] = m[1:] * dt * M0[1:] - dt ** (alpha + 1.0) * np.diff(pa1) / (alpha + 1.0)
    return M0, M1


def _plus_cell_weights(alpha, n, dt):
    """Moments of u^(-alpha-1) over cells [(m-1)dt, m dt], m = 1..n-1.

    A0[m] multiplies the constant offset taken at the cell's *right* node and
    is therefore zero by construction at m = 1 (where the raw moment
    diverges); A1[m] multiplies the slope against (u - (m-1)dt).
    """
    m = np.arange(n, dtype=float)
    A0 = np.zeros(n)
    A1 = np.zeros(n)
    if n > 2:
        mm = m[2:]
        A0[2:] = dt ** (-alpha) * ((mm - 1.0) ** (-alpha) - mm ** (-alpha)) / alpha
    p1 = m ** (1.0 - alpha)
    A1[1:] = dt ** (1.0 - alpha) * np.diff(p1) / (1.0 - alpha)
    if n > 2:
        mm = m[2:]
        A1[2:] += dt ** (1.0 - alpha) * (mm - 1.0) * (mm ** (-alpha) - (mm - 1.0) ** (-alpha)) / alpha
    return A0, A1


def _minus_cell_weights(alpha, n, dt):
    """Moments of u^(-alpha-1) over cells [m dt, (m+1)dt], m = 0..n-2.

    B0[m] multiplies the constant offset taken at the cell's *left* node
    (zero by construction at m = 0); B1[m] multiplies the slope against
    (u - m dt).
    """
    m = np.arange(n, dtype=float)
    B0 = np.zeros(n)
    B1 = np.zeros(n)
    if n > 1:
        B1[:-1] = dt ** (1.0 - alpha) * np.diff(m ** (1.0 - alpha)) / (1.0 - alpha)
    if n > 2:
        mm = m[1:-1]
        B0[1:-1] = dt ** (-alpha) * (mm ** (-alpha) - (mm + 1.0) ** (-alpha)) / alpha
        B1[1:-1] += dt ** (1.0 - alpha) * mm * ((mm + 1.0) ** (-alpha) - mm ** (-alpha)) / alpha
    return B0, B1


# ---------------------------------------------------------------------------
# array cores (scalar paths as flat arrays)
# ---------------------------------------------------------------------------

def rl_left_values(values, alpha, dt):
    """Left Riemann-Liouville integral of a scalar grid function, all prefixes."""
    n = len(values)
    out = np.zeros(n)
    if alpha == 1.0:
        mid = 0.5 * (values[1:] + values[:-1]) * dt
        out[1:] = np.cumsum(mid)
        return out
    M0, M1 = _rl_weights(alpha, n, dt)
    slopes = np.diff(values) / dt
    c0 = _fftconv(values[:-1], M0[1:])
    c1 = _fftconv(slopes, M1[1:])
    out[1:] = (c0[: n - 1] + c1[: n - 1]) / gamma(alpha)
    return out


def delta_plus_running(values, alpha, dt):
    """Delta_alpha f_{t0, t_k} for every k, exact on the linear interpolant."""
    n = len(values)
    out = np.zeros(n)
    if n < 2:
        return out
    A0, A1 = _plus_cell_weights(alpha, n + 1, dt)
    S0 = np.cumsum(A0[1 : n + 1])
    slopes = np.diff(values) / dt
    c0 = _fftconv(values[1:], A0[1:n])
    c1 = _fftconv(slopes, A1[1:n])
    out[1:] = values[1:] * S0[: n - 1] - c0[: n - 1] + c1[: n - 1]
    return out


def marchaud_left_values(values, alpha, dt, return_parts=False):
    """Left Marchaud derivative on the grid; value 0 at the left endpoint."""
    n = len(values)
    t = dt * np.arange(n)
    boundary = np.zeros(n)
    boundary[1:] = values[1:] * t[1:] ** (-alpha)
    delta = delta_plus_running(values, alpha, dt)
    out = (boundary + alpha * delta) / gamma(1.0 - alpha)
    if not np.all(np.isfinite(out)):
        raise RegularityError("Marchaud derivative produced non-finite values")
    if return_parts:
        return out, boundary / gamma(1.0 - alpha), alpha * delta / gamma(1.0 - alpha)
    return out


# ---------------------------------------------------------------------------
# exact signed / absolute single-interval functionals
# ---------------------------------------------------------------------------

def _seg_plus(C, B, t, p, q, alpha):
    """int_p^q (C - B(t-r)) (t-r)^(-a-1) dr for 0 <= p < q <= t."""
    a1, b1 = t - q, t - p
    if a1 <= 0.0:
        if abs(C) > 1e-12 * (abs(B) * (q - p) + 1.0):
            raise RegularityError("divergent singular integral at the right endpoint")
        term0 = 0.0
    else:
        term0 = C * (a1 ** (-alpha) - b1 ** (-alpha)) / alpha
    term1 = -B * (b1 ** (1.0 - alpha) - a1 ** (1.0 - alpha)) / (1.0 - alpha)
    return term0 + term1


def _cell_plus(f_t, fv0, slope, c0, c1, t, alpha, absolute):
    """Exact integral of (f_t - f(r)) [or its absolute value] times the
    (t-r)^(-a-1) kernel over one interpolation cell [c0, c1]."""
    # numerator n(r) = C - B*(t - r) with n(r) = f_t - fv0 - slope*(r - c0)
    B = -slope
    C = f_t - fv0 - slope * (t - c0)
    if not absolute:
        return _seg_plus(C, B, t, c0, c1, alpha)
    n0 = f_t - fv0
    n1 = f_t - (fv0 + slope * (c1 - c0))
    if n0 == 0.0 and n1 == 0.0:
        return 0.0
    if n0 * n1 >= 0.0:
        sgn = 1.0 if (n0 + n1) >= 0.0 else -1.0
        return sgn * _seg_plus(C, B, t, c0, c1, alpha)
    r_star = c0 + n0 / slope if slope != 0.0 else c1
    r_star = min(max(r_star, c0), c1)
    s0 = 1.0 if n0 > 0 else -1.0
    return s0 * _seg_plus(C, B, t, c0, r_star, alpha) - s0 * _seg_plus(C, B, t, r_star, c1, alpha)


def _seg_minus(C, B, s, p, q, alpha):
    """int_p^q (C + B(r-s)) (r-s)^(-a-1) dr for s <= p < q."""
    a1, b1 = p - s, q - s
    if a1 <= 0.0:
        if abs(C) > 1e-12 * (abs(B) * (q - p) + 1.0):
            raise RegularityError("divergent singular integral at the left endpoint")
        term0 = 0.0
    else:
        term0 = C * (a1 ** (-alpha) - b1 ** (-alpha)) / alpha
    term1 = B * (b1 ** (1.0 - alpha) - a1 ** (1.0 - alpha)) / (1.0 - alpha)
    return term0 + term1


def _cell_minus(f_s, fv0, slope, c0, c1, s, alpha, absolute):
    """Exact integral of (f(r) - f_s) [or abs] times (r-s)^(-a-1) over [c0, c1]."""
    # n(r) = C + B(r - s) with C = fv0 - f_s + slope*(s - c0), B = slope
    B = slope
    C = fv0 - f_s + slope * (s - c0)
    if not absolute:
        return _seg_minus(C, B, s, c0, c1, alpha)
    n0 = fv0 - f_s
    n1 = fv0 + slope * (c1 - c0) - f_s
    if n0 == 0.0 and n1 == 0.0:
        return 0.0
    if n0 * n1 >= 0.0:
        sgn = 1.0 if (n0 + n1) >= 0.0 else -1.0
        return sgn * _seg_minus(C, B, s, c0, c1, alpha)
    r_star = c0 - n0 / slope if slope != 0.0 else c1
    r_star = min(max(r_star, c0), c1)
    s0 = 1.0 if n0 > 0 else -1.0
    return s0 * _seg_minus(C, B, s, c0, r_star, alpha) - s0 * _seg_minus(C, B, s, r_star, c1, alpha)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def riemann_liouville(f: GridPath, order: FracOrder) -> GridPath:
    """Fractional integral I^a of f on the same grid, order in (0, 1]."""
    if f.n < 2:
        raise InvalidInputError("degenerate grid: need at least two points")
    cols = []
    for j in range(f.dim):
        v = f.component(j)
        if order.side == "right":
            col = rl_left_values(v[::-1], order.alpha, f.dt)[::-1]
        else:
            col = rl_left_values(v, order.alpha, f.dt)
        cols.append(col)
    return f.with_values(np.column_stack(cols))


def marchaud_derivative(f: GridPath, order: FracOrder, return_parts=False):
    """Marchaud fractional derivative D^a of f via the Weyl representation.

    The boundary term f(t)/(t-a)^a and the difference-quotient integral are
    both integrated exactly against the linear interpolant.  With
    ``return_parts`` the boundary and difference contributions are returned
    alongside the derivative.
    """
    if f.n < 2:
        raise InvalidInputError("degenerate grid: need at least two points")
    if order.alpha >= 1.0:
        raise InvalidInputError("Marchaud derivative requires order in (0,1)")
    outs, bnds, dels = [], [], []
    for j in range(f.dim):
        v = f.component(j)
        if order.side == "right":
            res = marchaud_left_values(v[::-1], order.alpha, f.dt, return_parts=True)
            out, bnd, dlt = (arr[::-1] for arr in res)
        else:
            out, bnd, dlt = marchaud_left_values(v, order.alpha, f.dt, return_parts=True)
        outs.append(out)
        bnds.append(bnd)
        dels.append(dlt)
    d = f.with_values(np.column_stack(outs))
    if return_parts:
        return d, f.with_values(np.column_stack(bnds)), f.with_values(np.column_stack(dels))
    return d


def _grid_index(f: GridPath, t, name):
    x = (t - f.t0) / f.dt
    k = int(round(x))
    if abs(x - k) > 1e-6 or k < 0 or k > f.n - 1:
        raise InvalidInputError(f"{name}={t} is not a grid point of {f!r}")
    return k


def delta_ratio(f: GridPath, alpha, s, t, absolute=False, direction="plus"):
    """Difference-ratio functional Delta_a f_{s,t} and its variants.

    ``direction='plus'`` integrates (f_t - f_r)/(t-r)^(a+1) over (s,t);
    ``'minus'`` integrates (f_r - f_s)/(r-s)^(a+1).  The absolute variants
    take the absolute numerator (componentwise for vector paths).  Exact per
    cell, including the sign change of the numerator inside a cell.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0,1), got {alpha}")
    if direction not in ("plus", "minus"):
        raise InvalidInputError(f"direction must be 'plus' or 'minus', got {direction!r}")
    i0 = _grid_index(f, s, "s")
    i1 = _grid_index(f, t, "t")
    if i0 >= i1:
        raise InvalidInputError(f"need s < t on the grid, got indices {i0} >= {i1}")
    tt = f.times()
    out = np.zeros(f.dim)
    for jdim in range(f.dim):
        v = f.component(jdim)
        total = 0.0
        for c in range(i0, i1):
            slope = (v[c + 1] - v[c]) / f.dt
            if direction == "plus":
                total += _cell_plus(v[i1], v[c], slope, tt[c], tt[c + 1], tt[i1], alpha, absolute)
            else:
                total += _cell_minus(v[i0], v[c], slope, tt[c], tt[c + 1], tt[i0], alpha, absolute)
        out[jdim] = total
    if not np.all(np.isfinite(out)):
        raise RegularityError("difference-ratio integral diverged")
    return float(out[0]) if f.dim == 1 else out


def default_young_alpha(hurst, margin=0.05):
    """Order used for integration against an fBm path of known Hurst index."""
    a = 1.0 - hurst + margin
    return min(max(a, 1e-3), 0.999)


def _young_running_scalar(fv, gv, alpha, dt):
    """Running Young integral of scalar f against scalar g via fractional parts.

    At prefix k the integration-by-parts sum runs over nodes j < k (the
    node j = k term vanishes) with trapezoid weights w_j that do not depend
    on k.  With h = w * D^a (f - f_0) and s the slopes of g,

      out_k = f_0 (g_k - g_0) - (bnd_k - (1 - a) Delta_k) / Gamma(a),
      bnd_k = (hg * K)_k - g_k (h * K)_k,   K(m) = (m dt)^(a-1), K(0) = 0,
      Delta_k = sum_{i<k} [g_i (h * B0)_i + s_i (h * B1)_i] - (hg * P0)_k,

    where * is the convolution and B0, B1, P0 are the cell moments of the
    right derivative of order 1 - a.
    """
    n = len(fv)
    fa = fv[0]
    ap = 1.0 - alpha
    B0, B1 = _minus_cell_weights(ap, n + 1, dt)
    P0 = np.concatenate(([0.0], np.cumsum(B0[: n - 1])))
    K = np.zeros(n)
    K[1:] = (np.arange(1, n) * dt) ** (alpha - 1.0)
    h = trapezoid_weights(n, dt) * marchaud_left_values(fv - fa, alpha, dt)
    hg = h * gv
    slopes = np.diff(gv) / dt
    bnd = _fftconv(hg, K)[:n] - gv * _fftconv(h, K)[:n]
    terms = gv[:-1] * _fftconv(h, B0[: n - 1])[: n - 1] + slopes * _fftconv(h, B1[: n - 1])[: n - 1]
    delta = np.concatenate(([0.0], np.cumsum(terms))) - _fftconv(hg, P0)[:n]
    out = fa * (gv - gv[0]) - (bnd - ap * delta) / gamma(alpha)
    out[0] = 0.0  # the empty integral, without the sign of a rounded zero
    if not np.all(np.isfinite(out)):
        raise RegularityError("Young integral diverged; regularity gap too small")
    return out


def young_integral(f: GridPath, g: GridPath, alpha) -> GridPath:
    """Running integral of f against g by fractional integration by parts.

    Componentwise contraction rules: scalar f against any g integrates each
    g-component; f and g of equal dimension contract to a scalar path; vector
    f against scalar g integrates each f-component.
    """
    if not f.same_grid(g):
        raise InvalidInputError("f and g must share the same grid")
    if f.n < 2:
        raise InvalidInputError("degenerate grid: need at least two points")
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0,1), got {alpha}")
    if f.dim == 1 and g.dim == 1:
        vals = _young_running_scalar(f.scalar(), g.scalar(), alpha, f.dt)[:, None]
    elif f.dim == g.dim:
        acc = np.zeros(f.n)
        for c in range(f.dim):
            acc += _young_running_scalar(f.component(c), g.component(c), alpha, f.dt)
        vals = acc[:, None]
    elif f.dim == 1:
        vals = np.column_stack(
            [_young_running_scalar(f.scalar(), g.component(c), alpha, f.dt) for c in range(g.dim)]
        )
    elif g.dim == 1:
        vals = np.column_stack(
            [_young_running_scalar(f.component(c), g.scalar(), alpha, f.dt) for c in range(f.dim)]
        )
    else:
        raise InvalidInputError(f"incompatible dimensions f.dim={f.dim}, g.dim={g.dim}")
    return f.with_values(vals)

"""Grid-based fractional integrals, Marchaud derivatives and Young integrals.

All singular kernels ((t-r)^(a-1), (t-r)^(-a-1), (r-s)^(-a-1)) are integrated
in closed form cell by cell against the piecewise-linear interpolant of the
input path (product integration).  Naive quadrature at the singularity either
diverges or loses all accuracy, so none is used anywhere in this module.

Conventions
-----------
* Every operator acts on the whole (n, d) value array of a path at once, and
  each column's result is the one that column gives alone.
* Left-sided operators act from the first grid point a = t0.  Right-sided
  operators, and the ``'minus'`` difference ratios, are the left-sided (and
  ``'plus'``) machinery applied to the time-reversed values.
* One table, ``_cell_moments``, holds the moments of u^(-a-1) over the lag
  cells [m dt, (m+1) dt], u the distance to the kernel's singular end.
  Looking back from node k (the left Marchaud derivative, the difference
  ratios) cell [t_{k-m-1}, t_{k-m}] is entry m; looking forward from node i
  (the right derivative inside the Young integral) cell [t_{i+m}, t_{i+m+1}]
  is.  ``path_norms`` reads both its ratios off one forward table; its
  absolute ratio at node k takes lag l from the row of node k - l.
  ``_cell_integral`` is the same integral over part of a cell, for the sign
  split of the absolute ratios.
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
  algorithm on ``numpy.fft``, at the 5-smooth length that
  ``scipy.fft.next_fast_len`` gives real transforms (``_next_fast_len``);
  the package imports no scipy.
* A path with a non-finite value raises ``InvalidInputError`` at every
  public entry; a non-finite result of a finite path raises
  ``RegularityError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .errors import InvalidInputError, RegularityError
from .gridpath import GridPath, trapezoid_weights


def _gamma(x):
    """Gamma(x), inf where it overflows: at x below about 5.6e-309, where
    ``math.gamma`` raises."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _next_fast_len(n):
    """The smallest 2^i 3^j 5^k >= n >= 1."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:  # odd = 5^k
        part = odd
        while part < best:  # part = 3^j 5^k, times the least power of two
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _fftconv(a, kernel):
    """Full linear convolution along axis 0 of an (n,) or (n, d) array with
    a 1-d kernel, each column as ``fftconvolve`` gives it."""
    shape = (-1,) + (1,) * (a.ndim - 1)
    if len(a) == 1 or len(kernel) == 1:
        return a * kernel.reshape(shape)
    size = len(a) + len(kernel) - 1
    fast = _next_fast_len(size)
    return irfft(rfft(a, fast, axis=0) * rfft(kernel, fast).reshape(shape), fast, axis=0)[:size]


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


def _check_alpha(alpha):
    """The one rule for the alpha of a difference ratio, path norm or Young integral."""
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0,1), got {alpha}")


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


def _cell_moments(alpha, cells, dt):
    """Moments of u^(-alpha-1) over the lag cells [m dt, (m+1) dt], m < cells.

    For a numerator linear on the cell, C0[m] multiplies its value at the
    near node u = m dt and C1[m] its slope against (u - m dt).  The raw C0
    moment diverges at m = 0; there the near node is the anchor, where every
    numerator of this module vanishes, so C0[0] is zero by construction.
    """
    m = np.arange(cells + 1, dtype=float)
    mm = m[1:-1]
    C0 = np.zeros(cells)
    C0[1:] = dt ** (-alpha) * (mm ** (-alpha) - (mm + 1.0) ** (-alpha)) / alpha
    C1 = dt ** (1.0 - alpha) * np.diff(m ** (1.0 - alpha)) / (1.0 - alpha)
    C1[1:] += dt ** (1.0 - alpha) * mm * ((mm + 1.0) ** (-alpha) - mm ** (-alpha)) / alpha
    return C0, C1


def _cell_integral(c, s, p, q, alpha):
    """int_p^q (c + s u) u^(-alpha-1) du for 0 <= p <= q, exact.

    Where p = 0 the numerator must vanish at u = 0 (c = 0), and the
    divergent moment it multiplies is dropped.
    """
    with np.errstate(divide="ignore"):
        p_a = np.where(p > 0.0, p ** (-alpha), 0.0)
    return c * (p_a - q ** (-alpha)) / alpha + s * (q ** (1.0 - alpha) - p ** (1.0 - alpha)) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# array cores on (n, d) value arrays, n >= 2
# ---------------------------------------------------------------------------

def rl_left_values(values, alpha, dt):
    """Left Riemann-Liouville integral of every column, all prefixes."""
    n = len(values)
    out = np.zeros(values.shape)
    if alpha == 1.0:
        mid = 0.5 * (values[1:] + values[:-1]) * dt
        out[1:] = np.cumsum(mid, axis=0)
        return out
    M0, M1 = _rl_weights(alpha, n, dt)
    slopes = np.diff(values, axis=0) / dt
    c0 = _fftconv(values[:-1], M0[1:])
    c1 = _fftconv(slopes, M1[1:])
    out[1:] = (c0[: n - 1] + c1[: n - 1]) / _gamma(alpha)
    return out


def delta_plus_running(values, alpha, dt):
    """Delta_alpha f_{t0, t_k} for every k and column, exact on the linear
    interpolant: int_{t0}^{t_k} (f_k - f(r)) (t_k - r)^(-alpha-1) dr."""
    n = len(values)
    C0, C1 = _cell_moments(alpha, n, dt)
    slopes = np.diff(values, axis=0) / dt
    c0 = _fftconv(values[1:], C0[: n - 1])
    c1 = _fftconv(slopes, C1[: n - 1])
    out = np.zeros(values.shape)
    out[1:] = values[1:] * np.cumsum(C0)[: n - 1, None] - c0[: n - 1] + c1[: n - 1]
    return out


def marchaud_left_values(values, alpha, dt):
    """Left Marchaud derivative of every column; value 0 at the left endpoint."""
    n = len(values)
    t = dt * np.arange(n)
    boundary = np.zeros(values.shape)
    boundary[1:] = values[1:] * (t[1:] ** (-alpha))[:, None]
    return (boundary + alpha * delta_plus_running(values, alpha, dt)) / _gamma(1.0 - alpha)


def _ratio_to_end(values, alpha, dt, absolute):
    """int_{t0}^{t} (f_t - f(r)) (t - r)^(-alpha-1) dr for every column of an
    (n, d) array, t its last node, or the same with |f_t - f(r)|.

    Exact per cell; an absolute cell is split where its numerator changes
    sign, and each piece is ``_cell_integral``.
    """
    n = len(values)
    near = values[-1] - values[1:]  # numerator at each cell's right node
    s = np.diff(values, axis=0) / dt  # its slope in the lag u = t - r
    if not absolute:
        C0, C1 = _cell_moments(alpha, n - 1, dt)
        return np.sum(C0[::-1, None] * near + C1[::-1, None] * s, axis=0)
    lo = (dt * np.arange(n - 2, -1, -1))[:, None]
    hi = (dt * np.arange(n - 1, 0, -1))[:, None]
    far = values[-1] - values[:-1]
    c = near - s * lo
    with np.errstate(divide="ignore", invalid="ignore"):
        split = np.where(near * far < 0.0, np.clip(lo - near / s, lo, hi), hi)
    pieces = np.abs(_cell_integral(c, s, lo, split, alpha)) + np.abs(_cell_integral(c, s, split, hi, alpha))
    return np.sum(pieces, axis=0)


def _young_running(fv, gv, alpha, dt):
    """Running Young integral of the columns of f against those of g.

    f and g are (n, d) or (n, 1) and broadcast column by column.  At prefix
    k the integration-by-parts sum runs over nodes j < k (the node j = k
    term vanishes) with trapezoid weights w_j that do not depend on k.
    With h = w * D^a (f - f_0) and s the slopes of g,

      out_k = f_0 (g_k - g_0) - (bnd_k - (1 - a) Delta_k) / Gamma(a),
      bnd_k = (hg * K)_k - g_k (h * K)_k,   K(m) = (m dt)^(a-1), K(0) = 0,
      Delta_k = sum_{i<k} [g_i (h * C0)_i + s_i (h * C1)_i] - (hg * P0)_k,

    where * is the convolution along the grid, C0, C1 are the cell moments
    of the right derivative of order 1 - a and P0 their running sum.
    """
    n = len(fv)
    ap = 1.0 - alpha
    C0, C1 = _cell_moments(ap, n, dt)
    P0 = np.concatenate(([0.0], np.cumsum(C0[: n - 1])))
    K = np.zeros(n)
    K[1:] = (np.arange(1, n) * dt) ** (alpha - 1.0)
    h = trapezoid_weights(n, dt)[:, None] * marchaud_left_values(fv - fv[0], alpha, dt)
    hg = h * gv
    slopes = np.diff(gv, axis=0) / dt
    bnd = _fftconv(hg, K)[:n] - gv * _fftconv(h, K)[:n]
    terms = gv[:-1] * _fftconv(h, C0[: n - 1])[: n - 1] + slopes * _fftconv(h, C1[: n - 1])[: n - 1]
    delta = np.concatenate((np.zeros((1, terms.shape[1])), np.cumsum(terms, axis=0))) - _fftconv(hg, P0)[:n]
    out = fv[0] * (gv - gv[0]) - (bnd - ap * delta) / _gamma(alpha)
    out[0] = 0.0  # the empty integral, without the sign of a rounded zero
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _path_values(f: GridPath):
    """The (n, d) values of a path with at least two nodes, all finite."""
    if f.n < 2:
        raise InvalidInputError("degenerate grid: need at least two points")
    if not np.all(np.isfinite(f.values)):
        raise InvalidInputError(f"fractional calculus needs a finite path, got non-finite values in {f!r}")
    return f.values


def _finite_result(out, message):
    if not np.all(np.isfinite(out)):
        raise RegularityError(message)
    return out


def _from_side(core, values, side, *args):
    """A left-sided core on the values, or on their time reversal for 'right'."""
    if side == "right":
        return core(values[::-1], *args)[::-1]
    return core(values, *args)


def riemann_liouville(f: GridPath, order: FracOrder) -> GridPath:
    """Fractional integral I^a of f on the same grid, order in (0, 1]."""
    out = _from_side(rl_left_values, _path_values(f), order.side, order.alpha, f.dt)
    return f.with_values(_finite_result(out, "Riemann-Liouville integral produced non-finite values"))


def marchaud_derivative(f: GridPath, order: FracOrder) -> GridPath:
    """Marchaud fractional derivative D^a of f via the Weyl representation.

    The boundary term f(t)/(t-a)^a and the difference-quotient integral are
    both integrated exactly against the linear interpolant.
    """
    values = _path_values(f)
    if order.alpha >= 1.0:
        raise InvalidInputError("Marchaud derivative requires order in (0,1)")
    out = _from_side(marchaud_left_values, values, order.side, order.alpha, f.dt)
    return f.with_values(_finite_result(out, "Marchaud derivative produced non-finite values"))


def _grid_index(f: GridPath, t, name):
    x = (t - f.t0) / f.dt
    k = int(round(x))
    if abs(x - k) > 1e-6 or k < 0 or k > f.n - 1:
        raise InvalidInputError(f"{name}={t} is not a grid point of {f!r}")
    return k


def delta_ratio(f: GridPath, alpha, s, t, absolute=False, direction="plus"):
    """Difference-ratio functional Delta_a f_{s,t} and its variants.

    ``direction='plus'`` integrates (f_t - f_r)/(t-r)^(a+1) over (s,t);
    ``'minus'`` integrates (f_r - f_s)/(r-s)^(a+1), which is minus the plus
    ratio of the time-reversed path.  The absolute variants take the
    absolute numerator (componentwise for vector paths).  Exact per cell,
    including the sign change of the numerator inside a cell.
    """
    _check_alpha(alpha)
    if direction not in ("plus", "minus"):
        raise InvalidInputError(f"direction must be 'plus' or 'minus', got {direction!r}")
    i0 = _grid_index(f, s, "s")
    i1 = _grid_index(f, t, "t")
    if i0 >= i1:
        raise InvalidInputError(f"need s < t on the grid, got indices {i0} >= {i1}")
    values = _path_values(f)[i0 : i1 + 1]
    if direction == "plus":
        out = _ratio_to_end(values, alpha, f.dt, absolute)
    elif absolute:
        out = _ratio_to_end(values[::-1], alpha, f.dt, absolute)
    else:
        out = -_ratio_to_end(values[::-1], alpha, f.dt, absolute)
    _finite_result(out, "difference-ratio integral diverged")
    return float(out[0]) if f.dim == 1 else out


def default_young_alpha(hurst, margin=0.05):
    """Order used for integration against an fBm path of known Hurst index."""
    a = 1.0 - hurst + margin
    return min(max(a, 1e-3), 0.999)


def young_integral(f: GridPath, g: GridPath, alpha) -> GridPath:
    """Running integral of f against g by fractional integration by parts.

    Componentwise contraction rules: scalar f against any g integrates each
    g-component; f and g of equal dimension contract to a scalar path; vector
    f against scalar g integrates each f-component.
    """
    if not f.same_grid(g):
        raise InvalidInputError("f and g must share the same grid")
    fv, gv = _path_values(f), _path_values(g)
    _check_alpha(alpha)
    if f.dim != g.dim and 1 not in (f.dim, g.dim):
        raise InvalidInputError(f"incompatible dimensions f.dim={f.dim}, g.dim={g.dim}")
    out = _young_running(fv, gv, alpha, f.dt)
    if f.dim == g.dim > 1:
        out = out.sum(axis=1, keepdims=True)
    return f.with_values(_finite_result(out, "Young integral diverged; regularity gap too small"))

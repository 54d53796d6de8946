"""Cell problem of the fast dynamics: invariant density, centered Poisson
solve, coefficient averaging, and the effective noise matrix.

The one-dimensional generator (tau^2/2) d2/dy2 + f d/dy admits the
closed-form stationary density rho ~ (1/tau^2) exp(int 2f/tau^2) and a
double-quadrature Poisson solve; both are evaluated on a truncated grid
whose tails are checked explicitly.  The fast state and the slow state it
is averaged against are scalars.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import derived, reads
from .errors import CenteringError, DivergenceError, InvalidInputError, TruncationError


def _cumulative(values, dy):
    """Cumulative Simpson integral along axis 0 from the first grid point,
    initial 0, on at least three points.

    The equal-interval rule of ``scipy.integrate.cumulative_simpson``, step
    for step (its import alone costs about 0.2 s): cell k takes the
    three-point rule on nodes k..k+2 when k is even and not the last cell,
    and on nodes k-1..k+1 otherwise.
    """
    v = np.asarray(values, dtype=float)
    f0, f1, f2 = v[:-2], v[1:-1], v[2:]
    first = dy / 3 * (5 * f0 / 4 + 2 * f1 - f2 / 4)  # cell k on nodes k..k+2
    second = dy / 3 * (5 * f2 / 4 + 2 * f1 - f0 / 4)  # cell k+1 on nodes k..k+2
    cells = np.empty((v.shape[0] - 1,) + v.shape[1:])
    cells[:-1:2] = first[::2]
    cells[1::2] = second[::2]
    cells[-1] = second[-1]
    out = np.zeros(v.shape)
    # adding the initial 0.0 turns a -0.0 sum into +0.0, as scipy does
    out[1:] = np.cumsum(cells, axis=0) + 0.0
    return out


def _cumulative_from_zero(integrand, y):
    """Cumulative integral of integrand anchored at y = 0 (grid centered)."""
    cum = _cumulative(integrand, y[1] - y[0])
    i0 = y.size // 2
    return cum - cum[i0]


@dataclass
class InvariantMeasure:
    """Stationary density of the fast generator on a truncated 1-d domain."""

    grid: np.ndarray
    density: np.ndarray

    @property
    def dy(self):
        return float(self.grid[1] - self.grid[0])

    def average(self, values):
        """Trapezoid integral of grid values against the density."""
        return np.trapezoid(values * self.density, self.grid, axis=-1)

    def quantile_edges(self, nbins):
        """Bin edges splitting the measure into nbins equal-mass cells."""
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.grid)))
        )
        cdf /= cdf[-1]
        qs = np.linspace(0.0, 1.0, nbins + 1)
        return np.interp(qs, cdf, self.grid)


@dataclass
class PoissonSolution:
    """Corrector psi and its gradient on the fast grid, each of shape (ny,)."""

    psi: np.ndarray
    grad: np.ndarray


def _unnormalized_density(f, tau, y):
    """(1/tau^2) exp(int_0^y 2 f / tau^2) on the grid y, scaled to peak order 1."""
    tau2 = np.broadcast_to(np.asarray(tau(y), dtype=float), y.shape) ** 2
    if not np.all(tau2 > 0):  # also rejects NaN
        raise InvalidInputError("tau^2 must be positive on the domain")
    drift = np.broadcast_to(np.asarray(f(y), dtype=float), y.shape)
    pot = _cumulative_from_zero(2.0 * drift / tau2, y)
    return np.exp(pot - pot.max()) / tau2


def invariant_density_1d(f, tau, L, n, tail_ratio=1e-8, norm_tol=1e-6):
    """Stationary density of (tau^2/2) d2 + f d on [-L, L].

    rho(y) ~ (1/tau^2(y)) exp(int_0^y 2 f / tau^2), the zero-flux form of
    the stationary equation.  Fails with a truncation error when the
    boundary values are not negligible against the mode.
    """
    if L <= 0 or n < 8:
        raise InvalidInputError(f"bad domain: L={L}, n={n}")
    y = np.linspace(-L, L, int(n))
    raw = _unnormalized_density(f, tau, y)
    rho = raw / float(np.trapezoid(raw, y))
    peak = rho.max()
    if rho[0] > tail_ratio * peak or rho[-1] > tail_ratio * peak:
        raise TruncationError(
            f"density at the boundary ({max(rho[0], rho[-1]):.2e} of peak {peak:.2e}) "
            "is not negligible; enlarge L"
        )
    total = float(np.trapezoid(rho, y))
    if abs(total - 1.0) > norm_tol:
        raise InvalidInputError(f"normalization failed: integral = {total}")
    return InvariantMeasure(grid=y, density=rho)


CENTERING_TOL = 1e-4  # largest |int b dmu| of a centered slow drift


def solve_poisson_1d(b, f, tau, mu: InvariantMeasure, centering_tol=CENTERING_TOL):
    """Centered solution of (tau^2/2) psi'' + f psi' = -b on the grid.

    Integrating the divergence form (tau^2 rho psi')' = -2 b rho twice gives
    psi'(y) = -(2/(tau^2 rho))(y) int_{-L}^y b rho, then psi by quadrature
    and a final centering shift.  The gradient comes from the quadrature
    formula directly, not from differencing psi.
    """
    y = mu.grid
    rho = mu.density
    dy = mu.dy
    brho = np.broadcast_to(np.asarray(b(y), dtype=float), y.shape) * rho
    mean = float(np.trapezoid(brho, y))
    if abs(mean) > centering_tol:
        raise CenteringError(f"drift is not centered: int b dmu = {mean}", b_mean=mean)
    tau2 = np.broadcast_to(np.asarray(tau(y), dtype=float), y.shape) ** 2
    grad = -2.0 * _cumulative(brho, dy) / (tau2 * rho)
    psi = _cumulative(grad, dy)
    psi -= np.trapezoid(psi * rho, y)
    return PoissonSolution(psi=psi, grad=grad)


# Nodes x grid points per coefficient evaluation; longer paths run in blocks.
_MAX_BLOCK_POINTS = 1 << 18


def _slow_states(xs):
    """xs as floats (n,); ``InvalidInputError`` for any other shape."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise InvalidInputError(f"slow states must have shape (n,), got {xs.shape}")
    return xs


def _block_average(vals, mu: InvariantMeasure, rows, cells):
    vals = np.atleast_2d(np.asarray(vals, dtype=float))
    ny = mu.grid.size
    if vals.ndim != 2 or vals.shape[0] not in (1, rows) or vals.shape[1] not in (1, ny):
        raise InvalidInputError(f"coefficient returned shape {vals.shape}, expected one broadcasting to ({rows}, {ny})")
    if cells is None:
        return np.broadcast_to(mu.average(vals) if vals.shape[1] == ny else vals[:, 0], rows)
    index, weight = cells
    width = int(index[-1]) + 1
    if vals.shape[1] == ny:
        # summed row by row in grid order, so a node's averages do not
        # depend on its block
        keys = np.arange(len(vals))[:, None] * width + index
        vals = np.bincount(keys.ravel(), (vals * weight).ravel(), len(vals) * width).reshape(-1, width)
    return np.broadcast_to(vals, (rows, width))


def average_coeff(coef, mu: InvariantMeasure, xs=None, cells=None):
    """mu-averages of a scalar coefficient along a path of slow states.

    ``coef(x, y)`` is called on node blocks of the path ``xs`` (n,), as
    columns x (nodes, 1), against the fast grid ``y`` (ny,), so its result
    broadcasts to (nodes, ny) as elementwise numpy expressions do; one
    whose declared ``reads`` lacks "x" (``coefficients.reads``) is called
    once, on the first node, and its averages serve every node.  A result
    whose last axis is the grid is integrated against the density; one
    without it (last axis of size 1, or 0-d) is its own average.  Returns
    (n,).  With ``cells``, a pair of (ny,) arrays (the non-decreasing cell
    index of each grid point, from 0 to p - 1, and weights that sum to one
    on each cell), returns the (n, p) weighted averages on the cells
    instead.  With ``xs`` None, ``coef(y)`` is averaged once and the result
    is 0-d.
    """
    y = mu.grid
    if xs is None:
        return _block_average(coef(y), mu, 1, None)[0]
    xs = _slow_states(xs)
    if not reads(coef, "x"):
        return np.repeat(_block_average(coef(xs[:1, None], y), mu, 1, cells), len(xs), axis=0)
    step = max(1, _MAX_BLOCK_POINTS // y.size)
    blocks = (xs[i : i + step, None] for i in range(0, len(xs), step))
    return np.concatenate([_block_average(coef(blk, y), mu, len(blk), cells) for blk in blocks])


def effective_noise(spec, psol: PoissonSolution, mu: InvariantMeasure):
    """Effective noise map q(x, y) = grad-psi(y) tau(y) + sigma2(x, y)
    on the grid of ``mu``, in the calling convention of ``average_coeff``:
    a ``Coefficient`` that reads y, and x where sigma2 does."""
    qy = psol.grad * spec.tau(mu.grid)
    return derived("q", lambda xs, y: qy + spec.sigma2(xs, y), spec.sigma2, "y")


def effective_q(spec, psol: PoissonSolution, mu: InvariantMeasure, x, degeneracy_tol=1e-8):
    """Gram of the effective noise map Q(y) = grad-psi(y) tau(y) + sigma2(x, y)
    at one slow state x, averaged against the invariant measure.

    Returns a dict with ``qqt_bar``, the mean of Q^2, a float, and the flag
    ``degenerate``, qqt_bar <= ``degeneracy_tol``: degenerate systems are
    simply outside the general evaluator's domain.  A Gram that is not
    finite raises ``DivergenceError``.
    """
    q = effective_noise(spec, psol, mu)
    with np.errstate(over="ignore", invalid="ignore"):
        qqt_bar = float(average_coeff(derived("q^2", lambda x_, y: q(x_, y) ** 2, q), mu, [x])[0])
    if not np.isfinite(qqt_bar):
        raise DivergenceError(f"effective Brownian Gram at x = {x} is not finite ({qqt_bar}): Q^2 overflowed")
    return {"qqt_bar": qqt_bar, "degenerate": qqt_bar <= degeneracy_tol}


def domain_halfwidth(f, tau, sigmas=8.0, probe_half=30.0, n=4001):
    """Truncation half-width: ``sigmas`` standard deviations of the density."""
    y = np.linspace(-probe_half, probe_half, n)
    raw = _unnormalized_density(f, tau, y)
    raw /= np.trapezoid(raw, y)
    var = np.trapezoid(y**2 * raw, y) - np.trapezoid(y * raw, y) ** 2
    return float(sigmas * np.sqrt(max(var, 1e-12)))

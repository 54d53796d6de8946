"""Large-deviations rate functionals of the homogenized slow dynamics.

Four evaluators share one differentiation convention (``GridPath.derivative``)
and one set of averaged coefficients (``LimitDrift``), which they evaluate
on the whole scalar path (``GridPath.scalar``) at once:

* ``eval_rate_explicit`` - the closed quadratic form available when the
  singular drift and the Brownian diffusion vanish and the averaged rough
  diffusion is invertible; equals half the squared inverse-lift norm of the
  forced displacement.
* ``eval_rate_general`` - the operator form: solve the effective
  diffusivity Gram system through the triangular Kdot block and a Woodbury
  correction for the rest, in numpy alone, and read off both the value and
  the minimizing control pair.
* ``eval_rate_fw_half`` / ``eval_rate_tilde_half`` - the two classical-noise
  quadratic forms; they differ exactly by replacing the average of the
  squared coefficient with the square of the averaged coefficient.
* ``h_limit_study`` - the rough-noise values along a list of Hurst indices
  against both classical forms, exhibiting the limit gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cameron_martin import HurstContext, kdot_inverse
from .coefficients import affine, derived, is_zero
from .errors import (
    AdmissibilityError,
    DegeneracyError,
    DivergenceError,
    RegularityError,
)
from .gridpath import GridPath, l2_norm, trapezoid_weights
from .poisson_cell import InvariantMeasure, PoissonSolution, _slow_states, average_coeff, effective_noise

# sigma1-bar is singular where its smallest singular value is below this
_SINGULAR_TOL = 1e-8
# the Gram operator G = B B^T is degenerate where the singular values
# [s_min, s_max] of its square root B have s_min <= _DEGENERATE_RATIO * max(s_max, 1),
# or s_min is NaN
_DEGENERATE_RATIO = 1e-8


@dataclass
class LimitDrift:
    """Averaged coefficient set entering the limiting dynamics.

    Every callable maps a path of slow states xs (n,), a single state being
    the one-node path (1,), to one average per node (n,): ``cbar`` and
    ``grad_psi_g_bar`` the drift pieces, ``sigma1_bar`` the naively averaged
    rough diffusion, ``sigma1_sq_bar`` the averaged squared coefficient and
    ``qqt_bar`` the effective Brownian Gram.  ``q_bins`` carries the
    effective noise map averaged on equal-mass cells of the measure for
    feedback-control representations, (n, nbins), with the cell masses
    ``bin_mass`` and centres ``bin_centers``.  Each raises
    ``InvalidInputError`` when xs is not one-dimensional.  ``affine_drift``
    is (slope, intercept) when cbar + grad_psi_g_bar is slope x + intercept
    by the declared affine forms of c and g (None: not declared).
    """

    cbar: object
    grad_psi_g_bar: object
    sigma1_bar: object
    sigma1_sq_bar: object
    qqt_bar: object
    q_bins: object
    bin_mass: np.ndarray
    bin_centers: np.ndarray
    affine_drift: tuple | None = None


def build_limit_drift(spec, psol: PoissonSolution, mu: InvariantMeasure, nbins=64):
    """Average the coefficients of a slow-fast system against the invariant
    measure and bin the effective noise map on measure quantiles.

    The corrector ``grad_psi_g_bar`` of a g declared zero is zero and is
    not averaged.  When c is declared affine, (ax, ay, const), and g zero
    or affine, (gx, gy, gc), the drift's ``affine_drift`` is read off the
    averages E[y], E[psi'] and E[psi' y] once: cbar = ax x + ay E[y] + const
    and grad_psi_g_bar = gx x E[psi'] + gy E[psi' y] + gc E[psi'].
    """
    q = effective_noise(spec, psol, mu)
    y = mu.grid
    edges = mu.quantile_edges(nbins)
    # each grid point's cell, and its density quadrature weight normalized
    # to one over the cell
    cell = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, nbins - 1)
    weight = trapezoid_weights(y.size, mu.dy) * mu.density
    mass = np.bincount(cell, weight, nbins)
    cells = (cell, weight / np.where(mass > 0, mass, 1.0)[cell])
    g1 = psol.grad
    if is_zero(spec.g):
        grad_psi_g_bar = lambda xs: np.zeros(_slow_states(xs).shape)  # noqa: E731
    else:
        psi_g = derived("psi' g", lambda x, yy: g1 * spec.g(x, yy), spec.g, "y")
        grad_psi_g_bar = lambda xs: average_coeff(psi_g, mu, xs)  # noqa: E731
    affine_drift, c_form, g_form = None, affine(spec.c), affine(spec.g)
    if c_form is not None and (is_zero(spec.g) or g_form is not None):
        ax, ay, const = c_form
        slope, intercept = ax, ay * float(mu.average(y)) + const
        if not is_zero(spec.g):
            gx, gy, gc = g_form
            mean_g1 = float(mu.average(g1))
            slope, intercept = slope + gx * mean_g1, intercept + gy * float(mu.average(g1 * y)) + gc * mean_g1
        affine_drift = (slope, intercept)
    sigma1_sq = derived("sigma1^2", lambda x, yy: spec.sigma1(x, yy) ** 2, spec.sigma1)
    q_sq = derived("q^2", lambda x, yy: q(x, yy) ** 2, q)

    return LimitDrift(
        cbar=lambda xs: average_coeff(spec.c, mu, xs),
        grad_psi_g_bar=grad_psi_g_bar,
        sigma1_bar=lambda xs: average_coeff(spec.sigma1, mu, xs),
        sigma1_sq_bar=lambda xs: average_coeff(sigma1_sq, mu, xs),
        qqt_bar=lambda xs: average_coeff(q_sq, mu, xs),
        q_bins=lambda xs: average_coeff(q, mu, xs, cells),
        bin_mass=mass / mass.sum(),
        bin_centers=0.5 * (edges[:-1] + edges[1:]),
        affine_drift=affine_drift,
    )


@dataclass
class RateEvalResult:
    """Rate value with its minimizer and method tag.  The minimizer is a
    dict, ``"v1"`` the rough control as a ``GridPath``, plus for the general
    rate the Brownian feedback ``"u2_feedback"`` (n, nbins) on the cells
    centred at ``"bin_centers"``; None for the classical forms and an
    inadmissible path.  A NaN value raises ``DivergenceError``; an
    inadmissible path's is inf."""

    value: float
    method: str
    minimizer: object = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.isnan(self.value):
            raise DivergenceError(f"{self.method} rate is NaN: the path or its forced displacement overflowed")


def _forced_displacement(phi: GridPath, drift: LimitDrift, include_psi_g=True):
    """The path's nodes x = phi.scalar() and phi-dot minus the homogenized
    drift there, r, each (n,).  Overflow is not reported here: every
    evaluator checks what it reads of r for finiteness."""
    x = phi.scalar()
    with np.errstate(over="ignore", invalid="ignore"):
        r = phi.derivative()[:, 0] - drift.cbar(x)
        if include_psi_g:
            r = r - drift.grad_psi_g_bar(x)
    return x, r


def _normalized_displacement(phi: GridPath, drift: LimitDrift):
    """psi = (phi-dot - cbar) / sigma1-bar along the path, shape (n,),
    after checking that |sigma1-bar| >= ``_SINGULAR_TOL`` at every node."""
    x, r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(x)
    bad = np.flatnonzero(np.abs(s1) < _SINGULAR_TOL)
    if bad.size:
        raise DegeneracyError(f"sigma1-bar singular along the path ({s1[bad[0]]:.3g} at node {bad[0]})")
    return r / s1


def eval_rate_explicit(phi: GridPath, drift: LimitDrift, ctx: HurstContext):
    """Quadratic-form rate for vanishing singular drift and Brownian noise.

    Forms psi(t) = sigma1-bar(phi_t)^{-1} [phi-dot - cbar(phi_t)] and returns
    half the squared L2 norm of the inverse lift of psi; the minimizer is
    the corresponding pre-image control.  A divergent inverse lift marks the
    path inadmissible: the value is infinity with a reason, not an error.
    """
    ctx.check_grid(phi, "eval_rate_explicit")
    psi = _normalized_displacement(phi, drift)
    try:
        v = kdot_inverse(psi, ctx)
    except RegularityError as exc:
        return RateEvalResult(
            value=float("inf"),
            method="explicit",
            diagnostics={"reason": f"inverse lift diverged: {exc}"},
        )
    val = 0.5 * l2_norm(v, phi.dt) ** 2
    return RateEvalResult(
        value=float(val),
        method="explicit",
        minimizer={"v1": GridPath(0.0, phi.dt, v)},
        diagnostics={"psi_sup": float(np.max(np.abs(psi)))},
    )


# the sweeps of _solve_gram read the triangle this many rows at a time
_BLOCK = 64


class _Triangle:
    """The lower triangular L = diag(rows) K diag(cols) + diag(extra), K a
    lower triangular array read in place, and the inverses of its diagonal
    blocks of ``_BLOCK`` rows."""

    def __init__(self, k, rows, cols, extra):
        self.k, self.rows, self.cols, self.extra = k, rows[:, None], cols[:, None], extra[:, None]
        self.inverses = []
        for k0 in range(0, len(k), _BLOCK):
            k1 = min(len(k), k0 + _BLOCK)
            d = self.rows[k0:k1] * k[k0:k1, k0:k1] * cols[k0:k1]
            d.flat[:: k1 - k0 + 1] += extra[k0:k1]
            self.inverses.append((k0, k1, np.linalg.inv(d)))

    def sweep(self, x, solve, trans=False):
        """Overwrite the columns of x (len(k), c) in one pass over the row
        blocks, forward or, when ``trans``, backward: the first ``solve`` with
        L^-1 x, the others with L x, or with L^-T x and L^T x.  Returns x."""
        k, rows, cols = self.k, self.rows, self.cols
        # the columns scaled as K reads them: cols (rows when trans) times a
        # product's input, and a solve's output once its block is solved
        xs = np.zeros_like(x)
        np.multiply(rows if trans else cols, x[:, solve:], out=xs[:, solve:])
        x[:, solve:] *= self.extra
        if not trans:
            for k0, k1, inv in self.inverses:
                xb = x[k0:k1]
                off = rows[k0:k1] * (k[k0:k1, :k1] @ xs[:k1])
                xb[:, solve:] += off[:, solve:]
                xb[:, :solve] = inv @ (xb[:, :solve] - off[:, :solve])
                np.multiply(cols[k0:k1], xb[:, :solve], out=xs[k0:k1, :solve])
            return x
        # K^T xs over the blocks swept so far
        acc = np.zeros_like(x)
        for k0, k1, inv in reversed(self.inverses):
            xb, cb = x[k0:k1], cols[k0:k1]
            xb[:, :solve] = inv.T @ (xb[:, :solve] - cb * acc[k0:k1, :solve])
            np.multiply(rows[k0:k1], xb[:, :solve], out=xs[k0:k1, :solve])
            acc[:k1] += k[k0:k1, :k1].T @ xs[k0:k1]
            xb[:, solve:] += cb * acc[k0:k1, solve:]
        return x


def _solve_gram(kd, s1, sw, qqt, r_w):
    """Solve G x = r_w on nodes 1..n-1 for the effective diffusivity Gram
    G = A A^T + diag(qqt), A[i, j] = sigma1-bar_i kd[i, j] sqrt(w_i / w_j)
    over rows 1..n-1, with (s1, sw, qqt) at all n nodes and r_w at nodes
    1..n-1.  Returns (x, r_w . x / 2, lam_max, lam_min), the last two from
    20 power and 20 inverse iterations from seed 0.

    G is not formed, since forming it squares the condition of A.  Kdot is
    lower triangular, so G = L L^T + H H^T with L = A over columns 1..n-1,
    lower triangular, and H holding column 0 of A and sqrt(qqt_i) e_i for
    each node with qqt_i > 0.  Where sigma1-bar vanishes, L has a zero row:
    there the Brownian column takes L's diagonal and L's column moves into
    H.  With C = L^-1 H and the Cholesky factor W of I + C^T C, Woodbury
    gives G^-1 = L^-T (I - D D^T) L^-1 for D = C W^-T.  One step of
    iterative refinement, x += G^-1 (r_w - G x), brings the solution to the
    accuracy of a QR of G's square root (the route this replaced, kept in
    the tests as the oracle).
    L is read through kd (``_Triangle``).  D is the one array beyond the
    inputs that grows with n, (n-1)^2 only with a Brownian diagonal at
    every node; C is solved for twice so that C, I + C^T C and W are never
    held at once.  A power step and an inverse step share one forward and
    one backward sweep.
    """
    n1 = len(kd) - 1
    k = kd[1:, 1:]
    rows = (s1 * sw)[1:]
    cols = 1.0 / sw[1:]
    qqt = qqt[1:]
    c0 = kd[1:, 0] / sw[0] * rows
    # G is semi-definite: its trace, finite when these are, bounds it
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rows @ rows + c0 @ c0 + qqt.sum()):
            raise DivergenceError("general rate: the effective diffusivity Gram overflowed")
    gaps = np.flatnonzero(rows == 0.0)
    pivots = rows * np.diagonal(k) * cols
    pivots[gaps] = np.sqrt(qqt[gaps])
    bad = np.flatnonzero(pivots == 0.0)
    if bad.size:
        raise DegeneracyError(f"effective diffusivity Gram is singular: zero pivot at node {bad[0] + 1}")
    extra = np.zeros(n1)
    extra[gaps] = pivots[gaps]
    cols_off = cols.copy()
    cols_off[gaps] = 0.0
    tri = _Triangle(k, rows, cols_off, extra)
    # the columns of H: c0, L's columns at the gaps that a later row reads,
    # and the Brownian columns off the gaps
    moved = gaps[gaps < np.flatnonzero(rows).max(initial=-1)]
    moved_cols = rows[:, None] * k[:, moved] * cols[moved]
    brown = np.flatnonzero((qqt > 0) & (rows != 0.0))
    sq = np.sqrt(qqt[brown])[:, None]
    p = 1 + moved.size + brown.size

    def h_t(v):
        return np.concatenate(((c0 @ v)[None], moved_cols.T @ v, sq * v[brown]))

    def h(t):
        out = c0[:, None] * t[:1] + moved_cols @ t[1 : 1 + moved.size]
        out[brown] += sq * t[1 + moved.size :]
        return out

    def solved(rhs):
        """[C | L^-1 rhs], swept _BLOCK columns at a time."""
        x = np.zeros((n1, p + rhs.shape[1]))
        x[:, 0] = c0
        x[:, 1 : 1 + moved.size] = moved_cols
        x[brown, 1 + moved.size + np.arange(brown.size)] = sq[:, 0]
        x[:, p:] = rhs
        for j in range(0, x.shape[1], _BLOCK):
            tri.sweep(x[:, j : j + _BLOCK], _BLOCK)
        return x

    # a near-singular L overflows C; the rules below read what comes out
    with np.errstate(all="ignore"):
        c = solved(np.empty((n1, 0)))
        m = c.T @ c
        del c
        m.flat[:: p + 1] += 1.0
        try:
            w = np.linalg.cholesky(m)
            factored = np.all(np.isfinite(w))
        except np.linalg.LinAlgError:
            factored = False
        del m
        if not factored:
            raise DegeneracyError("effective diffusivity Gram is singular: C = L^-1 H overflowed")
        dy = solved(r_w[:, None])
        d = dy[:, :p]
        # D^T = W^-1 C^T in place, _BLOCK / 2 rows of C per sweep: with a
        # Brownian diagonal at every node W and C are (n-1)^2 arrays, and the
        # sweep's scaled copy stays small beside them
        w = _Triangle(w, np.ones(p), np.ones(p), np.zeros(p))
        for j in range(0, n1, _BLOCK // 2):
            w.sweep(d[j : j + _BLOCK // 2].T, _BLOCK)
        del w

        def deflate(y):
            """(I + C C^T)^-1 y = (I - D D^T) y."""
            return y - d @ (d.T @ y)

        # G^-1 r_w = L^-T u with u = deflate(L^-1 r_w), and L^T x = u
        u_sol = deflate(dy[:, p:])
        x = tri.sweep(u_sol.copy(), 1, trans=True)
        rng = np.random.default_rng(0)
        v, u = rng.standard_normal((n1, 1)), rng.standard_normal((n1, 1))
        lx, lv = np.hsplit(tri.sweep(np.hstack((x, v)), 0, trans=True), 2)
        for _ in range(20):
            fwd = tri.sweep(np.hstack((u, lv)), 1)  # L^-1 u, L L^T v
            gv = fwd[:, 1:] + h(h_t(v))
            v = gv / np.linalg.norm(gv)
            bwd = tri.sweep(np.hstack((deflate(fwd[:, :1]), v)), 1, trans=True)  # G^-1 u, L^T v
            u, lv = bwd[:, :1] / np.linalg.norm(bwd[:, :1]), bwd[:, 1:]
        lu = tri.sweep(u.copy(), 0, trans=True)
        # x^T G x = |L^T x|^2 + |H^T x|^2
        lam_max = float(np.sum(lv * lv) + np.sum(h_t(v) ** 2))
        lam_min = float(np.sum(lu * lu) + np.sum(h_t(u) ** 2))
        # one step of refinement with the residual of the x in hand, which
        # takes L^T x to lx + du
        du = deflate(tri.sweep(r_w[:, None] - tri.sweep(lx.copy(), 0) - h(h_t(x)), 1))
        x += tri.sweep(du.copy(), 1, trans=True)
        val = 0.5 * float(np.sum((lx + du) ** 2) + np.sum(h_t(x) ** 2))
    if not np.isfinite(lam_max):
        raise DivergenceError("general rate: the effective diffusivity Gram overflowed")
    s_max, s_min = np.sqrt([lam_max, lam_min])
    if not s_min > _DEGENERATE_RATIO * max(s_max, 1.0):
        raise DegeneracyError(f"Gram operator degenerate: singular values of its square root in [{s_min:.3g}, {s_max:.3g}]")
    return x[:, 0], val, lam_max, lam_min


def eval_rate_general(phi: GridPath, drift: LimitDrift, ctx: HurstContext):
    """Operator-form rate: solve the Gram system of the effective diffusivity.

    The Gram G = Q Q* (positive definite on the admissible domain) composes
    the naively averaged coefficient with the lifted-derivative kernel
    matrix for the rough noise and adds the averaged effective Gram of the
    Brownian noise, pointwise in time, on its diagonal.  Solves
    G w = phi-dot - cbar - grad-psi-g-bar in weighted coordinates through
    the lower triangular Kdot block, read in place from the context's
    cached ``kdot_matrix``, and a Woodbury correction for the rest of G's
    square root (``_solve_gram``), and returns half the pairing plus the
    minimizing pair (time control for the rough noise, feedback bins for
    the Brownian noise).  It holds no (n-1)^2 array unless the Brownian
    diagonal is nonzero at many nodes, two with one at every node.
    ``diagnostics`` holds power-iteration estimates of G's extreme
    eigenvalues and their ratio.
    """
    ctx.check_grid(phi, "eval_rate_general")
    w = trapezoid_weights(phi.n, phi.dt)
    sw = np.sqrt(w)
    x, r = _forced_displacement(phi, drift)
    r_w = r * sw
    if not np.all(np.isfinite(r_w)):
        raise DivergenceError("general rate: the forced displacement overflowed")
    s1 = drift.sigma1_bar(x)
    kd = ctx.kdot_matrix()
    # the initial node is fixed by phi(0) = x0, not by its velocity, and the
    # lifted-derivative row vanishes there; solve on nodes 1..n-1
    w_sol = np.zeros(phi.n)
    w_sol[1:], val, lam_max, lam_min = _solve_gram(kd, s1, sw, drift.qqt_bar(x), r_w[1:])
    # minimizers: u1* = Kdot* sigma1-bar w ; u2* = Q w (per bin)
    u1 = (kd.T @ (s1 * sw * w_sol)) / w
    u2 = drift.q_bins(x) * (w_sol / sw)[:, None]
    return RateEvalResult(
        value=val,
        method="general",
        minimizer={"v1": GridPath(0.0, phi.dt, u1), "u2_feedback": u2, "bin_centers": drift.bin_centers},
        diagnostics={"condition": lam_max / lam_min, "lambda_min": lam_min, "lambda_max": lam_max},
    )


def _quadratic_form_rate(phi, r, mats, method):
    """Half the weighted time integral of r^2 / mats, both (n,).  Raises
    ``DivergenceError`` when either input has overflowed."""
    if not (np.all(np.isfinite(mats)) and np.all(np.isfinite(r))):
        raise DivergenceError(f"{method}: the effective matrix or the forced displacement overflowed")
    bad = np.flatnonzero(mats <= 1e-12)
    if bad.size:
        raise DegeneracyError(f"{method}: effective matrix degenerate at node {bad[0]}")
    return 0.5 * float(trapezoid_weights(phi.n, phi.dt) @ (r * (r / mats)))


def eval_rate_fw_half(phi: GridPath, drift: LimitDrift):
    """Classical-noise rate with the fully averaged effective matrix
    sigma1 sigma1^T-bar + Q Q^T-bar."""
    x, r = _forced_displacement(phi, drift)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _quadratic_form_rate
        mats = drift.sigma1_sq_bar(x) + drift.qqt_bar(x)
    return RateEvalResult(value=_quadratic_form_rate(phi, r, mats, "fw_half"), method="fw_half")


def eval_rate_tilde_half(phi: GridPath, drift: LimitDrift):
    """Classical-form rate with the square of the naively averaged coefficient."""
    x, r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(x)
    with np.errstate(over="ignore"):  # checked by _quadratic_form_rate
        mats = s1 * s1
    return RateEvalResult(value=_quadratic_form_rate(phi, r, mats, "tilde_half"), method="tilde_half")


def admissibility_check(phi: GridPath, drift: LimitDrift, exponent=1.05, factor=4.0, decade=10):
    """Near-zero weighted-boundedness heuristic for the limit study.

    Checks that psi(t)/t^exponent does not blow up over the first decade of
    grid points (psi the normalized forced displacement).  This is a grid
    heuristic, not a certificate; ``h_limit_study`` refuses a path that
    fails it.
    """
    psi = _normalized_displacement(phi, drift)
    head = slice(1, min(decade, phi.n - 1) + 1)
    ratios = np.abs(psi[head]) / phi.times()[head] ** exponent
    scale = max(ratios[-1], 1e-12 * ratios.max())
    ok = bool(ratios.max() <= factor * scale)
    return ok, ratios


def h_limit_study(phi: GridPath, drift: LimitDrift, h_list):
    """Rate values along a Hurst schedule against both classical forms.

    Returns a dict with one row per Hurst index plus the two classical
    values and the terminal gaps.  Raises an admissibility error when the
    near-zero heuristic clearly fails.
    """
    ok, ratios = admissibility_check(phi, drift)
    if not ok:
        raise AdmissibilityError(
            "path fails the near-zero weighted-regularity heuristic "
            f"(ratios {ratios[:3]}... vs {ratios[-1]})"
        )
    rows = []
    for h in h_list:
        ctx = HurstContext(h, phi.n, phi.dt)
        res = eval_rate_explicit(phi, drift, ctx)
        rows.append({"hurst": float(h), "value": res.value})
    tilde = eval_rate_tilde_half(phi, drift)
    fw = eval_rate_fw_half(phi, drift)
    gaps = [abs(row["value"] - tilde.value) for row in rows]
    return {
        "rows": rows,
        "tilde_half": tilde.value,
        "fw_half": fw.value,
        "gap_to_tilde": gaps,
        "gap_to_fw": [abs(row["value"] - fw.value) for row in rows],
    }


def replay_minimizer(phi: GridPath, drift: LimitDrift, ctx: HurstContext, result: RateEvalResult):
    """Integrate the limiting controlled dynamics driven by a minimizer.

    Closes the consistency loop: the returned path should reproduce the
    input within discretization tolerance when the minimizer came from one
    of the evaluators on the same drift.
    """
    mini = result.minimizer
    u1dot = ctx.kdot_matrix() @ mini["v1"].scalar()
    controls = [lambda i, x: drift.sigma1_bar(x) * u1dot[i]]
    u2 = mini.get("u2_feedback")
    if u2 is not None:
        controls.append(lambda i, x: drift.q_bins(x) @ (u2[i] * drift.bin_mass))
    return GridPath(0.0, phi.dt, averaged_euler(drift, phi.scalar()[0], phi.n, phi.dt, controls))


def averaged_euler(drift: LimitDrift, x0, n, dt, controls=()):
    """Euler path (n,) from the number x0, step dt, of the averaged drift
    cbar + grad_psi_g_bar plus each ``control(i, x)`` at node i, x the
    one-node path (1,).

    Without controls, a drift with an ``affine_drift`` (slope, intercept)
    is stepped as the float recurrence x <- x + dt (slope x + intercept),
    which agrees with the averaging loop up to the round-off of the
    averages; the loop steps every other drift."""
    if drift.affine_drift is not None and not controls:
        slope, intercept = drift.affine_drift
        x = float(x0)
        out = [x]
        for _ in range(n - 1):
            x = x + dt * (slope * x + intercept)
            out.append(x)
        return np.array(out)
    out = np.empty(n)
    out[0] = x0
    for i in range(n - 1):
        x = out[i : i + 1]
        dx = drift.cbar(x) + drift.grad_psi_g_bar(x)
        for control in controls:
            dx = dx + control(i, x)
        out[i + 1] = x[0] + dt * dx[0]
    return out

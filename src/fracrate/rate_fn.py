"""Large-deviations rate functionals of the homogenized slow dynamics.

Four evaluators share one differentiation convention (``GridPath.derivative``)
and one set of averaged coefficients (``LimitDrift``), which they evaluate
on the whole path at once:

* ``eval_rate_explicit`` - the closed quadratic form available when the
  singular drift and the Brownian diffusion vanish and the averaged rough
  diffusion is invertible; equals half the squared inverse-lift norm of the
  forced displacement.
* ``eval_rate_general`` - the operator form: factor the square root of the
  effective diffusivity Gram operator by QR, solve for the adjoint state,
  and read off both the value and the minimizing control pair.
* ``eval_rate_fw_half`` / ``eval_rate_tilde_half`` - the two classical-noise
  quadratic forms; they differ exactly by replacing the average of the
  squared coefficient with the square of the averaged coefficient.
* ``h_limit_study`` - the rough-noise values along a list of Hurst indices
  against both classical forms, exhibiting the limit gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv
from scipy.linalg.lapack import dtpqrt

from .cameron_martin import HurstContext, kdot_inverse
from .coefficients import affine, is_zero
from .errors import (
    AdmissibilityError,
    DegeneracyError,
    DivergenceError,
    RegularityError,
)
from .gridpath import GridPath, l2_norm, trapezoid_weights
from .multiscale_sim import ControlPair
from .poisson_cell import InvariantMeasure, PoissonSolution, average_coeff, effective_noise

# sigma1-bar is singular where its smallest singular value is below this
_SINGULAR_TOL = 1e-8
# the Gram operator G = R^T R is degenerate where the singular values
# [s_min, s_max] of R have s_min <= _DEGENERATE_RATIO * max(s_max, 1)
_DEGENERATE_RATIO = 1e-8


@dataclass
class LimitDrift:
    """Averaged coefficient set entering the limiting dynamics.

    Every callable takes a path of slow states xs (n, 1), a single state
    being the one-node path (1, 1), and returns the averages at its nodes
    with the nodes on the leading axis: ``cbar`` and ``grad_psi_g_bar`` the
    drift pieces (n, 1), ``sigma1_bar`` the naively averaged rough diffusion
    (n, 1, 1), ``sigma1_sq_bar`` the averaged squared coefficient (n, 1, 1),
    ``qqt_bar`` the effective Brownian Gram (n, 1, 1).  ``q_bins`` carries
    the effective noise map averaged on equal-mass cells of the measure for
    feedback-control representations, (n, nbins, 1, 1), with the cell
    masses ``bin_mass`` and centres ``bin_centers``.  ``affine_drift`` is
    (slope, intercept) when cbar + grad_psi_g_bar is slope x + intercept by
    the declared affine forms of c and g (None: not declared).
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
    g1 = psol.grad[:, 0]
    if is_zero(spec.g):
        grad_psi_g_bar = lambda xs: np.zeros((len(xs), 1))  # noqa: E731
    else:
        grad_psi_g_bar = lambda xs: average_coeff(lambda x, yy: g1 * spec.g(x, yy), mu, xs)  # noqa: E731
    affine_drift, c_form, g_form = None, affine(spec.c), affine(spec.g)
    if c_form is not None and (is_zero(spec.g) or g_form is not None):
        ax, ay, const = c_form
        slope, intercept = ax, ay * float(mu.average(y)) + const
        if not is_zero(spec.g):
            gx, gy, gc = g_form
            mean_g1 = float(mu.average(g1))
            slope, intercept = slope + gx * mean_g1, intercept + gy * float(mu.average(g1 * y)) + gc * mean_g1
        affine_drift = (slope, intercept)

    return LimitDrift(
        cbar=lambda xs: average_coeff(spec.c, mu, xs),
        grad_psi_g_bar=grad_psi_g_bar,
        sigma1_bar=lambda xs: average_coeff(spec.sigma1, mu, xs)[..., None],
        sigma1_sq_bar=lambda xs: average_coeff(lambda x, yy: spec.sigma1(x, yy) ** 2, mu, xs)[..., None],
        qqt_bar=lambda xs: average_coeff(lambda x, yy: q(x, yy) ** 2, mu, xs)[..., None],
        q_bins=lambda xs: average_coeff(q, mu, xs, cells)[..., None, None],
        bin_mass=mass / mass.sum(),
        bin_centers=0.5 * (edges[:-1] + edges[1:]),
        affine_drift=affine_drift,
    )


@dataclass
class RateEvalResult:
    """Rate value with its minimizing control representation and method tag.
    A NaN value raises ``DivergenceError``; an inadmissible path's is inf."""

    value: float
    method: str
    minimizer: object = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.isnan(self.value):
            raise DivergenceError(f"{self.method} rate is NaN: the path or its forced displacement overflowed")


def _forced_displacement(phi: GridPath, drift: LimitDrift, include_psi_g=True):
    """phi-dot minus the homogenized drift, shape (n, 1).  Overflow is not
    reported here: every evaluator checks what it reads of r for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = phi.derivative() - drift.cbar(phi.values)
        if include_psi_g:
            r = r - drift.grad_psi_g_bar(phi.values)
    return r


def _normalized_displacement(phi: GridPath, drift: LimitDrift):
    """psi = (phi-dot - cbar) / sigma1-bar along the path, shape (n, 1),
    after checking that |sigma1-bar| >= ``_SINGULAR_TOL`` at every node."""
    r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(phi.values)[:, 0]
    bad = np.flatnonzero(np.abs(s1[:, 0]) < _SINGULAR_TOL)
    if bad.size:
        raise DegeneracyError(f"sigma1-bar singular along the path ({s1[bad[0], 0]:.3g} at node {bad[0]})")
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
    ctrl = ControlPair(v1=GridPath(0.0, phi.dt, v))
    return RateEvalResult(
        value=float(val),
        method="explicit",
        minimizer=ctrl,
        diagnostics={"psi_sup": float(np.max(np.abs(psi)))},
    )


# dtpqrt factors the square root of the Gram this many columns at a time
_QR_BLOCK = 32


def _gram_range(r):
    """Power-iteration (lam_max, lam_min) of the Gram G = R^T R of the upper
    triangular R: 20 products with G and 20 solves, from seed 0."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(r))
    for _ in range(20):
        v = dtrmv(r, dtrmv(r, v), trans=1)
        v /= np.linalg.norm(v)
    u = rng.standard_normal(len(r))
    for _ in range(20):
        u = dtrsv(r, dtrsv(r, u, trans=1))
        u /= np.linalg.norm(u)
    # x^T G x = |R x|^2
    return [float(np.linalg.norm(dtrmv(r, x)) ** 2) for x in (v, u)]


def _solve_gram(kd, s1, sw, qqt, r_w):
    """Solve G x = r_w on nodes 1..n-1 for the effective diffusivity Gram
    G = A A^T + diag(qqt), A[i, j] = sigma1-bar_i kd[i, j] sqrt(w_i / w_j)
    over rows 1..n-1, with (s1, sw, qqt) at all n nodes and r_w at nodes
    1..n-1.  Returns (x, r_w . x / 2, lam_max, lam_min).

    G is not formed, since forming it squares the condition of A.  Kdot is
    lower triangular, so G = B^T B for B stacking U = (columns 1..n-1 of
    A)^T, upper triangular, over column 0 of A as one row and the rows of
    diag(sqrt(qqt)) where qqt > 0.  The triangular-pentagonal QR of B
    (dtpqrt) overwrites U with R, G = R^T R, and r_w . x = |R^-T r_w|^2.
    U is the one (n-1)^2 array; with qqt = 0, B has one row below it and
    the QR costs O(n^2), and each node with qqt > 0 adds a row of n - 1.
    """
    # A over columns 1..n-1, whose transpose U is F-contiguous
    a = kd[1:, 1:] / sw[1:]
    rows = (s1 * sw)[1:, None]
    a *= rows
    qqt = qqt[1:]
    brown = np.flatnonzero(qqt > 0)
    b = np.zeros((1 + brown.size, len(a)), order="F")
    b[0] = kd[1:, 0] / sw[0] * rows[:, 0]
    b[1 + np.arange(brown.size), brown] = np.sqrt(qqt[brown])
    # G is semi-definite: a finite trace bounds it
    if not np.isfinite(np.vdot(a, a) + np.vdot(b[0], b[0]) + qqt.sum()):
        raise DivergenceError("general rate: the effective diffusivity Gram overflowed")
    r, _, _, info = dtpqrt(brown.size, min(_QR_BLOCK, len(a)), a.T, b, overwrite_a=1, overwrite_b=1)
    diag = np.diagonal(r)
    if info or not np.all(np.isfinite(diag) & (diag != 0.0)):
        raise DegeneracyError(f"effective diffusivity Gram is singular: zero or non-finite pivot (dtpqrt info {info})")
    lam_max, lam_min = _gram_range(r)
    s_max, s_min = np.sqrt([lam_max, lam_min])
    if s_min <= _DEGENERATE_RATIO * max(s_max, 1.0):
        raise DegeneracyError(f"Gram operator degenerate: singular values of R in [{s_min:.3g}, {s_max:.3g}]")
    z = dtrsv(r, r_w, trans=1)
    return dtrsv(r, z), 0.5 * float(z @ z), lam_max, lam_min


def eval_rate_general(phi: GridPath, drift: LimitDrift, ctx: HurstContext):
    """Operator-form rate: solve the Gram system of the effective diffusivity.

    The Gram G = Q Q* (positive definite on the admissible domain) composes
    the naively averaged coefficient with the lifted-derivative kernel
    matrix for the rough noise and adds the averaged effective Gram of the
    Brownian noise, pointwise in time, on its diagonal.  Solves
    G w = phi-dot - cbar - grad-psi-g-bar in weighted coordinates through
    the triangular QR factor R of G's square root, G = R^T R, and returns
    half the pairing plus the minimizing pair (time control for the rough
    noise, feedback bins for the Brownian noise).  Beyond the context's
    cached ``kdot_matrix`` it holds one (n-1)^2 array, the square root
    overwritten by R, plus up to one more for the rows of a Brownian
    diagonal (``_solve_gram``).  ``diagnostics`` holds power-iteration
    estimates of G's extreme eigenvalues and their ratio.
    """
    ctx.check_grid(phi, "eval_rate_general")
    w = trapezoid_weights(phi.n, phi.dt)
    sw = np.sqrt(w)
    r_w = _forced_displacement(phi, drift)[:, 0] * sw
    if not np.all(np.isfinite(r_w)):
        raise DivergenceError("general rate: the forced displacement overflowed")
    s1 = drift.sigma1_bar(phi.values)[:, 0, 0]
    kd = ctx.kdot_matrix()
    # the initial node is fixed by phi(0) = x0, not by its velocity, and the
    # lifted-derivative row vanishes there; solve on nodes 1..n-1
    w_sol = np.zeros(phi.n)
    w_sol[1:], val, lam_max, lam_min = _solve_gram(kd, s1, sw, drift.qqt_bar(phi.values)[:, 0, 0], r_w[1:])
    # minimizers: u1* = Kdot* sigma1-bar w ; u2* = Q w (per bin)
    u1 = ((kd.T @ (s1 * sw * w_sol)) / w)[:, None]
    u2 = drift.q_bins(phi.values)[..., 0] * (w_sol / sw)[:, None, None]
    ctrl = ControlPair(v1=GridPath(0.0, phi.dt, u1))
    return RateEvalResult(
        value=val,
        method="general",
        minimizer={"v1": ctrl.v1, "u2_feedback": u2, "bin_centers": drift.bin_centers},
        diagnostics={"condition": lam_max / lam_min, "lambda_min": lam_min, "lambda_max": lam_max},
    )


def _quadratic_form_rate(phi, r, mats, method):
    """Half the weighted time integral of r^2 / mats, r (n, 1) and mats
    (n, 1, 1).  Raises ``DivergenceError`` when either input has overflowed."""
    if not (np.all(np.isfinite(mats)) and np.all(np.isfinite(r))):
        raise DivergenceError(f"{method}: the effective matrix or the forced displacement overflowed")
    mats, r = mats[:, 0, 0], r[:, 0]
    bad = np.flatnonzero(mats <= 1e-12)
    if bad.size:
        raise DegeneracyError(f"{method}: effective matrix degenerate at node {bad[0]}")
    return 0.5 * float(trapezoid_weights(phi.n, phi.dt) @ (r * (r / mats)))


def eval_rate_fw_half(phi: GridPath, drift: LimitDrift):
    """Classical-noise rate with the fully averaged effective matrix
    sigma1 sigma1^T-bar + Q Q^T-bar."""
    r = _forced_displacement(phi, drift)
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _quadratic_form_rate
        mats = drift.sigma1_sq_bar(phi.values) + drift.qqt_bar(phi.values)
    return RateEvalResult(value=_quadratic_form_rate(phi, r, mats, "fw_half"), method="fw_half")


def eval_rate_tilde_half(phi: GridPath, drift: LimitDrift):
    """Classical-form rate with the square of the naively averaged coefficient."""
    r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(phi.values)
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
    ratios = np.abs(psi[head, 0]) / phi.times()[head] ** exponent
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
    v1, u2 = (mini.v1, None) if isinstance(mini, ControlPair) else (mini["v1"], mini["u2_feedback"])
    u1dot = ctx.kdot_matrix() @ v1.values  # (n, 1)
    controls = [lambda i, x: drift.sigma1_bar(x) @ u1dot[i]]
    if u2 is not None:
        controls.append(lambda i, x: np.einsum("ibme,be,b->im", drift.q_bins(x), u2[i], drift.bin_mass))
    return GridPath(0.0, phi.dt, averaged_euler(drift, phi.values[0], phi.n, phi.dt, controls))


def averaged_euler(drift: LimitDrift, x0, n, dt, controls=()):
    """Euler path (n, 1) from x0, step dt, of the averaged drift cbar +
    grad_psi_g_bar plus each ``control(i, x)`` at node i, x of shape (1, 1).

    Without controls, a drift with an ``affine_drift`` (slope, intercept)
    is stepped as the float recurrence x <- x + dt (slope x + intercept),
    which agrees with the averaging loop up to the round-off of the
    averages; the loop steps every other drift."""
    if drift.affine_drift is not None and not controls:
        slope, intercept = drift.affine_drift
        x = float(np.reshape(x0, ()))
        out = [x]
        for _ in range(n - 1):
            x = x + dt * (slope * x + intercept)
            out.append(x)
        return np.array(out)[:, None]
    x = np.reshape(np.array(x0, dtype=float), (1, 1))
    out = np.empty((n, 1))
    out[0] = x[0]
    for i in range(n - 1):
        dx = drift.cbar(x) + drift.grad_psi_g_bar(x)
        for control in controls:
            dx = dx + control(i, x)
        x = x + dt * dx
        out[i + 1] = x[0]
    return out

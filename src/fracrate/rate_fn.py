"""Large-deviations rate functionals of the homogenized slow dynamics.

Four evaluators share one differentiation convention (``GridPath.derivative``)
and one set of averaged coefficients (``LimitDrift``), which they evaluate
on the whole path at once:

* ``eval_rate_explicit`` - the closed quadratic form available when the
  singular drift and the Brownian diffusion vanish and the averaged rough
  diffusion is invertible; equals half the squared inverse-lift norm of the
  forced displacement.
* ``eval_rate_general`` - the operator form: assemble the effective
  diffusivity Gram operator, solve for the adjoint state, and read off both
  the value and the minimizing control pair.
* ``eval_rate_fw_half`` / ``eval_rate_tilde_half`` - the two classical-noise
  quadratic forms; they differ exactly by replacing the average of the
  squared coefficient with the square of the averaged coefficient.
* ``h_limit_study`` - the rough-noise values along a list of Hurst indices
  against both classical forms, exhibiting the limit gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .cameron_martin import HurstContext, kdot_inverse
from .coefficients import affine, is_zero
from .errors import (
    AdmissibilityError,
    DegeneracyError,
    DivergenceError,
    IllConditionedError,
    RegularityError,
)
from .gridpath import GridPath, l2_norm, trapezoid_weights
from .multiscale_sim import ControlPair
from .poisson_cell import InvariantMeasure, PoissonSolution, average_coeff, effective_noise

# sigma1-bar is singular where its smallest singular value is below this
_SINGULAR_TOL = 1e-8
# the Gram operator is degenerate where its eigenvalue range
# [lam_min, lam_max] has lam_min <= _DEGENERATE_RATIO * max(lam_max, 1), and
# too ill-conditioned to solve where lam_max / lam_min > _CONDITION_LIMIT
_DEGENERATE_RATIO = 1e-8
_CONDITION_LIMIT = 1e8


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
    """phi-dot minus the homogenized drift, shape (n, 1)."""
    r = phi.derivative() - drift.cbar(phi.values)
    if include_psi_g:
        r = r - drift.grad_psi_g_bar(phi.values)
    return r


def _normalized_displacement(phi: GridPath, drift: LimitDrift, tol):
    """psi = (phi-dot - cbar) / sigma1-bar along the path, shape (n, 1),
    after checking that |sigma1-bar| >= tol at every node."""
    r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(phi.values)[:, 0]
    bad = np.flatnonzero(np.abs(s1[:, 0]) < tol)
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
    psi = _normalized_displacement(phi, drift, _SINGULAR_TOL)
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


@dataclass
class DiscreteQH:
    """Grid matrix of the effective diffusivity operator.

    ``a_u1`` maps weighted-coordinate controls of the rough noise to
    weighted-coordinate slow forcings (n x n); the Brownian part is
    pointwise in time and carried as the averaged Gram ``qqt`` at each node
    (n,).
    """

    ctx: HurstContext
    a_u1: np.ndarray
    qqt: np.ndarray
    weights: np.ndarray

    def gram(self):
        """n x n Gram matrix: the rough-noise part plus the averaged
        Brownian Gram on the diagonal."""
        g = self.a_u1 @ self.a_u1.T
        nodes = np.arange(len(g))
        g[nodes, nodes] += self.qqt
        return g

    def operator_norm(self):
        mat = self.gram()
        n = len(mat)
        v = np.ones(n) / np.sqrt(n)
        for _ in range(30):
            v = mat @ v
            v /= np.linalg.norm(v)
        return float(np.sqrt(v @ (mat @ v)))


def assemble_QH(phi: GridPath, drift: LimitDrift, ctx: HurstContext):
    """Discrete effective-diffusivity operator along a path.

    The rough-noise block composes the naively averaged coefficient with the
    lifted-derivative kernel matrix; the Brownian block acts pointwise in
    time through the averaged effective Gram.
    """
    ctx.check_grid(phi, "assemble_QH")
    w = trapezoid_weights(phi.n, phi.dt)
    sw = np.sqrt(w)
    kd = ctx.kdot_matrix()
    # A[i, j] = sqrt(w_i) sigma1-bar_i kd[i, j] / sqrt(w_j)
    a = drift.sigma1_bar(phi.values)[:, 0] * (kd * (sw[:, None] / sw[None, :]))
    return DiscreteQH(ctx=ctx, a_u1=a, qqt=drift.qqt_bar(phi.values)[:, 0, 0], weights=w)


def _condition_estimate(gram, chol):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(gram.shape[0])
    for _ in range(20):
        v = gram @ v
        v /= np.linalg.norm(v)
    lam_max = float(v @ (gram @ v))
    u = rng.standard_normal(gram.shape[0])
    # gram was checked finite once, and the iterates stay finite: no rescan per solve
    for _ in range(20):
        u = cho_solve(chol, u, check_finite=False)
        u /= np.linalg.norm(u)
    lam_min = float(u @ (gram @ u))
    return lam_max, lam_min


def eval_rate_general(phi: GridPath, drift: LimitDrift, ctx: HurstContext):
    """Operator-form rate: solve the Gram system of the effective diffusivity.

    Assembles G = Q Q* (positive definite on the admissible domain), solves
    G w = phi-dot - cbar - grad-psi-g-bar, and returns half the pairing plus
    the minimizing pair (time control for the rough noise, feedback bins for
    the Brownian noise).
    """
    dq = assemble_QH(phi, drift, ctx)
    gram = dq.gram()
    r = _forced_displacement(phi, drift)
    sw = np.sqrt(dq.weights)
    r_w = r[:, 0] * sw
    # the initial node is fixed by phi(0) = x0, not by its velocity, and the
    # lifted-derivative row vanishes there; solve on nodes 1..n-1
    keep = slice(1, phi.n)
    gram_k = gram[keep, keep]
    if not np.all(np.isfinite(gram_k)):
        raise DivergenceError("general rate: the effective diffusivity Gram overflowed")
    try:
        chol = cho_factor(gram_k, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"effective diffusivity Gram is not positive definite: {exc}")
    lam_max, lam_min = _condition_estimate(gram_k, chol)
    if lam_min <= _DEGENERATE_RATIO * max(lam_max, 1.0):
        raise DegeneracyError(
            f"Gram operator degenerate: eigenvalue range [{lam_min:.3g}, {lam_max:.3g}]"
        )
    cond = lam_max / lam_min
    if cond > _CONDITION_LIMIT:
        raise IllConditionedError(
            f"Gram solve condition {cond:.3g} exceeds limit {_CONDITION_LIMIT:.3g}", condition=cond
        )
    if not np.all(np.isfinite(r_w)):
        raise DivergenceError("general rate: the forced displacement overflowed")
    w_sol = np.zeros(phi.n)
    w_sol[keep] = cho_solve(chol, r_w[keep])
    val = 0.5 * float(r_w[keep] @ w_sol[keep])
    # minimizers: u1* = Kdot* sigma1-bar w ; u2* = Q w (per bin)
    u1 = ((dq.a_u1.T @ w_sol) / sw)[:, None]
    u2 = drift.q_bins(phi.values)[..., 0] * (w_sol / sw)[:, None, None]
    ctrl = ControlPair(v1=GridPath(0.0, phi.dt, u1))
    return RateEvalResult(
        value=val,
        method="general",
        minimizer={"v1": ctrl.v1, "u2_feedback": u2, "bin_centers": drift.bin_centers},
        diagnostics={"condition": cond, "lambda_min": lam_min, "lambda_max": lam_max},
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
    mats = drift.sigma1_sq_bar(phi.values) + drift.qqt_bar(phi.values)
    return RateEvalResult(value=_quadratic_form_rate(phi, r, mats, "fw_half"), method="fw_half")


def eval_rate_tilde_half(phi: GridPath, drift: LimitDrift):
    """Classical-form rate with the square of the naively averaged coefficient."""
    r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(phi.values)
    return RateEvalResult(value=_quadratic_form_rate(phi, r, s1 * s1, "tilde_half"), method="tilde_half")


def admissibility_check(phi: GridPath, drift: LimitDrift, exponent=1.05, factor=4.0, decade=10):
    """Near-zero weighted-boundedness heuristic for the limit study.

    Checks that psi(t)/t^exponent does not blow up over the first decade of
    grid points (psi the normalized forced displacement).  This is a grid
    heuristic, not a certificate; ``h_limit_study`` refuses a path that
    fails it.
    """
    psi = _normalized_displacement(phi, drift, 1e-12)
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

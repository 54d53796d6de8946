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
from .coefficients import is_zero
from .errors import (
    AdmissibilityError,
    DegeneracyError,
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

    Every callable takes a path of slow states xs (n, m), a single state
    being the one-node path (1, m), and returns the averages at its nodes
    with the nodes on the leading axis: ``cbar`` and ``grad_psi_g_bar`` the
    drift pieces (n, m), ``sigma1_bar`` the naively averaged rough diffusion
    (n, m, k), ``sigma1_sq_bar`` the averaged squared coefficient (n, m, m),
    ``qqt_bar`` the effective Brownian Gram (n, m, m).  ``q_bins`` carries
    the effective noise map averaged on equal-mass cells of the measure for
    feedback-control representations, (n, nbins, m, ell), with the cell
    masses ``bin_mass`` and centres ``bin_centers``.
    """

    m: int
    k: int
    ell: int
    cbar: object
    grad_psi_g_bar: object
    sigma1_bar: object
    sigma1_sq_bar: object
    qqt_bar: object
    q_bins: object
    bin_mass: np.ndarray
    bin_centers: np.ndarray


def build_limit_drift(spec, psol: PoissonSolution, mu: InvariantMeasure, nbins=64):
    """Average the coefficients of a slow-fast system against the invariant
    measure and bin the effective noise map on measure quantiles.

    The corrector ``grad_psi_g_bar`` of a g declared zero is zero and is
    not averaged.  Raises ``InvalidInputError`` unless m = dy = 1 (see
    ``effective_noise``).
    """
    q = effective_noise(spec, psol, mu)
    m, k, ell = spec.m, spec.k, spec.ell
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
        grad_psi_g_bar = lambda xs: np.zeros((len(xs), m))  # noqa: E731
    else:
        grad_psi_g_bar = lambda xs: average_coeff(lambda x, yy: g1 * spec.g(x, yy), mu, xs)  # noqa: E731

    return LimitDrift(
        m=m,
        k=k,
        ell=ell,
        cbar=lambda xs: average_coeff(spec.c, mu, xs),
        grad_psi_g_bar=grad_psi_g_bar,
        sigma1_bar=lambda xs: average_coeff(spec.sigma1, mu, xs)[..., None] * np.eye(m, k),
        sigma1_sq_bar=lambda xs: average_coeff(lambda x, yy: spec.sigma1(x, yy) ** 2, mu, xs)[..., None],
        qqt_bar=lambda xs: average_coeff(lambda x, yy: q(x, yy) ** 2, mu, xs)[..., None],
        q_bins=lambda xs: average_coeff(q, mu, xs, cells)[..., None, None] * np.eye(m, ell),
        bin_mass=mass / mass.sum(),
        bin_centers=0.5 * (edges[:-1] + edges[1:]),
    )


@dataclass
class RateEvalResult:
    """Rate value with its minimizing control representation and method tag."""

    value: float
    method: str
    minimizer: object = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def finite(self):
        return np.isfinite(self.value)


def _forced_displacement(phi: GridPath, drift: LimitDrift, include_psi_g=True):
    """phi-dot minus the homogenized drift, shape (n, m)."""
    r = phi.derivative() - drift.cbar(phi.values)
    if include_psi_g:
        r = r - drift.grad_psi_g_bar(phi.values)
    return r


def _normalized_displacement(phi: GridPath, drift: LimitDrift, tol):
    """psi = sigma1-bar^{-1} (phi-dot - cbar) along the path, shape (n, m),
    after checking that sigma1-bar is square and nonsingular at every node."""
    if drift.m != drift.k:
        raise DegeneracyError(f"explicit form needs square sigma1-bar, got {drift.m}x{drift.k}")
    r = _forced_displacement(phi, drift, include_psi_g=False)
    s1 = drift.sigma1_bar(phi.values)
    smin = np.linalg.svd(s1, compute_uv=False)[:, -1]
    bad = np.flatnonzero(smin < tol)
    if bad.size:
        raise DegeneracyError(
            f"sigma1-bar singular along the path (min singular value {smin[bad[0]]:.3g} at node {bad[0]})"
        )
    return np.linalg.solve(s1, r[..., None])[..., 0]


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
    weighted-coordinate slow forcings ((n m) x (n k)); the Brownian part is
    pointwise in time and carried as the averaged Gram ``qqt`` at each node
    (n, m, m).
    """

    ctx: HurstContext
    a_u1: np.ndarray
    qqt: np.ndarray
    weights: np.ndarray
    shape: tuple

    def gram(self):
        """(n m) x (n m) Gram matrix: the rough-noise part plus the averaged
        Brownian Gram on the diagonal blocks."""
        n, m = self.shape
        g = self.a_u1 @ self.a_u1.T
        nodes = np.arange(n)
        g.reshape(n, m, n, m)[nodes, :, nodes, :] += self.qqt
        return g

    def operator_norm(self):
        n, m = self.shape
        mat = self.gram()
        v = np.ones(n * m) / np.sqrt(n * m)
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
    n, m, k = phi.n, drift.m, drift.k
    w = trapezoid_weights(n, phi.dt)
    sw = np.sqrt(w)
    kd = ctx.kdot_matrix()
    s1 = drift.sigma1_bar(phi.values)
    # A[(i,a),(j,c)] = sqrt(w_i) s1[i,a,c] kd[i,j] / sqrt(w_j)
    a = np.einsum("iac,ij->iajc", s1, kd * (sw[:, None] / sw[None, :]))
    a = a.reshape(n * m, n * k)
    return DiscreteQH(ctx=ctx, a_u1=a, qqt=drift.qqt_bar(phi.values), weights=w, shape=(n, m))


def _condition_estimate(gram, chol):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(gram.shape[0])
    for _ in range(20):
        v = gram @ v
        v /= np.linalg.norm(v)
    lam_max = float(v @ (gram @ v))
    u = rng.standard_normal(gram.shape[0])
    # cho_factor checked gram, and the iterates stay finite: no rescan per solve
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
    n, m = phi.n, drift.m
    dq = assemble_QH(phi, drift, ctx)
    gram = dq.gram()
    r = _forced_displacement(phi, drift)
    sw = np.sqrt(dq.weights)
    r_w = (r * sw[:, None]).reshape(n * m)
    # the initial node is fixed by phi(0) = x0, not by its velocity, and the
    # lifted-derivative row vanishes there; solve on nodes 1..n-1
    keep = slice(m, n * m)
    gram_k = gram[keep, keep]
    try:
        chol = cho_factor(gram_k, lower=True)
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
    w_sol = np.zeros(n * m)
    w_sol[keep] = cho_solve(chol, r_w[keep])
    val = 0.5 * float(r_w[keep] @ w_sol[keep])
    # minimizers: u1* = Kdot* Sigma1-bar^T w ; u2* = Q^T w (per bin)
    u1_w = dq.a_u1.T @ w_sol
    u1 = (u1_w.reshape(n, drift.k) / sw[:, None])
    w_nat = (w_sol.reshape(n, m)) / sw[:, None]
    u2 = np.einsum("ibme,im->ibe", drift.q_bins(phi.values), w_nat)
    ctrl = ControlPair(v1=GridPath(0.0, phi.dt, u1))
    return RateEvalResult(
        value=val,
        method="general",
        minimizer={"v1": ctrl.v1, "u2_feedback": u2, "bin_centers": drift.bin_centers},
        diagnostics={"condition": cond, "lambda_min": lam_min, "lambda_max": lam_max},
    )


def _quadratic_form_rate(phi, r, mats, method):
    """Half the weighted time integral of r^T mats^{-1} r, mats (n, m, m)."""
    eig_min = np.linalg.eigvalsh(mats)[:, 0]
    bad = np.flatnonzero(eig_min <= 1e-12)
    if bad.size:
        raise DegeneracyError(f"{method}: effective matrix degenerate at node {bad[0]}")
    quad = np.einsum("ia,ia->i", r, np.linalg.solve(mats, r[..., None])[..., 0])
    return 0.5 * float(trapezoid_weights(phi.n, phi.dt) @ quad)


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
    mats = s1 @ s1.transpose(0, 2, 1)
    return RateEvalResult(value=_quadratic_form_rate(phi, r, mats, "tilde_half"), method="tilde_half")


def admissibility_check(phi: GridPath, drift: LimitDrift, exponent=1.05, factor=4.0, decade=10):
    """Near-zero weighted-boundedness heuristic for the limit study.

    Checks that psi(t)/t^exponent does not blow up over the first decade of
    grid points (psi the normalized forced displacement).  This is a grid
    heuristic, not a certificate; ``h_limit_study`` refuses a path that
    fails it.
    """
    psi = _normalized_displacement(phi, drift, 1e-12)
    head = slice(1, min(decade, phi.n - 1) + 1)
    ratios = np.linalg.norm(psi[head], axis=-1) / phi.times()[head] ** exponent
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
    n, m = phi.n, drift.m
    dt = phi.dt
    if isinstance(result.minimizer, ControlPair):
        v1 = result.minimizer.v1
        u2 = None
    else:
        v1 = result.minimizer["v1"]
        u2 = result.minimizer["u2_feedback"]
    kd = ctx.kdot_matrix()
    u1dot = kd @ v1.values  # (n, k)
    x = phi.values[:1].copy()  # one-node path
    out = np.empty((n, m))
    out[0] = x[0]
    for i in range(n - 1):
        dx = drift.cbar(x) + drift.grad_psi_g_bar(x)
        dx = dx + drift.sigma1_bar(x) @ u1dot[i]
        if u2 is not None:
            dx = dx + np.einsum("ibme,be,b->im", drift.q_bins(x), u2[i], drift.bin_mass)
        x = x + dt * dx
        out[i + 1] = x[0]
    return GridPath(0.0, dt, out)

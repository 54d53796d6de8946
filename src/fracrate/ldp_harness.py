"""Desk-scale Monte Carlo verification of the Laplace and rare-event
asymptotics against rate-function predictions.

Plain Monte Carlo only: thresholds in shipped configs keep target
probabilities above 1e-4 at the smallest noise level, so no importance
sampling is needed.  All exponential averages are accumulated in the log
domain; estimates come with delta-method (Laplace) or Wilson (exceedance)
error bars.  Trials are keyed by (seed, schedule index, trial index), so a
re-run is reproducible byte for byte and independent of batching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .coefficients import is_zero, reads
from .errors import ExperimentFailure, InvalidInputError
from .fbm_gen import rng_for, sample_noise_bundle
from .multiscale_sim import SlowFastSpec, default_substeps, schedule_checks, simulate_batch


@dataclass
class HFunctional:
    """Bounded terminal functional from the built-in family.

    ``terminal_sq``: rho * dist(x_T, target)^2 capped at ``cap``;
    ``smooth_exceedance``: height * logistic((target - x_T)/width), a
    bounded continuous surrogate of the exceedance indicator.
    """

    kind: str = "terminal_sq"
    target: float = 0.0
    rho: float = 1.0
    cap: float = 50.0
    height: float = 10.0
    width: float = 0.05

    def __call__(self, x_terminal):
        x = np.asarray(x_terminal, dtype=float)
        if self.kind == "terminal_sq":
            return np.minimum(self.rho * (x - self.target) ** 2, self.cap)
        if self.kind == "smooth_exceedance":
            z = (self.target - x) / self.width
            return self.height / (1.0 + np.exp(-np.clip(z, -60, 60)))
        raise InvalidInputError(f"unknown functional kind {self.kind!r}")


def _check_schedule(spec0, schedule):
    for name, ok, detail in schedule_checks(schedule, spec0.beta, reads(spec0.sigma1, "y")):
        if not ok:
            raise InvalidInputError(f"{name}: {detail}")


@dataclass
class LaplaceExperiment:
    """Schedule, functional, and sampling plan for a Laplace-asymptotics run."""

    make_spec: object  # (eps, eta) -> SlowFastSpec
    eps_schedule: list
    h: HFunctional
    trials: int = 1000
    seed: int = 0
    n_grid: int = 129
    horizon: float = 1.0
    substeps: int | None = None
    engine: str = "auto"

    def __post_init__(self):
        if self.trials < 1000:
            raise InvalidInputError("need at least 1000 trials per schedule point")
        spec0 = self.make_spec(*self.eps_schedule[0])
        _check_schedule(spec0, self.eps_schedule)


def rough_noise_only(spec: SlowFastSpec):
    """True when the declared facts leave the scalar slow motion driven by
    sigma1 dB^H alone: b, c, g and sigma2 are zero, sigma1 does not read x
    and m = k = 1.  Then the closed form of ``linear_case_prediction``
    applies, with the averaged sigma1 when sigma1 reads the fast state."""
    drifts_zero = all(is_zero(getattr(spec, role)) for role in ("b", "c", "g", "sigma2"))
    return drifts_zero and not reads(spec.sigma1, "x") and spec.m == spec.k == 1


def _is_pure_fbm_linear(spec: SlowFastSpec):
    """True when the slow motion is x0 + sqrt(eps) sigma B^H with a constant
    sigma, so its terminal law is Gaussian."""
    return rough_noise_only(spec) and not reads(spec.sigma1, "y")


def _terminal_values_gaussian(spec, horizon, trials, seed, stream):
    """Exact terminal law of the pure-fBm linear slow motion."""
    sigma = float(np.asarray(spec.sigma1(spec.x0, spec.y0)).reshape(-1)[0])
    rng = rng_for(seed, 3, *stream)
    z = rng.standard_normal(trials)
    scale = math.sqrt(spec.eps) * sigma * horizon**spec.hurst
    return spec.x0[0] + scale * z, 0


def _terminal_values_simulate(spec, horizon, n_grid, substeps, trials, seed, stream):
    sub = substeps if substeps else default_substeps(horizon / (n_grid - 1), spec.eta)
    n_fine = (n_grid - 1) * sub + 1
    noises = (
        sample_noise_bundle(
            spec.hurst, n_fine, horizon, k=spec.k, ell=spec.ell, seed=seed, stream=(*stream, trial)
        )
        for trial in range(trials)
    )
    batch = simulate_batch(spec, noises, substeps=sub)
    return batch.x[:, -1, 0], int(np.sum(batch.diverged))  # NaN where diverged


def _terminal_values(spec, horizon, n_grid, substeps, trials, seed, stream, engine):
    if engine == "auto":
        engine = "gaussian" if _is_pure_fbm_linear(spec) else "simulate"
    if engine == "gaussian":
        if not _is_pure_fbm_linear(spec):
            raise InvalidInputError("gaussian engine requires the pure-fBm linear system")
        vals, aborted = _terminal_values_gaussian(spec, horizon, trials, seed, stream)
    elif engine == "simulate":
        vals, aborted = _terminal_values_simulate(
            spec, horizon, n_grid, substeps, trials, seed, stream
        )
    else:
        raise InvalidInputError(f"unknown engine {engine!r}")
    return vals, aborted, engine


def estimate_laplace(exp: LaplaceExperiment):
    """Plug-in estimator of -eps log E[exp(-h/eps)] along the schedule.

    Accumulation is in the log domain (mandatory: the weights underflow at
    small eps otherwise); the standard error is the delta-method propagation
    of the weight variance.  Aborted trials are counted, not dropped.
    """
    rows = []
    for idx, (eps, eta) in enumerate(exp.eps_schedule):
        spec = exp.make_spec(eps, eta)
        vals, aborted, engine = _terminal_values(
            spec, exp.horizon, exp.n_grid, exp.substeps, exp.trials, exp.seed, (idx,), exp.engine
        )
        good = vals[np.isfinite(vals)]
        if good.size == 0:
            raise ExperimentFailure(f"all {exp.trials} trials aborted at eps={eps}")
        hv = exp.h(good)
        logw = -hv / eps
        lme = logsumexp(logw) - math.log(good.size)
        estimate = -eps * lme
        w_shift = np.exp(logw - logw.max())
        mean_w = w_shift.mean()
        se = eps * w_shift.std(ddof=1) / (math.sqrt(good.size) * mean_w)
        rows.append(
            {
                "eps": eps,
                "eta": eta,
                "estimate": float(estimate),
                "std_error": float(se),
                "trials": int(exp.trials),
                "aborted": int(aborted),
                "engine": engine,
            }
        )
    return rows


def wilson_interval(hits, n, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise InvalidInputError("need at least one trial")
    p = hits / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def estimate_rare_event(
    make_spec,
    threshold,
    eps_schedule,
    trials,
    seed=0,
    n_grid=129,
    horizon=1.0,
    substeps=None,
    engine="auto",
    prediction=None,
    pilot_fraction=0.02,
):
    """Exceedance-probability exponents -eps log P(X_T >= a) along a schedule.

    The exceedance indicator is not a bounded continuous functional, so this
    experiment is a heuristic companion to the Laplace principle and the
    rows are labeled as such.  Zero-hit levels are reported as one-sided
    bounds (rule of three), not point estimates.

    ``neg_eps_log_p`` is the pre-asymptotic plug-in value at each eps: it
    carries the sub-exponential tail prefactor (for a Gaussian terminal law
    about eps log(z sqrt(2 pi)) with z = (a - x0) / (sqrt(eps) sigma T^H),
    that is (eps/2) log(1/eps) plus a term linear in eps), so it sits above
    the rate-function exponent at every finite eps.  Use
    ``extrapolated_exponent`` on the rows for the limit itself.
    """
    spec0 = make_spec(*eps_schedule[0])
    _check_schedule(spec0, eps_schedule)
    # feasibility pilot at the largest eps
    pilot_n = max(200, int(trials * pilot_fraction))
    vals, _, engine_used = _terminal_values(
        spec0, horizon, n_grid, substeps, pilot_n, seed, (999,), engine
    )
    pilot_hits = int(np.sum(vals >= threshold))
    if pilot_hits * (trials / pilot_n) < 10:
        raise ExperimentFailure(
            f"pilot run found {pilot_hits}/{pilot_n} hits at the largest eps; "
            f"the event is too rare for {trials} plain Monte Carlo trials"
        )
    rows = []
    for idx, (eps, eta) in enumerate(eps_schedule):
        spec = make_spec(eps, eta)
        vals, aborted, engine_used = _terminal_values(
            spec, horizon, n_grid, substeps, trials, seed, (idx,), engine
        )
        good = vals[np.isfinite(vals)]
        hits = int(np.sum(good >= threshold))
        row = {
            "eps": eps,
            "eta": eta,
            "trials": int(trials),
            "aborted": int(aborted),
            "hits": hits,
            "engine": engine_used,
            "note": "exceedance indicator: heuristic companion to the Laplace principle",
        }
        if hits == 0:
            p_upper = 1.0 - 0.05 ** (1.0 / max(good.size, 1))
            row.update(
                {
                    "p_hat": 0.0,
                    "bound_only": True,
                    "p_upper": float(p_upper),
                    "neg_eps_log_p_lower": float(-eps * math.log(p_upper)),
                }
            )
        else:
            p_hat = hits / good.size
            lo, hi = wilson_interval(hits, good.size)
            row.update(
                {
                    "p_hat": float(p_hat),
                    "bound_only": False,
                    "wilson_low": float(lo),
                    "wilson_high": float(hi),
                    "neg_eps_log_p": float(-eps * math.log(p_hat)),
                }
            )
        if prediction is not None:
            row["prediction"] = float(prediction)
        rows.append(row)
    return rows


def linear_case_prediction(spec: SlowFastSpec, threshold, horizon=1.0, sigma_bar=None):
    """Closed-form exponent (a - x0)^2 / (2 sigma^2 T^{2H}) of the linear case.

    ``sigma_bar`` overrides the coefficient read off the system; pass the
    averaged coefficient when the rough diffusion depends on the fast state.
    Raises ``InvalidInputError`` unless ``rough_noise_only(spec)`` holds and
    the coefficient is non-zero.
    """
    if not rough_noise_only(spec):
        raise InvalidInputError("the closed form needs b, c, g, sigma2 zero and sigma1 free of x, with m = k = 1")
    if sigma_bar is None:
        sigma_bar = float(np.asarray(spec.sigma1(spec.x0, spec.y0)).reshape(-1)[0])
    if sigma_bar == 0.0:
        raise InvalidInputError("the closed form needs a non-zero rough diffusion")
    gap = threshold - float(spec.x0[0])
    return gap**2 / (2.0 * sigma_bar**2 * horizon ** (2.0 * spec.hurst))


def stabilization_diagnostic(rows, key="neg_eps_log_p"):
    """Successive-difference shrinkage of the exponent estimates.

    Returns (True, diffs) when the absolute successive differences of the
    estimates are non-increasing along the schedule.
    """
    est = [row[key] for row in rows if key in row]
    diffs = [abs(b - a) for a, b in zip(est, est[1:])]
    ok = all(d2 <= d1 * (1 + 1e-9) for d1, d2 in zip(diffs, diffs[1:])) if len(diffs) > 1 else True
    return ok, diffs


def extrapolated_exponent(rows):
    """Schedule-extrapolated rare-event exponent I = lim -eps log P_eps.

    Fits -eps log P_eps = I + eps (c1 log(1/eps) + c2) by ordinary least
    squares of ``neg_eps_log_p`` over the rows that are not ``bound_only``.
    The model is the Bahadur-Rao-type tail P_eps ~ C eps^c1 exp(-I/eps)
    (Dembo-Zeitouni, Large Deviations Techniques and Applications, 3.7):
    the plug-in value at any single eps carries the prefactor term, the
    intercept does not.  Returns the intercept ``exponent``, the
    coefficients ``c_log`` and ``c_lin``, the root-mean-square fit
    ``residual`` and the number of ``points`` used.  On a four-point
    schedule the fit has one degree of freedom, so a small residual says
    little about how well the model describes the tail.
    """
    pts = [(row["eps"], row["neg_eps_log_p"]) for row in rows if not row["bound_only"]]
    if len(pts) < 3:
        raise InvalidInputError(f"need at least 3 usable schedule points to extrapolate, got {len(pts)}")
    eps, y = np.array(pts, dtype=float).T
    if np.any(eps <= 0.0) or not np.all(np.isfinite(y)):
        raise InvalidInputError("extrapolation needs eps > 0 and finite exponent estimates")
    design = np.column_stack([np.ones_like(eps), eps * np.log(1.0 / eps), eps])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise InvalidInputError("schedule points do not determine the three-term fit")
    resid = y - design @ coef
    return {
        "exponent": float(coef[0]),
        "c_log": float(coef[1]),
        "c_lin": float(coef[2]),
        "residual": float(math.sqrt(np.mean(resid**2))),
        "points": len(pts),
    }

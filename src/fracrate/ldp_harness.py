"""Desk-scale Monte Carlo verification of the Laplace and rare-event
asymptotics against rate-function predictions.

Plain Monte Carlo only: thresholds in shipped configs keep target
probabilities above 1e-4 at the smallest noise level, so no importance
sampling is needed.  All exponential averages are accumulated in the log
domain; estimates come with delta-method (Laplace) or Wilson (exceedance)
error bars.  Trials are keyed by (seed, schedule index, trial index), so a
re-run is reproducible byte for byte, and results are independent of
batching, of the block size and of the number of threads: the exact
Gaussian engine draws a schedule point's trials in blocks of
``_BLOCK_TRIALS`` from one generator, which gives the same bits as one draw
of them all, and ``estimate_rare_event`` counts its schedule points on up
to ``_POINT_WORKERS`` threads, each point from its own generator, then
checks and reports them in schedule order.  numpy releases the GIL while
it fills and scales a block, so the points overlap.  The simulator and
``estimate_laplace`` stay on the calling thread: ``simulate_chunks`` warns
through the process-global ``warnings`` state and holds 8 MB stacks per
noise column, and a Laplace row holds all the values of its point.
"""
from __future__ import annotations

import math
import os
# imported with the module: at the first pool, concurrent.futures and the
# logging it loads took 7-10 ms of the rare-event command itself
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import is_zero, reads
from .errors import DivergenceError, ExperimentFailure, InvalidInputError
from .fbm_gen import rng_for, sample_increments
from .multiscale_sim import SlowFastSpec, default_substeps, noise_columns, schedule_checks, simulate_chunks

# share of the trials, at least 200, that the rare-event feasibility pilot runs
_PILOT_FRACTION = 0.02
# trials per block of the exact Gaussian engine: 256 KB per temporary, so the
# memory of a schedule point does not grow with its trial count, and two
# points in flight hold what one point held with blocks of 2^16
_BLOCK_TRIALS = 1 << 15
# usable CPUs: the most schedule points of the exact Gaussian engine that
# estimate_rare_event counts at once
_POINT_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# trials x fine-grid points per chunk of the simulator: one (fine step,
# trial) stack of a chunk is then 8 MB per noise column, and a chunk holds
# the increment stacks and at most one forcing stack per noise term
_MAX_BATCH_POINTS = 1 << 20


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

    def __post_init__(self):
        if self.kind not in ("terminal_sq", "smooth_exceedance"):
            raise InvalidInputError(f"unknown functional kind {self.kind!r}")

    def __call__(self, x_terminal):
        x = np.asarray(x_terminal, dtype=float)
        if self.kind == "terminal_sq":
            return np.minimum(self.rho * (x - self.target) ** 2, self.cap)
        z = (self.target - x) / self.width
        return self.height / (1.0 + np.exp(-np.clip(z, -60, 60)))


def rough_noise_only(spec: SlowFastSpec):
    """True when the declared facts leave the slow motion driven by
    sigma1 dB^H alone: b, c, g and sigma2 are zero and sigma1 does not read
    x.  Then the closed form of ``linear_case_prediction`` applies, with the
    averaged sigma1 when sigma1 reads the fast state."""
    drifts_zero = all(is_zero(getattr(spec, role)) for role in ("b", "c", "g", "sigma2"))
    return drifts_zero and not reads(spec.sigma1, "x")


def _engine(spec: SlowFastSpec):
    """The engine of ``spec``'s Monte Carlo trials: ``gaussian`` when the
    slow motion is x0 + sqrt(eps) sigma B^H with a constant sigma, so its
    terminal law is Gaussian and sampled exactly, ``simulate`` otherwise."""
    return "gaussian" if rough_noise_only(spec) and not reads(spec.sigma1, "y") else "simulate"


def _sigma1_at_start(spec: SlowFastSpec):
    """sigma1 at (x0, y0) as a number: the constant of the closed forms."""
    return float(np.asarray(spec.sigma1(spec.x0, spec.y0)).reshape(-1)[0])


def simulate_point(spec, n_grid, horizon, substeps, trials, seed, stream):
    """Chunks (trial indices, ``BatchPaths``) of ``_MAX_BATCH_POINTS //
    n_fine`` of the ``trials`` trials of one schedule point, on ``n_grid``
    output points over [0, horizon] with ``substeps`` (0 or None:
    ``default_substeps``).  A chunk's noise is drawn and stepped when it is
    asked for; trial t reads the stream (``stream``, t).  A noise is drawn
    only when a coefficient not declared zero reads it."""
    sub = substeps or default_substeps(horizon / (n_grid - 1), spec.eta)
    n_fine = (n_grid - 1) * sub + 1
    size = max(1, _MAX_BATCH_POINTS // n_fine)
    chunks = [range(start, min(start + size, trials)) for start in range(0, trials, size)]
    k, ell = noise_columns(spec)
    noises = (sample_increments(spec.hurst, n_fine, horizon, [(stream, t) for t in c], k, ell, seed) for c in chunks)
    yield from zip(chunks, simulate_chunks(spec, noises, horizon / (n_fine - 1), sub))


@dataclass
class MonteCarloPlan:
    """Trials of the slow-fast system along one (eps, eta) schedule, the
    sampling plan that ``estimate_laplace`` and ``estimate_rare_event`` read.

    ``make_spec`` maps (eps, eta) to a ``SlowFastSpec``.  Construction
    checks the inputs once: at least one trial, and the scale-separation
    rules of ``schedule_checks``.  Schedule point i reads stream i.
    """

    make_spec: object  # (eps, eta) -> SlowFastSpec
    schedule: list
    trials: int
    seed: int = 0
    n_grid: int = 129
    horizon: float = 1.0
    substeps: int | None = None  # 0 or None: default_substeps

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidInputError(f"need at least one trial, got {self.trials}")
        spec0 = self.make_spec(*self.schedule[0])
        for name, ok, detail in schedule_checks(self.schedule, spec0.beta, reads(spec0.sigma1, "y")):
            if not ok:
                raise InvalidInputError(f"{name}: {detail}")

    def terminal_values(self, spec, stream, trials=None):
        """Terminal slow values of ``trials`` trials (None: the plan's) on
        ``stream`` as an iterator of blocks (values, aborted), NaN where a
        trial diverged, each a fresh array.  The Gaussian engine yields
        blocks of at most ``_BLOCK_TRIALS`` (2^15) values, all drawn from
        one generator, which this call builds, so that another thread can
        draw the blocks without calling into the package; the simulator
        yields the chunks of ``simulate_point``."""
        trials = self.trials if trials is None else trials
        if _engine(spec) == "gaussian":
            scale = math.sqrt(spec.eps) * _sigma1_at_start(spec) * self.horizon**spec.hurst
            return _gaussian_blocks(rng_for(self.seed, 3, stream), scale, spec.x0, trials)
        chunks = simulate_point(spec, self.n_grid, self.horizon, self.substeps, trials, self.seed, stream)
        return ((batch.x[:, -1].copy(), int(np.count_nonzero(batch.diverged))) for _, batch in chunks)


def _gaussian_blocks(rng, scale, x0, trials):
    """x0 + scale z for ``trials`` standard normals z of ``rng``, drawn and
    scaled in place in blocks (values, 0) of at most ``_BLOCK_TRIALS``."""
    for start in range(0, trials, _BLOCK_TRIALS):
        z = rng.standard_normal(min(_BLOCK_TRIALS, trials - start))
        z *= scale
        z += x0
        yield z, 0


def _check_usable(finite, trials, eps):
    """The one all-aborted rule of both estimators: ``ExperimentFailure``
    (exit 3) when none of ``trials`` trials at ``eps`` ended finite."""
    if finite == 0:
        raise ExperimentFailure(f"all {trials} trials aborted at eps={eps}")


def _count_hits(blocks, threshold):
    """(finite trials, hits among them, aborted trials) over ``blocks`` of
    ``terminal_values``, counted block by block."""
    finite = hits = aborted = 0
    for vals, block_aborted in blocks:
        ok = np.isfinite(vals)
        finite += np.count_nonzero(ok)
        hits += np.count_nonzero(ok & (vals >= threshold))
        aborted += block_aborted
    return int(finite), int(hits), aborted


def estimate_laplace(plan: MonteCarloPlan, h: HFunctional):
    """Plug-in estimator of -eps log E[exp(-h/eps)] along the schedule.

    Accumulation is in the log domain (mandatory: the weights underflow at
    small eps otherwise); the standard error is the delta-method propagation
    of the weight variance.  Aborted trials are counted, not dropped; a
    point with fewer than 2 finite trials raises ``ExperimentFailure``
    (exit 3), as the standard error needs two.
    """
    if plan.trials < 1000:
        raise InvalidInputError("need at least 1000 trials per schedule point")
    return [_laplace_row(plan, h, idx, eps, eta) for idx, (eps, eta) in enumerate(plan.schedule)]


def _log_mean_exp(logw):
    """(log mean exp(logw), w, mean w) for the weights w = exp(logw - max
    logw), scaled by the largest so that none overflows: one pass of
    exponentials."""
    top = logw.max()
    w = np.exp(logw - top)
    mean_w = w.mean()
    return top + math.log(mean_w), w, mean_w


def _laplace_row(plan, h, idx, eps, eta):
    """The Laplace row of schedule point ``idx``; its per-trial arrays end
    with the call."""
    spec = plan.make_spec(eps, eta)
    blocks = list(plan.terminal_values(spec, idx))
    vals = np.concatenate([v for v, _ in blocks])
    aborted = sum(a for _, a in blocks)
    del blocks
    ok = np.isfinite(vals)
    good = vals if ok.all() else vals[ok]
    _check_usable(good.size, plan.trials, eps)
    if good.size < 2:
        raise ExperimentFailure(f"1 of {plan.trials} trials ended finite at eps={eps}; the standard error needs 2")
    lme, w, mean_w = _log_mean_exp(-h(good) / eps)
    estimate = -eps * lme
    se = eps * w.std(ddof=1) / (math.sqrt(good.size) * mean_w)
    return {
        "eps": eps,
        "eta": eta,
        "estimate": float(estimate),
        "std_error": float(se),
        "trials": int(plan.trials),
        "aborted": int(aborted),
        "engine": _engine(spec),
    }


def wilson_interval(hits, n, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise InvalidInputError("need at least one trial")
    p = hits / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def estimate_rare_event(plan: MonteCarloPlan, threshold, prediction=None):
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

    After the pilot, when every point takes the exact Gaussian engine, the
    points' hits are counted on up to ``_POINT_WORKERS`` threads.  Each
    point's spec and generator are built on the calling thread first, and
    the all-aborted rule and the rows follow in schedule order, so the rows,
    and the point an ``ExperimentFailure`` names, do not depend on the
    number of threads.  The simulator's points are counted one at a time.
    """
    specs = [plan.make_spec(eps, eta) for eps, eta in plan.schedule]
    # feasibility pilot at the largest eps
    pilot_n = max(200, int(plan.trials * _PILOT_FRACTION))
    finite, pilot_hits, _ = _count_hits(plan.terminal_values(specs[0], 999, pilot_n), threshold)
    _check_usable(finite, pilot_n, plan.schedule[0][0])
    if pilot_hits * (plan.trials / pilot_n) < 10:
        raise ExperimentFailure(
            f"pilot run found {pilot_hits}/{pilot_n} hits at the largest eps; "
            f"the event is too rare for {plan.trials} plain Monte Carlo trials"
        )
    points = [plan.terminal_values(spec, idx) for idx, spec in enumerate(specs)]
    if all(_engine(spec) == "gaussian" for spec in specs):
        with ThreadPoolExecutor(min(len(specs), _POINT_WORKERS)) as pool:
            counts = list(pool.map(_count_hits, points, [threshold] * len(specs)))
    else:
        counts = (_count_hits(point, threshold) for point in points)
    rows = []
    for (eps, eta), spec, (finite, hits, aborted) in zip(plan.schedule, specs, counts):
        _check_usable(finite, plan.trials, eps)
        row = {
            "eps": eps,
            "eta": eta,
            "trials": int(plan.trials),
            "aborted": int(aborted),
            "hits": hits,
            "engine": _engine(spec),
            "note": "exceedance indicator: heuristic companion to the Laplace principle",
        }
        if hits == 0:
            p_upper = 1.0 - 0.05 ** (1.0 / finite)
            row.update(
                {
                    "p_hat": 0.0,
                    "bound_only": True,
                    "p_upper": float(p_upper),
                    "neg_eps_log_p_lower": float(-eps * math.log(p_upper)),
                }
            )
        else:
            p_hat = hits / finite
            lo, hi = wilson_interval(hits, finite)
            row.update(
                {
                    "p_hat": float(p_hat),
                    "bound_only": False,
                    "wilson_low": float(lo),
                    "wilson_high": float(hi),
                    "neg_eps_log_p": float(-eps * math.log(p_hat)) + 0.0,  # 0.0, not -0.0, at p_hat = 1
                }
            )
        if prediction is not None:
            row["prediction"] = float(prediction)
        rows.append(row)
    return rows


def linear_case_prediction(spec: SlowFastSpec, threshold, horizon=1.0, sigma_bar=None):
    """Closed-form exponent (a - x0)^2 / (2 sigma^2 T^{2H}) of the linear case,
    0.0 for a threshold a <= x0, whose event is not rare.

    ``sigma_bar`` overrides the coefficient read off the system; pass the
    averaged coefficient when the rough diffusion depends on the fast state.
    Raises ``InvalidInputError`` unless ``rough_noise_only(spec)`` holds and
    the coefficient is non-zero, and ``DivergenceError`` when the exponent
    overflows.
    """
    if not rough_noise_only(spec):
        raise InvalidInputError("the closed form needs b, c, g, sigma2 zero and sigma1 free of x")
    if sigma_bar is None:
        sigma_bar = _sigma1_at_start(spec)
    if sigma_bar == 0.0:
        raise InvalidInputError("the closed form needs a non-zero rough diffusion")
    gap = max(threshold - spec.x0, 0.0)
    try:
        exponent = gap**2 / (2.0 * sigma_bar**2 * horizon ** (2.0 * spec.hurst))
    except (OverflowError, ZeroDivisionError):
        exponent = math.inf
    if math.isinf(exponent):
        raise DivergenceError(f"the closed-form exponent overflows at threshold {threshold!r}")
    return exponent


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

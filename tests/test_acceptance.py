"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 9's first clause checks the large-deviation exponent, a limit as
eps -> 0, within 25% of the quadratic prediction, on a threshold with
P ~ 1e-3 at the smallest eps.  The plug-in value -eps log P at a single eps
cannot show this: for a Gaussian terminal law it carries the polynomial tail
prefactor, -eps log P = pred + eps log(z sqrt(2 pi)) + ..., a +45% offset at
that level no matter how many trials are run.  The test therefore checks the
exponent extrapolated across the schedule by
``ldp_harness.extrapolated_exponent`` (fit I + eps (c1 log(1/eps) + c2)).
The schedule-stabilization and ordering clauses are tested separately on
the plug-in values.
"""
import json
import math
import os
import time

import numpy as np
from scipy.special import gamma
from scipy.stats import norm

from fracrate import coefficients as cf
from fracrate.cameron_martin import HurstContext, apply_KH, apply_KH_dot, apply_KH_inverse, c_H
from fracrate.cli import main as cli_main
from fracrate.fbm_gen import sample_fbm, sample_increments
from fracrate.frac_calc import default_young_alpha, young_integral
from fracrate.gridpath import GridPath
from fracrate.ldp_harness import (
    MonteCarloPlan,
    estimate_rare_event,
    extrapolated_exponent,
    linear_case_prediction,
    stabilization_diagnostic,
)
from fracrate.multiscale_sim import default_substeps, simulate_chunks
from fracrate.poisson_cell import average_coeff, solve_poisson_1d
from fracrate.rate_fn import eval_rate_explicit, eval_rate_general, h_limit_study

from conftest import SQRT2, grid_t, ou_spec


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    return line


def test_criterion_01_operator_round_trips():
    t0 = time.monotonic()
    n = 2048
    dt = 1.0 / (n - 1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = [(0.6, 7), (0.75, 7), (0.9, 6)]
    for hurst, reps in cases:
        ctx = HurstContext(hurst, n, dt)
        t = ctx.times
        for _ in range(reps):
            coef = rng.standard_normal(5)
            v = (
                1.5
                + 0.4 * np.tanh(coef[0]) * np.sin(3 * t)
                + 0.3 * np.tanh(coef[1]) * np.cos(7 * t)
                + 0.2 * np.tanh(coef[2]) * t**2
                + 0.2 * np.tanh(coef[3]) * np.sin(11 * t)
                + 0.2 * np.tanh(coef[4]) * t
            )
            u = apply_KH(GridPath(0.0, dt, v), ctx)
            back = apply_KH_inverse(u, ctx).scalar()
            mask = t >= 0.05
            worst = max(worst, float(np.max(np.abs(back[mask] - v[mask]) / np.abs(v[mask]))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 10.0
    report(1, "operator round-trips", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 10.0


def test_criterion_02_closed_form_kernel():
    worst = 0.0
    for hurst in (0.6, 0.75, 0.9):
        n = 2048
        dt = 1.0 / (n - 1)
        ctx = HurstContext(hurst, n, dt)
        t = ctx.times
        out = apply_KH_dot(GridPath(0.0, dt, np.ones(n)), ctx).scalar()
        exact = c_H(hurst) * gamma(1.5 - hurst) * t ** (hurst - 0.5)
        mask = t >= 10 * dt
        worst = max(worst, float(np.max(np.abs(out[mask] - exact[mask]) / exact[mask])))
    limit_val = c_H(0.51) * gamma(1.5 - 0.51)
    gap = abs(limit_val - 1.0)
    ok = worst <= 1e-4 and gap < 0.05
    report(2, "closed-form kernel", ok, f"kernel rel {worst:.2e}, limit gap {gap:.3f}")
    assert worst <= 1e-4
    assert gap < 0.05


def test_criterion_03_fbm_statistics():
    hurst, n, trials = 0.7, 512, 10000
    db = sample_increments(hurst, n, 1.0, range(trials), k=1, ell=0, seed=31)[0][:, :, 0]
    batch = np.concatenate([np.zeros((1, trials)), np.cumsum(db, axis=0)]).T
    t = np.linspace(0, 1, n)
    var = batch[:, -1].var(ddof=1)
    se_var = var * math.sqrt(2.0 / (trials - 1))
    var_ok = abs(var - 1.0) < 4 * se_var
    cov = lambda s, u: 0.5 * (s ** (2 * hurst) + u ** (2 * hurst) - abs(u - s) ** (2 * hurst))
    pairs = [(128, 256), (128, 511), (256, 384), (256, 511), (384, 511)]
    cov_ok, worst_z = True, 0.0
    for i, j in pairs:
        prod = batch[:, i] * batch[:, j]
        se = prod.std(ddof=1) / math.sqrt(trials)
        z = abs(prod.mean() - cov(t[i], t[j])) / se
        worst_z = max(worst_z, z)
        cov_ok = cov_ok and z < 4
    ok = var_ok and cov_ok
    report(3, "fBm statistics", ok, f"Var(B_1)={var:.4f}, worst |z|={worst_z:.2f}")
    assert var_ok
    assert cov_ok


def test_criterion_04_young_consistency():
    n = 1025
    dt, t = grid_t(n)
    out = young_integral(GridPath(0, dt, t), GridPath(0, dt, t**2), 0.5).scalar()
    err1 = abs(out[-1] - 2.0 / 3.0)
    # against a rough path: 8x-refined left-point Riemann sums
    hurst = 0.7
    fine = sample_fbm(hurst, 8 * (n - 1) + 1, 1.0, seed=14)
    coarse = GridPath(0.0, fine.dt * 8, fine.values[::8])
    f = GridPath(0.0, dt, 1.0 + 0.5 * np.sin(2 * t))
    val = young_integral(f, coarse, default_young_alpha(hurst)).scalar()[-1]
    fv = 1.0 + 0.5 * np.sin(2 * fine.times())
    riemann = float(np.sum(fv[:-1] * np.diff(fine.scalar())))
    err2 = abs(val - riemann) / abs(riemann)
    ok = err1 <= 1e-3 and err2 <= 1e-2
    report(4, "Young-integral consistency", ok, f"poly err {err1:.2e}, fBm rel {err2:.2e}")
    assert err1 <= 1e-3
    assert err2 <= 1e-2


def test_criterion_05_poisson_averaging(ou_measure):
    lam = 0.7
    f = lambda y: -np.asarray(y, dtype=float)
    tau = lambda y: SQRT2 * np.ones_like(np.asarray(y, dtype=float))
    sol = solve_poisson_1d(lambda y: lam * np.asarray(y), f, tau, ou_measure)
    y = ou_measure.grid
    mask = np.abs(y) <= 4.0
    err_psi = float(np.max(np.abs(sol.psi[mask] - lam * y[mask])))
    s1 = float(average_coeff(lambda yy: np.cos(yy), ou_measure))
    s2 = float(average_coeff(lambda yy: np.cos(yy) ** 2, ou_measure))
    err_s1 = abs(s1**2 - 1.0 / math.e)
    err_s2 = abs(s2 - 0.5 * (1 + math.exp(-2)))
    ok = err_psi <= 1e-6 and err_s1 <= 1e-6 and err_s2 <= 1e-6
    report(5, "Poisson/averaging constants", ok,
           f"psi err {err_psi:.1e}, sigma-bar^2 err {err_s1:.1e}, sq-bar err {err_s2:.1e}")
    assert err_psi <= 1e-6
    assert err_s1 <= 1e-6
    assert err_s2 <= 1e-6


def test_criterion_06_homogenization():
    t0 = time.monotonic()
    n_out = 201
    dt_out = 1.0 / (n_out - 1)
    means = {}
    for eps in (0.1, 0.03, 0.01):
        spec = ou_spec(eps=eps, eta=eps**1.5, c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        sub = default_substeps(dt_out, spec.eta)
        n_fine = (n_out - 1) * sub + 1
        noise = sample_increments(spec.hurst, n_fine, 1.0, list(range(100)), seed=500)
        batch = next(simulate_chunks(spec, [noise], 1.0 / (n_fine - 1), sub))
        assert not batch.diverged.any()
        t = batch.paths(0)[0].times()
        errs = np.max(np.abs(batch.x[:, :, 0] - np.exp(-t)), axis=1)
        means[eps] = float(np.mean(errs))
    elapsed = time.monotonic() - t0
    decreasing = means[0.1] > means[0.03] > means[0.01]
    ok = means[0.01] <= 0.1 and decreasing and elapsed < 120.0
    report(6, "homogenization", ok,
           f"mean sup-errors {means[0.1]:.3f} > {means[0.03]:.3f} > {means[0.01]:.3f}, {elapsed:.0f}s")
    assert means[0.01] <= 0.1
    assert decreasing
    assert elapsed < 120.0


def test_criterion_07_rate_cross_validation(cos_drift):
    n = 1024
    dt, t = grid_t(n)
    ctx = HurstContext(0.6, n, dt)
    rng = np.random.default_rng(77)
    s1b = math.exp(-0.5)
    worst = 0.0
    for _ in range(10):
        c3 = rng.uniform(0.5, 2.0)
        c4 = rng.uniform(-1.0, 1.0)
        c5 = rng.uniform(-0.5, 0.5)
        phi = GridPath(0.0, dt, s1b * (c3 * t**3 / 3 + c4 * t**4 / 4 + c5 * t**5 / 5))
        re = eval_rate_explicit(phi, cos_drift, ctx)
        rg = eval_rate_general(phi, cos_drift, ctx)
        worst = max(worst, abs(rg.value - re.value) / re.value)
    ok = worst <= 1e-2
    report(7, "rate cross-validation", ok, f"worst rel gap {worst:.2e} over 10 paths")
    assert worst <= 1e-2


def test_criterion_08_discontinuity_at_half(cos_drift):
    n = 1024
    dt, t = grid_t(n)
    phi = GridPath(0.0, dt, math.exp(-0.5) * t**3 / 3.0)
    study = h_limit_study(phi, cos_drift, [0.6, 0.55, 0.52])
    gaps = [g / study["tilde_half"] for g in study["gap_to_tilde"]]
    approach = gaps[0] > gaps[1] > gaps[2]
    final_gap_ok = gaps[2] < 0.05
    ratio = study["tilde_half"] / study["fw_half"]
    target = math.e * (1 + math.exp(-2)) / 2
    ratio_ok = abs(ratio - target) < 1e-3
    persists = study["gap_to_fw"][2] > 0.25 * study["fw_half"]
    ok = approach and final_gap_ok and ratio_ok and persists
    report(8, "discontinuity at H=1/2", ok,
           f"gaps to tilde {gaps[0]:.1%} > {gaps[1]:.1%} > {gaps[2]:.1%}, "
           f"ratio err {abs(ratio - target):.1e}, fw gap persists {persists}")
    assert approach
    assert final_gap_ok
    assert ratio_ok
    assert persists


def make_linear_spec(eps, eta):
    return ou_spec(eps=eps, eta=eta, sigma1=("constant", {"value": 1.0}))


def test_criterion_09_ldp_exponent_25pct():
    # a chosen so P(X_1 >= a) is 1e-3 at eps = 0.01: the exact quantile of
    # the terminal law (variance eps sigma^2 T^{2H} = 0.01)
    t0 = time.monotonic()
    a = math.sqrt(0.01) * norm.isf(1e-3)
    sched = [(0.1, 0.1**1.5), (0.05, 0.05**1.5), (0.02, 0.02**1.5), (0.01, 0.01**1.5)]
    pred = linear_case_prediction(make_linear_spec(0.01, 0.001), a)
    plan = MonteCarloPlan(make_linear_spec, sched, trials=10**6, seed=404)
    rows = estimate_rare_event(plan, a, prediction=pred)
    fit = extrapolated_exponent(rows)
    est = fit["exponent"]
    elapsed = time.monotonic() - t0
    rel = abs(est - pred) / pred
    plug_in = rows[-1]["neg_eps_log_p"]
    exact = -0.01 * norm.logsf(a / math.sqrt(0.01))
    ok = rel <= 0.25 and elapsed < 600.0
    report(9, "LDP exponent within 25%", ok,
           f"plug-in -eps log P_hat = {plug_in:.4f} and exact Gaussian {exact:.4f} at eps=0.01; "
           f"extrapolated exponent {est:.4f} (fit residual {fit['residual']:.1e}) vs prediction "
           f"{pred:.4f} (rel gap {rel:.1%}), P_hat {rows[-1]['p_hat']:.2e}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert rel <= 0.25, (
        "the large-deviation exponent extrapolated across the schedule "
        f"(-eps log P = I + eps (c1 log(1/eps) + c2)) is {est:.4f}, {rel:.1%} "
        f"from the quadratic prediction {pred:.4f}"
    )


def test_criterion_09b_schedule_stabilization():
    a = math.sqrt(0.01) * norm.isf(1e-3)
    sched = [(0.1, 0.1**1.5), (0.05, 0.05**1.5), (0.02, 0.02**1.5), (0.01, 0.01**1.5)]
    pred = linear_case_prediction(make_linear_spec(0.01, 0.001), a)
    plan = MonteCarloPlan(make_linear_spec, sched, trials=10**6, seed=404)
    rows = estimate_rare_event(plan, a, prediction=pred)
    ok_stab, diffs = stabilization_diagnostic(rows)
    ordering = all(row["neg_eps_log_p"] > pred for row in rows)
    ok = ok_stab and ordering
    report(9, "LDP schedule stabilization + ordering", ok,
           f"successive diffs {['%.4f' % d for d in diffs]}, all above prediction: {ordering}")
    assert ok_stab
    assert ordering


def test_criterion_10_determinism(tmp_path):
    config_text = """
[model]
hurst = 0.7
x0 = 0.0
b = zero
c = zero
sigma1 = constant value=1.0
sigma2 = zero
f = ou rate=1.0
tau = constant value=1.4142135623730951

[schedule]
eps = 0.1, 0.05
eta = auto

[experiment]
kind = rare-event
trials = 50000
seed = 2718
threshold = 0.35
"""
    cfg = tmp_path / "det.cfg"
    cfg.write_text(config_text)
    payloads = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        out = str(out_dir / "mc.csv")
        rc = cli_main(["mc", "rare-event", "--config", str(cfg), "--out", out])
        assert rc == 0
        files = {}
        for name in sorted(os.listdir(out_dir)):
            data = open(os.path.join(out_dir, name), "rb").read()
            if name == "manifest.json":
                manifest = json.loads(data)
                manifest.pop("timestamp")
                data = json.dumps(manifest, sort_keys=True).encode()
            files[name] = data
        payloads.append(files)
    ok = payloads[0] == payloads[1]
    report(10, "determinism", ok,
           f"{len(payloads[0])} files byte-identical across re-runs (manifest timestamp excluded)")
    assert ok

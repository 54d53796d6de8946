import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from fracrate import coefficients as cf
from fracrate import ldp_harness
from fracrate.config import load_config
from fracrate.errors import DivergenceError, ExperimentFailure, InvalidInputError
from fracrate.fbm_gen import rng_for, sample_increments
from fracrate.ldp_harness import (
    _BLOCK_TRIALS,
    HFunctional,
    MonteCarloPlan,
    _count_hits,
    _engine,
    estimate_laplace,
    estimate_rare_event,
    extrapolated_exponent,
    linear_case_prediction,
    simulate_point,
    stabilization_diagnostic,
    wilson_interval,
)
from fracrate.multiscale_sim import simulate_chunks

from conftest import ou_spec

SCHED = [(0.1, 0.1**1.5), (0.05, 0.05**1.5), (0.02, 0.02**1.5), (0.01, 0.01**1.5)]


def linear_spec(eps, eta, sigma=1.0):
    return ou_spec(eps=eps, eta=eta, sigma1=("constant", {"value": sigma}))


def drifted_spec(eps, eta):
    # the linear case with a drift: the simulator's engine
    return ou_spec(eps=eps, eta=eta, sigma1=("constant", {"value": 1.0}), c=("linear_xy", {"ax": -2.0}))


def late_blowup_spec(eps, eta):
    # c = 1e4 x from x0 = 1 overflows every trial, below the largest eps only
    c = ("linear_xy", {"ax": 1e4 if eps < 0.1 else 0.0})
    return ou_spec(eps=eps, eta=eta, sigma1=("constant", {"value": 1.0}), c=c, x0=1.0)


class TestHFunctional:
    def test_terminal_sq_capped(self):
        h = HFunctional("terminal_sq", target=0.0, rho=1.0, cap=2.0)
        assert h(10.0) == 2.0
        assert h(1.0) == 1.0

    def test_smooth_exceedance_bounded(self):
        h = HFunctional("smooth_exceedance", target=0.5, height=7.0, width=0.01)
        assert 0.0 <= h(10.0) < 1e-6
        assert abs(h(-10.0) - 7.0) < 1e-6

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(InvalidInputError, match="unknown functional kind 'nope'"):
            HFunctional("nope")


class TestLaplace:
    def test_zero_functional_is_exact_zero(self):
        plan = MonteCarloPlan(linear_spec, SCHED, trials=1000, seed=1)
        rows = estimate_laplace(plan, HFunctional("terminal_sq", rho=0.0))
        assert all(abs(r["estimate"]) < 1e-14 for r in rows)
        assert all(r["std_error"] < 1e-14 for r in rows)

    def test_constant_functional(self):
        # the saturated exceedance functional is constant: estimates equal it
        kappa = 1.25
        h = HFunctional("smooth_exceedance", target=1e9, height=kappa, width=1.0)
        rows = estimate_laplace(MonteCarloPlan(linear_spec, SCHED, trials=1000, seed=2), h)
        assert all(abs(r["estimate"] - kappa) < 1e-9 for r in rows)

    def test_gaussian_endpoint_oracle(self):
        # closed form: -eps log E exp(-rho (X-a)^2/eps)
        #   = rho a^2/(1+2 rho s2) + (eps/2) log(1+2 rho s2),  s2 = sigma^2 T^{2H}
        rho, a = 1.0, 0.4
        h = HFunctional("terminal_sq", target=a, rho=rho, cap=1e9)
        rows = estimate_laplace(MonteCarloPlan(linear_spec, SCHED, trials=10000, seed=7), h)
        limit = rho * a**2 / (1 + 2 * rho)
        for r in rows:
            exact = limit + 0.5 * r["eps"] * math.log(1 + 2 * rho)
            assert abs(r["estimate"] - exact) < max(4 * r["std_error"], 0.25 * exact)
        # within 25% of the variational limit at the smallest eps
        assert abs(rows[-1]["estimate"] - limit) < 0.25 * limit

    def test_nonnegative_for_nonneg_h(self):
        h = HFunctional("smooth_exceedance", target=0.3, height=2.0)
        rows = estimate_laplace(MonteCarloPlan(linear_spec, SCHED[:2], trials=2000, seed=3), h)
        for r in rows:
            assert r["estimate"] > -4 * r["std_error"]

    def test_trials_floor(self):
        with pytest.raises(InvalidInputError):
            estimate_laplace(MonteCarloPlan(linear_spec, SCHED, trials=10, seed=0), HFunctional())

    def test_fewer_than_two_finite_trials_fail(self, monkeypatch):
        # one finite trial of 1000 wrote std_error nan: std(ddof=1) of one value
        def few_finite(plan, spec, stream, trials=None):
            vals = np.full(plan.trials, np.nan)
            vals[:finite] = 0.1
            return iter([(vals, plan.trials - finite)])

        monkeypatch.setattr(MonteCarloPlan, "terminal_values", few_finite)
        plan = MonteCarloPlan(linear_spec, SCHED[:2], trials=1000)
        finite = 1
        with pytest.raises(ExperimentFailure, match="^1 of 1000 trials ended finite at eps=0.1; "):
            estimate_laplace(plan, HFunctional())
        finite = 2
        rows = estimate_laplace(plan, HFunctional())
        assert [r["aborted"] for r in rows] == [998, 998]
        assert all(np.isfinite(r["std_error"]) for r in rows)

    def test_bad_schedule_rejected(self):
        bad = [(0.01, 0.001), (0.1, 0.0316)]
        with pytest.raises(InvalidInputError):
            MonteCarloPlan(linear_spec, bad, trials=1000, seed=0)


class TestSimulatePoint:
    @pytest.mark.parametrize("per_chunk", [2, 5])
    @pytest.mark.parametrize("roles", [
        {"sigma1": ("cos_y", {}), "sigma2": ("constant", {"value": 0.3}), "c": ("linear_xy", {"ax": -1.0})},
        {"c": ("linear_xy", {"ax": -1.0, "ay": 1.0}), "x0": 1.0},  # the OU config: no fBm column
    ])
    def test_matches_one_chunk_of_the_same_keys(self, monkeypatch, per_chunk, roles):
        # the chunk stream bit for bit one chunk of all trials, drawn on the
        # same (3, t) keys with every noise column
        spec = ou_spec(eps=0.1, eta=0.05, hurst=0.8, **roles)
        n_out, sub, trials = 17, 4, 5
        monkeypatch.setattr(ldp_harness, "_MAX_BATCH_POINTS", per_chunk * ((n_out - 1) * sub + 1))
        chunks = list(simulate_point(spec, n_out, 1.0, sub, trials, 6, 3))
        assert [t[0] for t, _ in chunks] == list(range(0, trials, per_chunk))
        assert [i for t, _ in chunks for i in t] == list(range(trials))
        n_fine = (n_out - 1) * sub + 1
        noise = sample_increments(spec.hurst, n_fine, 1.0, [(3, t) for t in range(trials)], seed=6)
        want = next(simulate_chunks(spec, [noise], 1.0 / (n_fine - 1), sub))
        for trials_, batch in chunks:
            assert batch.substeps == sub and not batch.diverged.any()
            assert np.array_equal(batch.x, want.x[trials_]) and np.array_equal(batch.y, want.y[trials_])

    @pytest.mark.parametrize("roles,columns", [
        ({}, (0, 1)),  # sigma1 zero: no fBm
        ({"sigma1": ("constant", {"value": 1.0})}, (1, 1)),
        ({"sigma1": ("constant", {"value": 1.0}), "tau": "zero"}, (1, 0)),  # sigma2 and tau zero: no W
    ])
    def test_draws_only_multiplied_columns(self, monkeypatch, roles, columns):
        tau = roles.pop("tau", None)
        spec = ou_spec(eps=0.1, eta=0.05, **roles)
        if tau is not None:
            spec.tau = cf.build("tau", tau)
        drawn, sample = [], ldp_harness.sample_increments

        def recorded(*args):
            drawn.append(args[4:6])  # (k, ell)
            return sample(*args)

        monkeypatch.setattr(ldp_harness, "sample_increments", recorded)
        assert [len(t) for t, _ in simulate_point(spec, 9, 1.0, 8, 3, 0, 0)] == [3]
        assert drawn == [columns]


class TestRareEvent:
    def test_threshold_at_start_is_half(self):
        # symmetric endpoint law: P(X_T >= x0) = 1/2, exponent -> 0
        rows = estimate_rare_event(MonteCarloPlan(linear_spec, SCHED, trials=40000, seed=5), 0.0)
        for r in rows:
            assert abs(r["p_hat"] - 0.5) < 0.02
        assert rows[-1]["neg_eps_log_p"] < 0.02

    def test_prediction_and_engine(self):
        spec = linear_spec(0.01, 0.001)
        pred = linear_case_prediction(spec, 0.4)
        assert abs(pred - 0.4**2 / 2.0) < 1e-12
        rows = estimate_rare_event(MonteCarloPlan(linear_spec, SCHED, trials=200000, seed=6), 0.4, prediction=pred)
        assert all(r["engine"] == "gaussian" for r in rows)
        ok, diffs = stabilization_diagnostic(rows)
        assert ok
        # ordering consistency: estimates sit above the prediction
        assert all(r["neg_eps_log_p"] > pred for r in rows)

    @pytest.mark.parametrize("sigma1,expected", [
        (None, "gaussian"),
        ("linear_xy", "gaussian"),  # ax = ay = 0: a constant law
        ("linear_xy ax=0.5", "simulate"),
        ("cos_y", "simulate"),
    ])
    def test_auto_engine_reads_declared_facts(self, sigma1, expected):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "rare_event_linear.cfg")
        spec = config.make_spec(*config.schedule[0])
        if sigma1 is not None:
            spec.sigma1 = cf.parse_spec("sigma1", sigma1)
        plan = MonteCarloPlan(config.make_spec, config.schedule, trials=4, n_grid=9)
        assert _engine(spec) == expected
        assert sum(vals.size for vals, _ in plan.terminal_values(spec, 0)) == 4

    def test_prediction_needs_closed_form(self):
        with pytest.raises(InvalidInputError, match="closed form"):
            linear_case_prediction(ou_spec(sigma1=("constant", {}), c=("linear_xy", {"ax": -2.0})), 0.2)
        with pytest.raises(InvalidInputError, match="non-zero"):
            linear_case_prediction(ou_spec(), 0.2)

    @pytest.mark.parametrize("threshold,sigma", [(1e308, 1.0), (1.0, 1e-200)])
    def test_prediction_overflow_is_divergence(self, threshold, sigma):
        # (a - x0)**2 raised a bare OverflowError, and sigma**2 = 0 a
        # ZeroDivisionError
        with pytest.raises(DivergenceError, match="overflows"):
            linear_case_prediction(linear_spec(0.1, 0.1**1.5, sigma=sigma), threshold)

    def test_pilot_infeasible(self):
        with pytest.raises(ExperimentFailure):
            estimate_rare_event(MonteCarloPlan(linear_spec, SCHED, trials=10000, seed=1), 5.0)

    def test_zero_hits_reported_as_bound(self):
        # threshold passable at large eps (pilot ok) but unreachable later
        sched = [(0.5, 0.5**1.5), (0.001, 0.001**1.5)]
        rows = estimate_rare_event(MonteCarloPlan(linear_spec, sched, trials=2000, seed=8), 1.4)
        assert rows[0]["hits"] > 0
        assert rows[1]["bound_only"]
        assert "neg_eps_log_p_lower" in rows[1]

    def test_simulate_engine_agrees(self):
        # the full path engine reproduces the exact-law engine within noise:
        # the same constant sigma1, declared to read x, goes to the simulator
        def simulated_spec(eps, eta):
            spec = linear_spec(eps, eta)
            spec.sigma1 = cf.Coefficient("constant_x", spec.sigma1, {}, reads="x")
            return spec

        sched = [(0.1, 0.1**1.5)]
        rows_g = estimate_rare_event(MonteCarloPlan(linear_spec, sched, trials=2000, seed=9), 0.3)
        rows_s = estimate_rare_event(MonteCarloPlan(simulated_spec, sched, trials=2000, seed=9, n_grid=65), 0.3)
        assert (rows_g[0]["engine"], rows_s[0]["engine"]) == ("gaussian", "simulate")
        p1, p2 = rows_g[0]["p_hat"], rows_s[0]["p_hat"]
        se = math.sqrt(p1 * (1 - p1) / 2000) * 2
        assert abs(p1 - p2) < 6 * se

    def test_extrapolated_exponent(self):
        # exact model form: the intercept is recovered to rounding
        rows = [
            {"eps": e, "bound_only": False, "neg_eps_log_p": 0.3 + e * (0.7 * math.log(1.0 / e) - 1.3)}
            for e, _ in SCHED
        ]
        fit = extrapolated_exponent(rows)
        assert abs(fit["exponent"] - 0.3) < 1e-12
        assert fit["points"] == 4
        # exact Gaussian tail on criterion 09's schedule: the plug-in value at
        # eps = 0.01 is 45% above the limit, the extrapolation within 6%
        a = math.sqrt(0.01) * norm.isf(1e-3)
        pred = linear_case_prediction(linear_spec(0.01, 0.001), a)
        rows = [
            {"eps": e, "bound_only": False, "neg_eps_log_p": -e * norm.logsf(a / math.sqrt(e))}
            for e, _ in SCHED
        ]
        assert rows[-1]["neg_eps_log_p"] > 1.4 * pred
        assert abs(extrapolated_exponent(rows)["exponent"] - pred) / pred < 0.06
        # bound-only rows do not count towards the three points needed
        rows[0] = {"eps": 0.1, "bound_only": True, "neg_eps_log_p_lower": 0.05}
        rows[1]["bound_only"] = True
        with pytest.raises(InvalidInputError):
            extrapolated_exponent(rows)

    @pytest.mark.parametrize("trials", [1, 6 * _BLOCK_TRIALS + 5] + [k * _BLOCK_TRIALS + d for k in (1, 2) for d in (-1, 0, 1)])
    def test_gaussian_blocks_equal_one_draw(self, trials):
        # oracle: the one-shot draw, scaled out of place, of the unblocked engine
        seed, stream, threshold = 21, 2, 0.3
        spec = linear_spec(0.1, 0.1**1.5, sigma=1.3)
        plan = MonteCarloPlan(linear_spec, SCHED, trials=trials, seed=seed, horizon=1.5)
        blocks = list(plan.terminal_values(spec, stream))
        assert all(0 < vals.size <= _BLOCK_TRIALS and aborted == 0 for vals, aborted in blocks)
        assert len(blocks) == -(-trials // _BLOCK_TRIALS)
        scale = math.sqrt(spec.eps) * 1.3 * 1.5**spec.hurst
        full = spec.x0 + scale * rng_for(seed, 3, stream).standard_normal(trials)
        got = np.concatenate([vals for vals, _ in blocks])
        assert np.array_equal(got.view(np.int64), full.view(np.int64))
        good = full[np.isfinite(full)]
        assert _count_hits(blocks, threshold) == (good.size, int(np.sum(good >= threshold)), 0)

    def test_count_hits_skips_aborted_trials(self):
        nan = math.nan
        blocks = [(np.array([nan, 0.5, 0.1]), 1), (np.array([nan, nan]), 2), (np.array([0.3, 0.2]), 0)]
        vals = np.concatenate([v for v, _ in blocks])
        good = vals[np.isfinite(vals)]
        assert _count_hits(blocks, 0.3) == (good.size, int(np.sum(good >= 0.3)), 3) == (4, 2, 3)

    def test_all_trials_aborted_fails(self):
        # every trial at eps = 0.05 diverges: no bound row from zero usable trials
        sched = [(0.1, 0.1**1.5), (0.05, 0.05**1.5)]
        plan = MonteCarloPlan(late_blowup_spec, sched, trials=1000, n_grid=9)
        assert _engine(late_blowup_spec(*sched[1])) == "simulate"
        with pytest.raises(ExperimentFailure, match="all 1000 trials aborted at eps=0.05"):
            estimate_rare_event(plan, 0.0)
        with pytest.raises(ExperimentFailure, match="all 1000 trials aborted at eps=0.05"):
            estimate_laplace(plan, HFunctional())

    def test_memory_independent_of_trials(self, monkeypatch):
        # blocks of _BLOCK_TRIALS: a 10^6-trial point holds no 8 MB array,
        # with both points counted at once
        monkeypatch.setattr(ldp_harness, "_POINT_WORKERS", 2)
        plan = MonteCarloPlan(linear_spec, SCHED[:2], trials=10**6, seed=4)
        tracemalloc.start()
        try:
            rows = estimate_rare_event(plan, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["hits"] > 0 for r in rows)
        assert peak < 4 * 2**20

    def test_simulator_memory_independent_of_trials(self, monkeypatch):
        # chunks of 64 trials: a point of 8 chunks' worth of trials peaks
        # no higher than one of 2 chunks' worth
        monkeypatch.setattr(ldp_harness, "_MAX_BATCH_POINTS", 64 * 257)
        peaks = []
        for chunks in (2, 8):
            plan = MonteCarloPlan(drifted_spec, SCHED[:2], trials=64 * chunks, seed=3, n_grid=129, substeps=2)
            tracemalloc.start()
            try:
                rows = estimate_rare_event(plan, 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(r["engine"] == "simulate" and r["hits"] > 0 for r in rows)
        assert peaks[1] < 1.1 * peaks[0]

    @pytest.mark.parametrize("threshold", [-1.0, 0.0])
    def test_threshold_at_or_below_start(self, threshold):
        # not a rare event: the exponent is 0.0, and -eps log 1 is 0.0, not -0.0
        spec = linear_spec(0.01, 0.001)
        assert linear_case_prediction(spec, threshold) == 0.0
        rows = estimate_rare_event(MonteCarloPlan(linear_spec, SCHED, trials=2000, seed=5), threshold)
        full = [r for r in rows if r["hits"] == r["trials"]]
        assert len(full) == (3 if threshold < 0 else 0)
        assert all(math.copysign(1.0, r["neg_eps_log_p"]) == 1.0 for r in rows)

    def test_determinism(self):
        plan = MonteCarloPlan(linear_spec, SCHED[:2], trials=5000, seed=13)
        rows1 = estimate_rare_event(plan, 0.3)
        rows2 = estimate_rare_event(plan, 0.3)
        assert rows1 == rows2

    def test_rows_independent_of_workers(self, monkeypatch):
        # one thread, and more threads than the box has CPUs, give the same
        # rows; each point counts the one-shot draw of its own stream
        plan = MonteCarloPlan(linear_spec, SCHED, trials=3 * _BLOCK_TRIALS + 7, seed=17)
        rows = {}
        for workers in (1, 4):
            monkeypatch.setattr(ldp_harness, "_POINT_WORKERS", workers)
            rows[workers] = estimate_rare_event(plan, 0.3)
        assert rows[1] == rows[4]
        for idx, ((eps, _), row) in enumerate(zip(SCHED, rows[1])):
            full = math.sqrt(eps) * rng_for(17, 3, idx).standard_normal(plan.trials)
            assert row["hits"] == np.count_nonzero(full >= 0.3) > 0

    def test_points_counted_on_worker_threads(self, monkeypatch):
        # the package's functions run on the calling thread, the counts on the pool
        main, seen = threading.current_thread(), {"rng_for": set(), "make_spec": set(), "_count_hits": set()}

        def recorded(name, fn):
            def call(*args, **kwargs):
                seen[name].add(threading.current_thread() is main)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(ldp_harness, "_POINT_WORKERS", 2)
        monkeypatch.setattr(ldp_harness, "rng_for", recorded("rng_for", rng_for))
        monkeypatch.setattr(ldp_harness, "_count_hits", recorded("_count_hits", _count_hits))
        plan = MonteCarloPlan(recorded("make_spec", linear_spec), SCHED, trials=2000, seed=3)
        estimate_rare_event(plan, 0.3)
        assert seen == {"rng_for": {True}, "make_spec": {True}, "_count_hits": {True, False}}

    @pytest.mark.parametrize("workers", [1, 4])
    def test_first_failing_point_named(self, monkeypatch, workers):
        # sigma1 = inf at the second and third of four points sends every
        # trial there to +-inf; the second point's eps is named
        def make_spec(eps, eta):
            spec = linear_spec(eps, eta)
            if eps in (0.05, 0.02):
                spec.sigma1 = cf.Coefficient("constant", lambda x, y: np.full((), np.inf), {"value": np.inf}, "")
            return spec

        assert _engine(make_spec(*SCHED[1])) == "gaussian"
        monkeypatch.setattr(ldp_harness, "_POINT_WORKERS", workers)
        with pytest.raises(ExperimentFailure, match=r"^all 5000 trials aborted at eps=0\.05$"):
            estimate_rare_event(MonteCarloPlan(make_spec, SCHED, trials=5000, seed=2), 0.3)


class TestWilson:
    def test_contains_truth_mostly(self):
        rng = np.random.default_rng(0)
        p = 0.03
        cover = 0
        for _ in range(200):
            hits = rng.binomial(1000, p)
            lo, hi = wilson_interval(hits, 1000)
            cover += lo <= p <= hi
        assert cover > 180

    def test_averaged_sigma_distinguishes(self, ou_measure):
        # variance of the terminal law under fast cos-diffusion follows the
        # naive average, not the averaged square (quantile-matched exponent)
        from fracrate.multiscale_sim import default_substeps

        eps, eta = 0.05, 0.005
        spec = ou_spec(eps=eps, eta=eta, sigma1=("cos_y", {}), hurst=0.8, beta=0.45)
        n_out = 65
        sub = default_substeps(1.0 / (n_out - 1), eta)
        n_fine = (n_out - 1) * sub + 1
        noise = sample_increments(spec.hurst, n_fine, 1.0, list(range(400)), seed=77)
        batch = next(simulate_chunks(spec, [noise], 1.0 / (n_fine - 1), sub))
        assert not batch.diverged.any()
        var = np.var(batch.x[:, -1, 0], ddof=1)
        v_bar = eps * math.exp(-1.0)  # naive average squared
        v_sq = eps * 0.5 * (1 + math.exp(-2.0))  # averaged square
        assert abs(var - v_bar) < abs(var - v_sq)


def test_log_mean_exp_matches_logsumexp():
    # the Laplace row reads log mean exp(logw) off the shifted weights it
    # keeps for the standard error; largest measured gap to scipy's
    # logsumexp(logw) - log(n) on these cases 4.6e-16 of max(|value|, 1)
    rng = np.random.default_rng(0)
    for size in (2, 10, 1000, 100000):
        for spread in (1e-3, 1.0, 30.0, 700.0):
            for shift in (-800.0, 0.0, 800.0):
                logw = shift + spread * rng.standard_normal(size)
                lme, w, mean_w = ldp_harness._log_mean_exp(logw)
                want = logsumexp(logw) - math.log(size)
                assert abs(lme - want) <= 2e-15 * max(abs(want), 1.0)
                assert w.max() == 1.0 and mean_w == w.mean()

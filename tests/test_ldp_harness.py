import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from fracrate import coefficients as cf
from fracrate.config import load_config
from fracrate.errors import ExperimentFailure, InvalidInputError
from fracrate.ldp_harness import (
    HFunctional,
    LaplaceExperiment,
    _terminal_values,
    estimate_laplace,
    estimate_rare_event,
    extrapolated_exponent,
    linear_case_prediction,
    stabilization_diagnostic,
    wilson_interval,
)

from conftest import ou_spec

SCHED = [(0.1, 0.1**1.5), (0.05, 0.05**1.5), (0.02, 0.02**1.5), (0.01, 0.01**1.5)]


def linear_spec(eps, eta, sigma=1.0):
    return ou_spec(eps=eps, eta=eta, sigma1=("constant", {"value": sigma}))


class TestHFunctional:
    def test_terminal_sq_capped(self):
        h = HFunctional("terminal_sq", target=0.0, rho=1.0, cap=2.0)
        assert h(10.0) == 2.0
        assert h(1.0) == 1.0

    def test_smooth_exceedance_bounded(self):
        h = HFunctional("smooth_exceedance", target=0.5, height=7.0, width=0.01)
        assert 0.0 <= h(10.0) < 1e-6
        assert abs(h(-10.0) - 7.0) < 1e-6

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            HFunctional("nope")(0.0)


class TestLaplace:
    def test_zero_functional_is_exact_zero(self):
        exp = LaplaceExperiment(
            linear_spec, SCHED, HFunctional("terminal_sq", rho=0.0), trials=1000, seed=1
        )
        rows = estimate_laplace(exp)
        assert all(abs(r["estimate"]) < 1e-14 for r in rows)
        assert all(r["std_error"] < 1e-14 for r in rows)

    def test_constant_functional(self):
        # the saturated exceedance functional is constant: estimates equal it
        kappa = 1.25
        h = HFunctional("smooth_exceedance", target=1e9, height=kappa, width=1.0)
        exp = LaplaceExperiment(linear_spec, SCHED, h, trials=1000, seed=2)
        rows = estimate_laplace(exp)
        assert all(abs(r["estimate"] - kappa) < 1e-9 for r in rows)

    def test_gaussian_endpoint_oracle(self):
        # closed form: -eps log E exp(-rho (X-a)^2/eps)
        #   = rho a^2/(1+2 rho s2) + (eps/2) log(1+2 rho s2),  s2 = sigma^2 T^{2H}
        rho, a = 1.0, 0.4
        h = HFunctional("terminal_sq", target=a, rho=rho, cap=1e9)
        exp = LaplaceExperiment(linear_spec, SCHED, h, trials=10000, seed=7)
        rows = estimate_laplace(exp)
        limit = rho * a**2 / (1 + 2 * rho)
        for r in rows:
            exact = limit + 0.5 * r["eps"] * math.log(1 + 2 * rho)
            assert abs(r["estimate"] - exact) < max(4 * r["std_error"], 0.25 * exact)
        # within 25% of the variational limit at the smallest eps
        assert abs(rows[-1]["estimate"] - limit) < 0.25 * limit

    def test_nonnegative_for_nonneg_h(self):
        h = HFunctional("smooth_exceedance", target=0.3, height=2.0)
        exp = LaplaceExperiment(linear_spec, SCHED[:2], h, trials=2000, seed=3)
        rows = estimate_laplace(exp)
        for r in rows:
            assert r["estimate"] > -4 * r["std_error"]

    def test_trials_floor(self):
        with pytest.raises(InvalidInputError):
            LaplaceExperiment(linear_spec, SCHED, HFunctional(), trials=10, seed=0)

    def test_bad_schedule_rejected(self):
        bad = [(0.01, 0.001), (0.1, 0.0316)]
        with pytest.raises(InvalidInputError):
            LaplaceExperiment(linear_spec, bad, HFunctional(), trials=1000, seed=0)


class TestRareEvent:
    def test_threshold_at_start_is_half(self):
        # symmetric endpoint law: P(X_T >= x0) = 1/2, exponent -> 0
        rows = estimate_rare_event(linear_spec, 0.0, SCHED, trials=40000, seed=5)
        for r in rows:
            assert abs(r["p_hat"] - 0.5) < 0.02
        assert rows[-1]["neg_eps_log_p"] < 0.02

    def test_prediction_and_engine(self):
        spec = linear_spec(0.01, 0.001)
        pred = linear_case_prediction(spec, 0.4)
        assert abs(pred - 0.4**2 / 2.0) < 1e-12
        rows = estimate_rare_event(
            linear_spec, 0.4, SCHED, trials=200000, seed=6, prediction=pred
        )
        assert all(r["engine"] == "gaussian" for r in rows)
        ok, diffs = stabilization_diagnostic(rows)
        assert ok
        # ordering consistency: estimates sit above the prediction
        assert all(r["neg_eps_log_p"] > pred for r in rows)

    @pytest.mark.parametrize("sigma1,engine", [
        (None, "gaussian"),
        ("linear_xy", "gaussian"),  # ax = ay = 0: a constant law
        ("linear_xy ax=0.5", "simulate"),
        ("cos_y", "simulate"),
    ])
    def test_auto_engine_reads_declared_facts(self, sigma1, engine):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "rare_event_linear.cfg")
        spec = config.make_spec(*config.schedule[0])
        if sigma1 is not None:
            spec.sigma1 = cf.parse_spec("sigma1", sigma1)
        assert _terminal_values(spec, 1.0, 9, None, 4, 0, (0,), "auto")[2] == engine

    def test_prediction_needs_closed_form(self):
        with pytest.raises(InvalidInputError, match="closed form"):
            linear_case_prediction(ou_spec(sigma1=("constant", {}), c=("linear_xy", {"ax": -2.0})), 0.2)
        with pytest.raises(InvalidInputError, match="non-zero"):
            linear_case_prediction(ou_spec(), 0.2)

    def test_pilot_infeasible(self):
        with pytest.raises(ExperimentFailure):
            estimate_rare_event(linear_spec, 5.0, SCHED, trials=10000, seed=1)

    def test_zero_hits_reported_as_bound(self):
        # threshold passable at large eps (pilot ok) but unreachable later
        sched = [(0.5, 0.5**1.5), (0.001, 0.001**1.5)]
        rows = estimate_rare_event(linear_spec, 1.4, sched, trials=2000, seed=8)
        assert rows[0]["hits"] > 0
        assert rows[1]["bound_only"]
        assert "neg_eps_log_p_lower" in rows[1]

    def test_simulate_engine_agrees(self):
        # the full path engine reproduces the exact-law engine within noise
        sched = [(0.1, 0.1**1.5)]
        rows_g = estimate_rare_event(
            linear_spec, 0.3, sched, trials=2000, seed=9, engine="gaussian"
        )
        rows_s = estimate_rare_event(
            linear_spec, 0.3, sched, trials=2000, seed=9, engine="simulate", n_grid=65
        )
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

    def test_determinism(self):
        rows1 = estimate_rare_event(linear_spec, 0.3, SCHED[:2], trials=5000, seed=13)
        rows2 = estimate_rare_event(linear_spec, 0.3, SCHED[:2], trials=5000, seed=13)
        assert rows1 == rows2


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
        from fracrate.fbm_gen import sample_noise_bundle
        from fracrate.multiscale_sim import default_substeps, simulate_batch

        eps, eta = 0.05, 0.005
        spec = ou_spec(eps=eps, eta=eta, sigma1=("cos_y", {}), hurst=0.8, beta=0.45)
        n_out = 65
        sub = default_substeps(1.0 / (n_out - 1), eta)
        noises = (
            sample_noise_bundle(spec.hurst, (n_out - 1) * sub + 1, 1.0, seed=77, stream=trial)
            for trial in range(400)
        )
        batch = simulate_batch(spec, noises, substeps=sub)
        assert not batch.diverged.any()
        var = np.var(batch.x[:, -1, 0], ddof=1)
        v_bar = eps * math.exp(-1.0)  # naive average squared
        v_sq = eps * 0.5 * (1 + math.exp(-2.0))  # averaged square
        assert abs(var - v_bar) < abs(var - v_sq)

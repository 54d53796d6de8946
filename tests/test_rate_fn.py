import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrmv, dtrsv
from scipy.linalg.lapack import dtpqrt
from scipy.special import gamma

from fracrate import coefficients as cf
from fracrate import poisson_cell, rate_fn
from fracrate.cameron_martin import HurstContext, c_H
from fracrate.config import load_config
from fracrate.errors import AdmissibilityError, DegeneracyError, DivergenceError, InvalidInputError
from fracrate.gridpath import GridPath, trapezoid_weights
from fracrate.poisson_cell import invariant_density_1d, solve_poisson_1d
from fracrate.rate_fn import (
    averaged_euler,
    build_limit_drift,
    eval_rate_explicit,
    eval_rate_fw_half,
    eval_rate_general,
    eval_rate_tilde_half,
    h_limit_study,
    replay_minimizer,
)

from conftest import const_spec, cos_spec, grid_t, limit_drift, ou_spec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COS_S1_BAR = math.exp(-0.5)
COS_S1_SQ_BAR = 0.5 * (1 + math.exp(-2))


def admissible_phi(n, scale=1.0, x0=0.0, sigma_bar=COS_S1_BAR):
    """phi with normalized displacement psi(t) = scale * t^2 (no drift)."""
    dt, t = grid_t(n)
    return GridPath(0.0, dt, x0 + sigma_bar * scale * t**3 / 3.0)


def reference_drift(spec, psol, mu, nbins=64):
    """Averaged coefficients one slow state x (1,) at a time: the per-state
    closures the package used before it averaged along whole paths, with
    their 1 x 1 matrices and their order of operations (the corrector's
    gradient a column (ny, 1), as the package held it)."""
    y = mu.grid
    rho = mu.density
    edges = mu.quantile_edges(nbins)
    bin_idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, nbins - 1)
    wq = trapezoid_weights(y.size, y[1] - y[0])
    grad = psol.grad[:, None]  # (ny, 1)
    tau_vals = np.broadcast_to(np.asarray(spec.tau(y), dtype=float), y.shape)
    tau_rows = tau_vals[:, None]

    def average(fn, x):
        vals = np.asarray(fn(x, y), dtype=float)
        if vals.ndim == 0:
            vals = np.full(y.size, float(vals))
        elif vals.shape[0] != y.size:
            vals = np.broadcast_to(vals, (y.size,) + vals.shape)
        return np.trapezoid(vals * rho.reshape((y.size,) + (1,) * (vals.ndim - 1)), y, axis=0)

    def cbar(x):
        return np.reshape(average(spec.c, x), 1)

    def grad_psi_g_bar(x):
        gv = np.asarray(spec.g(np.asarray(x), y), dtype=float)
        gv = np.broadcast_to(np.atleast_1d(gv), (y.size,)) if gv.ndim <= 1 else gv
        return np.trapezoid(grad * gv[:, None] * rho[:, None], y, axis=0)

    def sigma1_bar(x):
        s1 = np.asarray(spec.sigma1(np.asarray(x), y), dtype=float)
        return np.full((1, 1), float(np.trapezoid(np.broadcast_to(np.atleast_1d(s1), (y.size,)) * rho, y)))

    def sigma1_sq_bar(x):
        s1 = np.broadcast_to(np.atleast_1d(np.asarray(spec.sigma1(np.asarray(x), y), dtype=float)), (y.size,))
        return np.full((1, 1), float(np.trapezoid(s1**2 * rho, y)))

    def qqt_bar(x):
        s2_vals = np.broadcast_to(np.asarray(spec.sigma2(x, y), dtype=float), y.shape)
        qv = grad[:, 0] * tau_vals + s2_vals
        return np.array([[float(np.trapezoid(qv**2 * rho, y))]])

    def q_bins(x):
        s2 = np.asarray(spec.sigma2(np.asarray(x), y), dtype=float)
        s2 = np.broadcast_to(np.atleast_1d(s2), (y.size,)) if s2.ndim <= 1 else s2
        out = np.zeros((nbins, 1, 1))
        for bidx in range(nbins):
            sel = bin_idx == bidx
            wsel = wq[sel] * rho[sel]
            tot = wsel.sum()
            if tot <= 0:
                continue
            gavg = (wsel[:, None] * grad[sel]).sum(axis=0) / tot
            tavg = (wsel[:, None] * tau_rows[sel]).sum(axis=0) / tot
            s2avg = float((wsel * s2[sel]).sum() / tot)
            out[bidx] = gavg[:, None] * tavg[None, :] + s2avg
        return out

    return {
        "cbar": cbar,
        "grad_psi_g_bar": grad_psi_g_bar,
        "sigma1_bar": sigma1_bar,
        "sigma1_sq_bar": sigma1_sq_bar,
        "qqt_bar": qqt_bar,
        "q_bins": q_bins,
    }


DRIFT_FIELDS = ("cbar", "grad_psi_g_bar", "sigma1_bar", "sigma1_sq_bar", "qqt_bar", "q_bins")
XY = {"ax": 0.5, "ay": 0.3, "const": 1.0}
ORACLE_SPECS = {
    "cos_drift": cos_spec,
    "const_drift": const_spec,
    "ou_linear_xy": lambda: ou_spec(b=("linear_y", {"rate": 0.8}), sigma2=("linear_xy", XY)),
    "x_constants": lambda: ou_spec(
        c=("constant", {"value": 0.4}),
        g=("constant", {"value": -0.7}),
        sigma1=("constant", {"value": 1.3}),
        sigma2=("constant", {"value": 0.5}),
    ),
}


def oracle_path(n=257):
    _, t = grid_t(n)
    return 0.3 + 1.5 * t - np.sin(4 * t)


class TestPathAveraging:
    @pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
    def test_matches_per_state_reference(self, case, ou_measure):
        spec = ORACLE_SPECS[case]()
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        ref = reference_drift(spec, psol, ou_measure)
        xs = oracle_path()
        for name in DRIFT_FIELDS:
            got = getattr(drift, name)(xs)
            shape = (len(xs), 64) if name == "q_bins" else xs.shape
            assert got.shape == shape, name
            # the reference takes one state x (1,) and returns its 1 x 1 matrices
            want = np.stack([ref[name](x) for x in xs[:, None]]).reshape(shape)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("coef", [("linear_xy", XY), ("cos_y", {})], ids=["reads_x", "x_free"])
    def test_x_free_coefficient_is_averaged_once(self, coef, ou_measure):
        # a coefficient whose declared reads lack x is called on the first
        # node and its averages serve every node: bit for bit the 17 node
        # blocks (63 nodes of 4,097 grid points each) that the same
        # callables, undeclared, are averaged on
        specs = {label: ou_spec(b=("linear_y", {"rate": 0.8}), c=coef, g=coef, sigma1=coef, sigma2=coef)
                 for label in ("declared", "bare")}
        for role in ("c", "g", "sigma1", "sigma2"):
            setattr(specs["bare"], role, getattr(specs["bare"], role).fn)  # reads x and y
        calls = {label: [] for label in specs}
        for label, spec in specs.items():
            fn = spec.sigma1
            spec.sigma1 = cf.derived("counted", lambda x, y, fn=fn, log=calls[label]: log.append(1) or fn(x, y), fn)
        drifts = {label: limit_drift(spec, ou_measure) for label, spec in specs.items()}
        xs = oracle_path(1025)
        for name in DRIFT_FIELDS:
            got, want = (getattr(drifts[label], name)(xs) for label in ("declared", "bare"))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        for log in calls.values():
            log.clear()
        for drift in drifts.values():
            drift.sigma1_bar(xs)
        assert len(calls["bare"]) == 17
        assert len(calls["declared"]) == (17 if coef[0] == "linear_xy" else 1)

    def test_empty_cells_match_reference(self):
        # 64 cells on a 65-point grid: most cells hold no grid point
        spec = ORACLE_SPECS["ou_linear_xy"]()
        mu = invariant_density_1d(spec.f, spec.tau, 8.0, 65)
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, mu)
        drift = build_limit_drift(spec, psol, mu)
        xs = oracle_path()
        want = np.stack([reference_drift(spec, psol, mu)["q_bins"](x) for x in xs[:, None]]).reshape(len(xs), 64)
        assert np.any(drift.bin_mass == 0)
        np.testing.assert_allclose(drift.q_bins(xs), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
    def test_independent_of_block_size(self, case, ou_measure, monkeypatch):
        drift = limit_drift(ORACLE_SPECS[case](), ou_measure)
        xs = oracle_path()
        results = []
        for nodes in (1, 7, len(xs)):
            monkeypatch.setattr(poisson_cell, "_MAX_BLOCK_POINTS", nodes * ou_measure.grid.size)
            results.append([getattr(drift, name)(xs) for name in DRIFT_FIELDS])
        for other in results[1:]:
            for name, a, b in zip(DRIFT_FIELDS, results[0], other):
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("g,averages", [("zero", 0), ("constant", 1)])
    def test_corrector_of_zero_g_is_not_averaged(self, g, averages, ou_measure, monkeypatch):
        spec = ou_spec(b=("linear_y", {"rate": 0.8}), g=(g, {"value": -0.7} if g == "constant" else {}))
        drift = build_limit_drift(spec, solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure), ou_measure)
        calls, average = [], rate_fn.average_coeff
        monkeypatch.setattr(rate_fn, "average_coeff", lambda *args: calls.append(args) or average(*args))
        xs = oracle_path()
        got = drift.grad_psi_g_bar(xs)
        assert len(calls) == averages and got.shape == xs.shape
        assert np.any(got != 0) if averages else np.all(got == 0)

    @pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
    def test_column_of_states_is_invalid_input(self, case, ou_measure):
        # one number per node ((n,) in and out: test_matches_per_state_reference);
        # a column of states (n, 1), the layout of a vector system, is
        # refused, also by the corrector of a g declared zero, which averages
        # nothing
        spec = ORACLE_SPECS[case]()
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        xs = oracle_path()
        for name in DRIFT_FIELDS:
            with pytest.raises(InvalidInputError, match=r"shape \(n,\), got \(257, 1\)"):
                getattr(drift, name)(xs[:, None])
        assert poisson_cell.average_coeff(spec.sigma1, ou_measure, xs).shape == xs.shape
        with pytest.raises(InvalidInputError, match="slow states"):
            poisson_cell.average_coeff(spec.sigma1, ou_measure, xs[:, None])

    @pytest.mark.parametrize("role", ["c", "g", "sigma1", "sigma2"])
    @pytest.mark.parametrize("name", ["zero", "constant"])
    def test_x_free_builtins_carry_no_node_axis(self, role, name, ou_measure):
        # shared by all nodes, so averaged once; the cos_drift, ou_linear_xy
        # and x_constants oracle cases compare them with the per-state reference
        coef = cf.build(role, name, **({"value": 0.6} if name == "constant" else {}))
        assert np.shape(coef(oracle_path()[:, None], ou_measure.grid)) == ()


class TestExplicit:
    def test_zero_on_homogenized_flow(self, const_drift):
        # cbar(x) = -x: phi = x0 e^{-t} gives S = 0
        n = 512
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, 1.0 * np.exp(-t))
        ctx = HurstContext(0.7, n, dt)
        res = eval_rate_explicit(phi, const_drift, ctx)
        assert res.value < 1e-5

    def test_constant_control_gives_half_horizon(self, const_drift, ou_measure):
        # cbar = 0, sigma1 = 1 constant: phi-dot = Kdot[1] costs T/2
        spec = ou_spec(sigma1=("constant", {"value": 1.0}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 1024
        h = 0.7
        dt, t = grid_t(n)
        u = c_H(h) * gamma(1.5 - h) * t ** (h + 0.5) / (h + 0.5)
        phi = GridPath(0.0, dt, u)
        res = eval_rate_explicit(phi, drift, HurstContext(h, n, dt))
        assert abs(res.value - 0.5) < 5e-3
        # minimizer is the constant control
        v1 = res.minimizer["v1"].scalar()
        assert np.max(np.abs(v1[t >= 0.05] - 1.0)) < 5e-3

    def test_scale_invariance_in_sigma(self, ou_measure):
        # scaling sigma1 and the displacement together leaves psi unchanged
        results = []
        for scale in (1.0, 2.5):
            spec = ou_spec(sigma1=("constant", {"value": scale}))
            psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
            drift = build_limit_drift(spec, psol, ou_measure)
            n = 512
            dt, t = grid_t(n)
            phi = GridPath(0.0, dt, scale * t**3 / 3.0)
            res = eval_rate_explicit(phi, drift, HurstContext(0.7, n, dt))
            results.append(res.value)
        assert abs(results[0] - results[1]) / results[0] < 1e-10

    def test_quadratic_scaling(self, cos_drift):
        n = 512
        ctx = HurstContext(0.7, n, 1.0 / (n - 1))
        lam = 1.8
        r1 = eval_rate_explicit(admissible_phi(n), cos_drift, ctx)
        r2 = eval_rate_explicit(admissible_phi(n, scale=lam), cos_drift, ctx)
        assert abs(r2.value - lam**2 * r1.value) / r1.value < 1e-8

    def test_degenerate_sigma_raises(self, ou_measure):
        spec = ou_spec()  # sigma1 = 0
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 128
        ctx = HurstContext(0.7, n, 1.0 / (n - 1))
        with pytest.raises(DegeneracyError):
            eval_rate_explicit(admissible_phi(n), drift, ctx)

    def test_nonnegative(self, cos_drift):
        rng = np.random.default_rng(4)
        n = 256
        dt, t = grid_t(n)
        ctx = HurstContext(0.75, n, dt)
        for _ in range(5):
            phi = GridPath(0.0, dt, rng.uniform(0.2, 2.0) * t**2 + 0.1 * np.sin(3 * t) * t**2)
            res = eval_rate_explicit(phi, cos_drift, ctx)
            assert res.value >= 0


def oracle_general(phi, drift, ctx):
    """The general rate with the whole Gram in hand, as the package computed
    it before it factored the Gram in place: the rough block
    A[i, j] = sigma1-bar_i kd[i, j] sqrt(w_i / w_j) as an (n, n) array,
    G = A A^T plus the averaged Brownian Gram on the diagonal, a Cholesky
    copy of G on nodes 1..n-1, and power iteration on that block."""
    w = trapezoid_weights(phi.n, phi.dt)
    sw = np.sqrt(w)
    x = phi.scalar()
    a_u1 = drift.sigma1_bar(x)[:, None] * (ctx.kdot_matrix() * (sw[:, None] / sw[None, :]))
    gram = a_u1 @ a_u1.T
    nodes = np.arange(phi.n)
    gram[nodes, nodes] += drift.qqt_bar(x)
    gram_k = gram[1:, 1:]
    chol = cho_factor(gram_k, lower=True)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(phi.n - 1)
    for _ in range(20):
        v = gram_k @ v
        v /= np.linalg.norm(v)
    lam_max = float(v @ (gram_k @ v))
    u = rng.standard_normal(phi.n - 1)
    for _ in range(20):
        u = cho_solve(chol, u)
        u /= np.linalg.norm(u)
    lam_min = float(u @ (gram_k @ u))
    r_w = rate_fn._forced_displacement(phi, drift)[1] * sw
    w_sol = np.zeros(phi.n)
    w_sol[1:] = cho_solve(chol, r_w[1:])
    return {
        "value": 0.5 * float(r_w[1:] @ w_sol[1:]),
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "condition": lam_max / lam_min,
        "v1": ((a_u1.T @ w_sol) / sw)[:, None],
        "u2": drift.q_bins(x) * (w_sol / sw)[:, None],
        "a_u1": a_u1,
        "gram": gram,
        "weights": w,
    }


GENERAL_CASES = {
    # qqt = 0, as on the benchmark's cos config
    "cos_drift": (cos_spec, 0.8),
    # qqt != 0: a Brownian diagonal
    "ou_sigma2_constant": (
        lambda: ou_spec(sigma1=("constant", {"value": 1.0}), sigma2=("constant", {"value": 0.5})), 0.7
    ),
    "ou_linear_b": (lambda: ou_spec(b=("linear_y", {"rate": 0.8}), sigma1=("constant", {"value": 1.0})), 0.7),
}


class TestAssembleQH:
    # the whole-Gram assembly of oracle_general, and what the evaluator keeps of it

    def test_sigma1_zero_acts_on_u2_only(self, ou_measure):
        spec = ou_spec(sigma2=("constant", {"value": 1.0}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 128
        dt, t = grid_t(n)
        ctx = HurstContext(0.7, n, dt)
        dq = oracle_general(GridPath(0.0, dt, np.zeros(n)), drift, ctx)
        assert np.max(np.abs(dq["a_u1"])) == 0.0
        # the Brownian block is the averaged Gram of sigma2 = 1
        assert abs(dq["gram"][5, 5] - 1.0) < 5e-3
        # a path the rough block would act on: no rough control, and the
        # Gram is that Brownian block
        res = eval_rate_general(GridPath(0.0, dt, 0.3 * t**2), drift, ctx)
        assert np.max(np.abs(res.minimizer["v1"].values)) == 0.0
        assert np.max(np.abs(res.minimizer["u2_feedback"])) > 0.0
        for key in ("lambda_min", "lambda_max"):
            assert abs(res.diagnostics[key] - 1.0) < 5e-3

    def test_u1_action_matches_kdot_closed_form(self, const_drift):
        n = 256
        h = 0.7
        dt, t = grid_t(n)
        ctx = HurstContext(h, n, dt)
        dq = oracle_general(GridPath(0.0, dt, np.zeros(n)), const_drift, ctx)
        sw = np.sqrt(dq["weights"])
        out = (dq["a_u1"] @ (np.ones(n) * sw)) / sw
        exact = c_H(h) * gamma(1.5 - h) * t ** (h - 0.5)
        mask = t >= 10 * dt
        assert np.max(np.abs(out[mask] - exact[mask]) / exact[mask]) < 1e-10
        # the evaluator's rough block acts the same way: sigma1-bar Kdot of
        # its rough control gives back the forced displacement on nodes 1..n-1
        phi = GridPath(0.0, dt, 0.2 + 0.5 * t**2 + 0.3 * t**3)
        res = eval_rate_general(phi, const_drift, ctx)
        r = rate_fn._forced_displacement(phi, const_drift)[1][1:]
        back = const_drift.sigma1_bar(phi.scalar()) * (ctx.kdot_matrix() @ res.minimizer["v1"].scalar())
        assert np.max(np.abs(back[1:] - r)) < 1e-10 * np.max(np.abs(r))

    def test_operator_norm_bounded_over_paths(self, cos_drift):
        n = 128
        dt, t = grid_t(n)
        ctx = HurstContext(0.8, n, dt)
        rng = np.random.default_rng(8)
        norms = []
        for _ in range(4):
            phi = GridPath(0.0, dt, rng.standard_normal() * t**2)
            norms.append(math.sqrt(eval_rate_general(phi, cos_drift, ctx).diagnostics["lambda_max"]))
        assert max(norms) < 10 * min(norms) + 1.0


class TestGeneralMemory:
    def test_peak_is_one_gram(self, cos_drift):
        # today's oracle holds about four (n-1)^2 tables: A, two temporaries
        # building it, the Gram and a copy of its nodes 1..n-1
        n = 1025
        ctx = HurstContext(0.8, n, 1.0 / (n - 1))
        ctx.kdot_matrix()
        phi = admissible_phi(n)
        tracemalloc.start()
        try:
            eval_rate_general(phi, cos_drift, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n - 1) ** 2 * 8 + 2e6

    def test_peak_with_brownian_diagonal(self, ou_measure):
        # qqt > 0 at every node: the rows of diag(sqrt(qqt)) below the square
        # root are a second (n-1)^2 table
        spec = ou_spec(sigma1=("cos_y", {}), sigma2=("constant", {"value": 0.3}), hurst=0.8, beta=0.45)
        drift = limit_drift(spec, ou_measure)
        n = 1025
        ctx = HurstContext(0.8, n, 1.0 / (n - 1))
        ctx.kdot_matrix()
        phi = admissible_phi(n)
        tracemalloc.start()
        try:
            res = eval_rate_general(phi, drift, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["lambda_min"] >= 0.5 * drift.qqt_bar(np.zeros(1))[0]
        assert peak < 2 * (n - 1) ** 2 * 8 + 2e6

    def test_factor_is_the_gram(self, cos_drift, monkeypatch):
        # the triangle L reads the cached Kdot matrix in place, and with the
        # column c0 of H it gives back the Gram, G = L L^T + c0 c0^T on
        # nodes 1..n-1 when qqt = 0
        made, make = [], rate_fn._Triangle
        monkeypatch.setattr(rate_fn, "_Triangle", lambda *args: made.append(make(*args)) or made[-1])
        n = 257
        phi, ctx = admissible_phi(n), HurstContext(0.8, n, 1.0 / (n - 1))
        eval_rate_general(phi, cos_drift, ctx)
        tri = made[0]
        assert np.shares_memory(tri.k, ctx.kdot_matrix())
        lower = tri.sweep(np.eye(n - 1), 0)
        assert np.array_equal(lower, np.tril(lower))
        want = oracle_general(phi, cos_drift, ctx)
        c0 = want["a_u1"][1:, 0]
        gram = want["gram"][1:, 1:]
        assert np.max(np.abs(lower @ lower.T + np.outer(c0, c0) - gram)) <= 1e-12 * np.max(np.abs(gram))

    def test_forced_displacement_checked_before_the_factor(self, cos_drift, monkeypatch):
        calls = []
        monkeypatch.setattr(rate_fn, "_Triangle", lambda *args: calls.append(1))
        n = 65
        dt, t = grid_t(n)
        with pytest.raises(DivergenceError, match="forced displacement overflowed"):
            eval_rate_general(GridPath(0.0, dt, 1e308 * np.cos(40 * t)), cos_drift, HurstContext(0.8, n, dt))
        assert calls == []


class TestGeneral:
    @pytest.mark.parametrize("n", [2, 3, 48, 257, 1025])
    @pytest.mark.parametrize("case", sorted(GENERAL_CASES))
    def test_matches_whole_gram_oracle(self, case, n, ou_measure):
        make_spec, h = GENERAL_CASES[case]
        drift = limit_drift(make_spec(), ou_measure)
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, 0.2 + 0.5 * t**2 + 0.3 * t**3)
        ctx = HurstContext(h, n, dt)
        want = oracle_general(phi, drift, ctx)
        res = eval_rate_general(phi, drift, ctx)
        assert abs(res.value - want["value"]) <= 1e-12 * abs(want["value"])
        for key in ("lambda_min", "lambda_max", "condition"):
            assert abs(res.diagnostics[key] - want[key]) <= 1e-8 * abs(want[key]), key
        for got, ref in ((res.minimizer["v1"].values, want["v1"]), (res.minimizer["u2_feedback"], want["u2"])):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_degenerate_sigma_raises(self, ou_measure):
        # sigma1 = 0 and qqt = 0: the Gram is zero, and so is its factor
        drift = limit_drift(ou_spec(), ou_measure)
        n = 128
        with pytest.raises(DegeneracyError):
            eval_rate_general(admissible_phi(n), drift, HurstContext(0.7, n, 1.0 / (n - 1)))

    def test_converges_to_explicit_on_finer_grids(self, cos_drift):
        # first order in the grid: the gap to the explicit rate shrinks at
        # least twofold per doubling, through n = 2049
        gaps = []
        for n in (257, 513, 1025, 2049):
            phi, ctx = admissible_phi(n), HurstContext(0.8, n, 1.0 / (n - 1))
            re = eval_rate_explicit(phi, cos_drift, ctx).value
            gaps.append(abs(eval_rate_general(phi, cos_drift, ctx).value - re) / re)
        assert gaps[0] < 2e-3
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= coarse / 2

    def test_zero_on_homogenized_flow(self, const_drift):
        n = 256
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, np.exp(-t))
        res = eval_rate_general(phi, const_drift, HurstContext(0.7, n, dt))
        assert res.value < 1e-5

    def test_matches_explicit_on_common_domain(self, cos_drift):
        n = 1024
        dt, t = grid_t(n)
        ctx = HurstContext(0.6, n, dt)
        rng = np.random.default_rng(5)
        for _ in range(3):
            c3, c4 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            phi = GridPath(0.0, dt, COS_S1_BAR * (c3 * t**3 / 3 + c4 * t**4 / 4))
            re = eval_rate_explicit(phi, cos_drift, ctx)
            rg = eval_rate_general(phi, cos_drift, ctx)
            assert abs(rg.value - re.value) / re.value < 1e-2

    def test_sigma1_zero_reduces_to_pointwise_form(self, ou_measure):
        # with no rough noise the Gram is multiplication by the averaged
        # Brownian Gram and the value matches the classical quadratic form
        spec = ou_spec(b=("linear_y", {"rate": 0.8}), sigma2=("constant", {"value": 0.5}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 256
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, 0.3 * t**2)
        rg = eval_rate_general(phi, drift, HurstContext(0.7, n, dt))
        rf = eval_rate_fw_half(phi, drift)  # its matrix is qqt_bar when sigma1 = 0
        assert abs(rg.value - rf.value) / rf.value < 2e-2

    def test_coercivity_with_brownian_block(self, ou_measure):
        # min eigenvalue of the Gram is at least the Brownian floor
        spec = ou_spec(b=("linear_y", {"rate": 0.8}), sigma1=("constant", {"value": 1.0}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 256
        dt, t = grid_t(n)
        res = eval_rate_general(GridPath(0.0, dt, 0.2 * t**2), drift, HurstContext(0.7, n, dt))
        floor = drift.qqt_bar(np.zeros(1))[0]
        assert res.diagnostics["lambda_min"] >= 0.5 * floor

    def test_minimizer_replay(self, cos_drift):
        n = 512
        dt, t = grid_t(n)
        ctx = HurstContext(0.65, n, dt)
        phi = admissible_phi(n, scale=1.3)
        res = eval_rate_general(phi, cos_drift, ctx)
        replay = replay_minimizer(phi, cos_drift, ctx, res)
        assert np.max(np.abs(replay.values - phi.values)) < 5e-3

    def test_minimizer_replay_with_brownian_feedback(self, ou_measure):
        # the u2 feedback bins carry the effective noise map Q(y)
        spec = ou_spec(b=("linear_y", {"rate": 0.8}), sigma1=("constant", {"value": 0.5}))
        drift = limit_drift(spec, ou_measure)
        n = 256
        dt, t = grid_t(n)
        ctx = HurstContext(0.7, n, dt)
        phi = GridPath(0.0, dt, 0.4 * t**2)
        res = eval_rate_general(phi, drift, ctx)
        replay = replay_minimizer(phi, drift, ctx, res)
        assert np.max(np.abs(replay.values - phi.values)) < 5e-3


def qr_solve_gram(kd, s1, sw, qqt, r_w):
    """``rate_fn._solve_gram`` as the package solved it before it went to
    Woodbury: one LAPACK ``dtpqrt`` of the Gram's square root B, whose
    upper triangle U is the transposed rough block over columns 1..n-1,
    G = B^T B = R^T R, power iteration on R, and two BLAS triangular solves
    for the solution.  Returns (x, value, lam_max, lam_min)."""
    a = kd[1:, 1:] / sw[1:]
    rows = (s1 * sw)[1:, None]
    a *= rows
    qqt = qqt[1:]
    brown = np.flatnonzero(qqt > 0)
    b = np.zeros((1 + brown.size, len(a)), order="F")
    b[0] = kd[1:, 0] / sw[0] * rows[:, 0]
    b[1 + np.arange(brown.size), brown] = np.sqrt(qqt[brown])
    r, _, _, info = dtpqrt(brown.size, min(32, len(a)), a.T, b, overwrite_a=1, overwrite_b=1)
    diag = np.diagonal(r)
    if info or not np.all(np.isfinite(diag) & (diag != 0.0)):
        raise DegeneracyError("zero or non-finite pivot")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(len(r))
    for _ in range(20):
        v = dtrmv(r, dtrmv(r, v), trans=1)
        v /= np.linalg.norm(v)
    u = rng.standard_normal(len(r))
    for _ in range(20):
        u = dtrsv(r, dtrsv(r, u, trans=1))
        u /= np.linalg.norm(u)
    lam_max, lam_min = (float(np.linalg.norm(dtrmv(r, x)) ** 2) for x in (v, u))
    s_max, s_min = np.sqrt([lam_max, lam_min])
    if s_min <= rate_fn._DEGENERATE_RATIO * max(s_max, 1.0):
        raise DegeneracyError("degenerate")
    z = dtrsv(r, r_w, trans=1)
    return dtrsv(r, z), 0.5 * float(z @ z), lam_max, lam_min


def gram_inputs(n, qqt_nodes="none", sigma_gaps=False, scale=1.0):
    """(kd, s1, sw, qqt, r_w) of ``_solve_gram`` at H = 0.8 on the grid of n
    nodes: sigma1-bar of the cos system with a slow ripple, times ``scale``;
    qqt = 0.09 at no node, every third node or every node; with
    ``sigma_gaps``, sigma1-bar = 0 at every seventh node, where qqt = 0.09."""
    dt, t = grid_t(n)
    kd = HurstContext(0.8, n, dt).kdot_matrix()
    sw = np.sqrt(trapezoid_weights(n, dt))
    s1 = scale * COS_S1_BAR * (1.0 + 0.3 * np.sin(5 * t))
    qqt = np.zeros(n)
    qqt[{"none": slice(0), "partial": slice(1, None, 3), "full": slice(None)}[qqt_nodes]] = 0.09
    if sigma_gaps:
        s1[3::7] = 0.0
        qqt[3::7] = 0.09
    r_w = ((1.5 - 4 * np.cos(4 * t)) * sw)[1:]
    return kd, s1, sw, qqt, r_w


class TestWoodburyOracle:
    # the Woodbury solve on the triangular Kdot block against the QR route
    # it replaced (qr_solve_gram).  Largest relative gaps measured over these
    # cases, BLAS on one and on two threads: value 6.7e-16, solution 1.5e-11
    # of its largest entry (cond(G) is 3.4e7 at n = 1025 with qqt = 0),
    # lambda_max 5.8e-16 and lambda_min 4.5e-12; the bounds are about ten
    # times those

    @pytest.mark.parametrize("n", [2, 3, 65, 257, 1025])
    @pytest.mark.parametrize("qqt_nodes,sigma_gaps", [("none", False), ("partial", False), ("full", False),
                                                      ("none", True)], ids=["qqt0", "partial", "full", "gaps"])
    def test_matches_qr_route(self, n, qqt_nodes, sigma_gaps):
        args = gram_inputs(n, qqt_nodes, sigma_gaps)
        x, val, lam_max, lam_min = rate_fn._solve_gram(*args)
        x_ref, val_ref, lam_max_ref, lam_min_ref = qr_solve_gram(*args)
        assert abs(val - val_ref) <= 1e-14 * abs(val_ref)
        assert np.max(np.abs(x - x_ref)) <= 2e-10 * np.max(np.abs(x_ref))
        assert abs(lam_max - lam_max_ref) <= 1e-14 * lam_max_ref
        assert abs(lam_min - lam_min_ref) <= 5e-11 * lam_min_ref

    @pytest.mark.parametrize("qqt_nodes,scale,degenerate", [
        ("none", 1e-2, False),
        # singular values of the square root below the degeneracy ratio
        ("none", 1e-6, True),
        # a zero row of the Gram: sigma1-bar = 0 and qqt = 0 at a node
        ("none", 0.0, True),
        ("partial", 0.0, True),
        # the Brownian diagonal alone: G = diag(qqt)
        ("full", 0.0, False),
    ])
    def test_degeneracy_rule_agrees(self, qqt_nodes, scale, degenerate):
        args = gram_inputs(257, qqt_nodes, scale=scale)
        outcomes = []
        for solve in (rate_fn._solve_gram, qr_solve_gram):
            try:
                solve(*args)
                outcomes.append(False)
            except DegeneracyError:
                outcomes.append(True)
        assert outcomes == [degenerate, degenerate]

    @pytest.mark.parametrize("tiny,rule", [(1e-300, "singular values"), (1e-320, "overflowed")])
    def test_near_zero_rough_row_is_degenerate(self, tiny, rule):
        # sigma1-bar near 0 at one node and qqt = 0: lambda_min comes out NaN,
        # which the QR route's rule (s_min <= ratio * max(s_max, 1)) let
        # through to an infinite or NaN value; the rule now reads NaN as
        # degenerate, and a subnormal pivot overflows C = L^-1 H first
        kd, s1, sw, qqt, r_w = gram_inputs(257)
        s1[100] = tiny
        with pytest.raises(DegeneracyError, match=rule):
            rate_fn._solve_gram(kd, s1, sw, qqt, r_w)
        with np.errstate(all="ignore"):
            _, val, _, lam_min = qr_solve_gram(kd, s1, sw, qqt, r_w)
        assert np.isnan(lam_min) and not np.isfinite(val)


class TestClassicalForms:
    def test_zero_on_drift_flow(self, const_drift):
        n = 256
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, np.exp(-t))
        assert eval_rate_fw_half(phi, const_drift).value < 1e-6
        assert eval_rate_tilde_half(phi, const_drift).value < 1e-6

    def test_scalar_constant_slope(self, const_drift):
        # effective matrix 1, displacement beta: S = beta^2 T / 2
        n = 512
        dt, t = grid_t(n)
        beta = 0.8
        phi = GridPath(0.0, dt, 1.0 + beta * t + (np.exp(-t) - 1.0))
        # phi-dot - cbar = beta + (e^{-t}-1)' + phi = ... use cbar = -x directly:
        # choose phi with phi-dot + phi = beta: phi = beta(1 - e^{-t})
        phi = GridPath(0.0, dt, beta * (1.0 - np.exp(-t)))
        res = eval_rate_tilde_half(phi, const_drift)
        assert abs(res.value - beta**2 / 2) < 1e-4

    def test_cos_example_values(self, cos_drift):
        # constant displacement beta against the two averaged matrices
        n = 512
        dt, t = grid_t(n)
        beta = 0.7
        phi = GridPath(0.0, dt, beta * t)
        til = eval_rate_tilde_half(phi, cos_drift)
        fw = eval_rate_fw_half(phi, cos_drift)
        assert abs(til.value - math.e * beta**2 / 2) < 1e-5
        assert abs(fw.value - beta**2 / (1 + math.exp(-2))) < 1e-5
        ratio = til.value / fw.value
        assert abs(ratio - math.e * (1 + math.exp(-2)) / 2) < 1e-10

    def test_quadratic_scaling(self, cos_drift):
        n = 256
        dt, t = grid_t(n)
        lam = 2.2
        r1 = eval_rate_fw_half(GridPath(0.0, dt, 0.5 * t**2), cos_drift)
        r2 = eval_rate_fw_half(GridPath(0.0, dt, lam * 0.5 * t**2), cos_drift)
        assert abs(r2.value - lam**2 * r1.value) / r1.value < 1e-12


class TestLimitStudy:
    def test_gap_closes_to_tilde_not_fw(self, cos_drift):
        n = 1024
        phi = admissible_phi(n)
        study = h_limit_study(phi, cos_drift, [0.6, 0.55, 0.52])
        gaps = study["gap_to_tilde"]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * study["tilde_half"]
        # the gap to the classical form persists (the discontinuity)
        assert study["gap_to_fw"][2] > 0.3 * study["fw_half"]
        ratio = study["tilde_half"] / study["fw_half"]
        assert abs(ratio - math.e * (1 + math.exp(-2)) / 2) < 1e-3

    def test_state_only_sigma_is_continuous(self, const_drift, ou_measure):
        # sigma1 independent of the fast state: both classical forms agree
        n = 512
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, t**3 / 3.0 + 1.0 * (np.exp(-t) - 1.0) * 0.0)
        spec = ou_spec(sigma1=("constant", {"value": 1.0}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        study = h_limit_study(phi, drift, [0.55, 0.52])
        assert abs(study["tilde_half"] - study["fw_half"]) < 1e-10
        assert study["gap_to_fw"][-1] < 0.05 * study["fw_half"]

    def test_inadmissible_path_raises(self, cos_drift):
        # constant-slope phi has psi(0) != 0: fails the near-zero heuristic
        n = 512
        dt, t = grid_t(n)
        phi = GridPath(0.0, dt, 0.9 * t)
        with pytest.raises(AdmissibilityError):
            h_limit_study(phi, cos_drift, [0.55])

    def test_singular_sigma_raises_before_any_table(self, cos_drift, monkeypatch):
        # |sigma1-bar| = 1e-10 at a node past the heuristic's first decade:
        # the heuristic's own singularity rule (1e-12) let it through, and
        # the limit study failed inside its first explicit evaluation
        n, node = 512, 300

        def sigma1_bar(xs):
            s1 = cos_drift.sigma1_bar(xs).copy()
            s1[node] = 1e-10
            return s1

        drift = dataclasses.replace(cos_drift, sigma1_bar=sigma1_bar)
        monkeypatch.setattr(rate_fn, "HurstContext", pytest.fail)
        with pytest.raises(DegeneracyError, match="node 300"):
            h_limit_study(admissible_phi(n), drift, [0.55])


def counted_averages(monkeypatch):
    """Count the calls of ``average_coeff`` made through ``rate_fn``."""
    calls = []

    def average_coeff(*args, **kwargs):
        calls.append(1)
        return poisson_cell.average_coeff(*args, **kwargs)

    monkeypatch.setattr(rate_fn, "average_coeff", average_coeff)
    return calls


def general_route(drift):
    """The drift without its declared affine form, so that
    ``averaged_euler`` steps it through the averaging loop."""
    return dataclasses.replace(drift, affine_drift=None)


class TestAffineReference:
    # averaged_euler steps a declared affine drift as a float recurrence; the
    # oracle is the averaging loop, which the same drift takes without it

    def test_ou_config_is_bit_for_bit(self, monkeypatch):
        config = load_config(str(CONFIGS / "ou_homogenization.cfg"))
        spec = config.make_spec(*config.schedule[-1])
        mu, psol = config.cell_problem()
        drift = build_limit_drift(spec, psol, mu)
        assert drift.affine_drift == (-1.0, 0.0)
        n = config.grid["n"]
        dt = config.grid["horizon"] / (n - 1)
        calls = counted_averages(monkeypatch)
        declared = averaged_euler(drift, spec.x0, n, dt)
        assert calls == []
        loop = averaged_euler(general_route(drift), spec.x0, n, dt)
        assert len(calls) == n - 1
        assert declared.shape == loop.shape == (n,)
        assert declared.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("b,shift,g_const,form", [
        # b = 0.8 y, psi' = 0.8: the drift is (0.5 + 0.2 * 0.8) x + 1 + 0.8 g_const
        ("linear", 0.0, 0.0, (0.66, 1.0)),
        ("linear", 0.0, 0.5, (0.66, 1.4)),
        # b = y^2 - 1, psi' = y: E[psi'] = 0 and E[psi' y] = 1, so the drift is 0.5 x + 1 - 0.4
        ("square", 0.0, 0.0, (0.5, 0.6)),
        # mu = N(0.5, 1) and b = 0.8 (y - 0.5): E[y] = 0.5 and E[psi' y] = 0.4,
        # so the drift is 0.66 x + 0.3 * 0.5 + 1 - 0.4 * 0.4
        ("linear", 0.5, 0.0, (0.66, 0.99)),
    ], ids=["linear_b", "linear_b_g_const", "square_b", "shifted_mu"])
    def test_affine_c_and_g_within_round_off(self, ou_measure, monkeypatch, b, shift, g_const, form):
        spec = ou_spec(c=("linear_xy", {"ax": 0.5, "ay": 0.3, "const": 1.0}),
                       g=("linear_xy", {"ax": 0.2, "ay": -0.4, "const": g_const}))
        spec.b = {"linear": lambda y: 0.8 * (np.asarray(y) - shift), "square": lambda y: np.asarray(y) ** 2 - 1.0}[b]
        mu = ou_measure if shift == 0 else invariant_density_1d(lambda y: shift - np.asarray(y), spec.tau, 8.0, 4097)
        drift = limit_drift(spec, mu)
        assert drift.affine_drift == pytest.approx(form, abs=1e-6)
        calls = counted_averages(monkeypatch)
        declared = averaged_euler(drift, 0.3, 201, 0.005)
        assert calls == []
        loop = averaged_euler(general_route(drift), 0.3, 201, 0.005)
        # the loop averages c + psi' g at each state, the declared form its
        # pieces once: they differ by round-off, at most 2.6e-16 of the sup
        # norm on these cases
        assert np.max(np.abs(declared - loop)) <= 1e-14 * np.max(np.abs(loop))

    @pytest.mark.parametrize("role", ["c", "g"])
    def test_bare_callable_takes_the_averaging_loop(self, ou_measure, monkeypatch, role):
        spec = ou_spec(b=("linear_y", {"rate": 0.8}), c=("linear_xy", {"ax": 0.5, "ay": 0.3, "const": 1.0}),
                       g=("linear_xy", {"ax": 0.2, "ay": -0.4}))
        declared = limit_drift(spec, ou_measure)
        setattr(spec, role, getattr(spec, role).fn)  # the same values, no declared facts
        drift = limit_drift(spec, ou_measure)
        assert drift.affine_drift is None
        calls = counted_averages(monkeypatch)
        bare = averaged_euler(drift, 0.3, 201, 0.005)
        assert len(calls) == 2 * 200  # cbar and grad_psi_g_bar at each step
        assert bare.tobytes() == averaged_euler(general_route(declared), 0.3, 201, 0.005).tobytes()

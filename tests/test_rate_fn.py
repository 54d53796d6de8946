import math

import numpy as np
import pytest
from scipy.special import gamma

from fracrate import coefficients as cf
from fracrate import poisson_cell, rate_fn
from fracrate.cameron_martin import HurstContext, c_H
from fracrate.errors import AdmissibilityError, DegeneracyError
from fracrate.gridpath import GridPath, trapezoid_weights
from fracrate.poisson_cell import invariant_density_1d, solve_poisson_1d
from fracrate.rate_fn import (
    assemble_QH,
    build_limit_drift,
    eval_rate_explicit,
    eval_rate_fw_half,
    eval_rate_general,
    eval_rate_tilde_half,
    h_limit_study,
    replay_minimizer,
)

from conftest import const_spec, cos_spec, grid_t, limit_drift, ou_spec

COS_S1_BAR = math.exp(-0.5)
COS_S1_SQ_BAR = 0.5 * (1 + math.exp(-2))


def admissible_phi(n, scale=1.0, x0=0.0, sigma_bar=COS_S1_BAR):
    """phi with normalized displacement psi(t) = scale * t^2 (no drift)."""
    dt, t = grid_t(n)
    return GridPath(0.0, dt, x0 + sigma_bar * scale * t**3 / 3.0)


def reference_drift(spec, psol, mu, nbins=64):
    """Averaged coefficients one slow state x (1,) at a time: the per-state
    closures the package used before it averaged along whole paths, with
    their 1 x 1 matrices and their order of operations."""
    y = mu.grid
    rho = mu.density
    edges = mu.quantile_edges(nbins)
    bin_idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, nbins - 1)
    wq = trapezoid_weights(y.size, y[1] - y[0])
    grad = psol.grad  # (ny, 1)
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
    return (0.3 + 1.5 * t - np.sin(4 * t))[:, None]


class TestPathAveraging:
    @pytest.mark.parametrize("case", sorted(ORACLE_SPECS))
    def test_matches_per_state_reference(self, case, ou_measure):
        spec = ORACLE_SPECS[case]()
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        ref = reference_drift(spec, psol, ou_measure)
        xs = oracle_path()
        for name in DRIFT_FIELDS:
            want = np.stack([ref[name](x) for x in xs])
            got = getattr(drift, name)(xs)
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    def test_empty_cells_match_reference(self):
        # 64 cells on a 65-point grid: most cells hold no grid point
        spec = ORACLE_SPECS["ou_linear_xy"]()
        mu = invariant_density_1d(spec.f, spec.tau, 8.0, 65)
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, mu)
        drift = build_limit_drift(spec, psol, mu)
        xs = oracle_path()
        want = np.stack([reference_drift(spec, psol, mu)["q_bins"](x) for x in xs])
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

    @pytest.mark.parametrize("role", ["c", "g", "sigma1", "sigma2"])
    @pytest.mark.parametrize("name", ["zero", "constant"])
    def test_x_free_builtins_carry_no_node_axis(self, role, name, ou_measure):
        # shared by all nodes, so averaged once; the cos_drift, ou_linear_xy
        # and x_constants oracle cases compare them with the per-state reference
        coef = cf.build(role, name, **({"value": 0.6} if name == "constant" else {}))
        assert np.shape(coef(oracle_path(), ou_measure.grid)) == ()


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
        v1 = res.minimizer.v1.scalar()
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


class TestAssembleQH:
    def test_sigma1_zero_acts_on_u2_only(self, ou_measure):
        spec = ou_spec(sigma2=("constant", {"value": 1.0}))
        psol = solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure)
        drift = build_limit_drift(spec, psol, ou_measure)
        n = 128
        dt, t = grid_t(n)
        ctx = HurstContext(0.7, n, dt)
        dq = assemble_QH(GridPath(0.0, dt, np.zeros(n)), drift, ctx)
        assert np.max(np.abs(dq.a_u1)) == 0.0
        # the Brownian block is the averaged Gram of sigma2 = 1
        assert abs(dq.gram()[5, 5] - 1.0) < 5e-3

    def test_u1_action_matches_kdot_closed_form(self, const_drift):
        n = 256
        h = 0.7
        dt, t = grid_t(n)
        ctx = HurstContext(h, n, dt)
        dq = assemble_QH(GridPath(0.0, dt, np.zeros(n)), const_drift, ctx)
        sw = np.sqrt(dq.weights)
        out = (dq.a_u1 @ (np.ones(n) * sw)) / sw
        exact = c_H(h) * gamma(1.5 - h) * t ** (h - 0.5)
        mask = t >= 10 * dt
        assert np.max(np.abs(out[mask] - exact[mask]) / exact[mask]) < 1e-10

    def test_operator_norm_bounded_over_paths(self, cos_drift):
        n = 128
        dt, t = grid_t(n)
        ctx = HurstContext(0.8, n, dt)
        rng = np.random.default_rng(8)
        norms = []
        for _ in range(4):
            phi = GridPath(0.0, dt, rng.standard_normal() * t**2)
            norms.append(assemble_QH(phi, cos_drift, ctx).operator_norm())
        assert max(norms) < 10 * min(norms) + 1.0


class TestGeneral:
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
        floor = drift.qqt_bar(np.zeros((1, 1)))[0, 0, 0]
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

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad

from fracrate.errors import CenteringError, InvalidInputError, TruncationError
from fracrate.poisson_cell import (
    InvariantMeasure,
    PoissonSolution,
    _cumulative,
    average_coeff,
    domain_halfwidth,
    effective_q,
    generator_residual,
    invariant_density_1d,
    solve_poisson_1d,
)

from conftest import SQRT2, ou_spec


def analytic_ou_solution(alpha, lam, mu: InvariantMeasure):
    """Closed-form corrector for f = -alpha y, tau = sqrt(2 alpha), b = lam y."""
    y = mu.grid
    return PoissonSolution(grid=y, psi=(lam / alpha) * y[:, None], grad=np.full((y.size, 1), lam / alpha))

OU_F = lambda y: -np.asarray(y, dtype=float)
OU_TAU = lambda y: SQRT2 * np.ones_like(np.asarray(y, dtype=float))


@pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 65, 1024, 1025, 4096, 4097])
def test_cumulative_matches_scipy_cumulative_simpson(n):
    # the written-out rule keeps scipy.integrate out of the import; it must
    # give scipy's bits, signed zeros included (the first cell is -0.0)
    rng = np.random.default_rng(n)
    for shape in ((n,), (n, 3)):
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)
        v[rng.random(shape) < 0.1] = 0.0
        v[rng.random(shape) < 0.1] = -0.0
        v[:2], v[2] = -0.0, 0.0
        dy = rng.uniform(1e-3, 1.0)
        expect = cumulative_simpson(v, dx=dy, axis=0, initial=0.0)
        assert _cumulative(v, dy).tobytes() == expect.tobytes()


class TestInvariantDensity:
    def test_ou_is_standard_normal(self, ou_measure):
        y = ou_measure.grid
        gauss = np.exp(-(y**2) / 2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(ou_measure.density - gauss)) < 1e-12
        assert abs(np.trapezoid(ou_measure.density, y) - 1.0) < 1e-9

    def test_quartic_against_quadrature_oracle(self):
        mu = invariant_density_1d(lambda y: -(np.asarray(y) ** 3), OU_TAU, 6.0, 4097)
        y = mu.grid
        raw = np.exp(-(y**4) / 4.0)
        z, _ = quad(lambda v: math.exp(-(v**4) / 4.0), -6, 6)
        assert np.max(np.abs(mu.density - raw / z)) < 1e-8

    def test_rescaling_invariance(self):
        # tau -> c tau, f -> c^2 f leaves the density unchanged
        c = 1.7
        mu1 = invariant_density_1d(OU_F, OU_TAU, 8.0, 2049)
        mu2 = invariant_density_1d(
            lambda y: c**2 * OU_F(y), lambda y: c * OU_TAU(y), 8.0, 2049
        )
        assert np.max(np.abs(mu1.density - mu2.density)) < 1e-12

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            invariant_density_1d(OU_F, OU_TAU, 2.0, 257)

    def test_nan_tau_is_invalid_input(self):
        # a library callable may return NaN, which a "tau^2 <= 0" test passes
        with pytest.raises(InvalidInputError, match="tau"):
            invariant_density_1d(OU_F, lambda y: np.full(np.shape(y), np.nan), 8.0, 257)

    def test_quantile_edges(self, ou_measure):
        edges = ou_measure.quantile_edges(4)
        # quartiles of the standard normal
        assert abs(edges[1] + 0.6745) < 1e-3
        assert abs(edges[2]) < 1e-6


class TestPoissonSolve:
    def test_zero_drift_gives_zero(self, ou_measure):
        sol = solve_poisson_1d(lambda y: 0.0 * np.asarray(y), OU_F, OU_TAU, ou_measure)
        assert np.max(np.abs(sol.psi)) < 1e-12

    def test_ou_linear_closed_form(self, ou_measure):
        lam, alpha = 0.7, 1.0
        sol = solve_poisson_1d(lambda y: lam * np.asarray(y), OU_F, OU_TAU, ou_measure)
        y = ou_measure.grid
        mask = np.abs(y) <= 4.0
        assert np.max(np.abs(sol.psi[mask, 0] - lam * y[mask] / alpha)) < 1e-6
        assert np.max(np.abs(sol.grad[mask, 0] - lam / alpha)) < 1e-6

    def test_centering_enforced(self, ou_measure):
        with pytest.raises(CenteringError) as err:
            solve_poisson_1d(lambda y: np.asarray(y) + 0.5, OU_F, OU_TAU, ou_measure)
        assert err.value.b_mean is not None

    def test_psi_centering_invariant(self, ou_measure):
        sol = solve_poisson_1d(lambda y: np.asarray(y) ** 3, OU_F, OU_TAU, ou_measure)
        center = np.trapezoid(sol.psi[:, 0] * ou_measure.density, ou_measure.grid)
        assert abs(center) < 1e-6

    def test_residual_oracle(self, ou_measure):
        sol = solve_poisson_1d(lambda y: np.asarray(y) ** 3, OU_F, OU_TAU, ou_measure)
        res = generator_residual(sol, lambda y: np.asarray(y) ** 3, OU_F, OU_TAU)
        assert res < 1e-4

    def test_residual_refines(self):
        vals = []
        for n in (1025, 2049, 4097):
            mu = invariant_density_1d(OU_F, OU_TAU, 8.0, n)
            sol = solve_poisson_1d(lambda y: np.asarray(y) ** 3, OU_F, OU_TAU, mu)
            vals.append(generator_residual(sol, lambda y: np.asarray(y) ** 3, OU_F, OU_TAU))
        assert vals[2] < vals[0]


class TestAveraging:
    def test_cos_constants(self, ou_measure):
        s1 = average_coeff(lambda y: np.cos(y), ou_measure)
        assert abs(s1 - math.exp(-0.5)) < 1e-6
        s2 = average_coeff(lambda y: np.cos(y) ** 2, ou_measure)
        assert abs(s2 - 0.5 * (1 + math.exp(-2))) < 1e-6

    def test_y_independent(self, ou_measure):
        val = average_coeff(lambda x, y: np.full_like(np.asarray(x), 3.25), ou_measure, xs=np.array([[1.0]]))
        assert abs(np.asarray(val).reshape(-1)[0] - 3.25) < 1e-12

    def test_linearity_and_monotonicity(self, ou_measure):
        a = average_coeff(lambda y: np.cos(y), ou_measure)
        b = average_coeff(lambda y: np.sin(y) ** 2, ou_measure)
        combo = average_coeff(lambda y: 2 * np.cos(y) - 3 * np.sin(y) ** 2, ou_measure)
        assert abs(combo - (2 * a - 3 * b)) < 1e-12
        pos = average_coeff(lambda y: np.abs(y), ou_measure)
        assert pos > 0


class TestEffectiveQ:
    def test_ou_example_constants(self, ou_measure):
        # grad-psi tau = sqrt(2) lam, Gram = 2 lam^2
        lam = 0.9
        spec = ou_spec(b=("linear_y", {"rate": lam}))
        sol = analytic_ou_solution(1.0, lam, ou_measure)
        eq = effective_q(spec, sol, ou_measure, x=0.0)
        assert abs(eq["qqt_bar"][0, 0] - 2 * lam**2) < 1e-12
        assert eq["min_eigenvalue"] >= 2 * lam**2 - 1e-12
        assert not eq["degenerate"]
        assert eq["q"].shape == (ou_measure.grid.size, 1, 1)
        assert np.max(np.abs(eq["q"][:, 0, 0] - SQRT2 * lam)) < 1e-9

    def test_identity_sigma2_alone(self, ou_measure):
        spec = ou_spec(sigma2=("constant", {"value": 1.0}))
        sol = solve_poisson_1d(lambda y: 0.0 * np.asarray(y), OU_F, OU_TAU, ou_measure)
        eq = effective_q(spec, sol, ou_measure, x=0.0)
        assert abs(eq["qqt_bar"][0, 0] - 1.0) < 1e-9

    def test_degeneracy_flagged_not_raised(self, ou_measure):
        spec = ou_spec()
        sol = solve_poisson_1d(lambda y: 0.0 * np.asarray(y), OU_F, OU_TAU, ou_measure)
        eq = effective_q(spec, sol, ou_measure, x=0.0)
        assert eq["degenerate"]

    def test_numeric_matches_analytic(self, ou_measure):
        lam = 0.4
        spec = ou_spec(b=("linear_y", {"rate": lam}))
        numeric = solve_poisson_1d(spec.b, OU_F, OU_TAU, ou_measure)
        analytic = analytic_ou_solution(1.0, lam, ou_measure)
        eq_n = effective_q(spec, numeric, ou_measure, x=0.0)
        eq_a = effective_q(spec, analytic, ou_measure, x=0.0)
        assert abs(eq_n["qqt_bar"][0, 0] - eq_a["qqt_bar"][0, 0]) < 1e-5


def test_domain_halfwidth_ou():
    assert abs(domain_halfwidth(OU_F, OU_TAU) - 8.0) < 1e-6


def test_bad_domain():
    with pytest.raises(InvalidInputError):
        invariant_density_1d(OU_F, OU_TAU, -1.0, 100)

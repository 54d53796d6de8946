import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import gamma

from fracrate.errors import InvalidInputError
from fracrate.frac_calc import (
    FracOrder,
    _minus_cell_weights,
    default_young_alpha,
    delta_ratio,
    marchaud_derivative,
    marchaud_left_values,
    riemann_liouville,
    young_integral,
)
from fracrate.fbm_gen import sample_fbm
from fracrate.gridpath import GridPath, trapezoid_weights

from conftest import grid_t


def make_scalar(n, fn, horizon=1.0):
    dt, t = grid_t(n, horizon)
    return GridPath(0.0, dt, fn(t)), t


class TestRiemannLiouville:
    def test_order_one_is_ordinary_integral(self):
        f, t = make_scalar(257, lambda t: np.ones_like(t))
        out = riemann_liouville(f, FracOrder(1.0)).scalar()
        assert np.max(np.abs(out - t)) < 1e-14

    def test_half_order_of_one(self):
        # oracle: I^a(1)(t) = t^a / Gamma(a+1); cross-checked by quadrature
        f, t = make_scalar(257, lambda t: np.ones_like(t))
        out = riemann_liouville(f, FracOrder(0.5)).scalar()
        oracle_mid, _ = quad(lambda r: (t[128] - r) ** (-0.5), 0, t[128], points=[t[128]])
        assert abs(out[128] - oracle_mid / gamma(0.5)) < 1e-10
        assert np.max(np.abs(out - np.sqrt(t) / gamma(1.5))) < 1e-12

    def test_half_order_of_t(self):
        f, t = make_scalar(257, lambda t: t)
        out = riemann_liouville(f, FracOrder(0.5)).scalar()
        assert np.max(np.abs(out - t**1.5 / gamma(2.5))) < 1e-12

    def test_right_side_mirror(self):
        f, t = make_scalar(257, lambda t: np.ones_like(t))
        out = riemann_liouville(f, FracOrder(0.5, side="right")).scalar()
        assert np.max(np.abs(out - np.sqrt(1.0 - t) / gamma(1.5))) < 1e-12

    def test_linearity(self):
        dt, t = grid_t(129)
        rng = np.random.default_rng(0)
        f1, f2 = rng.standard_normal((2, 129))
        a, b = 1.7, -0.3
        order = FracOrder(0.4)
        lhs = riemann_liouville(GridPath(0, dt, a * f1 + b * f2), order).scalar()
        rhs = a * riemann_liouville(GridPath(0, dt, f1), order).scalar() + b * riemann_liouville(
            GridPath(0, dt, f2), order
        ).scalar()
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_degenerate_grid(self):
        with pytest.raises(InvalidInputError):
            riemann_liouville(GridPath(0, 0.1, [1.0]), FracOrder(0.5))


class TestMarchaud:
    def test_derivative_of_t(self):
        f, t = make_scalar(513, lambda t: t)
        out = marchaud_derivative(f, FracOrder(0.5)).scalar()
        assert np.max(np.abs(out[1:] - np.sqrt(t[1:]) / gamma(1.5))) < 1e-12

    def test_constant_boundary_term(self):
        f, t = make_scalar(513, lambda t: 3.0 * np.ones_like(t))
        out, boundary, delta = marchaud_derivative(f, FracOrder(0.5), return_parts=True)
        exact = 3.0 * t[1:] ** (-0.5) / gamma(0.5)
        assert np.max(np.abs(out.scalar()[1:] - exact) / exact) < 1e-12
        assert np.max(np.abs(delta.scalar())) < 1e-12

    def test_inverse_identity_refinement(self):
        errs = []
        for n in (129, 257, 513):
            f, t = make_scalar(n, lambda t: np.sin(2 * t))
            back = marchaud_derivative(riemann_liouville(f, FracOrder(0.4)), FracOrder(0.4))
            errs.append(np.max(np.abs(back.scalar()[4:] - np.sin(2 * t[4:]))))
        assert errs[0] > errs[1] > errs[2]
        # observed order at least 1
        assert errs[1] / errs[2] > 1.9

    def test_right_side(self):
        f, t = make_scalar(513, lambda t: 1.0 - t)
        out = marchaud_derivative(f, FracOrder(0.5, side="right")).scalar()
        exact = np.sqrt(1.0 - t[:-1]) / gamma(1.5)
        assert np.max(np.abs(out[:-1] - exact)) < 1e-12


class TestDeltaRatio:
    def test_constant_vanishes(self):
        f, _ = make_scalar(65, lambda t: 4.2 * np.ones_like(t))
        for direction in ("plus", "minus"):
            for absolute in (False, True):
                assert delta_ratio(f, 0.3, 0.0, 1.0, absolute=absolute, direction=direction) == 0.0

    def test_linear_closed_form(self):
        # oracle: int_0^1 (1-r)^(-a) dr = 1/(1-a)
        f, _ = make_scalar(129, lambda t: t)
        val = delta_ratio(f, 0.25, 0.0, 1.0)
        assert abs(val - 4.0 / 3.0) < 1e-12

    def test_absolute_equals_signed_for_monotone(self):
        f, _ = make_scalar(129, lambda t: 2.0 * t)
        a = delta_ratio(f, 0.25, 0.0, 1.0)
        b = delta_ratio(f, 0.25, 0.0, 1.0, absolute=True)
        assert abs(a - b) < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_minus_direction_quadrature_oracle(self):
        # oracle integrates the same linear interpolant by adaptive quadrature
        f, t = make_scalar(257, lambda t: np.sin(3 * t))
        val = delta_ratio(f, 0.35, 0.25, 0.75, direction="minus")
        interp = lambda r: np.interp(r, t, np.sin(3 * t))
        oracle, _ = quad(
            lambda r: (interp(r) - interp(0.25)) / (r - 0.25) ** 1.35,
            0.25,
            0.75,
            points=[0.25],
            limit=400,
        )
        assert abs(val - oracle) < 2e-5

    def test_sign_splitting_inside_cell(self):
        # numerator changes sign once; oracle by adaptive quadrature
        f, t = make_scalar(65, lambda t: np.sin(6.1 * t))
        val = delta_ratio(f, 0.4, 0.0, 1.0, absolute=True)
        tt = np.linspace(0, 1, 65)
        interp = lambda r: np.interp(r, tt, np.sin(6.1 * tt))
        oracle, _ = quad(
            lambda r: abs(interp(1.0) - interp(r)) / (1 - r) ** 1.4, 0, 1, points=[1.0], limit=400
        )
        assert abs(val - oracle) < 2e-3

    def test_invalid_interval(self):
        f, _ = make_scalar(65, lambda t: t)
        with pytest.raises(InvalidInputError):
            delta_ratio(f, 0.3, 0.5, 0.5)
        with pytest.raises(InvalidInputError):
            delta_ratio(f, 0.3, 0.7, 0.2)


class TestYoungIntegral:
    def test_constant_against_t_squared(self):
        f, t = make_scalar(513, lambda t: np.ones_like(t))
        g = GridPath(0.0, f.dt, t**2)
        out = young_integral(f, g, 0.5).scalar()
        assert np.max(np.abs(out - t**2)) < 1e-10

    def test_t_against_t(self):
        f, t = make_scalar(513, lambda t: t)
        out = young_integral(f, f, 0.5).scalar()
        assert abs(out[-1] - 0.5) < 2e-4

    def test_t_against_t_squared(self):
        f, t = make_scalar(1025, lambda t: t)
        g = GridPath(0.0, f.dt, t**2)
        out = young_integral(f, g, 0.5).scalar()
        assert abs(out[-1] - 2.0 / 3.0) < 1e-3

    def test_smooth_g_matches_trapezoid(self):
        # for C^1 integrators the Young integral equals int f g' dt
        dt, t = grid_t(513)
        f = GridPath(0.0, dt, np.cos(2 * t))
        g = GridPath(0.0, dt, np.sin(3 * t))
        out = young_integral(f, g, 0.45).scalar()
        oracle, _ = quad(lambda r: np.cos(2 * r) * 3 * np.cos(3 * r), 0, 1)
        assert abs(out[-1] - oracle) < 5e-4

    def test_fbm_refinement_oracle(self):
        # left-point Riemann sums at an 8x finer grid converge to the same value
        hurst = 0.7
        n_fine = 8 * 256 + 1
        bh_fine = sample_fbm(hurst, n_fine, 1.0, seed=20)
        coarse = GridPath(0.0, bh_fine.dt * 8, bh_fine.values[::8])
        dt, t = grid_t(257)
        f = GridPath(0.0, dt, 1.0 + 0.5 * np.sin(2 * t))
        out = young_integral(f, coarse, default_young_alpha(hurst)).scalar()
        fv_fine = 1.0 + 0.5 * np.sin(2 * bh_fine.times())
        riemann = float(np.sum(fv_fine[:-1] * np.diff(bh_fine.scalar())))
        assert abs(out[-1] - riemann) / max(abs(riemann), 0.1) < 1e-2

    def test_additivity_over_subintervals(self):
        dt, t = grid_t(513)
        f = GridPath(0.0, dt, t)
        g = GridPath(0.0, dt, t**2)
        full = young_integral(f, g, 0.5).scalar()
        sub_f = GridPath(0.5, dt, t[256:])
        sub_g = GridPath(0.5, dt, (t**2)[256:])
        tail = young_integral(sub_f, sub_g, 0.5).scalar()
        assert abs(full[256] + tail[-1] - full[-1]) < 5e-5

    def test_componentwise_contractions(self):
        dt, t = grid_t(129)
        fvec = GridPath(0.0, dt, np.column_stack([t, 2 * t]))
        gvec = GridPath(0.0, dt, np.column_stack([t, t**2]))
        # equal dims contract: int t dt + int 2t d(t^2)
        out = young_integral(fvec, gvec, 0.5).scalar()
        assert abs(out[-1] - (0.5 + 4.0 / 3.0)) < 5e-3
        # scalar against vector
        ones = GridPath(0.0, dt, np.ones(129))
        out2 = young_integral(ones, gvec, 0.5)
        assert out2.dim == 2
        assert np.allclose(out2.values[-1], [1.0, 1.0], atol=1e-8)


def _correlate_prefix(a, kern):
    """R[j] = sum_{m=0}^{L-1-j} a[j+m]*kern[m] for j = 0..L-1."""
    L = len(a)
    c = fftconvolve(a[::-1], kern[:L])
    return c[L - 1 - np.arange(L)]


def young_prefix_loop(fv, gv, alpha, dt):
    """Oracle: the integration-by-parts sum evaluated afresh on every prefix."""
    n = len(fv)
    fa = fv[0]
    dfl = marchaud_left_values(fv - fa, alpha, dt)
    ap = 1.0 - alpha
    B0, B1 = _minus_cell_weights(ap, n + 1, dt)
    P0 = np.concatenate(([0.0], np.cumsum(B0[: n - 1])))
    slopes = np.diff(gv) / dt
    out = np.zeros(n)
    for k in range(1, n):
        j = np.arange(k)
        bnd = (gv[j] - gv[k]) * ((k - j) * dt) ** (alpha - 1.0)
        r0 = _correlate_prefix(gv[:k], B0[:k])
        r1 = _correlate_prefix(slopes[:k], B1[:k])
        delta_m = r0 - gv[:k] * P0[1 : k + 1][::-1] + r1
        dgr = np.zeros(k + 1)
        dgr[:k] = (bnd - ap * delta_m) / gamma(alpha)
        w = trapezoid_weights(k + 1, dt)
        out[k] = fa * (gv[k] - gv[0]) - float(np.dot(w, dfl[: k + 1] * dgr))
    return out


def young_scale(f, g):
    return np.max(np.abs(f.values)) * np.max(np.abs(g.values))


class TestYoungOracle:
    """The convolution form against the per-prefix loop it replaced, within
    1e-13 of sup|f| sup|g|."""

    @pytest.mark.parametrize("n", [2, 3, 5, 257, 1025])
    @pytest.mark.parametrize("hurst", [0.6, 0.85])
    def test_scalar_paths(self, n, hurst):
        dt, t = grid_t(n)
        bh = sample_fbm(hurst, n, 1.0, seed=n)
        smooth = GridPath(0.0, dt, 1.0 + 0.5 * np.sin(2 * t))
        poly = GridPath(0.0, dt, t**2 - 0.3 * t)
        for alpha in (default_young_alpha(hurst), 0.5):
            for f, g in ((smooth, bh), (bh, poly)):
                out = young_integral(f, g, alpha).scalar()
                oracle = young_prefix_loop(f.scalar(), g.scalar(), alpha, dt)
                assert np.max(np.abs(out - oracle)) <= 1e-13 * young_scale(f, g)

    @pytest.mark.parametrize("n", [2, 3, 129])
    def test_contraction_rules(self, n):
        dt, t = grid_t(n)
        alpha = default_young_alpha(0.7)
        bh = sample_fbm(0.7, n, 1.0, dim=2, seed=3)
        fvec = GridPath(0.0, dt, np.column_stack([np.cos(t), t**2]))
        fsc = GridPath(0.0, dt, 1.0 + t)
        gsc = GridPath(0.0, dt, bh.component(0))

        def loop(fv, gv):
            return young_prefix_loop(fv, gv, alpha, dt)

        cases = [
            (fsc, gsc, loop(fsc.scalar(), gsc.scalar())[:, None]),
            (fvec, bh, (loop(fvec.component(0), bh.component(0)) + loop(fvec.component(1), bh.component(1)))[:, None]),
            (fsc, bh, np.column_stack([loop(fsc.scalar(), bh.component(c)) for c in range(2)])),
            (fvec, gsc, np.column_stack([loop(fvec.component(c), gsc.scalar()) for c in range(2)])),
        ]
        for f, g, oracle in cases:
            out = young_integral(f, g, alpha).values
            assert out.shape == oracle.shape
            assert np.max(np.abs(out - oracle)) <= 1e-13 * young_scale(f, g)


def test_default_young_alpha():
    assert abs(default_young_alpha(0.7) - 0.35) < 1e-12
    assert 0 < default_young_alpha(0.999) < 1

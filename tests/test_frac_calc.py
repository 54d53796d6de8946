import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import gamma

from fracrate.errors import InvalidInputError, RegularityError
from fracrate.frac_calc import (
    FracOrder,
    _cell_moments,
    default_young_alpha,
    delta_plus_running,
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
        # a constant c has only the boundary term c t^(-a) / Gamma(1-a)
        f, t = make_scalar(513, lambda t: 3.0 * np.ones_like(t))
        out = marchaud_derivative(f, FracOrder(0.5))
        exact = 3.0 * t[1:] ** (-0.5) / gamma(0.5)
        assert np.max(np.abs(out.scalar()[1:] - exact) / exact) < 1e-12
        assert np.max(np.abs(delta_plus_running(f.values, 0.5, f.dt))) < 1e-12

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


# ---------------------------------------------------------------------------
# the per-cell scalar difference ratios that delta_ratio's array form replaced
# ---------------------------------------------------------------------------

def _seg_plus(C, B, t, p, q, alpha):
    """int_p^q (C - B(t-r)) (t-r)^(-a-1) dr for 0 <= p < q <= t."""
    a1, b1 = t - q, t - p
    if a1 <= 0.0:
        if abs(C) > 1e-12 * (abs(B) * (q - p) + 1.0):
            raise RegularityError("divergent singular integral at the right endpoint")
        term0 = 0.0
    else:
        term0 = C * (a1 ** (-alpha) - b1 ** (-alpha)) / alpha
    term1 = -B * (b1 ** (1.0 - alpha) - a1 ** (1.0 - alpha)) / (1.0 - alpha)
    return term0 + term1


def _cell_plus(f_t, fv0, slope, c0, c1, t, alpha, absolute):
    """Exact integral of (f_t - f(r)) [or its absolute value] times the
    (t-r)^(-a-1) kernel over one interpolation cell [c0, c1]."""
    # numerator n(r) = C - B*(t - r) with n(r) = f_t - fv0 - slope*(r - c0)
    B = -slope
    C = f_t - fv0 - slope * (t - c0)
    if not absolute:
        return _seg_plus(C, B, t, c0, c1, alpha)
    n0 = f_t - fv0
    n1 = f_t - (fv0 + slope * (c1 - c0))
    if n0 == 0.0 and n1 == 0.0:
        return 0.0
    if n0 * n1 >= 0.0:
        sgn = 1.0 if (n0 + n1) >= 0.0 else -1.0
        return sgn * _seg_plus(C, B, t, c0, c1, alpha)
    r_star = c0 + n0 / slope if slope != 0.0 else c1
    r_star = min(max(r_star, c0), c1)
    s0 = 1.0 if n0 > 0 else -1.0
    return s0 * _seg_plus(C, B, t, c0, r_star, alpha) - s0 * _seg_plus(C, B, t, r_star, c1, alpha)


def _seg_minus(C, B, s, p, q, alpha):
    """int_p^q (C + B(r-s)) (r-s)^(-a-1) dr for s <= p < q."""
    a1, b1 = p - s, q - s
    if a1 <= 0.0:
        if abs(C) > 1e-12 * (abs(B) * (q - p) + 1.0):
            raise RegularityError("divergent singular integral at the left endpoint")
        term0 = 0.0
    else:
        term0 = C * (a1 ** (-alpha) - b1 ** (-alpha)) / alpha
    term1 = B * (b1 ** (1.0 - alpha) - a1 ** (1.0 - alpha)) / (1.0 - alpha)
    return term0 + term1


def _cell_minus(f_s, fv0, slope, c0, c1, s, alpha, absolute):
    """Exact integral of (f(r) - f_s) [or abs] times (r-s)^(-a-1) over [c0, c1]."""
    # n(r) = C + B(r - s) with C = fv0 - f_s + slope*(s - c0), B = slope
    B = slope
    C = fv0 - f_s + slope * (s - c0)
    if not absolute:
        return _seg_minus(C, B, s, c0, c1, alpha)
    n0 = fv0 - f_s
    n1 = fv0 + slope * (c1 - c0) - f_s
    if n0 == 0.0 and n1 == 0.0:
        return 0.0
    if n0 * n1 >= 0.0:
        sgn = 1.0 if (n0 + n1) >= 0.0 else -1.0
        return sgn * _seg_minus(C, B, s, c0, c1, alpha)
    r_star = c0 - n0 / slope if slope != 0.0 else c1
    r_star = min(max(r_star, c0), c1)
    s0 = 1.0 if n0 > 0 else -1.0
    return s0 * _seg_minus(C, B, s, c0, r_star, alpha) - s0 * _seg_minus(C, B, s, r_star, c1, alpha)


def delta_ratio_cells(f, alpha, i0, i1, absolute, direction):
    """Oracle: delta_ratio over the grid interval [i0, i1], one Python call
    per cell and per component."""
    tt = f.times()
    out = np.zeros(f.dim)
    for jdim in range(f.dim):
        v = f.component(jdim)
        total = 0.0
        for c in range(i0, i1):
            slope = (v[c + 1] - v[c]) / f.dt
            if direction == "plus":
                total += _cell_plus(v[i1], v[c], slope, tt[c], tt[c + 1], tt[i1], alpha, absolute)
            else:
                total += _cell_minus(v[i0], v[c], slope, tt[c], tt[c + 1], tt[i0], alpha, absolute)
        out[jdim] = total
    return out


class TestDeltaRatioOracle:
    """The array form against the per-cell loop, on two-component fBm
    (H = 0.6 .. 0.8) and smooth paths, five seeds, alpha 0.2 / 0.5 / 0.8 and
    three intervals, relative to max(|value|, sup_[s,t] |f| (t-s)^(1-alpha)).

    Signed: bound 1e-12, measured at most 1.5e-13 here.  At alpha = 0.1 the
    loop itself strays: on the 513-point fBm of seed 0 ('minus', [0, 1]) it is
    3.1e-13 off a 40-digit evaluation of the same interpolant, the array form
    1.5e-13, and the two differ by 9.96e-13 of the scale.
    Absolute (own cell split, one sum): bound 5e-13, measured at most 6.7e-14
    here and 2.4e-13 at n = 2049 with alpha = 0.1.
    """

    @pytest.mark.parametrize("n", [33, 129, 513])
    def test_against_cell_loop(self, n):
        dt, t = grid_t(n)
        worst = {False: 0.0, True: 0.0}
        for seed in range(5):
            fbm = sample_fbm(0.6 + 0.05 * seed, n, 1.0, dim=2, seed=seed)
            smooth = GridPath(0.0, dt, np.column_stack([np.sin((3 + seed) * t), np.cos(7 * t) + seed]))
            for f in (fbm, smooth):
                for alpha in (0.2, 0.5, 0.8):
                    for s, u in ((0.0, 1.0), (0.25, 0.75), (0.5, 1.0)):
                        i0, i1 = round(s / dt), round(u / dt)
                        sup = np.max(np.abs(f.values[i0 : i1 + 1]), axis=0) * (u - s) ** (1.0 - alpha)
                        for absolute in (False, True):
                            for direction in ("plus", "minus"):
                                val = delta_ratio(f, alpha, s, u, absolute=absolute, direction=direction)
                                ref = delta_ratio_cells(f, alpha, i0, i1, absolute, direction)
                                err = np.max(np.abs(val - ref) / np.maximum(np.abs(ref), sup))
                                worst[absolute] = max(worst[absolute], err)
        assert worst[False] <= 1e-12
        assert worst[True] <= 5e-13


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
    dfl = marchaud_left_values((fv - fa)[:, None], alpha, dt)[:, 0]
    ap = 1.0 - alpha
    B0, B1 = _cell_moments(ap, n, dt)
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


class TestNonFiniteInput:
    """A non-finite value is invalid input (exit 2) at every public entry,
    not a numerical failure and not a NaN result."""

    @pytest.fixture(params=[np.nan, np.inf])
    def bad(self, request):
        dt, t = grid_t(101)
        vals = np.sin(t)
        vals[37] = request.param
        return GridPath(0.0, dt, vals)

    def test_riemann_liouville(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            riemann_liouville(bad, FracOrder(0.5))

    def test_marchaud_derivative(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            marchaud_derivative(bad, FracOrder(0.5, side="right"))

    def test_young_integral(self, bad):
        good = bad.with_values(np.cos(bad.times()))
        for f, g in ((bad, good), (good, bad)):
            with pytest.raises(InvalidInputError, match="finite"):
                young_integral(f, g, 0.4)

    def test_delta_ratio(self, bad):
        for absolute in (False, True):
            with pytest.raises(InvalidInputError, match="finite"):
                delta_ratio(bad, 0.3, 0.0, 1.0, absolute=absolute)


def _columns(n, d, hurst, seed):
    """d columns on [0, 1]: fBm, with a smooth column first when d > 2."""
    path = sample_fbm(hurst, n, 1.0, dim=d, seed=seed)
    if d > 2:
        vals = path.values.copy()
        vals[:, 0] = 1.0 + np.sin(3.0 * path.times())
        path = path.with_values(vals)
    return path


def _column(path, j):
    return path.with_values(path.values[:, j])


def _smooth(t, coef, freq):
    """A smooth input that vanishes at t = 0."""
    return coef[0] * t + coef[1] * np.sin(freq * t) + coef[2] * t**2


COEFS = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda c: max(map(abs, c)) > 0.05)
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


class TestProperties:
    """Derandomized hypothesis properties of the operators."""

    @PROPERTY
    @given(
        n=st.sampled_from([2, 3, 4, 17, 129, 257]),
        d=st.integers(2, 4),
        hurst=st.floats(0.55, 0.95),
        seed=st.integers(0, 2**16),
        alpha=st.floats(0.05, 0.95),
    )
    def test_batch_independence(self, n, d, hurst, seed, alpha):
        """Bit for bit, a d-column path gives each column's result alone:
        riemann_liouville (orders alpha and 1) and marchaud_derivative on
        both sides, and young_integral with scalar f, scalar g and equal
        dimensions (the contraction is the column sum of the pairs)."""
        path = _columns(n, d, hurst, seed)
        for side in ("left", "right"):
            for op, order in (
                (riemann_liouville, FracOrder(alpha, side)),
                (riemann_liouville, FracOrder(1.0, side)),
                (marchaud_derivative, FracOrder(alpha, side)),
            ):
                out = op(path, order).values
                for j in range(d):
                    assert np.array_equal(out[:, j : j + 1], op(_column(path, j), order).values)
        scalar = path.with_values(1.0 + 0.5 * np.cos(2.0 * path.times()))
        other = path.with_values(np.roll(path.values, 1, axis=1))
        against = young_integral(scalar, path, alpha).values
        along = young_integral(path, scalar, alpha).values
        pairs = [young_integral(_column(path, j), _column(other, j), alpha).values for j in range(d)]
        for j in range(d):
            assert np.array_equal(against[:, j : j + 1], young_integral(scalar, _column(path, j), alpha).values)
            assert np.array_equal(along[:, j : j + 1], young_integral(_column(path, j), scalar, alpha).values)
        contracted = young_integral(path, other, alpha).values
        assert np.array_equal(contracted, np.hstack(pairs).sum(axis=1, keepdims=True))

    @PROPERTY
    @given(a=st.floats(0.1, 0.85), frac=st.floats(0.0, 1.0), coef=COEFS, freq=st.floats(0.5, 4.0))
    def test_semigroup(self, a, frac, coef, freq):
        """I^b I^a f = I^(a+b) f within 1e-4 sup|f| on 257 points, for smooth
        f vanishing at 0 and a + b <= 1 (measured at most 2.9e-5 over 200
        random draws; a nonzero f(0) makes I^a f ~ t^a, whose interpolant
        near 0 costs about 2.5e-2)."""
        b = 0.1 + frac * (0.9 - a)
        dt, t = grid_t(257)
        f = GridPath(0.0, dt, _smooth(t, coef, freq))
        twice = riemann_liouville(riemann_liouville(f, FracOrder(a)), FracOrder(b)).scalar()
        once = riemann_liouville(f, FracOrder(min(a + b, 1.0))).scalar()
        assert np.max(np.abs(twice - once)) <= 1e-4 * np.max(np.abs(f.values))

    @PROPERTY
    @given(a=st.floats(0.1, 0.9), coef=COEFS, freq=st.floats(0.5, 4.0))
    def test_marchaud_inverts_riemann_liouville(self, a, coef, freq):
        """D^a I^a f = f on t >= 0.1 within 1e-2 sup|f| on 257 points, for
        smooth f vanishing at 0 (measured at most 3.5e-3 over 200 random
        draws; first order in dt, 5.6e-4 at 1025 points)."""
        dt, t = grid_t(257)
        f = GridPath(0.0, dt, _smooth(t, coef, freq))
        back = marchaud_derivative(riemann_liouville(f, FracOrder(a)), FracOrder(a)).scalar()
        inner = t >= 0.1
        assert np.max(np.abs(back[inner] - f.scalar()[inner])) <= 1e-2 * np.max(np.abs(f.values))

    @PROPERTY
    @given(
        pf=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
        pg=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3).filter(lambda c: abs(c[1]) > 0.05),
        alpha=st.floats(0.2, 0.8),
    )
    def test_polynomial_pairs(self, pf, pg, alpha):
        """The running Young integral of polynomials of degree <= 2 is the
        exact int_0^t f g' within 2e-3 sup|f| sup|g'| on 257 points
        (measured at most 7.9e-4 over 200 random draws, 1.6e-4 at 1025)."""
        dt, t = grid_t(257)
        f = GridPath(0.0, dt, P.polyval(t, pf))
        g = GridPath(0.0, dt, P.polyval(t, pg))
        exact = P.polyval(t, P.polyint(P.polymul(pf, P.polyder(pg))))
        scale = np.max(np.abs(f.values)) * np.max(np.abs(P.polyval(t, P.polyder(pg))))
        assert np.max(np.abs(young_integral(f, g, alpha).scalar() - exact)) <= 2e-3 * scale


def test_default_young_alpha():
    assert abs(default_young_alpha(0.7) - 0.35) < 1e-12
    assert 0 < default_young_alpha(0.999) < 1

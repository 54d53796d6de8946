import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma

from fracrate import cameron_martin as cm
from fracrate.cameron_martin import (
    HurstContext,
    apply_KH,
    apply_KH_dot,
    apply_KH_inverse,
    c_H,
    hH_norm,
    kdot_inverse,
)
from fracrate.errors import InvalidInputError
from fracrate.gridpath import GridPath, l2_norm

from conftest import grid_t


class TestConstant:
    def test_half_is_one(self):
        assert abs(c_H(0.5) - 1.0) < 1e-15

    def test_three_quarters(self):
        # oracle: gamma-function evaluation of the defining ratio
        oracle = math.sqrt(1.5 * gamma(0.75) * gamma(1.25) / gamma(0.5))
        assert abs(c_H(0.75) - oracle) < 1e-14
        assert abs(c_H(0.75) - 0.9695285467620977) < 1e-12

    def test_limit_factor_near_half(self):
        # c_H Gamma(3/2-H) -> 1 as H -> 1/2+
        val = c_H(0.51) * gamma(1.5 - 0.51)
        assert abs(val - 1.0) < 0.05

    def test_square_identity(self):
        for h in (0.55, 0.7, 0.9):
            ctx = HurstContext(h, 16, 0.1)
            target = 2 * h * gamma(1.5 - h) * gamma(h + 0.5) / gamma(2 - 2 * h)
            assert abs(ctx.cH**2 - target) < 1e-13

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(InvalidInputError):
                c_H(bad)
        with pytest.raises(InvalidInputError):
            HurstContext(0.5, 16, 0.1)

    @pytest.mark.parametrize("n, dt", [(5, math.inf), (5, math.nan), (5, 0.0), (5, -0.1), (5.9, 0.1), (5.0, 0.1), (1, 0.1)])
    def test_bad_grid(self, n, dt):
        # the dt rule is the one GridPath applies; a float n is not truncated
        with pytest.raises(InvalidInputError):
            HurstContext(0.7, n, dt)

    def test_integer_grid(self):
        ctx = HurstContext(0.7, np.int64(5), 0.25)
        assert ctx.n == 5 and type(ctx.n) is int
        assert np.all(np.isfinite(ctx.times))


class TestKdot:
    def test_zero(self):
        ctx = HurstContext(0.7, 64, 1 / 63)
        out = apply_KH_dot(GridPath(0, ctx.dt, np.zeros(64)), ctx).scalar()
        assert np.max(np.abs(out)) == 0.0

    def test_constant_closed_form(self):
        # oracle: the Beta integral collapses the kernel, leaving a power law
        n = 512
        ctx = HurstContext(0.75, n, 1.0 / (n - 1))
        t = ctx.times
        out = apply_KH_dot(GridPath(0, ctx.dt, np.ones(n)), ctx).scalar()
        exact = c_H(0.75) * gamma(0.75) * t ** (0.25)
        mask = t >= 10 * ctx.dt
        assert np.max(np.abs(out[mask] - exact[mask]) / exact[mask]) < 1e-12

    def test_monomial_closed_form(self):
        # Kdot[t](s) = c_H Gamma(5/2-H) s^(H+1/2) / Gamma(2); the
        # piecewise-constant cell reading is second order, so the check is
        # against the closed form at the scale of the output
        n = 1024
        h = 0.7
        ctx = HurstContext(h, n, 1.0 / (n - 1))
        t = ctx.times
        out = apply_KH_dot(GridPath(0, ctx.dt, t), ctx).scalar()
        exact = c_H(h) * gamma(2.5 - h) * t ** (h + 0.5)
        mask = t >= 0.05
        assert np.max(np.abs(out[mask] - exact[mask])) < 2e-4 * np.max(np.abs(exact))

    def test_positivity_preserving(self):
        n = 256
        ctx = HurstContext(0.8, n, 1.0 / (n - 1))
        rng = np.random.default_rng(1)
        v = np.abs(rng.standard_normal(n)) + 0.01
        out = apply_KH_dot(GridPath(0, ctx.dt, v), ctx).scalar()
        assert np.all(out >= -1e-14)

    def test_h_continuity_on_monomials(self):
        # Kdot_H v -> v pointwise (t > 0) as H -> 1/2+ for v = t^a, a >= 1
        n = 1024
        dt, t = grid_t(n)
        for expo in (1.0, 2.0):
            v = t**expo
            prev = None
            for h in (0.6, 0.55, 0.51):
                ctx = HurstContext(h, n, dt)
                out = apply_KH_dot(GridPath(0, dt, v), ctx).scalar()
                err = np.max(np.abs(out[t >= 0.1] - v[t >= 0.1]))
                if prev is not None:
                    assert err < prev
                prev = err
            assert prev < 0.05


class TestLift:
    def test_zero_and_start(self):
        ctx = HurstContext(0.7, 128, 1 / 127)
        out = apply_KH(GridPath(0, ctx.dt, np.zeros(128)), ctx).scalar()
        assert np.max(np.abs(out)) == 0.0
        out1 = apply_KH(GridPath(0, ctx.dt, np.ones(128)), ctx).scalar()
        assert out1[0] == 0.0

    def test_constant_closed_form(self):
        n = 1024
        h = 0.6
        ctx = HurstContext(h, n, 1.0 / (n - 1))
        t = ctx.times
        out = apply_KH(GridPath(0, ctx.dt, np.ones(n)), ctx).scalar()
        exact = c_H(h) * gamma(1.5 - h) * t ** (h + 0.5) / (h + 0.5)
        mask = t >= 10 * ctx.dt
        assert np.max(np.abs(out[mask] - exact[mask]) / exact[mask]) < 1e-10

    def test_derivative_consistency(self):
        # d/dt of the lift matches the direct derivative operator
        n = 1024
        ctx = HurstContext(0.7, n, 1.0 / (n - 1))
        t = ctx.times
        v = GridPath(0, ctx.dt, 1.0 + 0.3 * np.sin(4 * t))
        u = apply_KH(v, ctx)
        ud_fd = u.derivative()[:, 0]
        ud = apply_KH_dot(v, ctx).scalar()
        mask = t >= 0.02
        assert np.max(np.abs(ud_fd[mask] - ud[mask])) < 5 * ctx.dt


@pytest.fixture(scope="module")
def round_trip_context():
    """One n = 2048 context per H for the tests of this module, so each
    builds its tables once; they are freed when the module is done."""
    n = 2048
    return functools.lru_cache(maxsize=None)(lambda h: HurstContext(h, n, 1.0 / (n - 1)))


class TestInverse:
    def test_constant_pre_image(self, round_trip_context):
        # u = KH[1] in closed form; the inverse recovers 1
        for h in (0.6, 0.75, 0.9):
            ctx = round_trip_context(h)
            t = ctx.times
            u = GridPath(0, ctx.dt, c_H(h) * gamma(1.5 - h) * t ** (h + 0.5) / (h + 0.5))
            v = apply_KH_inverse(u, ctx).scalar()
            assert np.max(np.abs(v[t >= 0.05] - 1.0)) < 1e-3

    def test_zero(self):
        ctx = HurstContext(0.7, 128, 1 / 127)
        out = apply_KH_inverse(GridPath(0, ctx.dt, np.zeros(128)), ctx).scalar()
        assert np.max(np.abs(out)) == 0.0

    def test_rejects_nonzero_start(self):
        ctx = HurstContext(0.7, 128, 1 / 127)
        with pytest.raises(InvalidInputError):
            apply_KH_inverse(GridPath(0, ctx.dt, np.ones(128)), ctx)

    def test_round_trip_smooth(self, round_trip_context):
        rng = np.random.default_rng(11)
        for h in (0.6, 0.75, 0.9):
            ctx = round_trip_context(h)
            t = ctx.times
            coef = rng.standard_normal(4)
            v = 1.5 + 0.4 * np.tanh(coef[0]) * np.sin(3 * t) + 0.3 * np.tanh(coef[1]) * np.cos(
                7 * t
            ) + 0.2 * np.tanh(coef[2]) * t**2 + 0.2 * np.tanh(coef[3]) * t
            u = apply_KH(GridPath(0, ctx.dt, v), ctx)
            back = apply_KH_inverse(u, ctx).scalar()
            mask = t >= 0.05
            assert np.max(np.abs(back[mask] - v[mask]) / np.abs(v[mask])) < 1e-3

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        h=st.sampled_from((0.6, 0.75, 0.9)),
        cols=st.lists(
            st.tuples(
                st.floats(1.0, 2.0),  # level
                st.floats(-0.4, 0.4),  # amplitude
                st.floats(0.0, 8.0),  # frequency
                st.floats(0.0, 2 * math.pi),  # phase
                st.floats(-0.3, 0.3),  # curvature
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_round_trip_property(self, round_trip_context, h, cols):
        # K then K^{-1} on smooth paths of one to three columns, |v| >= 0.3
        ctx = round_trip_context(h)
        t = ctx.times[:, None]
        level, amp, freq, phase, curv = (np.array(c) for c in zip(*cols))
        v = level + amp * np.sin(freq * t + phase) + curv * t**2
        back = apply_KH_inverse(apply_KH(GridPath(0, ctx.dt, v), ctx), ctx).values
        mask = ctx.times >= 0.05
        assert np.max(np.abs(back[mask] - v[mask]) / np.abs(v[mask])) < 1e-3

    def test_round_trip_refines(self):
        h = 0.75
        errs = []
        for n in (256, 512, 1024):
            ctx = HurstContext(h, n, 1.0 / (n - 1))
            t = ctx.times
            v = 1.0 + 0.5 * np.sin(3 * t)
            u = apply_KH(GridPath(0, ctx.dt, v), ctx)
            back = apply_KH_inverse(u, ctx).scalar()
            mask = t >= 0.05
            errs.append(np.max(np.abs(back[mask] - v[mask])))
        assert errs[0] > errs[1] > errs[2]

    def test_kdot_inverse_monomials(self):
        # oracle: Kdot^{-1}[t^b] = Gamma(b-H+3/2)/(c_H Gamma(b+2-2H)) t^(b+1/2-H)
        n = 1024
        h = 0.8
        ctx = HurstContext(h, n, 1.0 / (n - 1))
        t = ctx.times
        mask = t >= 0.05
        for b, tol in ((0.0, 1e-12), (1.0, 1e-12), (2.0, 5e-4)):
            out = kdot_inverse(t**b, ctx)
            exact = gamma(b - h + 1.5) / (c_H(h) * gamma(b + 2 - 2 * h)) * t[mask] ** (b + 0.5 - h)
            assert np.max(np.abs(out[mask] - exact)) < tol * max(np.max(np.abs(exact)), 1.0)


class TestNorm:
    def test_zero(self):
        ctx = HurstContext(0.7, 128, 1 / 127)
        assert hH_norm(GridPath(0, ctx.dt, np.zeros(128)), ctx) == 0.0

    def test_isometry(self, round_trip_context):
        rng = np.random.default_rng(3)
        for h in (0.6, 0.9):
            ctx = round_trip_context(h)
            t = ctx.times
            v = 1.0 + 0.4 * np.sin(5 * t) + 0.2 * rng.standard_normal() * t
            u = apply_KH(GridPath(0, ctx.dt, v), ctx)
            assert abs(hH_norm(u, ctx) - l2_norm(v, ctx.dt)) / l2_norm(v, ctx.dt) < 1e-3

    def test_unit_norm_of_lifted_one(self, round_trip_context):
        ctx = round_trip_context(0.7)
        u = apply_KH(GridPath(0, ctx.dt, np.ones(ctx.n)), ctx)
        assert abs(hH_norm(u, ctx) - 1.0) < 1e-3


def test_kdot_quadrature_oracle():
    # independent check of the kernel quadrature on a non-polynomial input
    n = 512
    h = 0.65
    ctx = HurstContext(h, n, 1.0 / (n - 1))
    t = ctx.times
    vfun = lambda z: np.exp(-z) * (1 + np.sin(2 * z))
    out = apply_KH_dot(GridPath(0, ctx.dt, vfun(t)), ctx).scalar()
    s = t[300]
    oracle, _ = quad(
        lambda z: z ** (0.5 - h) * (s - z) ** (h - 1.5) * vfun(z), 0, s, points=[0, s], limit=400
    )
    oracle *= c_H(h) / gamma(h - 0.5) * s ** (h - 0.5)
    assert abs(out[300] - oracle) / abs(oracle) < 5e-4



# -- per-column oracles ----------------------------------------------------
# The column-at-a-time operators that the batched ones replaced.  The
# inverse oracle reads dense (n, n) step tables built by a row loop with
# one betainc call per row (``_inverse_tables_oracle``).  The lift must
# come out bit-identical for one column and within round-off for several.
# The inverse sums its cells by parts off the reduced-fraction moments and
# reads I_x from a Chebyshev fit, so it is held to ORACLE_RTOL of each
# column's maximum.  Largest measured gaps: 1.5e-14 on these smooth and
# cusp columns, 1.6e-12 on the random column of
# ``test_tables_match_loop_oracles`` at H = 0.6, n = 1025.
# n = 47 and 48 straddle the switch of the cusp-fit window.

ORACLE_RTOL = 5e-12


def _column_inverse_oracle(psi, ctx, psi_half=None, psi0_at_half=False):
    h = ctx.H
    t = ctx.times
    n = ctx.n
    gamma_h = gamma(1.5 - h) ** 2 / gamma(2.0 - 2.0 * h)
    dM0, dR, lastP = _inverse_tables_oracle(h, n)
    lo, hi = (4, 40) if n >= 48 else (1, n)
    tt = t[lo:hi]
    basis = np.column_stack([tt ** (h - 0.5), np.ones(len(tt)), tt])
    coef, *_ = np.linalg.lstsq(basis, psi[lo:hi], rcond=None)
    beta = float(coef[0])
    cusp = beta * t ** (h - 0.5)
    if psi0_at_half:
        cusp = cusp.copy()
        cusp[0] = beta * (0.5 * ctx.dt) ** (h - 0.5)
    psi = psi - cusp
    if psi_half is not None:
        psi_half = psi_half - beta * (0.5 * ctx.dt) ** (h - 0.5)
    cusp_out = beta / (ctx.cH * gamma(1.5 - h))
    slopes = np.zeros(n)
    slopes[: n - 1] = np.diff(psi) / ctx.dt
    offs = psi[: n - 1] - slopes[: n - 1] * t[: n - 1]
    i2 = np.zeros(n)
    k = np.arange(1, n)
    const_part = psi[1:] * dM0[1:].sum(axis=1) - dM0[1:, : n - 1] @ offs
    slope_part = dR[1:, : n - 1] @ slopes[: n - 1]
    i2[1:] = t[1:] ** (1.0 - 2.0 * h) * const_part
    i2[1:] += t[1:] ** (2.0 - 2.0 * h) * (-slope_part + slopes[k - 1] * lastP[1:])
    out = np.empty(n)
    out[1:] = gamma_h * t[1:] ** (0.5 - h) * psi[1:] + (h - 0.5) * t[1:] ** (h - 0.5) * i2[1:]
    if psi_half is None:
        psi_half = 0.5 * (psi[0] + psi[1])
    th = 0.5 * ctx.dt
    bfull = beta_fn(1.5 - h, 1.5 - h)
    out[0] = gamma_h * th ** (0.5 - h) * psi_half
    out[0] += (h - 0.5) * bfull * slopes[0] * th ** (1.5 - h)
    return out / (ctx.cH * gamma(1.5 - h)) + cusp_out


def _column_lift_oracle(vals, ctx):
    T = ctx.cell_table()
    t = ctx.times
    p = ctx.H + 0.5
    dpow = np.diff(t**p) / p
    cols = []
    for j in range(vals.shape[1]):
        mids = 0.5 * (vals[:-1, j] + vals[1:, j])
        h = (ctx.cH / gamma(ctx.H - 0.5)) * (T @ mids)
        h[0] = ctx.cH * gamma(1.5 - ctx.H) * mids[0]
        incr = 0.5 * (h[:-1] + h[1:]) * dpow
        cols.append(np.concatenate(([0.0], np.cumsum(incr))))
    return np.column_stack(cols)


def _column_lift_inverse_oracle(u: GridPath, ctx):
    udot = u.derivative()
    fwd = (u.values[1] - u.values[0]) / u.dt
    cols = []
    for j in range(u.dim):
        psi = udot[:, j].copy()
        psi[0] = fwd[j]
        cols.append(_column_inverse_oracle(psi, ctx, psi_half=fwd[j], psi0_at_half=True))
    return np.column_stack(cols)


ORACLE_CASES = [(h, n) for h in (0.52, 0.7, 0.9) for n in (5, 47, 48, 257, 1025)]


@pytest.fixture(scope="module")
def oracle_inputs():
    """Per (H, n): the context, smooth values v (n, 3), their lift u and a
    derivative path psi (n, 3) with the s^(H-1/2) cusp of lifted paths."""
    rng = np.random.default_rng(8)
    cases = {}
    for h, n in ORACLE_CASES:
        ctx = HurstContext(h, n, 1.0 / (n - 1))
        t = ctx.times[:, None]
        a, w, c = rng.uniform(0.5, 1.5, 3), rng.uniform(1.0, 6.0, 3), rng.uniform(-1.0, 1.0, 3)
        v = a + 0.3 * np.sin(w * t) + c * t**2
        u = apply_KH(GridPath(0, ctx.dt, v), ctx)
        psi = a * t ** (h - 0.5) + np.cos(w * t) + c * t
        cases[h, n] = ctx, v, u, psi
    return cases


def _assert_columns_close(new, old, rtol):
    scale = np.max(np.abs(old), axis=0)
    assert np.all(np.max(np.abs(new - old), axis=0) <= rtol * scale)


class TestColumnOracles:
    @pytest.mark.parametrize("h,n", ORACLE_CASES)
    def test_one_column_bit_identical(self, oracle_inputs, h, n):
        ctx, v, u, psi = oracle_inputs[h, n]
        lift = apply_KH(GridPath(0, ctx.dt, v[:, :1]), ctx).values
        assert np.array_equal(lift, _column_lift_oracle(v[:, :1], ctx))
        _assert_columns_close(kdot_inverse(psi[:, :1], ctx), _column_inverse_oracle(psi[:, 0], ctx)[:, None], ORACLE_RTOL)
        u1 = GridPath(0, ctx.dt, u.values[:, :1])
        _assert_columns_close(apply_KH_inverse(u1, ctx).values, _column_lift_inverse_oracle(u1, ctx), ORACLE_RTOL)

    @pytest.mark.parametrize("h,n", ORACLE_CASES)
    def test_three_columns_within_round_off(self, oracle_inputs, h, n):
        ctx, v, u, psi = oracle_inputs[h, n]
        _assert_columns_close(u.values, _column_lift_oracle(v, ctx), 1e-13)
        oracle = np.column_stack([_column_inverse_oracle(psi[:, j], ctx) for j in range(3)])
        _assert_columns_close(kdot_inverse(psi, ctx), oracle, ORACLE_RTOL)
        _assert_columns_close(apply_KH_inverse(u, ctx).values, _column_lift_inverse_oracle(u, ctx), ORACLE_RTOL)


# -- table oracles ---------------------------------------------------------
# The inverse lift keeps no table, so it is compared, as an operator on
# smooth, cusp and random columns, with the dense path that the row-loop
# tables below fed, to ORACLE_RTOL of each column's maximum.  The cell table
# is held to the row loops in ``test_tables_bit_identical_to_row_loops``.


@functools.lru_cache(maxsize=2)
def _inverse_tables_oracle(h, n):
    """(dM0, dR, lastP): the dense (n, n) step tables of V = P + R and R
    and the last-cell moment, as the inverse lift read them before it
    summed by parts (see ``inverse_tables``)."""
    a = 1.5 - h
    b0 = 0.5 - h
    bfull = beta_fn(a, a)
    dM0 = np.zeros((n, n))
    dR = np.zeros((n, n))
    lastP = np.zeros(n)
    for i in range(1, n):
        x = np.arange(i + 1) / i
        P = bfull * betainc(a, a, x)
        pw = np.zeros(i + 1)
        pw[:i] = x[:i] ** a * (1.0 - x[:i]) ** b0
        R = (a * P - pw) / b0
        lastP[i] = bfull - P[i - 1]
        if i > 1:
            dM0[i, : i - 1] = np.diff((P + R)[:i])
            dR[i, : i - 1] = np.diff(R[:i])
    return dM0, dR, lastP


@pytest.mark.parametrize("n", [2, 3, 5, 47, 48, 257, 1025])
@pytest.mark.parametrize("h", [0.51, 0.52, 0.6, 0.8, 0.99])
def test_tables_match_loop_oracles(h, n):
    ctx = HurstContext(h, n, 1.0 / (n - 1))
    t = ctx.times
    smooth = 1.0 + 0.5 * np.sin(3.0 * t) + 0.2 * t**2
    cusp = 0.8 * t ** (h - 0.5) + np.cos(2.0 * t)
    psi = np.column_stack([smooth, cusp, np.random.default_rng(n).standard_normal(n)])
    oracle = np.column_stack([_column_inverse_oracle(col, ctx) for col in psi.T])
    _assert_columns_close(kdot_inverse(psi, ctx), oracle, ORACLE_RTOL)


# -- row-loop tables -------------------------------------------------------
# The reduced-fraction row loops that the whole-array passes replaced, kept
# as they were: one betainc call per reduced fraction, about ten numpy calls
# per row.  The tables were bit for bit the same until I_x came from the
# Chebyshev fit; they now agree to ROW_LOOP_RTOL of each table's maximum.
# The inverse-lift steps, rebuilt from the cached moments, are the
# loosest: 1.3e-13 at H = 0.51, n = 2049, where R divides by 1/2 - H.

ROW_LOOP_RTOL = 5e-13


def _smallest_prime_factors(n):
    """spf[k] = smallest prime factor of k, for 2 <= k < n."""
    spf = np.arange(n)
    for p in range(2, int(n**0.5) + 1):
        if spf[p] == p:
            multiples = spf[p * p :: p]
            np.minimum(multiples, p, out=multiples)
    return spf


def _beta_rows(out, a, b):
    """Fill out[i, :i] with I_{j/i}(a, b), j < i, for every row i >= 1,
    copying from row i/p at j/p where j shares a prime p with i."""
    spf = _smallest_prime_factors(out.shape[0])
    for i in range(1, out.shape[0]):
        row = out[i, :i]
        fresh = np.ones(i, dtype=bool)
        k = i
        while k > 1:
            p = int(spf[k])
            row[::p] = out[i // p, : i // p]
            fresh[::p] = False
            while k % p == 0:
                k //= p
        half = i // 2 + 1 if a == b else i
        j = np.flatnonzero(fresh[:half])
        row[j] = betainc(a, b, j / i)
        if a == b:
            row[half:] = 1.0 - row[i - half : 0 : -1]


def _row_loop_tables(ctx):
    """cell_table, kdot_matrix and the inverse step tables as the row loops
    built them."""
    n, h = ctx.n, ctx.H
    a, b = 1.5 - h, h - 0.5
    bab = beta_fn(a, b)
    T = np.zeros((n, n - 1))
    _beta_rows(T, a, b)
    for i in range(1, n):
        T[i, :i] = bab * np.diff(T[i, :i], append=1.0)
    pref = np.zeros(n)
    pref[1:] = (ctx.cH / gamma(h - 0.5)) * ctx.times[1:] ** (h - 0.5)
    M = np.zeros((n, n))
    M[:, :-1] += 0.5 * T
    M[:, 1:] += 0.5 * T
    b0 = 0.5 - h
    bfull = beta_fn(a, a)
    dM0 = np.zeros((n, n))
    dR = np.zeros((n, n))
    lastP = np.zeros(n)
    _beta_rows(dM0, a, a)
    for i in range(1, n):
        x = np.arange(i) / i
        P = bfull * dM0[i, :i]
        R = (a * P - x**a * (1.0 - x) ** b0) / b0
        lastP[i] = bfull - P[i - 1]
        dM0[i, i - 1] = 0.0
        if i > 1:
            dM0[i, : i - 1] = np.diff(P + R)
            dR[i, : i - 1] = np.diff(R)
    return T, pref[:, None] * M, (dM0, dR, lastP)


def _step_tables(ctx):
    """The dense steps V(i, j+1) - V(i, j), j < i - 1, of the cached
    moments V = P + R and R, read through the reduced-fraction index, and
    lastP: the tables the inverse lift built before it summed by parts."""
    V, R, lastP = ctx.inverse_tables()
    _, pos, _ = cm._fractions(ctx.n)
    tables = []
    for vals in (V, R):
        table = np.zeros((ctx.n, ctx.n))
        for i0, i1, block in cm._row_blocks(ctx.n, pos, vals):
            steps = np.diff(block, axis=1)
            np.fill_diagonal(steps[:, i0 - 1 :], 0.0)
            table[i0:i1, : i1 - 1] = steps
        tables.append(table)
    return (*tables, lastP)


# n = 2049 costs about 1 s per H (the row loops' betainc on 1.3e6
# fractions, twice), so it runs only at H = 0.51, where betainc is slowest,
# and at H = 0.8
@pytest.mark.parametrize(
    "h, n",
    [(h, n) for h in (0.51, 0.52, 0.6, 0.75, 0.8, 0.99) for n in (2, 3, 5, 47, 48, 129, 130, 257, 1025)]
    + [(0.51, 2049), (0.8, 2049)],
)
def test_tables_bit_identical_to_row_loops(h, n):
    T, M, inverse = _row_loop_tables(HurstContext(h, n, 1.0 / (n - 1)))
    ctx = HurstContext(h, n, 1.0 / (n - 1))
    pairs = [(ctx.kdot_matrix(), M)]
    assert ctx._cell_table is None  # kdot_matrix keeps only its own table
    pairs += [(ctx.cell_table(), T), *zip(_step_tables(ctx), inverse)]
    for new, old in pairs:
        assert np.max(np.abs(new - old), initial=0.0) <= ROW_LOOP_RTOL * np.max(np.abs(old), initial=0.0)


@pytest.mark.parametrize("h", [0.5001, 0.501, 0.51, 0.52, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_betainc_fit_matches_betainc(h):
    # every reduced fraction of n = 1025, for the inverse lift's (a, a) and
    # the cell table's (a, b), whose mirrors read the fit at (b, a); the
    # largest measured gap is 2.8e-15 (H = 0.6, (a, b))
    n = 1025
    x, _, _ = cm._fractions(n)
    assert x.size == 318964
    a, b = 1.5 - h, h - 0.5
    for p, q in ((a, a), (a, b)):
        fit = cm._fraction_betainc(p, q, n)
        assert np.max(np.abs(fit - betainc(p, q, x))) <= 4e-15


def test_table_builds_keep_no_square_temporaries():
    # at n = 1025 an (n, n) float table is 8.4 MB: kdot_matrix may hold its
    # output, one vector over the reduced fractions and five row blocks of
    # 0.5 MB; inverse_tables builds no table, so it may hold its two
    # vectors over the reduced fractions and the blocks.  Neither may hold
    # a vector over the strict lower triangle or an (n, n) temporary
    n = 1025
    HurstContext(0.6, n, 1.0 / (n - 1)).kdot_matrix()  # the index for this n
    table, fractions, block = n * n * 8, 318964 * 8, cm._MAX_BLOCK_ELEMENTS * 8
    for method, bound in (("inverse_tables", 2 * fractions + 5 * block), ("kdot_matrix", table + fractions + 5 * block)):
        ctx = HurstContext(0.8, n, 1.0 / (n - 1))
        tracemalloc.start()
        try:
            getattr(ctx, method)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert ctx._cell_table is None

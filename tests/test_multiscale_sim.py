import math
import re
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrate import coefficients as cf
from fracrate import ldp_harness, multiscale_sim
from fracrate.cameron_martin import HurstContext, apply_KH_dot, c_H
from fracrate.errors import DivergenceError, InvalidInputError
from fracrate.fbm_gen import sample_increments
from fracrate.gridpath import GridPath
from fracrate.ldp_harness import simulate_point
from fracrate.multiscale_sim import (
    BatchPaths,
    ControlPair,
    SlowFastSpec,
    default_substeps,
    empirical_occupation,
    simulate_chunks,
)
from scipy.linalg import cholesky, matmul_toeplitz, solve_triangular
from scipy.special import gamma

from conftest import SQRT2, ou_spec


# The increments of a chunk of trials, (fine step, trial, column), over
# fine steps of length dt.
Noise = namedtuple("Noise", "db dw dt")


def make_noise(spec, n_out, horizon, sub, seed=0, stream=0):
    """The increments of one trial on key ``stream``, one column each, with
    ``sub`` fine steps per output step."""
    n_fine = (n_out - 1) * sub + 1
    db, dw = sample_increments(spec.hurst, n_fine, horizon, [stream], seed=seed)
    return Noise(db, dw, horizon / (n_fine - 1))


def stacked(noises):
    """The trials of ``noises``, one chunk on their grid."""
    return Noise(*(np.concatenate([getattr(nb, p) for nb in noises], axis=1) for p in ("db", "dw")), noises[0].dt)


def run(spec, noise, substeps, ctrl=None):
    """``simulate_chunks`` of ``noise`` as one chunk, on copies of the
    increments, which the stepper scales in place."""
    return next(simulate_chunks(spec, [[noise.db.copy(), noise.dw.copy()]], noise.dt, substeps, ctrl))


def joined(chunks):
    """The ``BatchPaths`` of the chunks (trials, batch) of ``simulate_point``
    put together in trial order."""
    chunks = list(chunks)
    assert [t for trials, _ in chunks for t in trials] == list(range(sum(len(trials) for trials, _ in chunks)))
    parts = [batch for _, batch in chunks]
    x, y, bad = (np.concatenate([getattr(b, name) for b in parts]) for name in ("x", "y", "first_bad_time"))
    return BatchPaths(x=x, y=y, dt=parts[0].dt, first_bad_time=bad, substeps=parts[0].substeps)


def fine_controls(spec, t_fine, ctrl):
    """The controls (u1dot, u2dot) on the fine grid as (n_fine, 1) columns,
    None where absent."""
    u1dot_f = u2dot_f = None
    if ctrl is not None and ctrl.v1 is not None:
        u1dot = apply_KH_dot(ctrl.v1, HurstContext(spec.hurst, ctrl.v1.n, ctrl.v1.dt))
        u1dot_f = np.interp(t_fine, u1dot.times(), u1dot.scalar())[:, None]
    if ctrl is not None and ctrl.u2dot is not None:
        u2dot_f = np.interp(t_fine, ctrl.u2dot.times(), ctrl.u2dot.scalar())[:, None]
    return u1dot_f, u2dot_f


def one(value):
    """A coefficient's value at one trial's state as a 1-vector."""
    return np.reshape(np.asarray(value, dtype=float), 1)


def forced(noise_term, u, i, u_scale):
    """A noise role's forcing at fine step i: its noise term plus u[i] * u_scale."""
    return noise_term if u is None else noise_term + u[i] * u_scale


def scalar_reference(spec, noise, substeps, ctrl=None):
    """Euler loop over the one trial of ``noise``, its states 1-vectors,
    each side the state plus every coefficient times its forcing, in a
    fixed role order: the oracle that ``simulate_chunks`` must match bit
    for bit."""
    n_fine = len(noise.db) + 1
    dtf = noise.dt
    n_out = (n_fine - 1) // substeps + 1
    t_fine = dtf * np.arange(n_fine)
    u1, u2 = fine_controls(spec, t_fine, ctrl)
    eps, eta = spec.eps, spec.eta
    x, y = np.array([spec.x0]), np.array([spec.y0])
    xs, ys = np.empty((n_out, 1)), np.empty((n_out, 1))
    xs[0], ys[0] = x, y
    db, dw = noise.db[:, 0], noise.dw[:, 0]
    out_idx = 1
    for i in range(n_fine - 1):
        f1 = forced(math.sqrt(eps) * db[i], u1, i, dtf)
        f2 = forced(math.sqrt(eps) * dw[i], u2, i, dtf)
        ft = forced(1.0 / math.sqrt(eta) * dw[i], u2, i, dtf / math.sqrt(eps * eta))
        dx = (one(spec.sigma1(x, y)) * f1 + one(spec.sigma2(x, y)) * f2
              + one(spec.b(y)) * (math.sqrt(eps / eta) * dtf) + one(spec.c(x, y)) * dtf)
        dyv = one(spec.tau(y)) * ft + one(spec.f(y)) * (dtf / eta) + one(spec.g(x, y)) * (dtf / math.sqrt(eps * eta))
        x = x + dx
        y = y + dyv
        if (i + 1) % substeps == 0:
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise DivergenceError(f"diverged at t={float(t_fine[i + 1])!r}")
            xs[out_idx], ys[out_idx] = x, y
            out_idx += 1
    return xs, ys


def grouped_reference(spec, noise, substeps, ctrl=None):
    """The Euler step with the drift, noise and control terms grouped as in
    the equations: ``simulate_chunks`` sums the same terms in another order
    and must agree with it up to round-off."""
    n_fine = len(noise.db) + 1
    dtf = noise.dt
    n_out = (n_fine - 1) // substeps + 1
    t_fine = dtf * np.arange(n_fine)
    u1dot_f, u2dot_f = fine_controls(spec, t_fine, ctrl)
    se, sh, seh = math.sqrt(spec.eps), math.sqrt(spec.eta), math.sqrt(spec.eps * spec.eta)
    x, y = np.array([spec.x0]), np.array([spec.y0])
    xs, ys = np.empty((n_out, 1)), np.empty((n_out, 1))
    xs[0], ys[0] = x, y
    db, dw = noise.db[:, 0], noise.dw[:, 0]
    out_idx = 1
    for i in range(n_fine - 1):
        bv, cv, fv, gv = one(spec.b(y)), one(spec.c(x, y)), one(spec.f(y)), one(spec.g(x, y))
        s1, s2, tv = one(spec.sigma1(x, y)), one(spec.sigma2(x, y)), one(spec.tau(y))
        dx = (se / sh * bv + cv) * dtf + se * (s1 * db[i] + s2 * dw[i])
        dyv = (fv / spec.eta + gv / seh) * dtf + (tv * dw[i]) / sh
        if u1dot_f is not None:
            dx += s1 * u1dot_f[i] * dtf
        if u2dot_f is not None:
            dx += s2 * u2dot_f[i] * dtf
            dyv += (tv * u2dot_f[i]) / seh * dtf
        x = x + dx
        y = y + dyv
        if (i + 1) % substeps == 0:
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise DivergenceError(f"diverged at t={float(t_fine[i + 1])!r}")
            xs[out_idx], ys[out_idx] = x, y
            out_idx += 1
    return xs, ys


def on_skew_route(spec):
    """Whether ``simulate_chunks`` steps ``spec`` as a skew product."""
    return multiscale_sim._skew_route(spec)


def assert_close(got, want):
    """``got`` within 1e-12 of the sup norm of the path ``want``."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def assert_path_matches(spec, got, want):
    """``got`` bit for bit ``want`` when the loop steps ``spec``, within
    1e-12 of its sup norm on the skew route."""
    if on_skew_route(spec):
        assert_close(got, want)
    else:
        assert np.array_equal(got, want)


def assert_matches_reference(spec, noises, substeps, ctrl=None, batch=None):
    """``batch`` (None: ``run`` of the trials of ``noises`` as one chunk)
    the scalar oracle (``assert_path_matches``), and within 1e-12 of each
    path's sup norm the grouped one."""
    batch = run(spec, stacked(noises), substeps, ctrl) if batch is None else batch
    for trial, noise in enumerate(noises):
        xs, ys = scalar_reference(spec, noise, substeps, ctrl)
        assert np.isnan(batch.first_bad_time[trial])
        assert_path_matches(spec, batch.x[trial], xs)
        assert_path_matches(spec, batch.y[trial], ys)
        for got, want in zip((batch.x[trial], batch.y[trial]), grouped_reference(spec, noise, substeps, ctrl)):
            assert_close(got, want)
    return batch


# every built-in coefficient in each role whose signature it matches; the
# parameters keep a short horizon finite
BUILTIN_ROLES = [
    (name, role, params)
    for name, params, roles in [
        ("zero", {}, ("b", "c", "sigma1", "sigma2", "f", "g", "tau")),
        ("constant", {"value": 0.7}, ("b", "c", "sigma1", "sigma2", "f", "g", "tau")),
        ("linear_y", {"rate": 0.5}, ("b", "c", "sigma1", "sigma2", "f", "g", "tau")),
        ("ou", {"rate": 1.5}, ("b", "f", "tau")),
        ("linear_xy", {"ax": -0.8, "ay": 0.6, "const": 0.1}, ("c", "sigma1", "sigma2", "g")),
        ("cos_y", {"scale": 0.9}, ("b", "c", "sigma1", "sigma2", "f", "g", "tau")),
        ("cubic_y", {"rate": 1.0}, ("b", "f", "tau")),
    ]
    for role in roles
]


class TestSimulate:
    def test_frozen_state_with_zero_coefficients(self):
        spec = ou_spec(eta=0.1)
        noise = make_noise(spec, 51, 1.0, 4, seed=1)
        x_path, _ = run(spec, noise, 4).paths(0)
        assert np.all(x_path.values == spec.x0)

    def test_pure_fbm_telescopes(self):
        # b = c = sigma2 = 0, sigma1 = I: X = x0 + sqrt(eps) B^H exactly
        spec = ou_spec(eta=0.1, sigma1=("constant", {"value": 1.0}), x0=2.0)
        noise = make_noise(spec, 26, 1.0, 8, seed=3)
        x_path, _ = run(spec, noise, 8).paths(0)
        expected = 2.0 + math.sqrt(spec.eps) * np.concatenate([[0.0], np.cumsum(noise.db[:, 0, 0])])[::8]
        assert np.max(np.abs(x_path.scalar() - expected)) < 1e-13

    def test_homogenization_ou(self):
        # averaging oracle: the homogenized flow of c(x,y) = -x + y is x0 e^{-t}
        spec = ou_spec(eps=0.01, eta=0.01**1.5, c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        sub = default_substeps(1.0 / 100, spec.eta)
        noises = [make_noise(spec, 101, 1.0, sub, seed=42, stream=trial) for trial in range(10)]
        batch = run(spec, stacked(noises), sub)
        assert not batch.diverged.any()
        t = batch.paths(0)[0].times()
        errs = np.max(np.abs(batch.x[:, :, 0] - np.exp(-t)), axis=1)
        assert np.mean(errs) < 0.1

    def test_determinism(self):
        spec = ou_spec(eta=0.1, sigma1=("constant", {"value": 0.5}), c=("linear_xy", {"ax": -0.5}))
        noise = make_noise(spec, 51, 1.0, 2, seed=9)
        a, _ = run(spec, noise, 2).paths(0)
        b, _ = run(spec, noise, 2).paths(0)
        assert np.array_equal(a.values, b.values)

    def test_refinement_cauchy(self):
        # one master noise path, coarsened consistently: doubling the
        # resolution shrinks the terminal discrepancy
        spec = ou_spec(eps=0.05, eta=0.02, sigma1=("constant", {"value": 1.0}),
                       c=("linear_xy", {"ax": -1.0, "ay": 0.5}), x0=1.0)
        master = make_noise(spec, 101, 1.0, 16, seed=11)
        terminals = []
        for sub in (2, 4, 8, 16):
            stride = 16 // sub
            db, dw = (inc.reshape(-1, stride, *inc.shape[1:]).sum(axis=1) for inc in master[:2])
            x_path, _ = run(spec, Noise(db, dw, master.dt * stride), sub).paths(0)
            terminals.append(x_path.values[-1, 0])
        d1 = abs(terminals[1] - terminals[0])
        d3 = abs(terminals[3] - terminals[2])
        assert d3 < d1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported(self):
        # super-linear drift pushed unstably: the trial is marked diverged
        spec = SlowFastSpec(
            b=cf.build("b", "zero"),
            c=cf.build("c", "linear_xy", ax=80.0),
            sigma1=cf.build("sigma1", "zero"),
            sigma2=cf.build("sigma2", "zero"),
            f=cf.build("f", "ou", rate=1.0),
            g=cf.build("g", "zero"),
            tau=cf.build("tau", "constant", value=SQRT2),
            hurst=0.7,
            eps=1.0,
            eta=1.0,
            x0=1e305,
            y0=0.0,
        )
        noise = make_noise(spec, 201, 10.0, 1, seed=1)
        batch = run(spec, noise, 1)
        assert batch.diverged[0] and 0.0 < batch.first_bad_time[0] <= 10.0
        assert np.isnan(batch.x[0, -1]).all()

    def test_grid_mismatch_rejected(self):
        spec = ou_spec()
        noise = make_noise(spec, 51, 1.0, 4, seed=1)
        with pytest.raises(InvalidInputError):
            run(spec, noise, 3)

    def test_stability_warning(self):
        spec = ou_spec(eta=1e-5)
        noise = make_noise(spec, 11, 1.0, 1, seed=1)
        with pytest.warns(RuntimeWarning):
            run(spec, noise, 1)

    def test_stability_warning_sees_visited_states(self):
        # f = -y^3 is flat at y0 = 0, so a probe there alone sees no
        # stiffness; the trials leave 0 at once and blow up
        spec = ou_spec(eta=1e-3)
        spec.f = cf.build("f", "cubic_y", rate=1.0)
        noises = [make_noise(spec, 1001, 1.0, 1, seed=1, stream=trial) for trial in range(4)]
        with pytest.warns(RuntimeWarning, match="fast Euler step may be unstable") as record:
            batch = run(spec, stacked(noises), 1)
        assert sum("unstable" in str(w.message) for w in record) == 1
        assert batch.diverged.all()
        assert np.all(batch.first_bad_time < 0.05)


class TestBatched:
    @pytest.mark.filterwarnings("ignore:fast Euler step may be unstable")
    @pytest.mark.parametrize("name,role,params", BUILTIN_ROLES)
    def test_builtin_matches_scalar_reference(self, name, role, params):
        spec = ou_spec(eps=0.1, eta=0.1, sigma1=("constant", {"value": 0.5}),
                       c=("linear_xy", {"ax": -1.0, "ay": 1.0}), sigma2=("constant", {"value": 0.3}),
                       g=("cos_y", {"scale": 0.2}), x0=0.4, y0=0.2)
        setattr(spec, role, cf.build(role, name, **params))
        noises = [make_noise(spec, 21, 1.0, 3, seed=4, stream=trial) for trial in range(3)]
        assert_matches_reference(spec, noises, 3)

    @pytest.mark.parametrize("role,fn", [
        ("c", lambda x, y: -x[..., 0]),
        ("sigma1", lambda x, y: 0.5 + 0.1 * x[..., 0]),
    ])
    def test_per_trial_scalar_matches_single_trial(self, role, fn):
        # a bare callable returning one number per trial, shape (B,), for
        # m = k = 1: the batch died with a numpy broadcast error
        spec = ou_spec(eps=0.1, eta=0.1, sigma1=("constant", {"value": 0.5}), x0=0.4)
        setattr(spec, role, fn)
        noises = [make_noise(spec, 21, 1.0, 3, seed=4, stream=trial) for trial in range(3)]
        batch = assert_matches_reference(spec, noises, 3)
        for trial, noise in enumerate(noises):
            xs, ys = run(spec, noise, 3).paths(0)
            assert np.array_equal(batch.x[trial], xs.values) and np.array_equal(batch.y[trial], ys.values)

    def test_bare_callable_of_another_shape_is_invalid_input(self):
        # a bare callable returns one number for all trials or one per trial
        spec = ou_spec(eps=0.1, eta=0.1)
        spec.c = lambda x, y: np.hstack([x, y])
        noises = [make_noise(spec, 11, 1.0, 1, stream=trial) for trial in range(2)]
        with pytest.raises(InvalidInputError, match=re.escape("coefficient c returned shape (2, 2) for 2 trials")):
            run(spec, stacked(noises), 1)
        with pytest.raises(InvalidInputError, match="x0 and y0 must be numbers"):
            ou_spec(x0=[1.0, -1.0])

    def test_controlled_matches_scalar_reference(self):
        spec = ou_spec(eps=0.1, eta=0.05, sigma1=("cos_y", {}), sigma2=("constant", {"value": 0.4}),
                       c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        n_out, sub = 51, 4
        dt_out = 1.0 / (n_out - 1)
        t = dt_out * np.arange(n_out)
        ctrl = ControlPair(v1=GridPath(0.0, dt_out, np.sin(3 * t)), u2dot=GridPath(0.0, dt_out, np.cos(2 * t)))
        noises = [make_noise(spec, n_out, 1.0, sub, seed=6, stream=trial) for trial in range(3)]
        assert_matches_reference(spec, noises, sub, ctrl)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_trial_is_marked(self):
        spec = ou_spec(eps=1.0, eta=0.2, sigma1=("constant", {"value": 1.0}), c=("linear_xy", {"ax": 50.0}), x0=1.0)
        noises = [make_noise(spec, 21, 1.0, 1, seed=7, stream=trial) for trial in range(3)]
        noises[1].db[:] *= 1e306
        batch = run(spec, stacked(noises), 1)
        assert list(batch.diverged) == [False, True, False]
        with pytest.raises(DivergenceError, match=re.escape(f"t={float(batch.first_bad_time[1])!r}")):
            scalar_reference(spec, noises[1], 1)
        for trial in (0, 2):
            xs, ys = scalar_reference(spec, noises[trial], 1)
            assert_path_matches(spec, batch.x[trial], xs)
            assert_path_matches(spec, batch.y[trial], ys)

    def test_chunk_size_independence(self, monkeypatch):
        # a loop spec (sigma1 reads x), and on the skew route a sigma1 that
        # reads y and the OU config
        n_out, sub = 41, 5
        n_fine = (n_out - 1) * sub + 1
        for sigma1 in (("linear_xy", {"ax": 0.3, "const": 0.5}), ("cos_y", {}), ("zero", {})):
            spec = ou_spec(eps=0.1, eta=0.02, sigma1=sigma1, c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
            assert on_skew_route(spec) == (sigma1[0] != "linear_xy")
            results = []
            for per_chunk in (1, 3, 7):
                monkeypatch.setattr(ldp_harness, "_MAX_BATCH_POINTS", per_chunk * n_fine)
                chunks = list(simulate_point(spec, n_out, 1.0, sub, 7, 8, 0))
                assert [len(trials) for trials, _ in chunks] == {1: [1] * 7, 3: [3, 3, 1], 7: [7]}[per_chunk]
                results.append(joined(chunks))
            for other in results[1:]:
                assert np.array_equal(other.x, results[0].x)
                assert np.array_equal(other.y, results[0].y)
                assert np.array_equal(other.first_bad_time, results[0].first_bad_time, equal_nan=True)


class TestChunkChecks:
    def test_substeps_must_divide_the_fine_steps(self):
        # 10 fine steps with substeps = 3 dropped the last step: the paths
        # ended at t = 0.9
        spec = ou_spec(eta=0.1)
        with pytest.raises(InvalidInputError, match="chunk of 10 fine steps: need a multiple of substeps=3"):
            run(spec, make_noise(spec, 11, 1.0, 1), 3)
        with pytest.raises(InvalidInputError, match="substeps=0"):
            run(spec, make_noise(spec, 11, 1.0, 1), 0)

    def test_columns_must_match_the_dimensions(self):
        # a two-column dB died with numpy's "could not broadcast"
        spec = ou_spec(eta=0.5, sigma1=("constant", {"value": 1.0}))
        noise = make_noise(spec, 11, 1.0, 1)
        with pytest.raises(InvalidInputError, match="noise columns 2, 1: need 1 each"):
            run(spec, noise._replace(db=np.concatenate([noise.db, noise.db], axis=2)), 1)
        # no columns only for a noise that no coefficient reads
        with pytest.raises(InvalidInputError, match="noise columns 0, 1"):
            run(spec, noise._replace(db=noise.db[..., :0]), 1)
        free = run(ou_spec(eta=0.5), noise._replace(db=noise.db[..., :0]), 1)
        assert np.array_equal(free.y, run(ou_spec(eta=0.5), noise, 1).y)

    def test_increments_share_steps_and_trials(self):
        spec = ou_spec(sigma1=("constant", {"value": 1.0}))
        noise = stacked([make_noise(spec, 11, 1.0, 1, stream=trial) for trial in range(2)])
        for dw in (noise.dw[:, :1], noise.dw[:-1]):
            with pytest.raises(InvalidInputError, match="differ in"):
                run(spec, noise._replace(dw=dw), 1)

    def test_every_chunk_has_the_same_fine_steps(self):
        spec = ou_spec(eta=0.5, sigma1=("constant", {"value": 1.0}))
        long, short = make_noise(spec, 11, 1.0, 1), make_noise(spec, 6, 0.5, 1)
        chunks = simulate_chunks(spec, [list(long[:2]), list(short[:2])], long.dt, 1)
        assert next(chunks).x.shape == (1, 11, 1)
        with pytest.raises(InvalidInputError, match="the same in every chunk"):
            next(chunks)


# The non-zero built-ins of each role, without the fast noise tau = -y^3,
# whose multiplicative noise can blow y up within the horizon.
ROLE_CHOICES = {role: [(name, params) for name, r, params in BUILTIN_ROLES
                       if r == role and name != "zero" and (name, role) != ("cubic_y", "tau")]
                for role in ("b", "c", "sigma1", "sigma2", "f", "g", "tau")}


def keeps_skew_route(role, coef):
    """Whether ``coef`` in ``role`` keeps a spec on the skew route: it reads
    no x unless it is c declared affine, and where it reads y, it is not
    tau, and it is declared affine in f and g."""
    affine = cf.affine(coef) is not None
    if cf.reads(coef, "x") and not (role == "c" and affine):
        return False
    return not cf.reads(coef, "y") or role in ("b", "c", "sigma1", "sigma2") or (role != "tau" and affine)


# Those that keep a spec on the skew route: among them cos_y and linear_y
# as sigma1, sigma2, b and c.
SKEW_CHOICES = {role: [(name, params) for name, params in choices
                       if keeps_skew_route(role, cf.build(role, name, **params))]
                for role, choices in ROLE_CHOICES.items()}


@st.composite
def zero_heavy_spec(draw):
    """A spec with a built-in in every role, each drawn as ``zero`` half the
    time, half of the specs on the skew route and half on the loop, and a
    control pair with v1 and u2dot each present or absent."""
    skew = draw(st.booleans())
    coefs = {}
    for role, choices in (SKEW_CHOICES if skew else ROLE_CHOICES).items():
        name, params = ("zero", {}) if draw(st.booleans()) else draw(st.sampled_from(choices))
        coefs[role] = cf.build(role, name, **params)
    spec = SlowFastSpec(**coefs, hurst=0.7, eps=0.1, eta=0.5, x0=0.4, y0=0.2)
    assume(on_skew_route(spec) == skew)
    t = np.linspace(0.0, 1.0, 9)
    ctrl = ControlPair(v1=GridPath(0.0, 0.125, np.sin(3 * t)) if draw(st.booleans()) else None,
                       u2dot=GridPath(0.0, 0.125, np.cos(2 * t)) if draw(st.booleans()) else None)
    return spec, ctrl


def kinked_drift_spec(rate):
    """y runs deterministically along y = t (g = 1, eps = eta = 1, no fast
    noise) and f = -rate (y - 0.95)^+ is stiff beyond y = 0.95 only, which
    the output grid of 11 nodes on [0, 1] reaches at its last node."""
    spec = ou_spec(eps=1.0, eta=1.0, g=("constant", {"value": 1.0}))
    spec.tau = cf.build("tau", "zero")
    spec.f = cf.Coefficient("kink", lambda y: -rate * np.maximum(np.asarray(y) - 0.95, 0.0), {}, reads="y")
    return spec


class TestComposedStep:
    @pytest.mark.parametrize("role", ["c", "sigma1", "tau"])
    def test_state_free_coefficient_called_once_per_chunk(self, monkeypatch, role):
        spec = ou_spec(eps=0.1, eta=0.5, c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return np.full((), 0.7)

        spec_builtin = ou_spec(eps=0.1, eta=0.5, c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        setattr(spec_builtin, role, cf.build(role, "constant", value=0.7))
        setattr(spec, role, cf.Coefficient("counted", counted, {}, reads=""))
        for sub in (1, 8):
            for per_chunk, chunks in ((3, 1), (1, 3)):
                monkeypatch.setattr(ldp_harness, "_MAX_BATCH_POINTS", per_chunk * (10 * sub + 1))
                calls.clear()
                batch = joined(simulate_point(spec, 11, 1.0, sub, 3, 3, 0))
                # one evaluation per chunk, and no probe
                assert len(calls) == chunks
                reference = joined(simulate_point(spec_builtin, 11, 1.0, sub, 3, 3, 0))
                assert np.array_equal(batch.x, reference.x) and np.array_equal(batch.y, reference.y)

    def test_state_free_control_terms_match_scalar_reference(self):
        # one trial per chunk: the state-free control terms of sigma1, sigma2
        # and tau are formed in place on stacks the shape of the control
        spec = ou_spec(eps=0.1, eta=0.1, sigma1=("constant", {"value": 0.6}), sigma2=("constant", {"value": 0.4}),
                       c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0)
        t = np.linspace(0.0, 1.0, 21)
        ctrl = ControlPair(v1=GridPath(0.0, 0.05, np.sin(3 * t)), u2dot=GridPath(0.0, 0.05, np.cos(2 * t)))
        noises = [make_noise(spec, 21, 1.0, 2, seed=6, stream=trial) for trial in range(3)]
        chunks = ([nb.db.copy(), nb.dw.copy()] for nb in noises)
        batches = list(simulate_chunks(spec, chunks, noises[0].dt, 2, ctrl))
        assert [len(b.x) for b in batches] == [1, 1, 1]
        assert_matches_reference(spec, noises, 2, ctrl, joined(zip(([t] for t in range(3)), batches)))

    def test_state_free_noise_terms_are_written_in_place(self, monkeypatch):
        # sigma1, sigma2 and tau constant: one (fine step, trial) stack per
        # noise term, three at most while the slow two are summed, as the
        # increments of dB and dW, drawn in the traced region, took; the
        # outputs are a quarter stack each
        spec = ou_spec(eps=0.1, eta=0.5, sigma1=("constant", {"value": 0.6}), sigma2=("constant", {"value": 0.4}))
        monkeypatch.setattr(multiscale_sim, "_PROBE_ROWS", 1024)
        stack = 4096 * 16 * 8
        tracemalloc.start()
        try:
            noise = sample_increments(spec.hurst, 4097, 1.0, list(range(16)), seed=3)
            next(simulate_chunks(spec, [noise], 1.0 / 4096, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * stack

    def test_stability_warning_at_late_node_fires_once(self, monkeypatch):
        spec = kinked_drift_spec(rate=100.0)  # 2 dt |f'| = 20 > eta beyond y = 0.95
        monkeypatch.setattr(ldp_harness, "_MAX_BATCH_POINTS", 11)  # one trial per chunk
        monkeypatch.setattr(multiscale_sim, "_PROBE_ROWS", 4)  # the last node in the third probe block
        with pytest.warns(RuntimeWarning, match="fast Euler step may be unstable") as record:
            batch = joined(simulate_point(spec, 11, 1.0, 1, 3, 2, 0))
        assert sum("unstable" in str(w.message) for w in record) == 1
        assert np.all(batch.y[:, -2, 0] < 0.95) and np.all(batch.y[:, -1, 0] > 0.95)
        assert np.allclose(batch.y[0, :, 0], np.linspace(0.0, 1.0, 11))

    def test_no_stability_warning_without_violation(self):
        spec = kinked_drift_spec(rate=2.0)  # 2 dt |f'| = 0.4 < eta everywhere
        noises = [make_noise(spec, 11, 1.0, 1, seed=2, stream=trial) for trial in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(spec, stacked(noises), 1)


F_BUILTINS = [
    ("linear_y", {"rate": 0.5}),
    ("linear_y", {"rate": -3.0}),
    ("ou", {"rate": 1.5}),
    ("ou", {"rate": 40.0}),
    ("cos_y", {"scale": 0.9}),
    ("cos_y", {"scale": -25.0}),
    ("cubic_y", {"rate": 1.0}),
    ("cubic_y", {"rate": 0.02}),
]


class TestDeclaredSlope:
    # the stability check reads |f'| off the declared facts of a built-in f;
    # the oracle is the central-difference probe that bare callables keep

    @pytest.mark.parametrize("name,params", F_BUILTINS, ids=[f"{n}-{list(p.values())[0]}" for n, p in F_BUILTINS])
    # the probe's own error is its step squared, 1e-8 for the cubic: the
    # states are drawn at scales where that is far below 1e-6 of |f'|
    @pytest.mark.parametrize("scale", [0.5, 2.0, 30.0])
    def test_matches_the_difference_probe(self, name, params, scale):
        spec = ou_spec()
        spec.f = cf.build("f", name, **params)
        eval_f = multiscale_sim._evaluator(spec, "f")
        rng = np.random.default_rng(len(name))
        never = lambda gnorm: False  # noqa: E731
        for blocks in (1, 4, 64):
            ys = scale * rng.standard_normal((blocks, 5, 1))
            ys[0, 3:] = np.nan  # a diverged trial's rows are skipped
            rows = ys.reshape(-1, 1)
            probe = multiscale_sim._fast_jacobian_norm(eval_f, rows[np.isfinite(rows[:, 0])])
            declared = multiscale_sim._fast_slope(spec.f, eval_f, ys, never)
            assert declared == pytest.approx(probe, rel=1e-6)
        # no finite state, as when y0 is not finite: nothing to bound
        assert multiscale_sim._fast_slope(spec.f, eval_f, np.full((2, 3, 1), np.nan), never) == 0.0

    @pytest.mark.parametrize("name,params", [("ou", {"rate": 1.0}), ("cos_y", {}), ("cubic_y", {"rate": 1.0})])
    def test_built_in_f_is_never_probed(self, monkeypatch, name, params):
        spec = ou_spec(eta=1e-5, c=("linear_xy", {"ax": -1.0}))
        spec.f = cf.build("f", name, **params)
        monkeypatch.setattr(multiscale_sim, "_fast_jacobian_norm", pytest.fail)
        noises = [make_noise(spec, 11, 1.0, 2, seed=3, stream=trial) for trial in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(spec, stacked(noises), 2)

    def test_bare_callable_f_keeps_the_probe(self, monkeypatch):
        spec = ou_spec(eta=1e-5)
        spec.f = lambda y: -np.asarray(y)
        calls = []
        probe = multiscale_sim._fast_jacobian_norm
        monkeypatch.setattr(multiscale_sim, "_fast_jacobian_norm", lambda *a: calls.append(1) or probe(*a))
        noises = [make_noise(spec, 11, 1.0, 1, seed=3, stream=trial) for trial in range(2)]
        with pytest.warns(RuntimeWarning, match="fast Euler step may be unstable"):
            run(spec, stacked(noises), 1)
        assert calls


class TestZeroTerms:
    def test_declared_zero_is_never_called(self):
        # c = cos y reads y only, so the skew route steps the system and
        # calls c once per chunk, on the stack of left-point fast states
        spec = ou_spec(eps=0.1, eta=0.1, c=("cos_y", {}), x0=1.0)
        assert on_skew_route(spec)
        calls = {}
        for role in ("b", "c", "sigma1", "sigma2", "g"):
            coef, calls[role] = getattr(spec, role), []

            def counted(*args, fn=coef.fn, role=role):
                calls[role].append((np.shape(args[-1]), np.all(args[-1][0] == spec.y0)))
                return fn(*args)

            coef.fn = counted
        t = np.linspace(0.0, 1.0, 11)
        noises = [make_noise(spec, 11, 1.0, 4, seed=2, stream=trial) for trial in range(3)]
        for ctrl in (None, ControlPair(v1=GridPath(0.0, 0.1, t), u2dot=GridPath(0.0, 0.1, 1.0 - t))):
            run(spec, stacked(noises), 4, ctrl)
        assert calls.pop("c") == [((40, 3, 1), True)] * 2  # its first row y_0
        assert calls == dict.fromkeys(("b", "sigma1", "sigma2", "g"), [])

    @pytest.mark.filterwarnings("ignore:fast Euler step may be unstable")
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=zero_heavy_spec())
    def test_zero_roles_match_scalar_reference(self, case):
        spec, ctrl = case
        noises = [make_noise(spec, 9, 1.0, 2, seed=12, stream=trial) for trial in range(2)]
        assert_matches_reference(spec, noises, 2, ctrl)


def loop_only(monkeypatch):
    """Send every spec through the Euler loop, the skew route's oracle."""
    monkeypatch.setattr(multiscale_sim, "_skew_route", lambda spec: False)


def coupled_skew_spec():
    """Every term the skew route takes: c reads x and y and adds a
    constant, b reads y through its declared form, sigma1 = cos y is
    evaluated on the fast states, sigma2 is state-free, and f and g read y
    through their declared forms."""
    return ou_spec(eps=0.1, eta=0.2, sigma1=("cos_y", {}), sigma2=("constant", {"value": 0.4}),
                   c=("linear_xy", {"ax": -1.0, "ay": 0.5, "const": 0.2}), b=("linear_y", {"rate": 0.3}),
                   g=("linear_xy", {"ay": -0.2, "const": 0.1}), x0=1.0, y0=-0.5)


def smooth_controls(n_out):
    """v1 = sin 3t and u2dot = cos 2t on ``n_out`` nodes over [0, 1]."""
    t = np.linspace(0.0, 1.0, n_out)
    return ControlPair(v1=GridPath(0.0, t[1], np.sin(3 * t)), u2dot=GridPath(0.0, t[1], np.cos(2 * t)))


def per_trial_free_spec():
    """A skew-route spec whose c and g read no state and return one value
    per trial, shape (batch, 1), beside constant sigma1 and tau."""
    spec = ou_spec(eps=0.1, eta=0.2, sigma1=("constant", {"value": 0.6}), b=("linear_y", {"rate": 0.3}),
                   x0=1.0, y0=-0.5)
    spec.c = cf.Coefficient("per_trial", lambda x, y: 0.1 * np.arange(1.0, len(x) + 1.0)[:, None] - 0.2, {}, reads="")
    spec.g = cf.Coefficient("per_trial", lambda x, y: 0.3 - 0.2 * np.arange(len(y))[:, None], {}, reads="")
    return spec


# (output nodes, substeps): y at every fine step is solved in blocks of
# about sqrt(fine steps), x at the nodes in blocks of a multiple of substeps
BLOCK_LAYOUTS = [
    (21, 4),  # blocks of 9 fine steps and a last one of 8; of 8, two nodes each
    (14, 7),  # blocks of 10 and a last one of 1; of one output step
    (12, 2),  # blocks of 5 and a last one of 2; of 4 and a last one of 2
    (4, 37),  # blocks of 11 and a last one of 1; of one output step, longer than sqrt(111)
    (31, 1),  # blocks of 5, every fine step a node
]


class TestAffineRoute:
    @pytest.mark.parametrize("name,role,params", BUILTIN_ROLES)
    def test_declared_form_matches_the_callable(self, name, role, params):
        coef = cf.build(role, name, **params)
        x, y = 3.0 * np.random.default_rng(1).normal(size=(2, 16, 1))
        value = coef(y) if role in ("b", "f", "tau") else coef(x, y)
        if name in ("cos_y", "cubic_y"):
            assert cf.affine(coef) is None
        else:
            ax, ay, const = cf.affine(coef)
            assert np.array_equal(np.broadcast_to(value, x.shape), ax * x + ay * y + const)

    def test_bare_callable_declares_no_form(self):
        assert cf.affine(lambda x, y: -x) is None
        spec = ou_spec(c=("linear_xy", {"ax": -1.0}))
        assert on_skew_route(spec)
        spec.c = lambda x, y: -x
        assert not on_skew_route(spec)

    @pytest.mark.parametrize("n_out,sub", BLOCK_LAYOUTS + [
        (3, 200),  # substeps above sqrt(fine steps): x in blocks of one output step
        (201, 50),  # the OU config's finest layout
    ])
    def test_block_layouts_match_the_loop(self, monkeypatch, n_out, sub):
        for spec in (coupled_skew_spec(), per_trial_free_spec()):
            noise = stacked([make_noise(spec, n_out, 1.0, sub, seed=13, stream=trial) for trial in range(3)])
            assert on_skew_route(spec)
            for ctrl in (None, smooth_controls(n_out)):
                batch = run(spec, noise, sub, ctrl)
                with monkeypatch.context() as patch:
                    loop_only(patch)
                    loop = run(spec, noise, sub, ctrl)
                assert not batch.diverged.any() and not loop.diverged.any()
                for trial in range(3):
                    for got, want in ((batch.x, loop.x), (batch.y, loop.y)):
                        assert got[trial, 0, 0] == want[trial, 0, 0]
                        assert_close(got[trial], want[trial])

    @pytest.mark.parametrize("role", ["g", "sigma1"])
    def test_x_read_outside_c_takes_the_loop(self, role):
        # a g or a noise coefficient that reads x couples the sides both
        # ways: the loop steps the system, bit for bit the scalar oracle
        spec = coupled_skew_spec()
        setattr(spec, role, cf.build(role, "linear_xy", ax=0.3, ay=-0.2, const=0.5))
        assert not on_skew_route(spec)
        noises = [make_noise(spec, 11, 1.0, 4, seed=14, stream=trial) for trial in range(3)]
        batch = run(spec, stacked(noises), 4, smooth_controls(11))
        for trial, noise in enumerate(noises):
            xs, ys = scalar_reference(spec, noise, 4, smooth_controls(11))
            assert np.array_equal(batch.x[trial], xs) and np.array_equal(batch.y[trial], ys)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:fast Euler step may be unstable")
    @pytest.mark.parametrize("case", ["huge_noise", "unstable_fast_step"])
    def test_divergence_matches_the_loop(self, monkeypatch, case):
        # the trials that leave the finite range are stepped again by the
        # loop: their first_bad_time and NaN rows are the loop's
        if case == "huge_noise":  # the 1e306 trial of test_diverging_trial_is_marked
            spec = ou_spec(eps=1.0, eta=0.2, sigma1=("constant", {"value": 1.0}), c=("linear_xy", {"ax": 50.0}), x0=1.0)
            noises, sub = [make_noise(spec, 21, 1.0, 1, seed=7, stream=trial) for trial in range(3)], 1
            noises[1].db[:] *= 1e306
        else:  # 1 - dt_fast/eta = -9: y blows up, and the skew route's x, free of y, stays finite
            spec = ou_spec(eps=0.1, eta=1e-4, c=("linear_xy", {"ax": -1.0}), x0=1.0)
            noises, sub = [make_noise(spec, 11, 1.0, 100, seed=7, stream=trial) for trial in range(3)], 100
        assert on_skew_route(spec)
        batch = run(spec, stacked(noises), sub)
        loop_only(monkeypatch)
        loop = run(spec, stacked(noises), sub)
        assert np.array_equal(batch.first_bad_time, loop.first_bad_time, equal_nan=True)
        assert list(batch.diverged) == ([False, True, False] if case == "huge_noise" else [True] * 3)
        for trial in range(3):
            if loop.diverged[trial]:
                assert np.array_equal(batch.x[trial], loop.x[trial], equal_nan=True)
                assert np.array_equal(batch.y[trial], loop.y[trial], equal_nan=True)
            else:
                assert_close(batch.x[trial], loop.x[trial])
                assert_close(batch.y[trial], loop.y[trial])


def linear_gaussian_law(spec, n_out, sub):
    """Exact mean (n_out - 1,) and covariance of x at output nodes 1..n_out-1
    of the Euler recurrences of ``spec`` over [0, 1], ``sub`` fine steps of
    dt per output step: c = ax x + ay y, sigma1 = s1, f = -rate y, tau
    constant, every other role zero.  With a = 1 + ax dt, b = 1 - rate dt/eta
    and m = j - 1 - i >= 0 steps from fine step i to the node at step j,
    x_j responds to dB_i with s1 sqrt(eps) a^m and to dW_i with
    (tau / sqrt(eta)) ay dt (a^m - b^m) / (a - b); dB is fGn times dt^H and
    dW has variance dt, so the covariance is R_B Gamma R_B^T + dt R_W R_W^T.
    The last node's mean and variance are the terminal law."""
    ax, ay, _ = cf.affine(spec.c)
    rate = -cf.affine(spec.f)[1]
    s1, tau = float(spec.sigma1(0.0, 0.0)), float(spec.tau(0.0))
    n_fine = (n_out - 1) * sub
    dt = 1.0 / n_fine
    a, b = 1.0 + ax * dt, 1.0 - rate * dt / spec.eta
    j = sub * np.arange(1, n_out)
    m = j[:, None] - 1 - np.arange(n_fine)
    live, m = m >= 0, np.maximum(m, 0)
    r_b = np.where(live, s1 * math.sqrt(spec.eps) * a**m, 0.0)
    r_w = np.where(live, tau / math.sqrt(spec.eta) * ay * dt * (a**m - b**m) / (a - b), 0.0)
    k = np.arange(n_fine, dtype=float)
    gamma_col = 0.5 * ((k + 1) ** (2 * spec.hurst) - 2 * k ** (2 * spec.hurst) + np.abs(k - 1) ** (2 * spec.hurst))
    cov = r_b @ matmul_toeplitz(gamma_col * dt ** (2 * spec.hurst), r_b.T) + dt * r_w @ r_w.T
    mean = a**j * spec.x0 + ay * dt * spec.y0 * (a**j - b**j) / (a - b)
    return mean, cov


class TestExactLaw:
    # Fixed before any mutated run: 2,000 trials per point and |z| <= 4.
    # Mutated by hand, it fails with tau's forcing scaled by 1.05 (path z
    # 6.9 and 10.0), dB scaled by dt^(H - 0.01) (11.3, 12.2), the fast slope
    # by 1.05 (-4.3, -8.8) and the slow slope by 1.05 (terminal mean z -5.8
    # at eps = 0.03); it passes the slow slope by 1.02 (-1.3, -2.1).  The
    # terminal z-scores alone reach only 2.6 and 3.7 on the two scale errors
    TRIALS, Z_BOUND = 2000, 4.0

    @pytest.mark.parametrize("eps", [0.1, 0.03])
    def test_linear_gaussian_law(self, eps):
        # x at the output nodes is Gaussian: the whole chain (sampler,
        # forcing scales, skew route) against its exact mean and covariance
        spec = ou_spec(eps=eps, eta=eps**1.5, sigma1=("constant", {"value": 1.0}),
                       c=("linear_xy", {"ax": -1.0, "ay": 1.0}), x0=1.0, y0=0.5)
        n_out, trials = 33, self.TRIALS
        assert on_skew_route(spec)
        mean, cov = linear_gaussian_law(spec, n_out, default_substeps(1.0 / (n_out - 1), spec.eta))
        x = np.concatenate([batch.x[:, 1:, 0] for _, batch in simulate_point(spec, n_out, 1.0, 0, trials, 11, 0)])
        res = x - mean
        z_mean = res[:, -1].mean() / math.sqrt(cov[-1, -1] / trials)
        z_var = (res[:, -1].var(ddof=1) / cov[-1, -1] - 1.0) / math.sqrt(2.0 / (trials - 1))
        # each trial's squared Mahalanobis distance is chi-square with
        # n_out - 1 degrees of freedom: mean n_out - 1, variance 2 (n_out - 1)
        d2 = np.sum(solve_triangular(cholesky(cov, lower=True), res.T, lower=True) ** 2, axis=0)
        z_path = (d2.mean() - (n_out - 1)) / math.sqrt(2.0 * (n_out - 1) / trials)
        assert max(abs(z_mean), abs(z_var), abs(z_path)) <= self.Z_BOUND, (z_mean, z_var, z_path)


class TestControlled:
    def test_zero_control_matches_uncontrolled(self):
        spec = ou_spec(eta=0.1, sigma1=("constant", {"value": 1.0}), c=("linear_xy", {"ax": -1.0}))
        noise = make_noise(spec, 51, 1.0, 4, seed=17)
        a, ya = run(spec, noise, 4).paths(0)
        b, yb = run(spec, noise, 4, ControlPair()).paths(0)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(ya.values, yb.values)

    def test_constant_v1_closed_form(self):
        # noise off, v1 = 1, sigma1 = 1: X = x0 + int Kdot[1] in closed form
        spec = ou_spec(eps=1.0, eta=1.0, hurst=0.7, sigma1=("constant", {"value": 1.0}))
        n_out, sub = 201, 4
        n_fine = (n_out - 1) * sub + 1
        dtf = 1.0 / (n_fine - 1)
        zeros = np.zeros((n_fine - 1, 1, 1))
        noise = Noise(zeros, zeros, dtf)
        dt_out = 1.0 / (n_out - 1)
        ctrl = ControlPair(v1=GridPath(0.0, dt_out, np.ones(n_out)))
        x_path, _ = run(spec, noise, sub, ctrl).paths(0)
        t = x_path.times()
        h = 0.7
        exact = c_H(h) * gamma(1.5 - h) * t ** (h + 0.5) / (h + 0.5)
        assert np.max(np.abs(x_path.scalar() - exact)) < 5e-3

    def test_constant_u2dot_duhamel_mean_shift(self):
        # variation-of-constants for the forced relaxation: the fast mean
        # settles at eta * tau c_hat / sqrt(eps eta) = tau c_hat sqrt(eta/eps)
        eps, eta = 0.04, 0.01
        spec = ou_spec(eps=eps, eta=eta)
        c_hat = 1.0
        n_out, sub = 101, 20
        dt_out = 1.0 / (n_out - 1)
        ctrl = ControlPair(u2dot=GridPath(0.0, dt_out, c_hat * np.ones(n_out)))
        noises = [make_noise(spec, n_out, 1.0, sub, seed=31, stream=trial) for trial in range(40)]
        batch = run(spec, stacked(noises), sub, ctrl)
        means = np.mean(batch.y[:, n_out // 2 :, 0], axis=1)
        target = c_hat * SQRT2 * math.sqrt(eta / eps)
        assert abs(np.mean(means) - target) < 0.1 * target


class TestOccupation:
    def test_total_mass_is_horizon(self):
        spec = ou_spec(eta=0.01)
        noise = make_noise(spec, 201, 2.0, 5, seed=2)
        _, y_path = run(spec, noise, 5).paths(0)
        hist = empirical_occupation(y_path, ControlPair(), bins=12)
        assert abs(hist.total_mass - 2.0) < 1e-9
        assert hist.total_time == pytest.approx(2.0)

    def test_invariant_marginal_tv(self):
        # long horizon, uncontrolled: Y-marginal close to the standard normal
        spec = ou_spec(eps=0.1, eta=0.002)
        n_out = 2001
        sub = 100
        noise = make_noise(spec, n_out, 20.0, sub, seed=5)
        _, y_path = run(spec, noise, sub).paths(0)
        hist = empirical_occupation(y_path, ControlPair(), bins=16)
        y_axis = len(hist.edges) - 1
        marg = hist.marginal(y_axis) / hist.total_mass
        edges = hist.edges[y_axis]
        from scipy.stats import norm

        probs = np.diff(norm.cdf(edges))
        probs /= probs.sum()
        tv = 0.5 * np.sum(np.abs(marg - probs))
        assert tv < 0.05

    def test_point_mass_for_zero_controls(self):
        spec = ou_spec(eta=0.01)
        noise = make_noise(spec, 101, 1.0, 4, seed=2)
        _, y_path = run(spec, noise, 4).paths(0)
        hist = empirical_occupation(y_path, ControlPair(), bins=7)
        u1_marg = hist.marginal(0)
        assert np.isclose(u1_marg.max(), hist.total_mass)

    def test_decoupling_with_bounded_controls(self):
        # sqrt(eta)/sqrt(eps) = 0.1: controlled Y-marginal stays near the
        # uncontrolled invariant density in total variation
        eps = 0.1
        eta = (0.1 * math.sqrt(eps)) ** 2
        spec = ou_spec(eps=eps, eta=eta)
        n_out = 801
        dt_out = 8.0 / (n_out - 1)
        sub = default_substeps(dt_out, spec.eta)
        ctrl = ControlPair(u2dot=GridPath(0.0, dt_out, 0.5 * np.sin(np.arange(n_out))[:, None]))
        noise = make_noise(spec, n_out, 8.0, sub, seed=6)
        _, y_path = run(spec, noise, sub, ctrl).paths(0)
        hist = empirical_occupation(y_path, ControlPair(u2dot=ctrl.u2dot), bins=24)
        y_axis = len(hist.edges) - 1
        marg = hist.marginal(y_axis) / hist.total_mass
        from scipy.stats import norm

        probs = np.diff(norm.cdf(hist.edges[y_axis]))
        probs /= probs.sum()
        assert 0.5 * np.sum(np.abs(marg - probs)) < 0.1


def test_default_substeps_cap_warns():
    with pytest.warns(RuntimeWarning):
        sub = default_substeps(0.1, 1e-9, cap=64)
    assert sub == 64

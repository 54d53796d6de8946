import numpy as np
import pytest
from scipy.stats import ks_2samp

from fracrate import fbm_gen
from fracrate.errors import FracrateError, InvalidInputError
from fracrate.fbm_gen import (
    NoiseBundle,
    path_norms,
    rng_for,
    sample_fbm,
    sample_fbm_batch,
    sample_increments,
    sample_noise_bundle,
)
from fracrate.frac_calc import _cell_moments
from fracrate.gridpath import GridPath


def fbm_cov(s, t, hurst):
    return 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - abs(t - s) ** (2 * hurst))


def complex_fgn_batch(hurst, n_inc, size, rng):
    """The complex sampler the real transform replaced, the oracle: z_0 and
    z_n of every row, then a and b, written into the full Hermitian
    spectrum with its conjugate mirror and sent through a complex inverse
    FFT of length 2 n_inc; shape (size, n_inc)."""
    scales = fbm_gen._fgn_scales(n_inc, hurst)
    m = 2 * n_inc
    z = np.zeros((size, m), dtype=complex)
    z[:, 0] = rng.standard_normal(size) * np.sqrt(m)
    z[:, n_inc] = rng.standard_normal(size) * np.sqrt(m)
    a = rng.standard_normal((size, n_inc - 1))
    b = rng.standard_normal((size, n_inc - 1))
    half = np.sqrt(m / 2.0) * (a + 1j * b)
    z[:, 1:n_inc] = half
    z[:, n_inc + 1 :] = np.conj(half[:, ::-1])
    return np.fft.ifft(scales[None, :] * z, axis=1).real[:, :n_inc]


def per_trial_increments(hurst, n, horizon, streams, k, ell, seed):
    """The oracle of ``sample_increments``: each trial and fBm column on its
    own through ``complex_fgn_batch``, as the per-trial bundles drew them."""
    dt = horizon / (n - 1)
    db = np.empty((n - 1, len(streams), k))
    dw = np.empty((n - 1, len(streams), ell))
    for t, stream in enumerate(streams):
        rng = rng_for(seed, 0, stream)
        for col in range(k):
            db[:, t, col] = complex_fgn_batch(hurst, n - 1, 1, rng)[0] * dt**hurst
        dw[:, t] = rng_for(seed, 1, stream).standard_normal((n - 1, ell)) * np.sqrt(dt)
    return db, dw


class TestSampling:
    def test_determinism(self):
        a = sample_fbm(0.7, 64, 1.0, dim=2, seed=5)
        b = sample_fbm(0.7, 64, 1.0, dim=2, seed=5)
        assert np.array_equal(a.values, b.values)
        c = sample_fbm(0.7, 64, 1.0, dim=2, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_starts_at_zero(self):
        p = sample_fbm(0.6, 32, 2.0, seed=1)
        assert np.all(p.values[0] == 0.0)
        assert abs(p.horizon - 2.0) < 1e-12

    def test_brownian_independent_increments(self):
        # H = 1/2: disjoint increments uncorrelated within 3 standard errors
        batch = sample_fbm_batch(0.5, 129, 1.0, 10000, seed=9)
        inc1 = batch[:, 32] - batch[:, 0]
        inc2 = batch[:, 96] - batch[:, 64]
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(10000)

    def test_terminal_variance(self):
        hurst = 0.7
        batch = sample_fbm_batch(hurst, 512, 1.0, 10000, seed=2)
        var = batch[:, -1].var(ddof=1)
        se = var * np.sqrt(2.0 / 9999)
        assert abs(var - 1.0) < 4 * se

    def test_midpoint_covariance_value(self):
        # R_H(0.5, 1) at H = 0.7 equals 0.5 (the covariance formula evaluated)
        assert abs(fbm_cov(0.5, 1.0, 0.7) - 0.5) < 1e-15
        batch = sample_fbm_batch(0.7, 513, 1.0, 20000, seed=3)
        emp = np.mean(batch[:, 256] * batch[:, -1])
        se = np.std(batch[:, 256] * batch[:, -1], ddof=1) / np.sqrt(20000)
        assert abs(emp - 0.5) < 4 * se

    def test_covariance_matrix(self):
        hurst = 0.6
        nodes = [64, 128, 256, 384, 512]
        batch = sample_fbm_batch(hurst, 513, 1.0, 10000, seed=4)
        t = np.linspace(0, 1, 513)
        for i in nodes:
            for j in nodes:
                prod = batch[:, i] * batch[:, j]
                emp = prod.mean()
                se = prod.std(ddof=1) / np.sqrt(len(prod))
                assert abs(emp - fbm_cov(t[i], t[j], hurst)) < 4 * se

    def test_self_similarity_in_law(self):
        # increments over [0, T/2] rescaled by 2^H match the law over [0, T]
        hurst = 0.75
        full = sample_fbm_batch(hurst, 257, 1.0, 4000, seed=7)[:, -1]
        half = sample_fbm_batch(hurst, 257, 0.5, 4000, seed=8)[:, -1] * 2**hurst
        stat = ks_2samp(full, half)
        assert stat.pvalue > 0.01

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            sample_fbm(1.2, 64, 1.0)
        with pytest.raises(InvalidInputError):
            sample_fbm(0.7, 1, 1.0)

    def test_near_one_hurst_clips_round_off(self):
        # the smallest embedding eigenvalue is -1.2e-8 of the largest here:
        # round-off, clipped; no dense covariance of 2^18 increments is formed
        lam = fbm_gen._fgn_eigenvalues(2**18, 0.999)
        assert -fbm_gen._EIGEN_ROUNDOFF < lam.min() / lam.max() < -1e-9
        p = sample_fbm(0.999, 2**18 + 1, 1.0, seed=12)
        assert p.values[0, 0] == 0.0 and np.all(np.isfinite(p.values))
        # near H = 1 the path is almost the line t B(1)
        t = p.times()
        assert np.max(np.abs(p.values[:, 0] - t * p.values[-1, 0])) < 0.5

    def test_embedding_scales_once_per_grid(self):
        scales = fbm_gen._fgn_scales(64, 0.7)
        assert fbm_gen._fgn_scales(64, 0.7) is scales
        assert np.array_equal(scales, np.sqrt(np.clip(fbm_gen._fgn_eigenvalues(64, 0.7), 0.0, None)))
        with pytest.raises(ValueError, match="read-only"):
            scales[0] = 0.0
        cached = sample_noise_bundle(0.7, 65, 1.0, k=2, ell=1, seed=4)
        fbm_gen._fgn_scales.cache_clear()
        fresh = sample_noise_bundle(0.7, 65, 1.0, k=2, ell=1, seed=4)
        assert np.array_equal(cached.bh.values, fresh.bh.values)
        assert np.array_equal(cached.w.values, fresh.w.values)

    def test_indefinite_embedding_raises(self, monkeypatch):
        lam = np.ones(64)
        lam[3] = -1e-3
        monkeypatch.setattr(fbm_gen, "_fgn_eigenvalues", lambda n_inc, hurst: lam)
        fbm_gen._fgn_scales.cache_clear()  # an earlier test may have kept this grid's scales
        with pytest.raises(FracrateError, match="indefinite"):
            sample_fbm(0.7, 33, 1.0)


class TestIncrements:
    @pytest.mark.parametrize("n", [2, 3, 2001])
    @pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_complex_oracle(self, n, k, ell):
        # the same normals: fBm increments within 1e-14 of their maximum
        # (measured 4.0e-16 at n = 2001; 7.5e-16 at n = 10017, k = 2),
        # Brownian ones bit for bit
        streams = [(4, t) for t in range(3)]
        db, dw = sample_increments(0.7, n, 1.5, streams, k, ell, seed=11)
        want_b, want_w = per_trial_increments(0.7, n, 1.5, streams, k, ell, seed=11)
        assert db.shape == want_b.shape and dw.shape == want_w.shape
        assert np.max(np.abs(db - want_b)) <= 1e-14 * np.max(np.abs(want_b))
        assert np.array_equal(dw, want_w)

    def test_batch_matches_complex_oracle(self):
        # within 1e-13 of the maximum, the running sum's round-off included
        # (measured 3.6e-15)
        want = complex_fgn_batch(0.7, 512, 300, rng_for(3, 0, 0)) * (1.0 / 512) ** 0.7
        got = np.diff(sample_fbm_batch(0.7, 513, 1.0, 300, seed=3), axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_chunk_is_its_trials(self):
        # one trial's increments do not depend on the chunk that draws them,
        # and a bundle is their running sum
        streams = [(2, t) for t in range(5)]
        db, dw = sample_increments(0.7, 257, 1.0, streams, 2, 1, seed=8)
        for t, stream in enumerate(streams):
            one_b, one_w = sample_increments(0.7, 257, 1.0, [stream], 2, 1, seed=8)
            assert np.array_equal(db[:, t], one_b[:, 0]) and np.array_equal(dw[:, t], one_w[:, 0])
            bundle = sample_noise_bundle(0.7, 257, 1.0, k=2, ell=1, seed=8, stream=stream)
            assert np.array_equal(bundle.bh.values[1:], np.cumsum(one_b[:, 0], axis=0))
            assert np.array_equal(bundle.w.values[1:], np.cumsum(one_w[:, 0], axis=0))

    def test_zero_columns_draw_nothing(self):
        # k = 0 leaves the fBm generator out: dW is the same with or without it
        db, dw = sample_increments(0.7, 33, 1.0, [(0, 0), (0, 1)], 0, 1, seed=5)
        assert db.shape == (32, 2, 0)
        assert np.array_equal(dw, sample_increments(0.7, 33, 1.0, [(0, 0), (0, 1)], 1, 1, seed=5)[1])
        with pytest.raises(InvalidInputError):
            sample_increments(0.7, 33, 1.0, [(0, 0)], -1, 1)


class TestNoiseBundle:
    def test_determinism_bitwise(self):
        a = sample_noise_bundle(0.7, 65, 1.0, k=2, ell=1, seed=10)
        b = sample_noise_bundle(0.7, 65, 1.0, k=2, ell=1, seed=10)
        assert np.array_equal(a.bh.values, b.bh.values)
        assert np.array_equal(a.w.values, b.w.values)

    def test_independence(self):
        # terminal values of bh and w over many bundles are uncorrelated
        vals = np.array(
            [
                (
                    sample_noise_bundle(0.7, 33, 1.0, seed=123, stream=i).bh.values[-1, 0],
                    sample_noise_bundle(0.7, 33, 1.0, seed=123, stream=i).w.values[-1, 0],
                )
                for i in range(2000)
            ]
        )
        corr = np.corrcoef(vals[:, 0], vals[:, 1])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(2000)

    def test_empty_brownian_dimension(self):
        nb = sample_noise_bundle(0.7, 33, 1.0, k=1, ell=0, seed=0)
        assert nb.w.dim == 0
        assert nb.bh.dim == 1

    def test_shared_grid_required(self):
        bh = sample_fbm(0.7, 33, 1.0, seed=0)
        w = sample_fbm(0.7, 17, 1.0, seed=1)
        with pytest.raises(InvalidInputError):
            NoiseBundle(bh=bh, w=w, seed=0, hurst=0.7)


class TestPathNorms:
    def test_constant_path(self):
        p = GridPath(0.0, 0.1, 2.5 * np.ones(11))
        out = path_norms(p, 0.5)
        assert out["holder_seminorm"] == 0.0
        assert abs(out["w0_norm"] - 2.5) < 1e-12
        assert out["wT_norm"] == 0.0

    def test_linear_path_holder(self):
        # [t]_{C^0.5} = sup |t-s|^{0.5} = 1, attained at the full interval
        dt = 1.0 / 128
        p = GridPath(0.0, dt, dt * np.arange(129))
        out = path_norms(p, 0.5)
        assert abs(out["holder_seminorm"] - 1.0) < 1e-12

    def test_fbm_regularity_trend(self):
        # refine one path by nested subsampling: the seminorm above the
        # regularity index grows, the one below converges
        hurst = 0.7
        fine = sample_fbm(hurst, 4097, 1.0, seed=21)
        vals = {0.6: [], 0.8: []}
        for stride in (32, 8, 1):
            p = GridPath(0.0, fine.dt * stride, fine.values[::stride])
            for alpha in vals:
                vals[alpha].append(path_norms(p, alpha)["holder_seminorm"])
        assert vals[0.8][-1] > 1.3 * vals[0.8][0]
        assert vals[0.6][-1] < 1.2 * vals[0.6][0]

    def test_non_finite_path_is_invalid_input(self):
        # the lag table reads NaN as "no such lag", so a NaN node would
        # drop out of the suprema instead of spoiling them
        vals = np.sin(np.linspace(0.0, 3.0, 33))
        vals[10] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            path_norms(GridPath(0.0, 1.0 / 32, vals), 0.4)

    def test_zero_column_path_is_invalid_input(self, tmp_path):
        # a CSV holding only the time column loads as an (n, 0) path
        csv = tmp_path / "t_only.csv"
        csv.write_text("t\n0.0\n0.5\n1.0\n")
        path = GridPath.from_csv(str(csv))
        assert path.values.shape == (3, 0)
        with pytest.raises(InvalidInputError, match="at least one column"):
            path_norms(path, 0.4)


def path_norms_loops(f, alpha):
    """Oracle: path_norms with one pass per lag and per anchor."""
    vals, n, dt = f.values, f.n, f.dt
    holder = 0.0
    for lag in range(1, n):
        diff = np.linalg.norm(vals[lag:] - vals[:-lag], axis=1)
        holder = max(holder, diff.max() / (lag * dt) ** alpha)
    abs_plus = np.zeros(n)
    C0, C1 = _cell_moments(alpha, n, dt)
    for k in range(1, n):
        d = np.linalg.norm(vals[k] - vals[: k + 1], axis=1)
        slopes = (d[1 : k + 1] - d[:k]) / dt
        m = np.arange(k - 1, -1, -1)  # lag index of cells [j, j + 1] seen from k
        abs_plus[k] = float(np.sum(d[1 : k + 1] * C0[m] - slopes * C1[m]))
    w0 = float(np.max(np.linalg.norm(vals, axis=1) + abs_plus))
    wT = 0.0
    for i in range(n - 1):
        d = np.linalg.norm(vals[i:] - vals[i], axis=1)
        quot = d[1:] / (dt * np.arange(1, n - i)) ** alpha
        C0, C1 = _cell_moments(alpha, n - i, dt)
        cells = d[:-1] * C0[: n - i - 1] + np.diff(d) / dt * C1[: n - i - 1]
        wT = max(wT, float(np.max(quot + np.cumsum(cells))))
    return {"holder_seminorm": float(holder), "w0_norm": w0, "wT_norm": wT}


class TestPathNormsOracle:
    """The blocked lag layout against the per-lag and per-anchor loops it
    replaced, within 1e-14 relative."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 257, 1025])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_fbm_and_smooth_paths(self, n, dim):
        t = np.linspace(0.0, 1.0, n)
        dt = 1.0 / max(n - 1, 1)
        smooth = GridPath(0.0, dt, np.column_stack([np.sin(3 * (c + 1) * t) + c for c in range(dim)]))
        cases = [(smooth, 0.4)]
        for hurst, alpha in ((0.6, 0.55), (0.85, 0.3)):
            if n >= 2:
                cases.append((sample_fbm(hurst, n, 1.0, dim=dim, seed=n), alpha))
        for path, alpha in cases:
            out, oracle = path_norms(path, alpha), path_norms_loops(path, alpha)
            for key, value in oracle.items():
                assert abs(out[key] - value) <= 1e-14 * abs(value), key

    def test_blocks_of_one_row(self, monkeypatch):
        # the smallest cap puts every anchor in a block of its own
        path = sample_fbm(0.7, 65, 1.0, dim=2, seed=1)
        monkeypatch.setattr(fbm_gen, "_MAX_BLOCK_ELEMENTS", 1)
        out, oracle = path_norms(path, 0.35), path_norms_loops(path, 0.35)
        for key, value in oracle.items():
            assert abs(out[key] - value) <= 1e-14 * abs(value), key

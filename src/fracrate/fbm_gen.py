"""Exact-covariance fractional Brownian motion sampling and path diagnostics.

Sampling uses circulant embedding of the stationary increment covariance
(Davies-Harte), which is O(n log n) and exact in law.  The minimal
embedding of fractional Gaussian noise is nonnegative definite for every
Hurst index (Perrin et al., IEEE Signal Process. Lett. 9, 2002; Craigmile,
J. Time Ser. Anal. 24, 2003), so its negative eigenvalues are round-off and
are clipped to zero.  All randomness flows through ``numpy`` Philox
generators keyed by explicit seed/stream tuples so that parallel Monte
Carlo is reproducible independently of scheduling.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FracrateError, InvalidInputError, RegularityError
from .frac_calc import _cell_moments
from .gridpath import GridPath

# Values per temporary array in a block: about five are live at once in
# path_norms (tracemalloc), so a pass stays near 640 KB whatever the path
# length; sample_increments draws the normals of this many per fGn pass.
_MAX_BLOCK_ELEMENTS = 2**14
# Negative eigenvalues of the fGn embedding down to this fraction of the
# largest are round-off (-1.2e-8 at H = 0.999, n = 2^18) and are clipped.
_EIGEN_ROUNDOFF = 1e-6


def rng_for(seed, *stream):
    """Philox generator for a (seed, stream...) tuple; spawn-key based."""
    if int(seed) < 0:
        raise InvalidInputError(f"need a seed >= 0, got {seed}")
    flat = []
    for s in stream:
        if isinstance(s, (tuple, list)):
            flat.extend(int(v) for v in s)
        else:
            flat.append(int(s))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(flat))
    return np.random.Generator(np.random.Philox(seq))


def _fgn_eigenvalues(n_inc, hurst):
    """Eigenvalues of the circulant embedding of the fGn autocovariance."""
    m = np.arange(n_inc + 1, dtype=float)
    rho = 0.5 * (np.abs(m + 1) ** (2 * hurst) - 2 * m ** (2 * hurst) + np.abs(m - 1) ** (2 * hurst))
    return np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real


@functools.lru_cache(maxsize=8)
def _fgn_scales(n_inc, hurst):
    """Square roots of the clipped embedding eigenvalues.  They depend on
    (n_inc, hurst) alone, so they are computed once per grid (the last
    eight grids are kept) and returned read-only, one array shared by every
    caller.

    Raises ``FracrateError`` when an eigenvalue of the embedding falls below
    ``-_EIGEN_ROUNDOFF`` of the largest, which round-off cannot explain.
    """
    lam = _fgn_eigenvalues(n_inc, hurst)
    if lam.min() < -_EIGEN_ROUNDOFF * lam.max():
        raise FracrateError(
            f"circulant embedding of fGn is indefinite (H={hurst}, n={n_inc}): "
            f"eigenvalue ratio {lam.min() / lam.max():.3g}"
        )
    scales = np.sqrt(np.clip(lam, 0.0, None))
    scales.flags.writeable = False
    return scales


def _fgn(z, hurst):
    """Unit-step fGn (..., n_inc) of unit normals z (..., 2 n_inc) drawn as
    z_0, z_n, a_1..a_{n-1}, b_1..b_{n-1}: the half spectrum z_0, a_j + i b_j,
    z_n of a symmetric embedding, so one real inverse FFT per row suffices.
    The half spectrum is written by slices and weighted by sqrt(2 n_inc) at
    its ends and sqrt(n_inc) inside, so no index or weight array is built
    per call.  Raises ``FracrateError`` when the embedding is indefinite."""
    n_inc = z.shape[-1] // 2
    half = np.empty(z.shape[:-1] + (n_inc + 1,), dtype=complex)
    half.real[..., 0], half.real[..., n_inc] = z[..., 0], z[..., 1]
    half.real[..., 1:n_inc] = z[..., 2 : n_inc + 1]
    half.imag[..., 0] = half.imag[..., n_inc] = 0.0
    half.imag[..., 1:n_inc] = z[..., n_inc + 1 :]
    scales = _fgn_scales(n_inc, hurst)
    weights = scales[: n_inc + 1] * math.sqrt(n_inc)
    weights[0], weights[n_inc] = scales[0] * math.sqrt(2 * n_inc), scales[n_inc] * math.sqrt(2 * n_inc)
    half *= weights
    return np.fft.irfft(half, n=2 * n_inc)[..., :n_inc]


def sample_increments(hurst, n, horizon, streams, k=1, ell=1, seed=0):
    """Noise increments [dB, dW] of a chunk of trials, one per key of
    ``streams``, on n points over [0, horizon]: fBm dB (fine step, trial, k)
    and Brownian dW (fine step, trial, ell).  Trial t draws from
    ``rng_for(seed, 0, streams[t])`` (2(n - 1) normals per fBm column) and
    ``rng_for(seed, 1, streams[t])``; k = 0 or ell = 0 skips one.  The fBm
    normals of a block of trials, at most ``_MAX_BLOCK_ELEMENTS`` values (one
    trial, if more), go through one fGn pass."""
    if not (0.0 < hurst < 1.0):
        raise InvalidInputError(f"Hurst index must lie in (0,1), got {hurst}")
    if n < 2 or horizon <= 0 or k < 0 or ell < 0:
        raise InvalidInputError(f"bad grid or dimensions: n={n}, horizon={horizon}, k={k}, ell={ell}")
    dt, size = horizon / (n - 1), len(streams)
    db = np.empty((n - 1, size, k))
    dw = np.empty((n - 1, size, ell))
    if k:
        rows = max(1, _MAX_BLOCK_ELEMENTS // (2 * (n - 1) * k))
        z = np.empty((min(rows, size), k, 2 * (n - 1)))
        for t0 in range(0, size, rows):
            block = z[: min(rows, size - t0)]
            for t, row in enumerate(block, t0):
                rng_for(seed, 0, streams[t]).standard_normal(out=row)
            db[:, t0 : t0 + len(block)] = _fgn(block, hurst).transpose(2, 0, 1)
    if ell:
        for t, stream in enumerate(streams):
            dw[:, t] = rng_for(seed, 1, stream).standard_normal((n - 1, ell))
    db *= dt**hurst
    dw *= np.sqrt(dt)
    return [db, dw]


def sample_fbm(hurst, n, horizon, dim=1, seed=0, stream=0):
    """One fBm path on n grid points over [0, horizon], started at 0: the
    sum of ``sample_increments``.

    Components are i.i.d. one-dimensional fBms.  Deterministic in
    (hurst, n, horizon, dim, seed, stream).
    """
    if dim < 1:
        raise InvalidInputError(f"need at least one fBm component, got dim={dim}")
    db = sample_increments(hurst, n, horizon, [stream], k=dim, ell=0, seed=seed)[0][:, 0]
    return GridPath(0.0, horizon / (n - 1), np.concatenate([np.zeros((1, dim)), np.cumsum(db, axis=0)]))


def path_norms(f: GridPath, alpha):
    """Hoelder seminorm and the two fractional sup-norms of a grid path.

    Returns a dict with the grid maxima of the alpha-Hoelder difference
    quotient, of |f| plus the running absolute difference ratio from 0, and
    of the quotient plus the backward ratio over all subintervals.  Vector
    paths are reduced with the Euclidean norm of increments.  A norm past
    the float range raises ``RegularityError``.

    The O(n^2) suprema are one pass over row blocks of the table
    d[i, l] = |f(t_i + l dt) - f(t_i)|, at most ``_MAX_BLOCK_ELEMENTS``
    values (one row, if longer) per temporary.  With d linear per cell,
    both ratios sum by parts to sums of wd = d * weight, weight[l] = C0[l]
    + (C1[l-1] - C1[l]) / dt: the backward one from t_i to t_i + L dt is
    wd[i, :L].sum() + d[i, L] C1[L-1] / dt, the absolute one at t_k sums
    wd[k - l, l] over l <= k, with C1[k-1] / dt for weight[k].
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0,1), got {alpha}")
    if f.dim == 0:
        raise InvalidInputError("path norms need a path with at least one column")
    if not np.all(np.isfinite(f.values)):
        raise InvalidInputError("path norms need a finite path")
    # a power of two, so scaling is exact and no squared increment overflows
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(f.values))))[1] - 1)
    vals, n, dt = f.values / scale, f.n, f.dt
    lagpow = (dt * np.arange(1, n)) ** alpha  # lags 1 .. n-1
    C0, C1 = _cell_moments(alpha, n, dt)
    weight = C0 + (np.concatenate(([0.0], C1[:-1])) - C1) / dt
    edge = 1.0 / lagpow + C1[:-1] / dt  # what d[i, L] adds to the backward ratio at lag L
    holder = wT = 0.0
    # |f(t_k)|; row 0's lag k weighs C1[k-1] / dt alone (the cell at t_k meets a vanishing value)
    w0_terms = np.linalg.norm(vals, axis=1) - np.linalg.norm(vals - vals[0], axis=1) * (C0 - C1 / dt)
    for i0, d in _lag_blocks(vals):
        rows, width = d.shape
        quot = d[:, 1:] / lagpow[: width - 1]
        holder = max(holder, float(np.fmax.reduce(quot, axis=None)))
        wd = d * weight[:width]
        for r in range(rows):
            w0_terms[i0 + r :] += wd[r, : width - r]
        np.cumsum(wd, axis=1, out=wd)
        np.multiply(d[:, 1:], edge[: width - 1], out=quot)
        quot += wd[:, :-1]
        wT = max(wT, float(np.fmax.reduce(quot, axis=None)))
    out = {"holder_seminorm": holder * scale, "w0_norm": float(np.max(w0_terms)) * scale, "wT_norm": wT * scale}
    if not all(math.isfinite(v) for v in out.values()):
        raise RegularityError(f"path norms overflow the float range: {out}")
    return out


def _lag_blocks(vals):
    """Row blocks of the table d[i, l] = |v[i + l] - v[i]| of a path (n, dim).

    Yields (i0, d) with d of shape (rows, n - i0) for anchors i0, i0 + 1, ...
    and lags 0 .. n-1-i0; lags past the last node read NaN.  The anchor
    n - 1, which has no lag, is left out.
    """
    n, dim = vals.shape
    cols = vals.T
    padded = np.concatenate([cols, np.full((dim, n - 1), np.nan)], axis=1)
    windows = sliding_window_view(padded, n, axis=1)  # windows[c, i, l] = padded[c, i + l]
    i0 = 0
    while i0 < n - 1:
        width = n - i0
        i1 = min(n - 1, i0 + max(1, _MAX_BLOCK_ELEMENTS // (width * dim)))
        d = windows[:, i0:i1, :width] - cols[:, i0:i1, None]
        d = np.abs(d[0], out=d[0]) if dim == 1 else np.linalg.norm(d, axis=0)
        yield i0, d
        i0 = i1

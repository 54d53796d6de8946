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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FracrateError, InvalidInputError
from .frac_calc import _cell_moments
from .gridpath import GridPath

# Values per temporary array in path_norms' blocks: about eight are live at
# once, so a block stays near 1 MB whatever the path length.
_MAX_BLOCK_ELEMENTS = 2**14
# Negative eigenvalues of the fGn embedding down to this fraction of the
# largest are round-off (-1.2e-8 at H = 0.999, n = 2^18) and are clipped.
_EIGEN_ROUNDOFF = 1e-6


def rng_for(seed, *stream):
    """Philox generator for a (seed, stream...) tuple; spawn-key based."""
    flat = []
    for s in stream:
        if isinstance(s, (tuple, list)):
            flat.extend(int(v) for v in s)
        else:
            flat.append(int(s))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(flat))
    return np.random.Generator(np.random.Philox(seq))


def _fgn_autocov(n_inc, hurst):
    m = np.arange(n_inc + 1, dtype=float)
    return 0.5 * (np.abs(m + 1) ** (2 * hurst) - 2 * m ** (2 * hurst) + np.abs(m - 1) ** (2 * hurst))


def _fgn_eigenvalues(n_inc, hurst):
    rho = _fgn_autocov(n_inc, hurst)
    circ = np.concatenate([rho[:-1], rho[-1:], rho[-2:0:-1]])
    lam = np.fft.fft(circ).real
    return lam


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


def sample_fgn_batch(hurst, n_inc, size, rng):
    """Unit-step fractional Gaussian noise, shape (size, n_inc), exact covariance.

    Raises ``FracrateError`` when the embedding is indefinite (``_fgn_scales``).
    """
    scales = _fgn_scales(n_inc, hurst)
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


def sample_fbm(hurst, n, horizon, dim=1, seed=0, stream=0):
    """One fBm path on n grid points over [0, horizon], started at 0.

    Components are i.i.d. one-dimensional fBms.  Deterministic in
    (hurst, n, horizon, dim, seed, stream).
    """
    if not (0.0 < hurst < 1.0):
        raise InvalidInputError(f"Hurst index must lie in (0,1), got {hurst}")
    if n < 2 or horizon <= 0:
        raise InvalidInputError(f"bad grid: n={n}, horizon={horizon}")
    if dim < 1:
        raise InvalidInputError(f"need at least one fBm component, got dim={dim}")
    dt = horizon / (n - 1)
    rng = rng_for(seed, 0, stream)
    cols = []
    for _ in range(dim):
        fgn = sample_fgn_batch(hurst, n - 1, 1, rng)[0] * dt**hurst
        cols.append(np.concatenate(([0.0], np.cumsum(fgn))))
    return GridPath(0.0, dt, np.column_stack(cols))


def sample_fbm_batch(hurst, n, horizon, size, seed=0, stream=0):
    """Batch of scalar fBm paths, shape (size, n); used by Monte Carlo layers."""
    dt = horizon / (n - 1)
    rng = rng_for(seed, 0, stream)
    fgn = sample_fgn_batch(hurst, n - 1, size, rng) * dt**hurst
    return np.concatenate([np.zeros((size, 1)), np.cumsum(fgn, axis=1)], axis=1)


@dataclass(frozen=True)
class NoiseBundle:
    """Independent fBm and Brownian driving paths on a shared grid."""

    bh: GridPath
    w: GridPath
    seed: int
    hurst: float

    def __post_init__(self):
        if not self.bh.same_grid(self.w):
            raise InvalidInputError("bh and w must share the grid")
        if np.max(np.abs(self.bh.values[0])) > 0 or (self.w.dim and np.max(np.abs(self.w.values[0])) > 0):
            raise InvalidInputError("noise paths must start at 0")


def sample_noise_bundle(hurst, n, horizon, k=1, ell=1, seed=0, stream=0):
    """fBm (k-dim) and Brownian (ell-dim) paths from disjoint RNG streams."""
    if ell < 0:
        raise InvalidInputError(f"bad Brownian dimension ell={ell}")
    bh = sample_fbm(hurst, n, horizon, dim=k, seed=seed, stream=stream)
    dt = bh.dt
    rng = rng_for(seed, 1, stream)
    if ell:
        dw = rng.standard_normal((n - 1, ell)) * np.sqrt(dt)
        wvals = np.concatenate([np.zeros((1, ell)), np.cumsum(dw, axis=0)], axis=0)
    else:
        wvals = np.zeros((n, 0))
    return NoiseBundle(bh=bh, w=GridPath(0.0, dt, wvals), seed=seed, hurst=hurst)


def path_norms(f: GridPath, alpha):
    """Hoelder seminorm and the two fractional sup-norms of a grid path.

    Returns a dict with the grid maxima of the alpha-Hoelder difference
    quotient, of |f| plus the running absolute difference ratio from 0, and
    of the quotient plus the backward ratio over all subintervals.  Vector
    paths are reduced with the Euclidean norm of increments.

    The suprema run over all pairs of nodes, so the cost is O(n^2).  It is
    spent in array operations on blocks of rows of the anchor-by-lag table
    |f(t_i + l dt) - f(t_i)|; each temporary of a block holds at most
    ``_MAX_BLOCK_ELEMENTS`` values (128 KB), which keeps peak memory flat.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0,1), got {alpha}")
    if f.dim == 0:
        raise InvalidInputError("path norms need a path with at least one column")
    vals = f.values
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("path norms need a finite path")
    n = f.n
    dt = f.dt
    lagpow = (dt * np.arange(n)) ** alpha
    C0, C1 = _cell_moments(alpha, n, dt)
    holder = wT = 0.0
    for _, d in _lag_blocks(vals):
        width = d.shape[1]
        quot = d[:, 1:] / lagpow[1:width]
        slopes = np.diff(d, axis=1) / dt
        dminus = np.cumsum(d[:, :-1] * C0[: width - 1] + slopes * C1[: width - 1], axis=1)
        holder = max(holder, float(np.fmax.reduce(quot, axis=None)))
        wT = max(wT, float(np.fmax.reduce(quot + dminus, axis=None)))

    # |Delta_alpha| f_{0,t_k} with the Euclidean norm of the increment to t_k
    # interpolated linearly between nodes and the kernel integrated exactly
    # per cell (the divergent moment of the cell touching t_k multiplies the
    # vanishing endpoint value and is dropped).  Row i of the reversed path
    # looks back from k = n-1-i; summed by parts, lag l < k carries the
    # weight C0[l] + (C1[l-1] - C1[l]) / dt (C1[-1] = 0) and lag k only
    # C1[k-1] / dt.  Lags past k are zero-filled, so the matrix-vector
    # product gives lag k the first weight; the difference is taken off
    # afterwards.
    lag_weights = C0 + (np.concatenate(([0.0], C1[:-1])) - C1) / dt
    abs_plus = np.zeros(n)
    for i0, d in _lag_blocks(vals[::-1]):
        np.nan_to_num(d, copy=False)
        abs_plus[n - i0 - len(d) : n - i0] = (d @ lag_weights[: d.shape[1]])[::-1]
    abs_plus -= np.linalg.norm(vals - vals[0], axis=1) * (C0 - C1 / dt)
    w0 = float(np.max(np.linalg.norm(vals, axis=1) + abs_plus))
    return {"holder_seminorm": float(holder), "w0_norm": w0, "wT_norm": wT}


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
        yield i0, np.linalg.norm(windows[:, i0:i1, :width] - cols[:, i0:i1, None], axis=0)
        i0 = i1

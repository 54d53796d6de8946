"""Uniform-grid path container used by every module.

A ``GridPath`` stores the values of a (vector-valued) path on the uniform
grid ``t0 + k*dt, k = 0..n-1``.  It is the discrete carrier for slow and
fast trajectories, noises, controls and rate-function inputs alike.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidInputError


def grid_step(dt):
    """dt as a float; raises ``InvalidInputError`` unless it is positive
    and finite.  The one rule for a grid spacing."""
    dt = float(dt)
    if not np.isfinite(dt) or dt <= 0.0:
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")
    return dt


class GridPath:
    """Values of a d-dimensional path on a uniform time grid.

    Parameters
    ----------
    t0 : float
        Time of the first sample.
    dt : float
        Grid spacing, strictly positive.
    values : array_like
        Shape ``(n,)`` or ``(n, d)``; scalar paths are stored as ``(n, 1)``.
    """

    __slots__ = ("t0", "dt", "values")

    def __init__(self, t0, dt, values):
        dt = grid_step(dt)
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise InvalidInputError(f"values must be 1- or 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise InvalidInputError("values must be non-empty")
        self.t0 = float(t0)
        self.dt = dt
        self.values = arr

    # -- basic geometry ----------------------------------------------------
    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def component(self, j) -> np.ndarray:
        return self.values[:, j]

    def scalar(self) -> np.ndarray:
        """Return the values as a flat array; requires dim == 1."""
        if self.dim != 1:
            raise InvalidInputError(f"expected a scalar path, got dim={self.dim}")
        return self.values[:, 0]

    def derivative(self) -> np.ndarray:
        """Time derivative by centered differences, one-sided at the ends.

        This is the single differentiation convention shared by all
        evaluators (``np.gradient``: second order in the interior and at
        the endpoints).
        """
        if self.n < 2:
            raise InvalidInputError("need at least two grid points to differentiate")
        if self.n == 2:
            return np.gradient(self.values, self.dt, axis=0)
        return np.gradient(self.values, self.dt, axis=0, edge_order=2)

    def with_values(self, values) -> "GridPath":
        return GridPath(self.t0, self.dt, values)

    def same_grid(self, other: "GridPath", rtol=1e-9) -> bool:
        return (
            self.n == other.n
            and abs(self.t0 - other.t0) <= rtol * max(1.0, abs(self.t0))
            and abs(self.dt - other.dt) <= rtol * self.dt
        )

    def __repr__(self):
        return f"GridPath(t0={self.t0}, dt={self.dt}, n={self.n}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, GridPath):
            return NotImplemented
        return (
            self.t0 == other.t0
            and self.dt == other.dt
            and self.values.shape == other.values.shape
            and bool(np.array_equal(self.values, other.values))
        )

    # -- CSV round trip ------------------------------------------------------
    def to_csv(self, path):
        """Write ``t,v0,...,v{d-1}`` rows to the file ``path`` (str, bytes
        or ``os.PathLike``); exact float round trip via repr."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t", *(f"v{j}" for j in range(self.dim))]) + "\n")
            cols = [_time_column(self.t0, self.dt, self.n), *(map(repr, col) for col in self.values.T.tolist())]
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")

    @classmethod
    def from_csv(cls, path) -> "GridPath":
        """Read the file ``path`` as ``to_csv`` writes it; an unreadable file is invalid input."""
        try:
            with open(path, "r", newline="") as fh:
                header = fh.readline().strip()
                rows = [line.strip() for line in fh if line.strip()]
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read path CSV {path}: {exc}") from None
        if not header.startswith("t"):
            raise InvalidInputError(f"unexpected CSV header: {header!r}")
        if len(rows) < 2:
            raise InvalidInputError("need at least two grid rows")
        width = len(header.split(","))
        cells = [row.split(",") for row in rows]
        if any(len(c) != width for c in cells):
            raise InvalidInputError(f"CSV rows must have {width} fields, like the header")
        try:
            data = np.array([[float(x) for x in c] for c in cells])
        except ValueError as exc:
            raise InvalidInputError(f"CSV path has a non-numeric cell: {exc}") from None
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("CSV path contains non-finite values")
        t = data[:, 0]
        dts = np.diff(t)
        dt = dts[0]
        if dt <= 0 or not np.allclose(dts, dt, rtol=1e-9, atol=1e-12):
            raise InvalidInputError("CSV grid is not uniform")
        return cls(t[0], dt, data[:, 1:] if data.shape[1] > 1 else np.zeros((len(t), 0)))


@functools.lru_cache(maxsize=1)
def _time_column(t0, dt, n):
    """The reprs of ``GridPath.times()`` on the grid (t0, dt, n), kept for
    the next path written on the same grid."""
    return tuple(map(repr, (t0 + dt * np.arange(n)).tolist()))


def trapezoid_weights(n, dt) -> np.ndarray:
    """Quadrature weights of the composite trapezoid rule on n grid points."""
    if n < 2:
        raise InvalidInputError("need at least two points for quadrature")
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def l2_norm(values, dt) -> float:
    """Trapezoid L2([0,T]) norm of grid values (n,) or (n, d)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    w = trapezoid_weights(arr.shape[0], dt)
    return float(np.sqrt(np.sum(w * np.sum(arr * arr, axis=1))))

"""Euler-Maruyama time stepping of the slow-fast system and its controlled
variant, plus empirical occupation-measure diagnostics.

The fast component advances on a refined grid (the noise grid); the slow
component is stepped alongside with left-point evaluation of all integrands,
which is the correct reading of both the pathwise integral against the
rough driver (valid for H > 1/2) and the Ito integral against Brownian
motion.  The singular drift of the slow motion keeps the same left-point
rule; no corrector scheme is applied here (correctors belong to the limit
analytics, not the simulator).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cameron_martin import HurstContext, apply_KH_dot
from .coefficients import is_zero, reads
from .errors import InvalidInputError
from .gridpath import GridPath, l2_norm


@dataclass
class SlowFastSpec:
    """Coefficients, dimensions, Hurst index and scales of the system.

    Coefficient callables follow the signatures b(y), c(x, y),
    sigma1(x, y), sigma2(x, y), f(y), g(x, y), tau(y) and must broadcast
    over numpy arrays.  The simulator calls them on a batch of trials,
    x of shape (B, m) and y of shape (B, dy); a result either carries the
    trial axis first or has none and is shared by all trials.  Per trial,
    scalar results are promoted to the declared dimensions (diagonal
    promotion for matrices) and a 1-D result of size d becomes the diagonal
    of a square d x d matrix.  The averaging layer (``poisson_cell``) calls
    c, sigma1, sigma2 and g on a block of path nodes, x of shape (n, 1),
    against the fast grid, y of shape (ny,), and reads one scalar per node
    and grid point; it handles m = dy = 1 only.

    What a coefficient reads and whether it is zero are declared facts
    (``coefficients.reads``, ``coefficients.is_zero``), never probed: a
    bare callable counts as reading x and y, which puts a bare sigma1 on
    the fast-dependent branch.  The simulator does not evaluate a
    coefficient declared zero and evaluates one that reads neither x nor y
    once per chunk of trials.
    """

    b: object
    c: object
    sigma1: object
    sigma2: object
    f: object
    g: object
    tau: object
    hurst: float
    eps: float
    eta: float
    x0: np.ndarray
    y0: np.ndarray
    m: int = 1
    dy: int = 1
    k: int = 1
    ell: int = 1
    beta: float | None = None

    def __post_init__(self):
        if self.eps <= 0 or self.eta <= 0:
            raise InvalidInputError(f"need eps, eta > 0, got {self.eps}, {self.eta}")
        if not (0.5 < self.hurst < 1.0):
            raise InvalidInputError(f"Hurst index must lie in (1/2,1), got {self.hurst}")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if self.x0.shape != (self.m,) or self.y0.shape != (self.dy,):
            raise InvalidInputError("initial conditions do not match declared dimensions")


@dataclass
class ControlPair:
    """Deterministic control pair (v1 = pre-image of the fBm shift, du2/dt).

    When a bound is declared the pair must satisfy the energy constraint
    ||v1||^2 + ||u2dot||^2 <= bound^2 in L2.
    """

    v1: GridPath | None = None
    u2dot: GridPath | None = None
    bound: float | None = None

    def __post_init__(self):
        if self.bound is not None:
            energy = 0.0
            if self.v1 is not None:
                energy += l2_norm(self.v1.values, self.v1.dt) ** 2
            if self.u2dot is not None:
                energy += l2_norm(self.u2dot.values, self.u2dot.dt) ** 2
            if energy > self.bound**2 * (1 + 1e-12):
                raise InvalidInputError(
                    f"control energy {energy:.6g} exceeds declared bound {self.bound**2:.6g}"
                )


@dataclass
class OccupationHistogram:
    """dt-weighted histogram over (control, control, fast-state) coordinates."""

    edges: list
    counts: np.ndarray
    total_time: float
    axis_names: list = field(default_factory=list)

    def marginal(self, axis):
        axes = tuple(i for i in range(self.counts.ndim) if i != axis)
        return self.counts.sum(axis=axes)

    @property
    def total_mass(self):
        return float(self.counts.sum())


def _as_vec(val, d):
    arr = np.asarray(val, dtype=float).reshape(-1)
    if arr.size == d:
        return arr
    if arr.size == 1:
        return np.full(d, arr[0])
    raise InvalidInputError(f"coefficient returned size {arr.size}, expected {d}")


def _as_mat(val, rows, cols):
    arr = np.asarray(val, dtype=float)
    if arr.shape == (rows, cols):
        return arr
    if arr.size == 1:
        out = np.zeros((rows, cols))
        np.fill_diagonal(out, float(arr.reshape(-1)[0]))
        return out
    if arr.ndim == 1 and rows == cols == arr.size:
        return np.diag(arr)
    raise InvalidInputError(f"coefficient returned shape {arr.shape}, expected ({rows},{cols})")


def default_substeps(dt_out, eta, factor=10.0, cap=4096):
    """Fast-grid refinement so dt_fast resolves the eta time scale."""
    sub = max(1, math.ceil(factor * dt_out / eta))
    if sub > cap:
        warnings.warn(
            f"substeps {sub} capped at {cap}; fast scale eta={eta} is under-resolved",
            RuntimeWarning,
        )
        sub = cap
    return sub


def schedule_checks(schedule, beta=None, fast_sigma1=False):
    """Scale-separation rules along an (eps, eta) schedule as (name, ok,
    detail) triples: sqrt(eta)/sqrt(eps) must strictly decrease
    ("scale_ratio") and, when sigma1 depends on the fast state, a regime
    exponent ``beta`` must be declared and sqrt(eps)/eta^beta must strictly
    decrease ("beta_ratio")."""
    rules = [("scale_ratio", "sqrt(eta)/sqrt(eps)", lambda eps, eta: math.sqrt(eta) / math.sqrt(eps))]
    if fast_sigma1 and beta is not None:
        rules.append(("beta_ratio", "sqrt(eps)/eta^beta", lambda eps, eta: math.sqrt(eps) / eta**beta))
    checks = []
    for name, label, ratio in rules:
        vals = [ratio(eps, eta) for eps, eta in schedule]
        ok = all(b < a for a, b in zip(vals, vals[1:]))
        detail = f"{label} along schedule: {['%.4g' % v for v in vals]}"
        checks.append((name, ok, detail if ok else f"{detail} must strictly decrease"))
    if fast_sigma1 and beta is None:
        checks.append(("beta_ratio", False, "fast-dependent sigma1 requires a declared beta"))
    return checks


# Visited fast states per call of the stability probe, which holds about
# six arrays of that many rows.
_PROBE_ROWS = 1 << 14
_TAKES_X = ("c", "sigma1", "sigma2", "g")
_SHAPES = {"b": ("m",), "c": ("m",), "f": ("dy",), "g": ("dy",),
           "sigma1": ("m", "k"), "sigma2": ("m", "ell"), "tau": ("dy", "ell")}


@dataclass
class BatchPaths:
    """Slow paths ``x`` (B, n_out, m) and fast paths ``y`` (B, n_out, dy) of
    a batch of trials, output step ``dt`` of ``substeps`` fine steps.
    ``first_bad_time`` is each trial's first output time with a non-finite
    state (its rows are NaN from there on), NaN if none."""

    x: np.ndarray
    y: np.ndarray
    dt: float
    first_bad_time: np.ndarray
    substeps: int = 1

    @property
    def diverged(self):
        return ~np.isnan(self.first_bad_time)

    def paths(self, trial):
        """The (slow, fast) ``GridPath`` pair of one trial."""
        return GridPath(0.0, self.dt, self.x[trial]), GridPath(0.0, self.dt, self.y[trial])


def _matvec(s, v):
    return (s @ v[..., None])[..., 0]


def _promoter(spec, role, rows, cols=None):
    """Evaluate one coefficient on a batch, ``(x, y) -> value``, at batch
    shape: (B, rows) for a vector, a (B, 1) factor for a 1 x 1 matrix,
    (B, rows, cols) otherwise.  Returns the evaluator and, for a matrix,
    its mat-vec (None for a vector).

    A coefficient declared zero has neither: its evaluator is None, and its
    terms are dropped from the step.  Any other is fixed once per run by
    probes at the initial state on batches of 1 and 2 trials: a result whose
    leading axis follows the batch is per trial, any other is shared by all
    trials.  Per trial, the rules of ``_as_vec`` and ``_as_mat`` apply.
    """
    fn = getattr(spec, role)
    if is_zero(fn):
        return None, None
    call = fn if role in _TAKES_X else lambda x, y: fn(y)  # noqa: E731
    raw = [call(*(np.repeat(v[None, :], size, axis=0) for v in (spec.x0, spec.y0))) for size in (1, 2)]
    one, two = (np.asarray(r, dtype=float) for r in raw)
    if one.shape == two.shape:
        lead, val = (), one
    elif one.shape[:1] == (1,) and two.shape == (2,) + one.shape[1:]:
        lead, val = (-1,), one[0]
    else:
        raise InvalidInputError(f"coefficient {role} returned shapes {one.shape} and {two.shape} for 1 and 2 trials")
    _as_vec(val, rows) if cols is None else _as_mat(val, rows, cols)  # raises on a bad shape
    shape = (rows, cols) if val.shape == (rows, cols) and rows * cols > 1 else (val.size,)
    shared_scalar = val.shape == lead == ()  # a 0-d value, the same for every trial
    if (val.shape == shape or shared_scalar) and all(isinstance(r, (np.ndarray, np.generic, float)) for r in raw):
        evaluate = call  # already broadcasts
    else:
        evaluate = lambda x, y: np.reshape(call(x, y), lead + shape)  # noqa: E731
    if cols is None:
        return evaluate, None
    if rows == cols == 1:
        return evaluate, np.multiply
    if len(shape) == 2:
        return evaluate, _matvec
    idx = np.arange(min(rows, cols))

    def to_diagonal(x, y):
        v = evaluate(x, y)
        out = np.zeros(v.shape[:-1] + (rows, cols))
        out[..., idx, idx] = v
        return out

    return to_diagonal, _matvec


def _fast_jacobian_norm(spec, eval_f, y):
    """Largest spectral norm of the fast-drift Jacobian over the rows of y."""

    def column(e):
        return np.broadcast_to(eval_f(None, y + e) - eval_f(None, y - e), y.shape) / 2e-4

    jac = np.stack([column(e) for e in 1e-4 * np.eye(spec.dy)], axis=-1)
    if not np.all(np.isfinite(jac)):
        return math.inf
    norms = np.abs(jac[:, 0, 0]) if spec.dy == 1 else np.linalg.norm(jac, 2, axis=(-2, -1))
    return float(np.max(norms))


def _interp_to_fine(path: GridPath, t_fine):
    cols = [np.interp(t_fine, path.times(), path.component(j)) for j in range(path.dim)]
    return np.column_stack(cols)


def _check_chunk(spec, noise, substeps, n_steps):
    """The number of fine steps of a chunk [dB, dW].  Raises
    ``InvalidInputError`` unless dB and dW share (fine step, trial),
    ``substeps`` divides the fine steps, which equal ``n_steps`` (None: any),
    and dB has k columns and dW ell, or 0 where no coefficient reads them."""
    db, dw = (np.shape(inc) for inc in noise)
    if len(db) != 3 or len(dw) != 3 or db[:2] != dw[:2]:
        raise InvalidInputError(f"noise increments of shapes {db} and {dw} differ in (fine step, trial)")
    if substeps < 1 or db[0] % substeps or n_steps not in (None, db[0]):
        raise InvalidInputError(f"chunk of {db[0]} fine steps: need a multiple of substeps={substeps}, the same in every chunk")
    b_unread, w_unread = is_zero(spec.sigma1), is_zero(spec.sigma2) and is_zero(spec.tau)
    if db[2] not in (spec.k, 0 if b_unread else spec.k) or dw[2] not in (spec.ell, 0 if w_unread else spec.ell):
        raise InvalidInputError(f"noise columns {db[2]}, {dw[2]} != k={spec.k}, ell={spec.ell}")
    return db[0]


def simulate_chunks(spec: SlowFastSpec, chunks, dt, substeps=1, ctrl: ControlPair | None = None):
    """Euler paths under the control pair ``ctrl`` (None: uncontrolled),
    one ``BatchPaths`` on every ``substeps``-th fine step per chunk of
    ``chunks``: a list [dB, dW] of increments (fine step, trial, k) and
    (fine step, trial, ell) over fine steps of length dt, as
    ``fbm_gen.sample_increments`` draws it, checked by ``_check_chunk``,
    then taken out of the list and scaled in place.  v1 shifts the fBm by
    its lifted derivative, u2dot the Brownian motion on both sides.  A
    trial's path depends neither on the other trials nor on the chunking;
    one that leaves the finite range is marked in ``first_bad_time``.
    Warns once over all chunks if the fast Euler step looks unstable."""
    promote = {role: _promoter(spec, role, *(getattr(spec, d) for d in dims)) for role, dims in _SHAPES.items()}
    controls, warned, n_steps = None, False, None
    for noise in chunks:
        n_steps = _check_chunk(spec, noise, substeps, n_steps)
        if controls is None:
            t_fine = dt * np.arange(n_steps + 1)
            controls = [None, None]
            if ctrl is not None and ctrl.v1 is not None:
                if ctrl.v1.dim != spec.k:
                    raise InvalidInputError(f"v1 dimension {ctrl.v1.dim} != k={spec.k}")
                ctx = HurstContext(spec.hurst, ctrl.v1.n, ctrl.v1.dt)
                controls[0] = _interp_to_fine(apply_KH_dot(ctrl.v1, ctx), t_fine)
            if ctrl is not None and ctrl.u2dot is not None:
                if ctrl.u2dot.dim != spec.ell:
                    raise InvalidInputError(f"u2dot dimension {ctrl.u2dot.dim} != ell={spec.ell}")
                controls[1] = _interp_to_fine(ctrl.u2dot, t_fine)
        (xs, ys, bad), warned = _euler_chunk(spec, noise, dt, substeps, promote, controls, warned)
        yield BatchPaths(x=xs, y=ys, dt=dt * substeps, first_bad_time=bad, substeps=substeps)


# The roles of each side in the order its step adds their terms:
# y + tau Ftau + f Ff + g Fg and x + sigma1 F1 + sigma2 F2 + b Fb + c Fc.
_SIDES = (("tau", "f", "g"), ("sigma1", "sigma2", "b", "c"))


def _forcing(spec, dt, noise, controls, role):
    """F of ``role``, what its coefficient multiplies at each fine step of
    a chunk with increments ``noise`` = [dB, dW] over steps of length dt:

        b: sqrt(eps/eta) dt   c: dt   f: dt/eta   g: dt/sqrt(eps eta)
        sigma1: sqrt(eps) dB + u1dot dt        sigma2: sqrt(eps) dW + u2dot dt
        tau: dW/sqrt(eta) + u2dot dt/sqrt(eps eta)

    A drift role's F is a scalar; a noise role's is a (fine step, trial,
    column) stack that the caller may overwrite.  The last role to read an
    increment stack takes it out of ``noise`` and scales it in place; tau,
    formed first (``_SIDES``), copies dW unless sigma2 is declared zero."""
    eps, eta = spec.eps, spec.eta
    drift = {"b": math.sqrt(eps / eta) * dt, "c": dt, "f": dt / eta, "g": dt / math.sqrt(eps * eta)}
    if role in drift:
        return drift[role]
    path, u, scale, u_scale = {
        "sigma1": (0, controls[0], math.sqrt(eps), dt),
        "sigma2": (1, controls[1], math.sqrt(eps), dt),
        "tau": (1, controls[1], 1.0 / math.sqrt(eta), dt / math.sqrt(eps * eta)),
    }[role]
    if role == "tau" and not is_zero(spec.sigma2):
        inc = noise[path] * scale
    else:
        inc, noise[path] = noise[path], None
        inc *= scale
    if u is not None:
        inc += u[:-1, None, :] * u_scale
    return inc


def _terms(spec, promote, roles, dt, noise, controls, x, y):
    """The terms of one side of the step for a chunk with increments
    ``noise`` whose trials start at (x, y), in ``roles`` order: ``(evaluate,
    mul, F, stacked)`` is the term mul(evaluate(x, y), F[i] if stacked else
    F) at fine step i.  A role declared zero has no term.  A coefficient
    that reads no state is evaluated here, once, and its term formed for all
    fine steps, in place on F where the shapes allow (``evaluate`` None, F
    the term); the terms before the first that reads the state are summed."""
    terms = []
    for role in roles:
        evaluate, mul = promote[role]
        if evaluate is None:
            continue
        mul, force, fn = mul or np.multiply, _forcing(spec, dt, noise, controls, role), getattr(spec, role)
        stacked = np.ndim(force) > 0
        if reads(fn, "x") or reads(fn, "y"):
            terms.append((evaluate, mul, force, stacked))
            continue
        value = evaluate(x, y)
        term = np.multiply(value, force, out=force) if stacked and mul is np.multiply else mul(value, force)
        if len(terms) == 1 and terms[0][0] is None:  # noise roles come first: a stacked prefix sums in place
            base, stacked = terms.pop()[2:]
            term = np.add(base, term, out=base) if stacked else base + term
        terms.append((None, None, term, stacked))
    return terms


def _advance(s, terms, i, x, y):
    """The state s after fine step i: s plus the sum of the terms, in order."""
    ds = None
    for evaluate, mul, force, stacked in terms:
        f = force[i] if stacked else force
        t = f if evaluate is None else mul(evaluate(x, y), f)
        ds = t if ds is None else ds + t
    return s if ds is None else s + ds


def _euler_chunk(spec, noise, dtf, substeps, promote, controls, warned):
    """Left-point Euler steps of one chunk with increments ``noise`` =
    [dB, dW] over fine steps of length dtf, trials on the leading axis.

    Warns, unless ``warned``, if the fast step looks unstable at any
    recorded output state of a live trial: probed after the loop, in blocks
    of output nodes, and skipped when f is declared zero or free of y,
    whose Jacobian is then zero."""
    n_steps, batch = noise[0].shape[:2]
    t_fine, n_out = dtf * np.arange(n_steps + 1), n_steps // substeps + 1
    x = np.repeat(spec.x0[None, :], batch, axis=0)
    y = np.repeat(spec.y0[None, :], batch, axis=0)
    # The fast side first: the stack freed by summing the slow noise terms
    # stays resident in the heap; freed last, it adds nothing to the peak.
    y_terms, x_terms = (_terms(spec, promote, roles, dtf, noise, controls, x, y) for roles in _SIDES)
    xs = np.full((batch, n_out, spec.m), np.nan)
    ys = np.full((batch, n_out, spec.dy), np.nan)
    bad = np.full(batch, np.nan)
    alive = np.ones(batch, dtype=bool)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_out):
            for i in range(max(j - 1, 0) * substeps, j * substeps):
                x, y = _advance(x, x_terms, i, x, y), _advance(y, y_terms, i, x, y)
            finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
            bad[alive & ~finite] = t_fine[j * substeps]
            alive &= finite
            xs[:, j] = np.where(alive[:, None], x, np.nan)
            ys[:, j] = np.where(alive[:, None], y, np.nan)
            if not alive.any():
                break
        eval_f = promote["f"][0]
        if not warned and eval_f is not None and reads(spec.f, "y"):
            gnorm, nodes = 0.0, max(1, _PROBE_ROWS // batch)
            for j in range(0, n_out, nodes):
                rows = ys[:, j : j + nodes].reshape(-1, spec.dy)
                rows = rows[np.isfinite(rows).all(axis=1)]
                gnorm = max(gnorm, _fast_jacobian_norm(spec, eval_f, rows) if len(rows) else 0.0)
                if spec.eta < 2.0 * dtf * gnorm:
                    break
            if gnorm > 0 and spec.eta < 2.0 * dtf * gnorm:
                warnings.warn(
                    f"fast Euler step may be unstable: eta={spec.eta:.3g} < 2*dt_fast*|grad f|"
                    f"={2 * dtf * gnorm:.3g}",
                    RuntimeWarning,
                )
                warned = True
    return (xs, ys, bad), warned


def empirical_occupation(y_path: GridPath, ctrl: ControlPair, bins=16):
    """dt-weighted histogram of (v1(s), u2dot(s), Y_s) over the horizon.

    Controls that are absent contribute a zero-valued coordinate (their
    marginal is a point mass at 0).  Total mass equals the horizon up to
    round-off.
    """
    n, dt = y_path.n, y_path.dt
    blocks, names = [], []
    for label, name, path in (("v1", "u1", ctrl.v1), ("u2dot", "u2", ctrl.u2dot), ("y", "y", y_path)):
        if path is not None and not path.same_grid(y_path):
            raise InvalidInputError(f"{label} grid does not match the fast path")
        blocks.append(np.zeros((n - 1, 1)) if path is None else path.values[: n - 1])
        names.extend(f"{name}_{j}" for j in range(blocks[-1].shape[1]))
    counts, edges = np.histogramdd(np.hstack(blocks), bins=bins, weights=np.full(n - 1, dt))
    return OccupationHistogram(edges=list(edges), counts=counts, total_time=(n - 1) * dt, axis_names=names)

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
from .coefficients import Coefficient, affine, is_zero, reads, y_derivative
from .errors import InvalidInputError
from .gridpath import GridPath, l2_norm


@dataclass
class SlowFastSpec:
    """Coefficients, Hurst index, initial states and scales of the system:
    one slow state x driven by one fBm, one fast state y driven by one
    Brownian motion.

    Coefficient callables follow the signatures b(y), c(x, y),
    sigma1(x, y), sigma2(x, y), f(y), g(x, y), tau(y) and must broadcast
    over numpy arrays.  The simulator calls them on a batch of trials, x and
    y of shape (B, 1); a result is (B, 1), or 0-d and shared by all trials
    (see ``_evaluator``).  The averaging layer (``poisson_cell``) calls c,
    sigma1, sigma2 and g on a block of path nodes, x of shape (n, 1),
    against the fast grid, y of shape (ny,), and reads one number per node
    and grid point.

    What a coefficient reads, whether it is zero and its affine form are
    declared facts (``coefficients.reads``, ``coefficients.is_zero``,
    ``coefficients.affine``), never probed: a bare callable counts as
    reading x and y and as not affine, which puts a bare sigma1 on the
    fast-dependent branch.  The simulator does not evaluate a coefficient
    declared zero, evaluates one that reads neither x nor y once per chunk
    of trials, and steps a system of affine drifts and state-free noise
    coefficients by superposition (``simulate_chunks``).
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
    x0: float
    y0: float
    beta: float | None = None

    def __post_init__(self):
        if self.eps <= 0 or self.eta <= 0:
            raise InvalidInputError(f"need eps, eta > 0, got {self.eps}, {self.eta}")
        if not (0.5 < self.hurst < 1.0):
            raise InvalidInputError(f"Hurst index must lie in (1/2,1), got {self.hurst}")
        if np.ndim(self.x0) or np.ndim(self.y0):
            raise InvalidInputError(f"x0 and y0 must be numbers, got {self.x0!r} and {self.y0!r}")
        self.x0, self.y0 = float(self.x0), float(self.y0)


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


@dataclass
class BatchPaths:
    """Slow paths ``x`` (B, n_out, 1) and fast paths ``y`` (B, n_out, 1) of
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


def _evaluator(spec, role):
    """Evaluate one coefficient on a batch of states x, y of shape (B, 1),
    ``(x, y) -> value``: (B, 1), or 0-d when shared by every trial.

    A coefficient declared zero has none (None): its terms are dropped from
    the step.  A ``Coefficient`` broadcasts over the batch and is called as
    it is.  A bare callable's result is read per call: 0-d is shared by
    every trial, any other result is reshaped to (B, 1).
    """
    fn = getattr(spec, role)
    if is_zero(fn):
        return None
    call = fn if role in _TAKES_X else lambda x, y: fn(y)  # noqa: E731
    if isinstance(fn, Coefficient):
        return call

    def evaluate(x, y):
        val = np.asarray(call(x, y), dtype=float)
        if val.ndim and val.size != len(y):
            raise InvalidInputError(f"coefficient {role} returned shape {val.shape} for {len(y)} trials")
        return val.reshape(-1, 1) if val.ndim else val

    return evaluate


def _fast_jacobian_norm(eval_f, y):
    """Largest |f'| over the rows of y (n, 1), by central differences."""
    return _abs_max(np.broadcast_to(eval_f(None, y + 1e-4) - eval_f(None, y - 1e-4), y.shape) / 2e-4)


def _abs_max(values):
    """max |values|, inf if any is not finite."""
    return float(np.max(np.abs(values))) if np.all(np.isfinite(values)) else math.inf


def _fast_slope(f, eval_f, ys, unstable):
    """The largest |f'| over the finite recorded fast states ys (B, n_out,
    1), or the first that makes ``unstable(|f'|)`` true: the |ay| of an
    affine f if any state is finite (each trial's first is y0), else f' in
    blocks of output nodes, from f's declared y-derivative or, for a
    callable that declares none, from ``_fast_jacobian_norm``."""
    form = affine(f)
    if form is not None:
        return abs(form[1]) if np.isfinite(ys[:, 0]).any() else 0.0
    dfdy = y_derivative(f)
    norm = (lambda rows: _abs_max(dfdy(rows))) if dfdy else lambda rows: _fast_jacobian_norm(eval_f, rows)
    gnorm, nodes = 0.0, max(1, _PROBE_ROWS // len(ys))
    for j in range(0, ys.shape[1], nodes):
        rows = ys[:, j : j + nodes].reshape(-1, 1)
        rows = rows[np.isfinite(rows[:, 0])]
        gnorm = max(gnorm, norm(rows) if len(rows) else 0.0)
        if unstable(gnorm):
            break
    return gnorm


def _interp_to_fine(path: GridPath, t_fine):
    return np.interp(t_fine, path.times(), path.scalar())[:, None]


def _check_chunk(spec, noise, substeps, n_steps):
    """The number of fine steps of a chunk [dB, dW].  Raises
    ``InvalidInputError`` unless dB and dW share (fine step, trial),
    ``substeps`` divides the fine steps, which equal ``n_steps`` (None: any),
    and dB and dW have 1 column each, or 0 where no coefficient reads them."""
    db, dw = (np.shape(inc) for inc in noise)
    if len(db) != 3 or len(dw) != 3 or db[:2] != dw[:2]:
        raise InvalidInputError(f"noise increments of shapes {db} and {dw} differ in (fine step, trial)")
    if substeps < 1 or db[0] % substeps or n_steps not in (None, db[0]):
        raise InvalidInputError(f"chunk of {db[0]} fine steps: need a multiple of substeps={substeps}, the same in every chunk")
    b_unread, w_unread = is_zero(spec.sigma1), is_zero(spec.sigma2) and is_zero(spec.tau)
    if db[2] not in (1, 0 if b_unread else 1) or dw[2] not in (1, 0 if w_unread else 1):
        raise InvalidInputError(f"noise columns {db[2]}, {dw[2]}: need 1 each, or 0 where no coefficient reads it")
    return db[0]


def simulate_chunks(spec: SlowFastSpec, chunks, dt, substeps=1, ctrl: ControlPair | None = None):
    """Euler paths under the control pair ``ctrl`` (None: uncontrolled),
    one ``BatchPaths`` on every ``substeps``-th fine step per chunk of
    ``chunks``: a list [dB, dW] of increments (fine step, trial, 1) over
    fine steps of length dt, as ``fbm_gen.sample_increments`` draws it,
    checked by ``_check_chunk``, then taken out of the list and scaled in
    place.  v1 shifts the fBm by its lifted derivative, u2dot the Brownian
    motion on both sides.  A trial's path depends neither on the other
    trials nor on the chunking; one that leaves the finite range is marked
    in ``first_bad_time``.  Warns once over all chunks if the fast Euler
    step looks unstable.

    A system that ``_affine_route`` accepts (noise roles free of the state,
    every drift role that reads the state declared affine) is stepped by
    block superposition (``_affine_paths``), which agrees with the Euler
    loop within 1e-12 of each path's sup norm in the tests; its trials with
    a non-finite recorded state, and every other system, go through the
    loop, whose paths are bit for bit a scalar Euler loop."""
    evaluators = {role: _evaluator(spec, role) for roles in _SIDES for role in roles}
    route = _affine_route(spec, dt)
    controls, warned, n_steps = None, False, None
    for noise in chunks:
        n_steps = _check_chunk(spec, noise, substeps, n_steps)
        if controls is None:
            t_fine = dt * np.arange(n_steps + 1)
            controls = [None, None]
            if ctrl is not None and ctrl.v1 is not None:
                ctx = HurstContext(spec.hurst, ctrl.v1.n, ctrl.v1.dt)
                controls[0] = _interp_to_fine(apply_KH_dot(ctrl.v1, ctx), t_fine)
            if ctrl is not None and ctrl.u2dot is not None:
                controls[1] = _interp_to_fine(ctrl.u2dot, t_fine)
        (xs, ys, bad), warned = _euler_chunk(spec, noise, dt, substeps, evaluators, controls, warned, route)
        yield BatchPaths(x=xs, y=ys, dt=dt * substeps, first_bad_time=bad, substeps=substeps)


# The roles of each side in the order its step adds their terms:
# y + tau Ftau + f Ff + g Fg and x + sigma1 F1 + sigma2 F2 + b Fb + c Fc.
_SIDES = (("tau", "f", "g"), ("sigma1", "sigma2", "b", "c"))
_NOISE_ROLES = ("tau", "sigma1", "sigma2")


def _forcing(spec, dt, noise, controls, role):
    """F of ``role``, what its coefficient multiplies at each fine step of
    a chunk with increments ``noise`` = [dB, dW] over steps of length dt:

        b: sqrt(eps/eta) dt   c: dt   f: dt/eta   g: dt/sqrt(eps eta)
        sigma1: sqrt(eps) dB + u1dot dt        sigma2: sqrt(eps) dW + u2dot dt
        tau: dW/sqrt(eta) + u2dot dt/sqrt(eps eta)

    A drift role's F is a scalar; a noise role's is a (fine step, trial, 1)
    stack that the caller may overwrite.  The last role to read an
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


def _terms(spec, evaluators, roles, dt, noise, controls, x, y):
    """The terms of one side of the step for a chunk with increments
    ``noise`` whose trials start at (x, y), in ``roles`` order: ``(evaluate,
    F, stacked)`` is the term evaluate(x, y) * (F[i] if stacked else F) at
    fine step i.  A role declared zero has no term.  A coefficient that
    reads no state is evaluated here, once, and its term formed for all
    fine steps, in place on F where it is a stack (``evaluate`` None, F the
    term); the terms before the first that reads the state are summed."""
    terms = []
    for role in roles:
        evaluate = evaluators[role]
        if evaluate is None:
            continue
        force, fn = _forcing(spec, dt, noise, controls, role), getattr(spec, role)
        stacked = np.ndim(force) > 0
        if reads(fn, "x") or reads(fn, "y"):
            terms.append((evaluate, force, stacked))
            continue
        value = evaluate(x, y)
        term = np.multiply(value, force, out=force) if stacked else np.multiply(value, force)
        if len(terms) == 1 and terms[0][0] is None:  # noise roles come first: a stacked prefix sums in place
            base, stacked = terms.pop()[1:]
            term = np.add(base, term, out=base) if stacked else base + term
        terms.append((None, term, stacked))
    return terms


def _advance(s, terms, i, x, y):
    """The state s after fine step i: s plus the sum of the terms, in order."""
    ds = None
    for evaluate, force, stacked in terms:
        f = force[i] if stacked else force
        t = f if evaluate is None else np.multiply(evaluate(x, y), f)
        ds = t if ds is None else ds + t
    return s if ds is None else s + ds


def _affine_route(spec, dt):
    """The Euler step z -> A z + a + b_i of z = (x, y) as (A, a), or None
    when the loop must step the system.  It needs noise roles (sigma1,
    sigma2, tau) that read no state and a declared affine form
    (``coefficients.affine``) for every drift role that reads the state.
    Each such role adds its slopes times its scalar forcing to its side's
    row of A, which starts as the identity, and its constant times the
    forcing to a; b_i are the state-free terms of fine step i (``_terms``)."""
    mat, const = np.eye(2), np.zeros(2)
    for row, roles in ((1, _SIDES[0]), (0, _SIDES[1])):
        for role in roles:
            fn = getattr(spec, role)
            form = affine(fn)
            if is_zero(fn) or not (reads(fn, "x") or reads(fn, "y")):
                continue
            if form is None or role in _NOISE_ROLES:
                return None
            force = _forcing(spec, dt, None, None, role)
            mat[row] += np.multiply(form[:2], force)
            const[row] += form[2] * force
    return mat, const


def _free_terms(terms, const):
    """The state-free addends of one side of an affine step: its (fine
    step, trial) stack, if it has one, then ``const`` plus the other
    state-free terms, a number or one per trial, if not zero."""
    stack, rest = [], const
    for evaluate, term, stacked in terms:
        if evaluate is not None:
            continue
        if stacked:
            stack.append(term[..., 0])
        else:
            term = np.asarray(term)
            rest = rest + (term[:, 0] if term.ndim == 2 else term.reshape(-1)[0])
    return stack + ([rest] if np.any(rest != 0.0) else [])


def _affine_step(mat, z, adds):
    """z <- mat z plus the terms of ``adds[r]`` on row r, in place on the
    pair of state arrays z = (x, y)."""
    (a, b), (c, d) = mat
    x, y = z
    cx = x * c if c else None
    if a != 1:
        x *= a
    if b:
        x += y * b
    if d != 1:
        y *= d
    if c:
        y += cx
    for row, terms in zip(z, adds):
        for term in terms:
            row += term


def _affine_paths(route, x_terms, y_terms, z0, n_steps, substeps, batch):
    """The paths x and y, each (batch, n_out, 1) as a view of (n_out, batch)
    storage, at every ``substeps``-th of ``n_steps`` fine steps of the
    affine step ``route`` from z0 = (x0, y0), b_i read off the terms
    (``_affine_route``).  The recurrence is solved as a linear one in
    blocks (Blelloch, "Prefix sums and their applications", 1990) of s,
    about sqrt(n_steps), fine steps:

    1. step every block from zero at once, s passes over (block, trial)
       rows, keeping the output nodes;
    2. carry the block starts Z_{k+1} = A^s Z_k + (block k's end), one pass
       per block;
    3. add A^t Z_k to the node kept t steps into block k.

    Every operation is elementwise per trial, so a trial's bits depend
    neither on the other trials nor on the chunking."""
    mat, const = route
    adds = [_free_terms(terms, c) for terms, c in zip((x_terms, y_terms), const)]
    root = max(1, round(math.sqrt(n_steps)))
    s = substeps * max(1, round(root / substeps)) if substeps <= root else root
    n_out, gcd = n_steps // substeps + 1, math.gcd(s, substeps)
    # Node j + period lies stride blocks after node j, as many steps in:
    # class j0 < period, its first node in block b0, t0 steps in.
    period, stride = s // gcd, substeps // gcd
    classes = [(j0, j0 * substeps // s, j0 * substeps % s) for j0 in range(min(period, n_out))]
    kept = {t0: (j0, b0) for j0, b0, t0 in classes if t0}
    out = [np.zeros((n_out, batch)) for _ in range(2)]  # node-major: each pass writes whole rows
    # row k + 1: block k stepped from zero; then, in place, Z_k in row k
    z = np.zeros((2, -(-n_steps // s) + 1, batch))
    for t in range(s):
        rows = -(-(n_steps - t) // s)
        _affine_step(mat, z[:, 1 : rows + 1], [[a[t::s] if np.ndim(a) == 2 else a for a in side] for side in adds])
        if t + 1 in kept:
            j0, b0 = kept[t + 1]
            for row in range(2):
                out[row][j0::period] = z[row, b0 + 1 :: stride][: len(range(j0, n_out, period))]
    powers = [np.eye(2)]
    for _ in range(s):
        powers.append((mat[:, :, None] * powers[-1]).sum(axis=1))  # A times the last, without BLAS
    powers = np.array(powers)
    z[:, 0] = np.reshape(z0, (2, 1))
    for k in range(n_steps // s):
        end = z[:, k + 1].copy()
        z[:, k + 1] = z[:, k]
        _affine_step(powers[s], z[:, k + 1], [[end[0]], [end[1]]])
    for j0, b0, t0 in classes:
        starts = z[:, b0::stride][:, : len(range(j0, n_out, period))]
        for row in range(2):
            for col in range(2):
                if powers[:, row, col].any():
                    out[row][j0::period] += powers[t0, row, col] * starts[col]
    return [o.T[:, :, None] for o in out]


def _trials(terms, idx):
    """The terms of the trials ``idx`` of a chunk."""
    return [
        (evaluate, f[:, idx] if stacked else f[idx] if evaluate is None and np.ndim(f) == 2 else f, stacked)
        for evaluate, f, stacked in terms
    ]


def _loop(x_terms, y_terms, x, y, n_out, substeps, t_fine):
    """The Euler loop, one fine step of all trials at a time, from (x, y):
    the states at every ``substeps``-th fine step, NaN from a trial's first
    non-finite one, and the time of that one (NaN if none)."""
    batch = len(x)
    xs, ys = np.full((batch, n_out, 1), np.nan), np.full((batch, n_out, 1), np.nan)
    bad = np.full(batch, np.nan)
    alive = np.ones(batch, dtype=bool)
    for j in range(n_out):
        for i in range(max(j - 1, 0) * substeps, j * substeps):
            x, y = _advance(x, x_terms, i, x, y), _advance(y, y_terms, i, x, y)
        finite = np.isfinite(x[:, 0]) & np.isfinite(y[:, 0])
        bad[alive & ~finite] = t_fine[j * substeps]
        alive &= finite
        xs[:, j] = np.where(alive[:, None], x, np.nan)
        ys[:, j] = np.where(alive[:, None], y, np.nan)
        if not alive.any():
            break
    return xs, ys, bad


def _euler_chunk(spec, noise, dtf, substeps, evaluators, controls, warned, route):
    """Left-point Euler steps of one chunk with increments ``noise`` =
    [dB, dW] over fine steps of length dtf, trials on the leading axis:
    by ``_affine_paths`` when ``route`` (``_affine_route``) is not None,
    its trials with a non-finite recorded state stepped again by
    ``_loop``, by ``_loop`` otherwise.

    Warns, unless ``warned``, if the fast step looks unstable at any
    recorded output state of a live trial: checked after stepping
    (``_fast_slope``), and skipped when f is declared zero or free of y,
    whose Jacobian is then zero."""
    n_steps, batch = noise[0].shape[:2]
    t_fine, n_out = dtf * np.arange(n_steps + 1), n_steps // substeps + 1
    x, y = np.full((batch, 1), spec.x0), np.full((batch, 1), spec.y0)
    # The fast side first: the stack freed by summing the slow noise terms
    # stays resident in the heap; freed last, it adds nothing to the peak.
    y_terms, x_terms = (_terms(spec, evaluators, roles, dtf, noise, controls, x, y) for roles in _SIDES)

    with np.errstate(over="ignore", invalid="ignore"):
        if route is None:
            xs, ys, bad = _loop(x_terms, y_terms, x, y, n_out, substeps, t_fine)
        else:
            xs, ys = _affine_paths(route, x_terms, y_terms, (spec.x0, spec.y0), n_steps, substeps, batch)
            redo = np.flatnonzero(~(np.isfinite(xs).all(axis=(1, 2)) & np.isfinite(ys).all(axis=(1, 2))))
            bad = np.full(batch, np.nan)
            if len(redo):
                terms = (_trials(t, redo) for t in (x_terms, y_terms))
                xs[redo], ys[redo], bad[redo] = _loop(*terms, x[redo], y[redo], n_out, substeps, t_fine)
        eval_f = evaluators["f"]
        if not warned and eval_f is not None and reads(spec.f, "y"):
            unstable = lambda gnorm: spec.eta < 2.0 * dtf * gnorm  # noqa: E731
            gnorm = _fast_slope(spec.f, eval_f, ys, unstable)
            if gnorm > 0 and unstable(gnorm):
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

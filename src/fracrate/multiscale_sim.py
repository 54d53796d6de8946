"""Euler-Maruyama time stepping of the slow-fast system and its controlled
variant.

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
from dataclasses import dataclass

import numpy as np

from .cameron_martin import HurstContext, apply_KH_dot
from .coefficients import Coefficient, affine, is_zero, reads, y_derivative
from .errors import InvalidInputError
from .gridpath import GridPath


@dataclass
class SlowFastSpec:
    """Coefficients, Hurst index, initial states and scales of the system:
    one slow state x driven by one fBm, one fast state y driven by one
    Brownian motion.

    Coefficient callables follow the signatures b(y), c(x, y),
    sigma1(x, y), sigma2(x, y), f(y), g(x, y), tau(y) and must broadcast
    over numpy arrays.  The simulator calls them on a batch of trials, x and
    y of shape (trials,); a result is (trials,), or 0-d and shared by all
    trials (see ``_evaluator``).  The averaging layer (``poisson_cell``)
    calls c, sigma1, sigma2 and g on a block of path nodes, x of shape
    (n, 1), against the fast grid, y of shape (ny,), and reads one number
    per node and grid point.

    What a coefficient reads, whether it is zero and its affine form are
    declared facts (``coefficients.reads``, ``coefficients.is_zero``,
    ``coefficients.affine``), never probed: a bare callable counts as
    reading x and y and as not affine, which puts a bare sigma1 on the
    fast-dependent branch.  The simulator does not evaluate a coefficient
    declared zero, evaluates one that reads neither x nor y once per chunk
    of trials, and steps a system whose fast side reads no x, and whose
    slow side reads x only through a c declared affine, as a skew product
    of two scalar recurrences; a g reading x sends it through the Euler
    loop (``simulate_chunks``).
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
    """Deterministic control pair (v1 = pre-image of the fBm shift, du2/dt)."""

    v1: GridPath | None = None
    u2dot: GridPath | None = None


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
    """Slow paths ``x`` (trials, n_out) and fast paths ``y`` (trials, n_out)
    of a batch of trials, output step ``dt`` of ``substeps`` fine steps.
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
    """Evaluate one coefficient on states x, y of shape (trials,), ``(x, y)
    -> value``: (trials,), or 0-d when shared by every trial.

    A coefficient declared zero has none (None): its terms are dropped from
    the step.  A ``Coefficient`` broadcasts over the batch and is called as
    it is; ``_terms`` checks the shape of its value when it reads no state.
    A bare callable's result is read per call: 0-d is shared by every
    trial, one value per trial is reshaped to (trials,), and any other size
    is invalid input.
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
            raise _shape_error(role, val.shape, len(y))
        return val.reshape(len(y)) if val.ndim else val

    return evaluate


def _shape_error(role, shape, trials):
    return InvalidInputError(f"coefficient {role} returned shape {shape} for {trials} trials")


def _fast_jacobian_norm(eval_f, y):
    """Largest |f'| over the fast states y (n,), by central differences."""
    return _abs_max(np.broadcast_to(eval_f(None, y + 1e-4) - eval_f(None, y - 1e-4), y.shape) / 2e-4)


def _abs_max(values):
    """max |values|, inf if any is not finite."""
    return float(np.max(np.abs(values))) if np.all(np.isfinite(values)) else math.inf


def _fast_slope(f, eval_f, ys, unstable):
    """The largest |f'| over the finite recorded fast states ys (trial,
    node), or the first that makes ``unstable(|f'|)`` true: the |ay| of an
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
        rows = ys[:, j : j + nodes].reshape(-1)
        rows = rows[np.isfinite(rows)]
        gnorm = max(gnorm, norm(rows) if len(rows) else 0.0)
        if unstable(gnorm):
            break
    return gnorm


def noise_columns(spec):
    """The columns (dB, dW) that the coefficients of ``spec`` read, 1 or 0:
    dB iff sigma1 is not declared zero, dW iff sigma2 or tau is not."""
    return int(not is_zero(spec.sigma1)), int(not (is_zero(spec.sigma2) and is_zero(spec.tau)))


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
    k, ell = noise_columns(spec)
    if db[2] not in (1, k) or dw[2] not in (1, ell):
        raise InvalidInputError(f"noise columns {db[2]}, {dw[2]}: need 1 each, or 0 where no coefficient reads it")
    return db[0]


def simulate_chunks(spec: SlowFastSpec, chunks, dt, substeps=1, ctrl: ControlPair | None = None):
    """Euler paths under the control pair ``ctrl`` (None: uncontrolled),
    one ``BatchPaths`` on every ``substeps``-th fine step per chunk of
    ``chunks``: a list [dB, dW] of increments (fine step, trial, column)
    over fine steps of length dt, as ``fbm_gen.sample_increments`` draws it,
    checked by ``_check_chunk``, then taken out of the list and scaled in
    place.  v1 shifts the fBm by its lifted derivative, u2dot the Brownian
    motion on both sides.  A trial's path depends neither on the other
    trials nor on the chunking; one that leaves the finite range is marked
    in ``first_bad_time``.  Warns once over all chunks if the fast Euler
    step looks unstable at a recorded state of a live trial (``_fast_slope``;
    never when f is declared zero or free of y, its Jacobian then zero).

    A system that ``_skew_route`` accepts is a skew product: y is solved
    alone and drives x, each by a scalar affine recurrence (``_euler_chunk``),
    which agrees with the Euler loop within 1e-12 of each path's sup norm
    in the tests.  Its trials with a non-finite recorded state, and every
    other system (a g or a noise role that reads x, a bare callable, an f
    or g not declared affine, a tau that reads the state), go through the
    loop, whose paths are bit for bit a scalar Euler loop."""
    evaluators = {role: _evaluator(spec, role) for roles in _SIDES for role in roles}
    skew = _skew_route(spec)
    controls, n_steps = None, None
    check = evaluators["f"] is not None and reads(spec.f, "y")  # until the warning is given
    unstable = lambda gnorm: spec.eta < 2.0 * dt * gnorm  # noqa: E731
    for noise in chunks:
        n_steps = _check_chunk(spec, noise, substeps, n_steps)
        if controls is None:
            ctrl = ctrl or ControlPair()
            u1dot = None if ctrl.v1 is None else apply_KH_dot(ctrl.v1, HurstContext(spec.hurst, ctrl.v1.n, ctrl.v1.dt))
            t_fine = dt * np.arange(n_steps + 1)
            controls = [None if u is None else np.interp(t_fine, u.times(), u.scalar()) for u in (u1dot, ctrl.u2dot)]
        xs, ys, bad = _euler_chunk(spec, noise, dt, substeps, evaluators, controls, skew)
        with np.errstate(over="ignore", invalid="ignore"):
            gnorm = _fast_slope(spec.f, evaluators["f"], ys, unstable) if check else 0.0
        if gnorm > 0 and unstable(gnorm):
            warnings.warn(
                f"fast Euler step may be unstable: eta={spec.eta:.3g} < 2*dt_fast*|grad f|={2 * dt * gnorm:.3g}",
                RuntimeWarning,
            )
            check = False
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

    A drift role's F is a scalar; a noise role's is the (fine step, trial)
    column view of its increments, which the caller may overwrite.  The
    last role to read an increment stack takes it out of ``noise`` and
    scales it in place; tau, formed first (``_SIDES``), copies dW unless
    sigma2 is declared zero.  A control is an (n_fine,) vector."""
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
        inc = noise[path][..., 0] * scale
    else:
        inc, noise[path] = noise[path][..., 0], None
        inc *= scale
    if u is not None:
        inc += u[:-1, None] * u_scale
    return inc


def _terms(spec, evaluators, roles, dt, noise, controls, x, y):
    """The terms of one side of the step for a chunk with increments
    ``noise`` whose trials start at (x, y), in ``roles`` order: ``(role,
    evaluate, F)`` is the term evaluate(x, y) * F[i] of ``role`` at fine
    step i, where F is a (fine step, trial) stack, else evaluate(x, y) * F.
    A role declared zero has no term.  A coefficient that reads no state is
    evaluated here, once, its value checked to be (trial,) or 0-d
    (``InvalidInputError`` otherwise), and its term formed for all fine
    steps, in place on F where it is a stack (``evaluate`` None, F the
    term, (trial,) or 0-d for a drift); the terms before the first that
    reads the state are summed.  The trial axis is last in every F; the
    steppers only read F."""
    terms = []
    for role in roles:
        evaluate = evaluators[role]
        if evaluate is None:
            continue
        force, fn = _forcing(spec, dt, noise, controls, role), getattr(spec, role)
        if reads(fn, "x") or reads(fn, "y"):
            terms.append((role, evaluate, force))
            continue
        value = evaluate(x, y)
        if np.ndim(value) and np.shape(value) != np.shape(y):
            raise _shape_error(role, np.shape(value), len(y))
        term = np.multiply(value, force, out=force) if np.ndim(force) else np.multiply(value, force)
        if len(terms) == 1 and terms[0][1] is None:  # noise roles come first: a stacked prefix sums in place
            base = terms.pop()[2]
            term = np.add(base, term, out=base) if np.ndim(base) == 2 else base + term
        terms.append((role, None, term))
    return terms


def _advance(s, terms, i, x, y):
    """The state s after fine step i: s plus the sum of the terms, in order."""
    ds = None
    for _, evaluate, force in terms:
        f = force[i] if np.ndim(force) == 2 else force
        t = f if evaluate is None else np.multiply(evaluate(x, y), f)
        ds = t if ds is None else ds + t
    return s if ds is None else s + ds


def _skew_route(spec):
    """Whether ``_euler_chunk`` may step ``spec`` as a skew product, y
    driving x: the fast side reads no x, tau reads no state, f and g are
    declared affine (``coefficients.affine``) where they read y, and the
    slow side reads x only through a c declared affine."""
    for role in _SIDES[0] + _SIDES[1]:
        fn = getattr(spec, role)
        if is_zero(fn):
            continue
        if reads(fn, "x") and not (role == "c" and affine(fn) is not None):
            return False
        if reads(fn, "y") and (role == "tau" or role in ("f", "g") and affine(fn) is None):
            return False
    return True


def _scan(a, v, s0, stride):
    """The states s_0, s_stride, s_2stride, ... of s_{q+1} = a s_q + v[q]
    from s0 (trial,) over the rows of v (fine step, trial), as (node,
    trial).  The recurrence is solved as a linear one in blocks
    (Blelloch, "Prefix sums and their applications", 1990) of s fine steps,
    about sqrt(len(v)) and a multiple of ``stride``, so that node k r + i
    lies i stride steps into block k (r = s / stride):

    1. step every block from zero at once, one pass over (block, trial)
       rows per step, each pass writing to the nodes it reaches;
    2. carry the block starts Z_{k+1} = a^s Z_k + (block k's end), one
       pass per block;
    3. add a^(i stride) Z_k to node k r + i, one pass per offset i.

    v is only read.  Every operation is elementwise per trial, so a
    trial's bits depend neither on the other trials nor on the chunking."""
    n = len(v)
    s = stride * max(1, round(math.sqrt(n) / stride))
    r = s // stride
    out = np.empty((n // stride + 1, *np.shape(s0)))
    state = np.zeros((-(-n // s), *np.shape(s0)))  # every block's state, t steps in
    for t in range(1, s + 1):
        rows = v[t - 1 :: s]
        block = state[: len(rows)]
        block *= a
        block += rows
        if t < s and t % stride == 0:
            out[t // stride :: r] = block
    z, power = np.empty((n // s + 1, *np.shape(s0))), np.power(a, s)  # inf, not OverflowError, past the range
    z[0] = s0
    for k in range(n // s):
        np.multiply(z[k], power, out=z[k + 1])
        z[k + 1] += state[k]
    out[::r] = z
    for i in range(1, r):
        nodes = out[i::r]
        nodes += np.power(a, i * stride) * z[: len(nodes)]
    return out


def _trials(terms, idx):
    """The terms of the trials ``idx`` of a chunk, the last axis of every F."""
    return [(role, evaluate, f[..., idx] if np.ndim(f) else f) for role, evaluate, f in terms]


def _loop(x_terms, y_terms, x, y, n_out, substeps, t_fine):
    """The Euler loop, one fine step of all trials at a time, from (x, y):
    the (trial, node) states at every ``substeps``-th fine step, NaN from a
    trial's first non-finite one, and the time of that one (NaN if none)."""
    batch = len(x)
    xs, ys = np.full((batch, n_out), np.nan), np.full((batch, n_out), np.nan)
    bad = np.full(batch, np.nan)
    alive = np.ones(batch, dtype=bool)
    for j in range(n_out):
        for i in range(max(j - 1, 0) * substeps, j * substeps):
            x, y = _advance(x, x_terms, i, x, y), _advance(y, y_terms, i, x, y)
        finite = np.isfinite(x) & np.isfinite(y)
        bad[alive & ~finite] = t_fine[j * substeps]
        alive &= finite
        xs[:, j] = np.where(alive, x, np.nan)
        ys[:, j] = np.where(alive, y, np.nan)
        if not alive.any():
            break
    return xs, ys, bad


def _affine_parts(spec, terms, left, shape):
    """One side's terms as (ax, ay, v): ax and ay sum the declared slopes
    (``coefficients.affine``) in x and y times F of its drift terms that
    read the state, and v, a stack of ``shape``, sums the rest.  On the
    slow side, ``left`` the left-point fast states, a noise term or a drift
    with no declared form is evaluated once on ``left``, and ay y is formed
    in place on ``left``.  v is a term's own stack, only read, when
    nothing is added to it, and the constant broadcast when there is none."""
    ax, ay, stacks, const = 0.0, 0.0, [], 0.0
    for role, evaluate, force in terms:
        form = None if evaluate is None or np.ndim(force) else affine(getattr(spec, role))
        if form is not None:
            ax, ay, const = ax + form[0] * force, ay + form[1] * force, const + form[2] * force
        elif evaluate is not None:
            stacks.append(evaluate(0.0, left) * force)
        elif np.ndim(force) == 2:
            stacks.append(force)
        else:
            const = const + force
    if left is not None and ay:
        stacks.append(np.multiply(left, ay, out=left))
    if not stacks:
        return ax, ay, np.broadcast_to(const, shape)
    v = sum(stacks[1:], stacks[0])
    return ax, ay, v + const if np.any(const != 0.0) else v


def _euler_chunk(spec, noise, dtf, substeps, evaluators, controls, skew):
    """Left-point Euler steps of one chunk with increments ``noise`` =
    [dB, dW] over fine steps of length dtf, one state per trial: as
    a skew product when ``skew`` (``_skew_route``), its trials with a
    non-finite recorded state stepped again by ``_loop``, by ``_loop``
    otherwise.  The skew product solves y_{i+1} = ay y_i + v_i by
    ``_scan``, at every fine step when a slow term reads y, else at the
    output nodes, then x_{i+1} = ax x_i + w_i at the output nodes, w_i the
    slow terms at (0, y_i) (``_affine_parts``)."""
    n_steps, batch = noise[0].shape[:2]
    t_fine, n_out = dtf * np.arange(n_steps + 1), n_steps // substeps + 1
    x, y = np.full(batch, spec.x0), np.full(batch, spec.y0)
    # The fast side first: the stack freed by summing the slow noise terms
    # stays resident in the heap; freed last, it adds nothing to the peak.
    y_terms, x_terms = (_terms(spec, evaluators, roles, dtf, noise, controls, x, y) for roles in _SIDES)
    with np.errstate(over="ignore", invalid="ignore"):
        if not skew:
            return _loop(x_terms, y_terms, x, y, n_out, substeps, t_fine)
        shape = (n_steps, batch)
        full = any(evaluate is not None and reads(getattr(spec, role), "y") for role, evaluate, _ in x_terms)
        _, ay, v = _affine_parts(spec, y_terms, None, shape)
        ys = _scan(1.0 + ay, v, y, 1 if full else substeps)
        left, ys = (ys[:-1], ys[::substeps].copy()) if full else (None, ys)
        ax, _, v = _affine_parts(spec, x_terms, left, shape)
        xs = _scan(1.0 + ax, v, x, substeps)
        redo = np.flatnonzero(~(np.isfinite(xs).all(axis=0) & np.isfinite(ys).all(axis=0)))
        xs, ys, bad = xs.swapaxes(0, 1), ys.swapaxes(0, 1), np.full(batch, np.nan)
        if len(redo):
            terms = (_trials(t, redo) for t in (x_terms, y_terms))
            xs[redo], ys[redo], bad[redo] = _loop(*terms, x[redo], y[redo], n_out, substeps, t_fine)
    return xs, ys, bad

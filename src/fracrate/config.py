"""Declarative experiment configuration: INI parsing and validation.

Schema (all sections except [model] and [experiment] optional)::

    [model]
    m = 1                  ; slow dimension
    dy = 1                 ; fast dimension
    k = 1                  ; rough-noise dimension
    ell = 1                ; Brownian-noise dimension
    hurst = 0.7
    x0 = 1.0
    y0 = 0.0
    beta = 0.4             ; regime exponent, required when sigma1 = sigma1(x,y)
    b = zero               ; coefficients: 'name key=value ...' (built-ins only)
    c = linear_xy ax=-1.0 ay=1.0
    sigma1 = zero
    sigma2 = zero
    f = ou rate=1.0
    g = zero
    tau = constant value=1.4142135623730951

    [grid]
    n = 201                ; output grid points
    horizon = 1.0
    substeps = 0           ; 0 = automatic from eta

    [schedule]
    eps = 0.1, 0.03, 0.01
    eta = auto             ; 'auto' = eps^1.5, or a comma list

    [experiment]
    kind = simulate        ; simulate | laplace | rare-event | rate | limit-study | poisson
    trials = 100
    seed = 1234
    threshold = 1.0        ; rare-event
    h_kind = terminal_sq   ; laplace functional family
    h_target = 1.0
    h_rho = 1.0
    h_cap = 50.0
    h_height = 10.0
    h_width = 0.05
    method = explicit      ; rate evaluator
    hurst_list = 0.6, 0.55, 0.52
    path_csv =             ; input path for rate / limit-study (optional)

    [poisson]
    L = 0                  ; 0 = automatic ( default_domain_sigmas std devs )
    n = 4097

    [tolerances]
    ; any key from fracrate.defaults.DEFAULTS

Values are parsed leniently; unknown keys raise.
"""
from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import coefficients
from .defaults import tolerances
from .errors import FracrateError, InvalidInputError
from .multiscale_sim import SlowFastSpec, schedule_checks

_MODEL_KEYS = {
    "m", "dy", "k", "ell", "hurst", "x0", "y0", "beta",
    "b", "c", "sigma1", "sigma2", "f", "g", "tau",
}
_GRID_KEYS = {"n", "horizon", "substeps"}
_SCHEDULE_KEYS = {"eps", "eta"}
_EXPERIMENT_KEYS = {
    "kind", "trials", "seed", "threshold", "h_kind", "h_target", "h_rho", "h_cap",
    "h_height", "h_width", "method", "hurst_list", "path_csv", "engine",
}
_POISSON_KEYS = {"l", "n"}
_KINDS = {"simulate", "laplace", "rare-event", "rate", "limit-study", "poisson", "none"}


@dataclass
class ExperimentConfig:
    """Parsed experiment description plus the raw text it came from."""

    model: dict
    grid: dict
    schedule: list
    experiment: dict
    poisson: dict
    tol: dict
    raw_text: str
    path: str = ""
    coeffs: dict = field(default_factory=dict)

    @property
    def kind(self):
        return self.experiment["kind"]

    @property
    def seed(self):
        return self.experiment["seed"]

    def digest(self):
        return hashlib.sha256(self.raw_text.encode()).hexdigest()

    def make_spec(self, eps, eta):
        md = self.model
        return SlowFastSpec(
            b=self.coeffs["b"],
            c=self.coeffs["c"],
            sigma1=self.coeffs["sigma1"],
            sigma2=self.coeffs["sigma2"],
            f=self.coeffs["f"],
            g=self.coeffs["g"],
            tau=self.coeffs["tau"],
            hurst=md["hurst"],
            eps=eps,
            eta=eta,
            x0=md["x0"],
            y0=md["y0"],
            m=md["m"],
            dy=md["dy"],
            k=md["k"],
            ell=md["ell"],
            beta=md.get("beta"),
        )


def _check_keys(section, keys, allowed, where):
    unknown = {k.lower() for k in keys} - allowed
    if unknown:
        raise InvalidInputError(f"unknown keys in [{where}]: {sorted(unknown)}")
    return section


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def load_config(path):
    """Parse an INI experiment config; schema errors raise immediately."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path) as fh:
        raw = fh.read()
    parser.read_string(raw)

    if "model" not in parser:
        raise InvalidInputError("config must contain a [model] section")
    msec = parser["model"]
    _check_keys(msec, msec.keys(), _MODEL_KEYS, "model")
    model = {
        "m": msec.getint("m", 1),
        "dy": msec.getint("dy", 1),
        "k": msec.getint("k", 1),
        "ell": msec.getint("ell", 1),
        "hurst": msec.getfloat("hurst", 0.7),
        "x0": _floats(msec.get("x0", "0.0")),
        "y0": _floats(msec.get("y0", "0.0")),
    }
    if msec.get("beta", "") != "":
        model["beta"] = msec.getfloat("beta")
    coeffs = {}
    for role, default in (
        ("b", "zero"),
        ("c", "zero"),
        ("sigma1", "zero"),
        ("sigma2", "zero"),
        ("f", "ou rate=1.0"),
        ("g", "zero"),
        ("tau", "constant value=1.0"),
    ):
        coeffs[role] = coefficients.parse_spec(role, msec.get(role, default))

    gsec = parser["grid"] if "grid" in parser else {}
    if gsec:
        _check_keys(gsec, gsec.keys(), _GRID_KEYS, "grid")
    grid = {
        "n": int(gsec.get("n", 201)),
        "horizon": float(gsec.get("horizon", 1.0)),
        "substeps": int(gsec.get("substeps", 0)),
    }

    ssec = parser["schedule"] if "schedule" in parser else {}
    if ssec:
        _check_keys(ssec, ssec.keys(), _SCHEDULE_KEYS, "schedule")
    eps_list = _floats(ssec.get("eps", "0.1, 0.05, 0.02, 0.01")) if ssec else [0.1, 0.05, 0.02, 0.01]
    eta_text = ssec.get("eta", "auto") if ssec else "auto"
    if eta_text.strip() == "auto":
        eta_list = [eps**1.5 for eps in eps_list]
    else:
        eta_list = _floats(eta_text)
        if len(eta_list) != len(eps_list):
            raise InvalidInputError("eta list length does not match eps list")
    schedule = list(zip(eps_list, eta_list))

    esec = parser["experiment"] if "experiment" in parser else {}
    if esec:
        _check_keys(esec, esec.keys(), _EXPERIMENT_KEYS, "experiment")
    kind = (esec.get("kind", "none") if esec else "none").strip()
    if kind not in _KINDS:
        raise InvalidInputError(f"unknown experiment kind {kind!r}; expected one of {sorted(_KINDS)}")
    experiment = {
        "kind": kind,
        "trials": int(esec.get("trials", 1000)) if esec else 1000,
        "seed": int(esec.get("seed", 0)) if esec else 0,
        "threshold": float(esec.get("threshold", 1.0)) if esec else 1.0,
        "h_kind": esec.get("h_kind", "terminal_sq") if esec else "terminal_sq",
        "h_target": float(esec.get("h_target", 1.0)) if esec else 1.0,
        "h_rho": float(esec.get("h_rho", 1.0)) if esec else 1.0,
        "h_cap": float(esec.get("h_cap", 50.0)) if esec else 50.0,
        "h_height": float(esec.get("h_height", 10.0)) if esec else 10.0,
        "h_width": float(esec.get("h_width", 0.05)) if esec else 0.05,
        "method": esec.get("method", "explicit") if esec else "explicit",
        "hurst_list": _floats(esec.get("hurst_list", "0.6, 0.55, 0.52")) if esec else [0.6, 0.55, 0.52],
        "path_csv": esec.get("path_csv", "") if esec else "",
        "engine": esec.get("engine", "auto") if esec else "auto",
    }

    psec = parser["poisson"] if "poisson" in parser else {}
    if psec:
        _check_keys(psec, psec.keys(), _POISSON_KEYS, "poisson")
    poisson = {
        "L": float(psec.get("l", 0.0)) if psec else 0.0,
        "n": int(psec.get("n", 4097)) if psec else 4097,
    }

    overrides = {}
    if "tolerances" in parser:
        for key, val in parser["tolerances"].items():
            overrides[key] = float(val)
    tol = tolerances(overrides)

    return ExperimentConfig(
        model=model,
        grid=grid,
        schedule=schedule,
        experiment=experiment,
        poisson=poisson,
        tol=tol,
        raw_text=raw,
        path=str(path),
        coeffs=coeffs,
    )


@dataclass
class CheckResult:
    name: str
    status: str  # pass | warn | fail
    detail: str

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


def validate(config: ExperimentConfig):
    """Numeric spot checks of the standing conditions; side-effect free.

    Returns a list of CheckResult; hard failures (centering violated, Hurst
    index outside the branch that matches the rough-diffusion dependence,
    a model the averaging layer rejects as invalid input) carry status
    'fail' and block execution.
    """
    from .poisson_cell import domain_halfwidth, invariant_density_1d

    checks = []
    tol = config.tol
    md = config.model
    spec = config.make_spec(*config.schedule[0])

    # invariant measure and centering
    try:
        L = config.poisson["L"] or domain_halfwidth(
            spec.f, spec.tau, sigmas=tol["default_domain_sigmas"]
        )
        mu = invariant_density_1d(
            spec.f, spec.tau, L, config.poisson["n"], tail_ratio=tol["tail_mass_ratio"]
        )
        bvals = np.asarray(spec.b(mu.grid), dtype=float)
        if bvals.ndim == 0 or bvals.shape[0] != mu.grid.size:
            bvals = np.broadcast_to(np.atleast_1d(bvals), (mu.grid.size,))
        b_mean = float(np.abs(np.trapezoid(bvals * mu.density, mu.grid)).max())
        status = "pass" if b_mean < tol["centering_tol"] else "fail"
        checks.append(CheckResult("centering", status, f"|int b dmu| = {b_mean:.3g}"))
    except FracrateError as exc:  # measure construction failures are hard failures
        mu = None
        checks.append(CheckResult("invariant_measure", "fail", str(exc)))

    # Hurst branch vs sigma1 dependence
    dep_y = spec.sigma1_depends_on_y()
    h = md["hurst"]
    if dep_y:
        if not (0.75 < h < 1.0):
            checks.append(
                CheckResult(
                    "hurst_branch", "fail",
                    f"sigma1 depends on the fast state: need H in (3/4,1), got {h}",
                )
            )
        elif spec.beta is None:
            checks.append(
                CheckResult("hurst_branch", "fail", "fast-dependent sigma1 requires beta")
            )
        elif not (2 * (1 - h) < spec.beta < 0.5):
            checks.append(
                CheckResult(
                    "hurst_branch", "fail",
                    f"beta={spec.beta} outside (2(1-H), 1/2) = ({2 * (1 - h):.3g}, 0.5)",
                )
            )
        else:
            checks.append(CheckResult("hurst_branch", "pass", f"fast-dependent branch, H={h}, beta={spec.beta}"))
    else:
        status = "pass" if 0.5 < h < 1.0 else "fail"
        checks.append(CheckResult("hurst_branch", status, f"state-only branch, H={h}"))

    # schedule monotonicity
    for name, ok, detail in schedule_checks(config.schedule, spec.beta if dep_y else None):
        checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    # tau non-degeneracy and effective Gram at x0
    if mu is not None:
        tau_vals = np.broadcast_to(np.asarray(spec.tau(mu.grid), dtype=float), mu.grid.shape)
        tmin = float(np.min(tau_vals**2))
        checks.append(
            CheckResult(
                "tau_nondegenerate", "pass" if tmin > 0 else "fail", f"min tau^2 = {tmin:.3g}"
            )
        )
        try:
            from .poisson_cell import effective_q, solve_poisson_1d

            psol = solve_poisson_1d(spec.b, spec.f, spec.tau, mu, centering_tol=tol["centering_tol"])
            eq = effective_q(spec, psol, mu, spec.x0, degeneracy_tol=tol["degeneracy_tol"])
            status = "pass" if not eq["degenerate"] else "warn"
            checks.append(
                CheckResult(
                    "qqt_min_eigenvalue", status, f"min eigenvalue at x0 = {eq['min_eigenvalue']:.3g}"
                )
            )
        except InvalidInputError as exc:  # e.g. dimensions the averaging layer cannot handle
            checks.append(CheckResult("qqt_min_eigenvalue", "fail", f"invalid input: {exc}"))
        except FracrateError as exc:
            checks.append(CheckResult("qqt_min_eigenvalue", "warn", str(exc)))

    return checks


def hard_failures(checks):
    return [c for c in checks if c.status == "fail"]

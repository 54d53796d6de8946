"""Declarative experiment configuration: INI parsing and validation.

A config is one INI file, and ``_SCHEMA`` below is its whole format: each
section, each key, the parser of its value and its default, named once.
Every section is optional except ``[model]``, whose keys are the fields of
``SlowFastSpec`` other than eps and eta:

* ``[model]`` - Hurst index, the initial slow and fast states (one number
  each), the regime exponent ``beta`` (required when sigma1 depends on the
  fast state) and the seven coefficients as ``name key=value ...`` of the
  built-ins in ``fracrate.coefficients``;
* ``[grid]`` - output grid and substeps per output step (0 = automatic);
* ``[schedule]`` - the eps list, and eta as ``auto`` (eps^1.5) or a list
  of the same length;
* ``[experiment]`` - the experiment ``kind`` (one of ``_KINDS``) and the
  settings of the experiments;
* ``[poisson]`` - cell-problem domain half-width ``L`` (0 = automatic,
  ``default_domain_sigmas`` standard deviations) and grid size;
* ``[tolerances]`` - the numerical tolerances of the cell problem, the
  effective Gram and the u2 feedback bins.

Lists are comma- or space-separated, and every number, alone or in a
list, must be finite.  A missing key takes its default; an unknown section
or key, a value its parser rejects and any INI syntax error raise
``InvalidInputError``.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from . import coefficients
from .errors import CenteringError, FracrateError, InvalidInputError
from .multiscale_sim import SlowFastSpec, schedule_checks
from .poisson_cell import domain_halfwidth, effective_q, invariant_density_1d, solve_poisson_1d


def _finite(parse):
    """``parse``, then ``ValueError`` for a NaN or infinite value."""

    def finite(text):
        value = parse(text)
        if not math.isfinite(value):
            raise ValueError(f"need a finite number, got {text!r}")
        return value

    return finite


_float = _finite(float)


def float_list(text):
    """The finite numbers of a comma- or space-separated list; ``ValueError``
    names the first token that is not one."""
    return [_float(tok) for tok in text.replace(",", " ").split()]


def _float_or_none(text):
    return _float(text) if text else None


def _auto_or_list(text):
    return text if text == "auto" else float_list(text)


def _at_least(parse, low, strict=False):
    """``parse``, then ``ValueError`` for NaN or a value below ``low`` (or at it, when ``strict``)."""

    def bounded(text):
        value = parse(text)
        if not (value > low if strict else value >= low):
            raise ValueError(f"need a value {'>' if strict else '>='} {low}, got {text!r}")
        return value

    return bounded


def _coefficient(role):
    return lambda text: coefficients.parse_spec(role, text)


# section -> key -> (parser, default text)
_SCHEMA = {
    "model": {
        "hurst": (_float, "0.7"),
        "x0": (_float, "0.0"),
        "y0": (_float, "0.0"),
        "beta": (_float_or_none, ""),
        "b": (_coefficient("b"), "zero"),
        "c": (_coefficient("c"), "zero"),
        "sigma1": (_coefficient("sigma1"), "zero"),
        "sigma2": (_coefficient("sigma2"), "zero"),
        "f": (_coefficient("f"), "ou rate=1.0"),
        "g": (_coefficient("g"), "zero"),
        "tau": (_coefficient("tau"), "constant value=1.0"),
    },
    "grid": {"n": (_at_least(int, 2), "201"), "horizon": (_at_least(_float, 0.0, strict=True), "1.0"),
             "substeps": (_at_least(int, 0), "0")},
    "schedule": {"eps": (float_list, "0.1, 0.05, 0.02, 0.01"), "eta": (_auto_or_list, "auto")},
    "experiment": {
        "kind": (str, "none"),
        "trials": (int, "1000"),
        "seed": (int, "0"),
        "threshold": (_float, "1.0"),  # rare-event level
        "h_kind": (str, "terminal_sq"),  # Laplace functional family and its parameters
        "h_target": (_float, "1.0"),
        "h_rho": (_float, "1.0"),
        "h_cap": (_float, "50.0"),
        "h_height": (_float, "10.0"),
        "h_width": (_at_least(_float, 0.0, strict=True), "0.05"),  # smooth_exceedance divides by it
        "method": (str, "explicit"),  # rate evaluator
        "hurst_list": (float_list, "0.6, 0.55, 0.52"),  # limit study
        "path_csv": (str, ""),  # input path of rate and limit-study; empty = built-in cubic
    },
    "poisson": {"l": (_float, "0"), "n": (int, "4097")},
    "tolerances": {
        "degeneracy_tol": (_float, "1e-8"),  # smallest acceptable eigenvalue of the effective Gram
        "centering_tol": (_float, "1e-4"),  # |int b dmu| allowed before hard failure
        "tail_mass_ratio": (_float, "1e-8"),  # density at +-L relative to its max
        "default_domain_sigmas": (_float, "8.0"),  # automatic half-width in std devs
        "u2_bins": (_at_least(int, 1), "64"),  # mu-quantile cells of the u2 feedback control
    },
}
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
    _cell: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def kind(self):
        return self.experiment["kind"]

    @property
    def seed(self):
        return self.experiment["seed"]

    def digest(self):
        return hashlib.sha256(self.raw_text.encode()).hexdigest()

    def make_spec(self, eps, eta):
        return SlowFastSpec(eps=eps, eta=eta, **self.model)

    def cell_problem(self):
        """Invariant measure and centered Poisson corrector of the fast
        dynamics, ``(mu, psol)``; they do not depend on (eps, eta), so the
        first result is kept for every later call (an error is not)."""
        if self._cell is None:
            b, f, tau = (self.model[role] for role in ("b", "f", "tau"))
            tol = self.tol
            L = self.poisson["l"] or domain_halfwidth(f, tau, sigmas=tol["default_domain_sigmas"])
            mu = invariant_density_1d(f, tau, L, self.poisson["n"], tail_ratio=tol["tail_mass_ratio"])
            self._cell = mu, solve_poisson_1d(b, f, tau, mu, centering_tol=tol["centering_tol"])
        return self._cell


def _read_sections(parser):
    """Every schema section as {key: parsed value}, defaults filled in."""
    unknown = set(parser.sections()) - set(_SCHEMA)
    if parser.defaults():
        unknown.add(parser.default_section)
    if unknown:
        raise InvalidInputError(f"unknown sections {sorted(unknown)}; expected {sorted(_SCHEMA)}")
    values = {}
    for name, keys in _SCHEMA.items():
        section = parser[name] if parser.has_section(name) else {}
        extra = set(section) - set(keys)
        if extra:
            raise InvalidInputError(f"unknown keys in [{name}]: {sorted(extra)}")
        values[name] = {}
        for key, (parse, default) in keys.items():
            try:
                values[name][key] = parse(section.get(key, default))
            except ValueError as exc:
                raise InvalidInputError(f"[{name}] {key}: {exc}") from exc
    return values


def load_config(path):
    """Parse an INI experiment config against ``_SCHEMA``.

    Raises ``InvalidInputError`` for an unreadable file and for every
    malformed config: INI syntax and interpolation errors, unknown sections
    or keys, values their parser rejects, an unknown experiment kind or an
    eta list that does not match the eps list.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(raw)
        if not parser.has_section("model"):
            raise InvalidInputError("config must contain a [model] section")
        values = _read_sections(parser)
        eps_list, eta = values["schedule"]["eps"], values["schedule"]["eta"]
        eta_list = [eps**1.5 for eps in eps_list] if eta == "auto" else eta
    except InvalidInputError:
        raise
    except (OSError, ValueError, OverflowError, configparser.Error) as exc:
        raise InvalidInputError(f"bad config {path}: {exc}") from exc
    if len(eta_list) != len(eps_list):
        raise InvalidInputError("eta list length does not match eps list")
    kind = values["experiment"]["kind"]
    if kind not in _KINDS:
        raise InvalidInputError(f"unknown experiment kind {kind!r}; expected one of {sorted(_KINDS)}")

    return ExperimentConfig(
        model=values["model"],
        grid=values["grid"],
        schedule=list(zip(eps_list, eta_list)),
        experiment=values["experiment"],
        poisson=values["poisson"],
        tol=values["tolerances"],
        raw_text=raw,
        path=str(path),
    )


@dataclass
class CheckResult:
    name: str
    status: str  # pass | warn | fail
    detail: str

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


def validate(config: ExperimentConfig):
    """Numeric spot checks of the standing conditions; keeps the cell problem on ``config``.

    Returns a list of CheckResult; hard failures (centering violated, Hurst
    index outside the branch that matches the rough-diffusion dependence,
    a schedule rule broken, a model the averaging layer rejects as invalid
    input) carry status 'fail' and block execution.
    """
    checks = []
    tol = config.tol
    spec = config.make_spec(*config.schedule[0])

    # invariant measure, corrector and centering
    try:
        mu, psol = config.cell_problem()
        checks.append(CheckResult("centering", "pass", f"|int b dmu| <= {tol['centering_tol']:.3g}"))
    except CenteringError as exc:
        mu = None
        checks.append(CheckResult("centering", "fail", f"|int b dmu| = {abs(exc.b_mean).max():.3g}"))
    except FracrateError as exc:  # measure construction failures are hard failures
        mu = None
        checks.append(CheckResult("invariant_measure", "fail", str(exc)))

    # Hurst branch vs sigma1 dependence; make_spec has checked H in (1/2, 1)
    dep_y = coefficients.reads(spec.sigma1, "y")
    h, beta = spec.hurst, spec.beta
    if not dep_y:
        checks.append(CheckResult("hurst_branch", "pass", f"state-only branch, H={h}"))
    elif not (0.75 < h < 1.0):
        checks.append(
            CheckResult("hurst_branch", "fail", f"sigma1 depends on the fast state: need H in (3/4,1), got {h}")
        )
    elif beta is not None and not (2 * (1 - h) < beta < 0.5):
        checks.append(
            CheckResult("hurst_branch", "fail", f"beta={beta} outside (2(1-H), 1/2) = ({2 * (1 - h):.3g}, 0.5)")
        )
    else:
        checks.append(CheckResult("hurst_branch", "pass", f"fast-dependent branch, H={h}, beta={beta}"))

    for name, ok, detail in schedule_checks(config.schedule, beta, dep_y):
        checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    # effective Gram at x0; tau^2 > 0 on the grid holds once mu exists
    if mu is not None:
        try:
            eq = effective_q(spec, psol, mu, spec.x0, degeneracy_tol=tol["degeneracy_tol"])
            status = "pass" if not eq["degenerate"] else "warn"
            checks.append(
                CheckResult(
                    "qqt_min_eigenvalue", status, f"min eigenvalue at x0 = {eq['min_eigenvalue']:.3g}"
                )
            )
        except InvalidInputError as exc:  # e.g. a coefficient the averaging layer cannot read
            checks.append(CheckResult("qqt_min_eigenvalue", "fail", f"invalid input: {exc}"))
        except FracrateError as exc:
            checks.append(CheckResult("qqt_min_eigenvalue", "warn", str(exc)))

    return checks


def hard_failures(checks):
    return [c for c in checks if c.status == "fail"]

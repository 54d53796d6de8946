"""Built-in coefficient library addressable from config files.

``build`` returns a callable with the signature its role expects:
drift-of-fast f(y), fast-coupling g(x, y), slow drifts b(y) and c(x, y),
diffusions sigma1(x, y), sigma2(x, y), tau(y).  Callables accept and return
numpy arrays (scalars broadcast) so simulators can batch-evaluate them.
A result that reads neither x nor y carries no axis: ``zero`` and
``constant`` return 0-d arrays, which the simulator shares across trials
and the averaging layer across path nodes and grid points.
``_BUILDERS`` declares each built-in's roles, parameters and the arguments
it reads; ``zero`` is declared zero, and ``zero``, ``constant``,
``linear_y``, ``ou`` and ``linear_xy`` declare their affine form
(slope in x, slope in y, constant), which lets the simulator step a
system of such coefficients by superposition.  ``build`` rejects any other
role or parameter name.  Config files can only reference these names;
library users may pass any callable directly to ``SlowFastSpec``, where it
counts as reading x and y, not zero and not affine, or a ``Coefficient``
with declared facts.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidInputError


class Coefficient:
    """Named coefficient with parameters and declared facts: ``reads``, the
    arguments ("x", "y") its value depends on, ``zero``, true when it is
    zero everywhere, so that callers may drop its terms unevaluated, and
    ``affine``, (ax, ay, const) when its value is ax x + ay y + const
    (None: not declared affine)."""

    def __init__(self, name, fn, params, reads="xy", zero=False, affine=None):
        self.name = name
        self.fn = fn
        self.params = dict(params)
        self.reads = frozenset(reads)
        self.zero = zero
        self.affine = affine

    def __call__(self, *args):
        return self.fn(*args)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({ps})"


def reads(coef, arg):
    """Whether ``coef`` reads argument "x" or "y"; undeclared callables read both."""
    return arg in getattr(coef, "reads", "xy")


def is_zero(coef):
    """Whether ``coef`` is declared zero; undeclared callables are not."""
    return getattr(coef, "zero", False)


def affine(coef):
    """The declared affine form (ax, ay, const) of ``coef``; None for
    undeclared callables and coefficients that declare none."""
    return getattr(coef, "affine", None)


_Y_ROLES = ("b", "f", "tau")
_ROLES = _Y_ROLES + ("c", "g", "sigma1", "sigma2")


def _ou(params):
    rate = params["rate"]
    if rate <= 0:
        raise InvalidInputError("ou relaxation rate must be positive")
    return lambda x, y: -rate * np.asarray(y, dtype=float)


# name -> (builder of a callable f(x, y), roles it serves, parameters with
# defaults, the arguments it reads, each with the parameter that must be
# non-zero for it to be read (None: always read), and the builder of its
# affine form (ax, ay, const), None if it is not affine)
_BUILDERS = {
    "zero": (lambda p: lambda x, y: np.zeros(()), _ROLES, {}, {}, lambda p: (0.0, 0.0, 0.0)),
    "constant": (lambda p: lambda x, y: np.full((), p["value"]), _ROLES, {"value": 1.0}, {},
                 lambda p: (0.0, 0.0, p["value"])),
    "linear_y": (lambda p: lambda x, y: p["rate"] * np.asarray(y, dtype=float), _ROLES, {"rate": 1.0}, {"y": None},
                 lambda p: (0.0, p["rate"], 0.0)),
    "ou": (_ou, _Y_ROLES, {"rate": 1.0}, {"y": None}, lambda p: (0.0, -p["rate"], 0.0)),
    "linear_xy": (
        lambda p: lambda x, y: p["ax"] * np.asarray(x, dtype=float) + p["ay"] * np.asarray(y, dtype=float) + p["const"],
        ("c", "g", "sigma1", "sigma2"), {"ax": 0.0, "ay": 0.0, "const": 0.0}, {"x": "ax", "y": "ay"},
        lambda p: (p["ax"], p["ay"], p["const"]),
    ),
    "cos_y": (lambda p: lambda x, y: p["scale"] * np.cos(np.asarray(y, dtype=float)), _ROLES, {"scale": 1.0},
              {"y": None}, None),
    "cubic_y": (lambda p: lambda x, y: -p["rate"] * np.asarray(y, dtype=float) ** 3, _Y_ROLES, {"rate": 1.0},
                {"y": None}, None),
}


def build(role, name, **params):
    """Instantiate a built-in coefficient for the given role.

    Raises ``InvalidInputError`` for an unknown name, a role the built-in
    cannot serve, a parameter it does not declare and a non-finite value.
    """
    if name not in _BUILDERS:
        raise InvalidInputError(f"unknown coefficient {name!r}; known: {sorted(_BUILDERS)}")
    builder, roles, defaults, gates, form = _BUILDERS[name]
    if role not in roles:
        raise InvalidInputError(f"coefficient {name!r} cannot serve as {role}; it serves {', '.join(roles)}")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidInputError(
            f"coefficient {name!r} takes no parameter {', '.join(unknown)}; it takes: {', '.join(defaults) or 'none'}"
        )
    values = {key: float(params.get(key, default)) for key, default in defaults.items()}
    bad = sorted(key for key, value in values.items() if not np.isfinite(value))
    if bad:
        raise InvalidInputError(f"coefficient {name!r}: parameter {', '.join(bad)} must be finite")
    fn = builder(values)
    if role in _Y_ROLES:
        fn = functools.partial(fn, None)
    read = [arg for arg, gate in gates.items() if gate is None or values[gate] != 0.0]
    return Coefficient(name, fn, params, read, zero=name == "zero", affine=form and form(values))


def parse_spec(role, text):
    """Parse 'name key=value key=value' into a Coefficient."""
    parts = text.split()
    if not parts:
        raise InvalidInputError(f"empty coefficient spec for {role}")
    name = parts[0]
    params = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise InvalidInputError(f"bad coefficient parameter {tok!r} (expected key=value)")
        key, val = tok.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError:
            raise InvalidInputError(f"bad coefficient parameter {tok!r} (value is not a number)") from None
    return build(role, name, **params)

"""Built-in coefficient library addressable from config files.

Each builder returns a callable with the signature its role expects:
drift-of-fast f(y), fast-coupling g(x, y), slow drifts b(y) and c(x, y),
diffusions sigma1(x, y), sigma2(x, y), tau(y).  Callables accept and return
numpy arrays (scalars broadcast) so simulators can batch-evaluate them.
In the roles that take x, a result that does not depend on x carries no
x axis: ``zero`` and ``constant`` return 0-d arrays there, which the
simulator shares across trials and the averaging layer across path nodes,
so neither evaluates them once per trial or node.
``_BUILDERS`` declares each built-in's roles and parameters, and ``build``
rejects any other role or parameter name.  Config files can only
reference these names; library users may pass any callable directly to
``SlowFastSpec``.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


class Coefficient:
    """Named coefficient with parameters and dependence metadata."""

    def __init__(self, name, fn, params, depends_on_y):
        self.name = name
        self.fn = fn
        self.params = dict(params)
        self.depends_on_y = depends_on_y

    def __call__(self, *args):
        return self.fn(*args)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({ps})"


_Y_ROLES = ("b", "f", "tau")
_ROLES = _Y_ROLES + ("c", "g", "sigma1", "sigma2")


def _zero(role, params):
    if role in _Y_ROLES:
        return lambda y: np.zeros(np.shape(y))
    return lambda x, y: np.zeros(())


def _constant(role, params):
    value = params["value"]
    if role in _Y_ROLES:
        return lambda y: np.full_like(np.asarray(y, dtype=float), value)
    return lambda x, y: np.full((), value)


def _linear_y(role, params):
    rate = params["rate"]
    if role in _Y_ROLES:
        return lambda y: rate * np.asarray(y, dtype=float)
    return lambda x, y: rate * np.asarray(y, dtype=float)


def _ou(role, params):
    rate = params["rate"]
    if rate <= 0:
        raise InvalidInputError("ou relaxation rate must be positive")
    return lambda y: -rate * np.asarray(y, dtype=float)


def _linear_xy(role, params):
    ax, ay, const = params["ax"], params["ay"], params["const"]
    return lambda x, y: ax * np.asarray(x, dtype=float) + ay * np.asarray(y, dtype=float) + const


def _cos_y(role, params):
    scale = params["scale"]
    if role in _Y_ROLES:
        return lambda y: scale * np.cos(np.asarray(y, dtype=float))
    return lambda x, y: scale * np.cos(np.asarray(y, dtype=float))


def _cubic_y(role, params):
    rate = params["rate"]
    return lambda y: -rate * np.asarray(y, dtype=float) ** 3


# name -> (builder, roles it serves, parameters with defaults, depends on y;
# None: iff ay != 0)
_BUILDERS = {
    "zero": (_zero, _ROLES, {}, False),
    "constant": (_constant, _ROLES, {"value": 1.0}, False),
    "linear_y": (_linear_y, _ROLES, {"rate": 1.0}, True),
    "ou": (_ou, _Y_ROLES, {"rate": 1.0}, True),
    "linear_xy": (_linear_xy, ("c", "g", "sigma1", "sigma2"), {"ax": 0.0, "ay": 0.0, "const": 0.0}, None),
    "cos_y": (_cos_y, _ROLES, {"scale": 1.0}, True),
    "cubic_y": (_cubic_y, _Y_ROLES, {"rate": 1.0}, True),
}


def build(role, name, **params):
    """Instantiate a built-in coefficient for the given role.

    Raises ``InvalidInputError`` for an unknown name, a role the built-in
    cannot serve, a parameter it does not declare and a non-finite value.
    """
    if name not in _BUILDERS:
        raise InvalidInputError(f"unknown coefficient {name!r}; known: {sorted(_BUILDERS)}")
    builder, roles, defaults, dep_y = _BUILDERS[name]
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
    if dep_y is None:
        dep_y = values["ay"] != 0.0
    return Coefficient(name, builder(role, values), params, dep_y)


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

"""Built-in coefficient library addressable from config files.

Each builder returns a callable with the signature its role expects:
drift-of-fast f(y), fast-coupling g(x, y), slow drifts b(y) and c(x, y),
diffusions sigma1(x, y), sigma2(x, y), tau(y).  Callables accept and return
numpy arrays (scalars broadcast) so simulators can batch-evaluate them.
Config files can only reference these names; library users may pass any
callable directly to ``SlowFastSpec``.
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


def _zero(role, params):
    if role in ("b", "f", "tau"):
        return lambda y: np.zeros(np.shape(y))
    return lambda x, y: np.zeros(np.shape(x))


def _constant(role, params):
    value = float(params.get("value", 1.0))
    if role in ("b", "f", "tau"):
        return lambda y: np.full_like(np.asarray(y, dtype=float), value)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


def _linear_y(role, params):
    rate = float(params.get("rate", 1.0))
    if role in ("b", "f", "tau"):
        return lambda y: rate * np.asarray(y, dtype=float)
    return lambda x, y: rate * np.asarray(y, dtype=float)


def _ou(role, params):
    rate = float(params.get("rate", 1.0))
    if rate <= 0:
        raise InvalidInputError("ou relaxation rate must be positive")
    return lambda y: -rate * np.asarray(y, dtype=float)


def _linear_xy(role, params):
    ax = float(params.get("ax", 0.0))
    ay = float(params.get("ay", 0.0))
    const = float(params.get("const", 0.0))
    return lambda x, y: ax * np.asarray(x, dtype=float) + ay * np.asarray(y, dtype=float) + const


def _cos_y(role, params):
    scale = float(params.get("scale", 1.0))
    if role in ("b", "f", "tau"):
        return lambda y: scale * np.cos(np.asarray(y, dtype=float))
    return lambda x, y: scale * np.cos(np.asarray(y, dtype=float))


def _cubic_y(role, params):
    rate = float(params.get("rate", 1.0))
    return lambda y: -rate * np.asarray(y, dtype=float) ** 3


_BUILDERS = {
    "zero": (_zero, False),
    "constant": (_constant, False),
    "linear_y": (_linear_y, True),
    "ou": (_ou, True),
    "linear_xy": (_linear_xy, None),  # depends on y iff ay != 0
    "cos_y": (_cos_y, True),
    "cubic_y": (_cubic_y, True),
}


def build(role, name, **params):
    """Instantiate a built-in coefficient for the given role."""
    if name not in _BUILDERS:
        raise InvalidInputError(f"unknown coefficient {name!r}; known: {sorted(_BUILDERS)}")
    builder, dep_y = _BUILDERS[name]
    fn = builder(role, params)
    if dep_y is None:
        dep_y = float(params.get("ay", 0.0)) != 0.0
    if role in ("b", "f", "tau"):
        dep_y = name not in ("zero", "constant")
    return Coefficient(name, fn, params, dep_y)


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
        params[key] = float(val)
    return build(role, name, **params)

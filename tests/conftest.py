"""Shared fixtures: expensive averaged-coefficient objects built once."""
import math

import numpy as np
import pytest

from fracrate import coefficients as cf
from fracrate.multiscale_sim import SlowFastSpec
from fracrate.poisson_cell import invariant_density_1d, solve_poisson_1d
from fracrate.rate_fn import build_limit_drift

SQRT2 = math.sqrt(2.0)


def ou_spec(eps=0.01, eta=0.001, hurst=0.7, sigma1=("zero", {}), c=("zero", {}),
            b=("zero", {}), sigma2=("zero", {}), g=("zero", {}), x0=0.0, y0=0.0, beta=None):
    return SlowFastSpec(
        b=cf.build("b", b[0], **b[1]),
        c=cf.build("c", c[0], **c[1]),
        sigma1=cf.build("sigma1", sigma1[0], **sigma1[1]),
        sigma2=cf.build("sigma2", sigma2[0], **sigma2[1]),
        f=cf.build("f", "ou", rate=1.0),
        g=cf.build("g", g[0], **g[1]),
        tau=cf.build("tau", "constant", value=SQRT2),
        hurst=hurst,
        eps=eps,
        eta=eta,
        x0=x0,
        y0=y0,
        beta=beta,
    )


@pytest.fixture(scope="session")
def ou_measure():
    spec = ou_spec()
    return invariant_density_1d(spec.f, spec.tau, 8.0, 4097)


def cos_spec():
    """The cos-diffusion system (b = sigma2 = 0)."""
    return ou_spec(sigma1=("cos_y", {}), hurst=0.8, beta=0.45)


def const_spec():
    """The constant-diffusion linear system."""
    return ou_spec(sigma1=("constant", {"value": 1.0}), c=("linear_xy", {"ax": -1.0}))


def limit_drift(spec, mu):
    psol = solve_poisson_1d(spec.b, spec.f, spec.tau, mu)
    return build_limit_drift(spec, psol, mu)


@pytest.fixture(scope="session")
def cos_drift(ou_measure):
    """Averaged coefficients of the cos-diffusion system."""
    return limit_drift(cos_spec(), ou_measure)


@pytest.fixture(scope="session")
def const_drift(ou_measure):
    """Averaged coefficients of the constant-diffusion linear system."""
    return limit_drift(const_spec(), ou_measure)


def grid_t(n, horizon=1.0):
    dt = horizon / (n - 1)
    return dt, dt * np.arange(n)

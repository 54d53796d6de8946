"""The benchmark's layer tracer against the package it hooks.

``perfbench/layertrace.py`` reaches into the package by name: every public
function of each layer module, the ``HurstContext`` table methods, the
``GridPath`` CSV round trip and the callables of a built ``LimitDrift``,
which it counts as ``rate_fn.drift_calls``.  A change that renames or
drops one of them, or that stops a traced call from reaching its span,
breaks the benchmark, so it fails here too.
"""
import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import fracrate.cli  # noqa: F401  (with the package, imports every layer module)
from fracrate import rate_fn
from fracrate.cameron_martin import HurstContext
from fracrate.gridpath import GridPath
from fracrate.poisson_cell import solve_poisson_1d

from conftest import cos_spec

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every package namespace the tracer may patch, with its bindings."""
    owners = [m for n, m in sys.modules.items() if n == "fracrate" or n.startswith("fracrate.")]
    return {id(owner): (owner, dict(vars(owner))) for owner in [*owners, HurstContext, GridPath]}


def test_tracer_hooks_every_name_and_restores_it(tmp_path, ou_measure):
    layertrace = load_layertrace()
    before = namespaces()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        patched = {
            (owner.__name__, attr)
            for key, (owner, bindings) in namespaces().items()
            for attr, value in bindings.items()
            if before[key][1].get(attr) is not value
        }
        assert {("HurstContext", m) for m in layertrace.TABLES} <= patched
        assert {("GridPath", "to_csv"), ("GridPath", "from_csv")} <= patched
        assert ("fracrate.fbm_gen", "sample_increments") in patched
        ctx = HurstContext(0.7, 9, 1.0 / 8)
        ctx.kdot_matrix()
        ctx.kdot_matrix()
        path = GridPath(0.0, 0.5, np.zeros((3, 1)))
        path.to_csv(str(tmp_path / "p.csv"))
        GridPath.from_csv(str(tmp_path / "p.csv"))
        spec = cos_spec()
        drift = rate_fn.build_limit_drift(spec, solve_poisson_1d(spec.b, spec.f, spec.tau, ou_measure), ou_measure)
        xs = np.linspace(-1.0, 1.0, 5)
        for name in layertrace.DRIFT_FIELDS:
            assert inspect.unwrap(getattr(drift, name)) is not getattr(drift, name), name
            # one traced call on a path of slow states (n,)
            assert getattr(drift, name)(xs).shape[0] == xs.size, name
        assert set(layertrace.DRIFT_FIELDS) <= {f.name for f in dataclasses.fields(rate_fn.LimitDrift)}
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in layertrace.DRIFT_FIELDS:
        assert names.count(f"rate_fn.LimitDrift.{name}") == 1, name
    assert tracer.layer_metrics(0.0)["rate_fn.drift_calls"] == len(layertrace.DRIFT_FIELDS)
    assert names.count("cameron_martin.HurstContext.kdot_matrix.cold") == 1
    assert names.count("cameron_martin.HurstContext.kdot_matrix") == 1
    assert "gridpath.GridPath.to_csv" in names and "gridpath.GridPath.from_csv" in names
    assert tracer.counts["cameron_martin.table_builds"] == 1
    after = namespaces()
    assert after.keys() == before.keys()
    for key, (owner, bindings) in before.items():
        now = after[key][1]
        assert now.keys() == bindings.keys(), owner
        assert all(now[attr] is value for attr, value in bindings.items()), owner

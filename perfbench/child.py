"""One benchmark repetition in a fresh interpreter.

Usage: ``child.py PLAN.json OUT_DIR RESULT.json [--trace]``, or
``child.py --facts RESULT.json``.  ``run.py`` sets ``PYTHONPATH`` to the
checkout's ``src`` and pins BLAS to one thread.  The child times the
set-up (``import fracrate.cli`` plus ``load_config`` and ``validate`` of the
workload's config), then the workload's calls, takes ``getrusage`` right
after them, and only then runs the correctness checks.  Right before and
right after the workload's calls it times ``reference``, which ``run.py``
uses to calibrate the times for the host's speed.
"""
import json
import sys
import time


def measure(plan_path, out, result_path, traced):
    with open(plan_path) as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import fracrate.cli  # noqa: F401
    from fracrate.config import load_config, validate

    if plan["config"]:
        validate(load_config(plan["config"]))
    setup_s = time.perf_counter() - t0

    import resource

    from layertrace import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[plan["workload"]]
    c0 = time.process_time()
    ref_before = reference()
    ref_cpu_s = time.process_time() - c0
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    t1 = time.perf_counter()
    codes, state = workload.run(plan, out)
    wall_s = time.perf_counter() - t1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ref_s": 0.5 * (ref_before + reference()),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime - ref_cpu_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": codes,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall_s)
        result["spans"] = tracer.spans
    try:
        outcome = workload.check(plan, out, state)
    except Exception as exc:  # a missing or malformed output is a failed check
        outcome = {"checks": [("outputs_readable", False, repr(exc))], "trials": 0, "aborted": 0, "health": {}}
    outcome["checks"] = [(name, bool(ok), detail) for name, ok, detail in outcome["checks"]]
    result.update(outcome)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def reference():
    """Seconds a fixed mix of work takes here and now: half interpreter and
    small-array numpy work, half memory-bound numpy work, the two halves
    equally long at the nominal speed.  In the host's slow phases the first
    kind slows about 1.55x and the second about 1.1x; the workloads mix both."""
    import math

    import numpy as np

    t0 = time.perf_counter()
    x, acc = np.zeros(16), 0.0
    for i in range(6000):
        x = x + 0.01 * np.sin(x) + 1e-3
        acc += float(x[i % 16])
    table = {}
    for i in range(100000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0.0) + math.sqrt(i) * 0.5
    a = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(200):
        a = np.sqrt(np.cumsum(a) * 1e-6 + 1.0)
    return time.perf_counter() - t0


def facts(result_path):
    """Library versions and the BLAS thread count as the child sees it."""
    import ctypes
    import platform

    import numpy
    import scipy

    import fracrate.cli  # noqa: F401  (also warms the file cache)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    payload = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fracrate_path": fracrate.cli.__file__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }
    with open(result_path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    if sys.argv[1] == "--facts":
        facts(sys.argv[2])
    else:
        measure(sys.argv[1], sys.argv[2], sys.argv[3], "--trace" in sys.argv[4:])

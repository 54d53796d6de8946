"""fracrate benchmark runner.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one report

Run it from anywhere inside a checkout; it measures ``src/fracrate`` of the
checkout it lives in.  The load is a closed loop with one client: each
repetition runs in a fresh child interpreter (every CLI user pays the
import and the cold kernel tables on every run), one after another, for
about ``--seconds``, with at least three repetitions.  BLAS is pinned
to one thread.  With ``--trace 0`` the last line of standard output is the
JSON result with the end-to-end metrics; with ``--trace 1`` untraced and
traced repetitions alternate and the result carries the per-layer metrics
of the traced ones plus the tracing overhead.  Lines before it are a human
report: medians with quartiles and sample counts, ``fail_frac``, the
numerical-health counters, and the machine facts.  End-to-end times are
calibrated for the host's speed (see ``REF_NOMINAL_S``).  The exit code is
0 when every operation and correctness check passed, 1 otherwise, and 2
when the checkout holds no ``src/fracrate``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 1
MIN_CYCLES = 3
CHILD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The host's CPU speed changes by up to 1.7x, in phases from a second to
# minutes long, so raw times of the same code spread by more than any useful
# bound across runs.  Each child therefore also times a fixed reference
# (child.reference) right before and right after the workload's calls, and
# every end-to-end time of a run is its measured median times REF_NOMINAL_S
# over the run's median reference time: seconds at the reference speed,
# which is about the speed of a 2-vCPU Xeon VM (Sapphire Rapids, Python
# 3.11) in its fast phase.
REF_NOMINAL_S = 0.14
# Deterministic numerical-health values the CLI writes, reported as exact
# counters next to the timings (0 where the workload has no such output).
HEALTH = (
    "rate_fn.gram_condition", "rate_fn.gram_lambda_min",
    "cli.substeps.eps0", "cli.substeps.eps1", "cli.substeps.eps2",
    "cli.aborted.eps0", "cli.aborted.eps1", "cli.aborted.eps2", "cli.aborted.eps3",
)


def _child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FRACRATE_OUT")}
    env.update(BLAS_ENV)
    env.update({"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"})
    return env


def _child(args, env, cwd):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stderr


def machine_facts(root, env, work):
    """Library facts from a child (which also warms the file cache) plus CPU facts."""
    path = work / "facts.json"
    code, err = _child(["--facts", path], env, work)
    if code != 0:
        raise RuntimeError(f"cannot import fracrate from {root / 'src'}:\n{err}")
    facts = json.loads(path.read_text())
    if not Path(facts["fracrate_path"]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported fracrate from {facts['fracrate_path']}, not from {root / 'src'}")
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["l3"] = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                facts["l3"] = (index / "size").read_text().strip()
        except OSError:
            pass
    facts["blas_pinning"] = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return facts


def metric_units(root, key):
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in json.loads((root / "BENCHMARK.json").read_text())[key]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def bench(root, name, seed, seconds, trace, size="full", min_cycles=MIN_CYCLES):
    """Run one workload; return its metrics, counts and report lines."""
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        env = _child_env(root)
        facts = machine_facts(root, env, work)
        plan = WORKLOADS[name].make_inputs(root, seed, size, inputs)
        plan["workload"] = name
        plan_path = inputs / "plan.json"
        plan_path.write_text(json.dumps(plan))

        modes = (False, True) if trace else (False,)
        reps, crashes, last_spans = [], [], None
        start = time.perf_counter()
        deadline = start + seconds
        cycles = 0
        while True:
            for traced in modes:
                out = work / f"rep{len(reps) + len(crashes)}"
                out.mkdir()
                result = work / "result.json"
                code, err = _child([plan_path, out, result] + (["--trace"] if traced else []), env, work)
                if code != 0 or not result.exists():
                    crashes.append(err.strip().splitlines()[-1] if err.strip() else f"exit code {code}")
                    break
                rep = json.loads(result.read_text())
                rep["traced"] = traced
                rep["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                last_spans = rep.pop("spans", last_spans)
                reps.append(rep)
                result.unlink()
                shutil.rmtree(out)
            cycles += 1
            now = time.perf_counter()
            per_cycle = (now - start) / cycles
            # start another cycle when it would end no more than half a
            # cycle late, so that a run lasts ``seconds`` on average
            if crashes or (cycles >= min_cycles and now + per_cycle / 2 > deadline):
                break
        if last_spans is not None:
            (root / ".perfbench_work" / f"spans_{name}.json").write_text(json.dumps(last_spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, reps, crashes, facts, metric_units(root, "end_to_end"))


def summarize(name, seed, reps, crashes, facts, units):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = len(crashes)
    failed = len(crashes)
    failures = list(crashes)
    for r in reps:
        attempted += len(r["exit_codes"]) + r["trials"] + len(r["checks"])
        failed += sum(c != 0 for c in r["exit_codes"]) + r["aborted"]
        failed += sum(not ok for _, ok, _ in r["checks"])
        failures += [f"exit code {c}" for c in r["exit_codes"] if c != 0]
        failures += [f"check {n}: {d}" for n, ok, d in r["checks"] if not ok]

    lines = [f"workload {name}  seed {seed}  repetitions {len(plain)} untraced, {len(traced)} traced"]
    end_to_end = {}
    if reps:
        refs = [r["ref_s"] for r in reps]
        speed = REF_NOMINAL_S / statistics.median(refs)
        lines.append(
            f"  {'reference':<12} {statistics.median(refs):10.4f} s   median of {len(refs)} "
            f"(min {min(refs):.4f}, max {max(refs):.4f}), nominal {REF_NOMINAL_S}, speed {speed:.4f}"
        )
    for metric, unit in units.items():
        values = [r[metric] for r in plain]
        if not values:
            continue
        med = statistics.median(values)
        end_to_end[metric] = med * speed if unit == "s" else med
        q1, q3 = _quartiles(values)
        lines.append(
            f"  {metric:<12} {end_to_end[metric]:10.4f} {unit:<2}"
            + ("  calibrated; measured" if unit == "s" else "")
            + f" median {med:.4f} of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f})"
        )
    lines.append(f"  {'fail_frac':<12} {failed / max(attempted, 1):10.4f}     {failed} failed of {attempted} operations")
    lines += [f"  FAILED {f}" for f in dict.fromkeys(failures)]

    per_layer = {}
    if traced and plain:
        health = reps[-1]["health"]
        for metric in traced[0]["layers"]:
            per_layer[metric] = statistics.median(r["layers"][metric] for r in traced)
        for metric in HEALTH:
            per_layer[metric] = health.get(metric, 0)
        per_layer["cli.bytes_written"] = statistics.median(r["bytes_written"] for r in traced)
        wall_traced = statistics.median(r["wall_s"] for r in traced) * speed
        per_layer["trace.wall_s"] = wall_traced
        per_layer["trace.overhead_pct"] = 100.0 * (wall_traced / end_to_end["wall_s"] - 1.0)
        for metric, value in per_layer.items():
            lines.append(f"    {metric:<36} {value:.6g}")
    if reps:
        lines.append(f"  health {json.dumps(reps[-1]['health'], sort_keys=True)}")
    lines.append(
        "  machine nproc={nproc} l3={l3} python={python} numpy={numpy} scipy={scipy} "
        "blas={blas} blas_threads={blas_threads} ({blas_pinning})".format(**facts)
    )
    return {
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "lines": lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "fracrate" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} holds no src/fracrate and configs/ to measure", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(root, n, args.seed, args.seconds, args.trace) for n in names}
    for res in results.values():
        print("\n".join(res["lines"]), flush=True)
    key = "per_layer" if args.trace else "end_to_end"
    units = metric_units(root, key)
    metrics = {}
    for n, res in results.items():
        prefix = f"{n}." if args.workload == "all" else ""
        metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in res[key].items()})
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

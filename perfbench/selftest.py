"""Fast self-test of the benchmark harness.

Usage: ``python3 perfbench/selftest.py``.  Runs every workload once at the
tiny size, untraced and traced, and fails unless every correctness check
passes and the metric names match ``BENCHMARK.json``.  It also checks that
``run.py`` refuses, with exit code 2 and no result line, to run in a
directory that holds only ``BENCHMARK.json`` and ``perfbench``.
"""
import json
import shutil
import subprocess
import sys

import run


def bare_copy_refuses(root):
    bare = root / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        argv = [sys.executable, "perfbench/run.py", "--workload", "rare_event", "--seconds", "1"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    return proc.returncode == 2 and not proc.stdout.strip()


def main():
    root = run.HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in run.WORKLOADS:
        res = run.bench(root, name, run.DEFAULT_SEED, seconds=0, trace=True, size="tiny", min_cycles=1)
        print("\n".join(res["lines"]))
        if not res["correct"] or res["attempted"] < 1:
            problems.append(f"{name}: {res['failed']} of {res['attempted']} operations failed")
        for key, names in expected.items():
            if set(res[key]) != names:
                problems.append(f"{name}: {key} metrics differ from BENCHMARK.json: {sorted(set(res[key]) ^ names)}")
    if not bare_copy_refuses(root):
        problems.append("run.py did not refuse a directory without src/fracrate")
    for problem in problems:
        print(f"SELFTEST FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

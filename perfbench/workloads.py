"""The four benchmark workloads: inputs made from a seed, the timed calls,
and the correctness checks.

``make_inputs`` runs in the benchmark runner and uses the standard library
only, so the runner never imports the package it measures.  ``run`` and
``check`` run in a fresh child interpreter after ``fracrate`` is imported;
``run`` is the timed region, ``check`` comes after the clock has stopped.
The program only ever sees the generated inputs: config copies with the
seed replaced, a random polynomial path, and an fBm seed.

Why these four: ``homogenize`` is the simulator's per-step loop,
``rate_functionals`` the deterministic rate evaluators with no simulation,
``rare_event`` the Monte Carlo harness through its exact Gaussian engine
(set-up dominated), and ``young_pathwise`` the only path to ``frac_calc``.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import random
from pathlib import Path

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# self-test size, small enough to run every workload in a few seconds.
SIZES = {
    "homogenize": {"full": {"trials": 8}, "tiny": {"trials": 2}},
    "rate_functionals": {"full": {"n": None}, "tiny": {"n": 129}},
    "rare_event": {"full": {"trials": None}, "tiny": {"trials": 20000}},
    "young_pathwise": {"full": {"n": 2049}, "tiny": {"n": 1025}},
}


def set_key(text, section, key, value):
    """Replace ``key = ...`` inside ``[section]`` of an INI text."""
    out, current, done = [], None, False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.split("=", 1)[0].strip().lower() == key:
            line = f"{key} = {value}"
            done = True
        out.append(line)
    if not done:
        raise KeyError(f"[{section}] {key} not found")
    return "\n".join(out) + "\n"


def _read_ini(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    return parser


def _seeded_config(root, name, seed, inputs, replace=None):
    """Copy a shipped config into ``inputs`` with its seed and the
    ``{(section, key): value}`` of ``replace`` set."""
    text = (root / "configs" / name).read_text()
    text = set_key(text, "experiment", "seed", seed)
    for (section, key), value in (replace or {}).items():
        text = set_key(text, section, key, value)
    path = inputs / name
    path.write_text(text)
    return path, _read_ini(text)


class Homogenize:
    """``fracrate simulate`` on the OU homogenization config, reduced trials."""

    def make_inputs(self, root, seed, size, inputs):
        cfg, _ = _seeded_config(root, "ou_homogenization.cfg", seed, inputs)
        return {"config": str(cfg), "trials": SIZES["homogenize"][size]["trials"]}

    def run(self, plan, out):
        import fracrate.cli as cli

        argv = ["simulate", "--config", plan["config"], "--trials", str(plan["trials"]), "--out-dir", out]
        return [cli.main(argv)], None

    def check(self, plan, out, state):
        summary = json.loads((Path(out) / "simulate_summary.json").read_text())
        points = summary["schedule"]
        errors = [p["mean_sup_error"] for p in points]
        aborted = [p["aborted"] for p in points]
        completed = sum(plan["trials"] - a for a in aborted)
        written = len(list(Path(out).glob("trajectory_eps*_trial*.csv")))
        checks = [
            ("no_aborted_trials", sum(aborted) == 0, f"aborted per point {aborted}"),
            (
                "sup_error_decreasing",
                None not in errors and all(a > b for a, b in zip(errors, errors[1:])),
                f"mean sup errors {errors}",
            ),
            ("trajectories_written", written == completed, f"{written} CSVs for {completed} trials"),
        ]
        health = {f"cli.substeps.eps{i}": p["substeps"] for i, p in enumerate(points)}
        health.update({f"cli.aborted.eps{i}": a for i, a in enumerate(aborted)})
        return {"checks": checks, "trials": plan["trials"] * len(points), "aborted": sum(aborted), "health": health}


class RateFunctionals:
    """``limit-study`` then ``rate`` explicit and general at H = 0.8 on the
    cos-diffusion config, all on a random polynomial path (criterion 07)."""

    hurst = "0.8"

    def make_inputs(self, root, seed, size, inputs):
        n = SIZES["rate_functionals"][size]["n"]
        replace = {("grid", "n"): n} if n else {}
        cfg, ini = _seeded_config(root, "cos_limit_study.cfg", seed, inputs, replace)
        n = ini.getint("grid", "n")
        horizon = ini.getfloat("grid", "horizon", fallback=1.0)
        # admissible polynomial path with leading t^3 term, scaled by the
        # averaged coefficient e^(-1/2) as in criterion 07
        rng = random.Random(seed)
        c3, c4, c5 = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
        scale = math.exp(-0.5)
        dt = horizon / (n - 1)
        rows = ["t,v0"]
        for k in range(n):
            t = k * dt
            rows.append(f"{t!r},{scale * (c3 * t**3 / 3 + c4 * t**4 / 4 + c5 * t**5 / 5)!r}")
        path = inputs / "path.csv"
        path.write_text("\n".join(rows) + "\n")
        return {"config": str(cfg), "path": str(path)}

    def run(self, plan, out):
        import fracrate.cli as cli

        common = ["--config", plan["config"], "--path", plan["path"]]
        codes = [cli.main(["limit-study", *common, "--out", f"{out}/limit_study.csv"])]
        for method in ("explicit", "general"):
            argv = ["rate", *common, "--method", method, "--hurst", self.hurst, "--out", f"{out}/rate_{method}.json"]
            codes.append(cli.main(argv))
        return codes, None

    def check(self, plan, out, state):
        with open(Path(out) / "limit_study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        tilde, fw = float(rows[0]["tilde_half"]), float(rows[0]["fw_half"])
        gaps = [float(r["gap_to_tilde"]) for r in rows]
        target = math.e * (1 + math.exp(-2)) / 2
        explicit = json.loads((Path(out) / "rate_explicit.json").read_text())
        general = json.loads((Path(out) / "rate_general.json").read_text())
        rel = abs(general["value"] - explicit["value"]) / abs(explicit["value"])
        checks = [
            ("classical_ratio", abs(tilde / fw - target) <= 1e-3, f"tilde/fw {tilde / fw!r} vs {target!r}"),
            ("gaps_to_tilde_decreasing", all(a > b for a, b in zip(gaps, gaps[1:])), f"gaps {gaps}"),
            ("explicit_vs_general", rel <= 1e-2, f"relative gap {rel:.3e}"),
        ]
        diag = general["diagnostics"]
        health = {"rate_fn.gram_condition": diag["condition"], "rate_fn.gram_lambda_min": diag["lambda_min"]}
        return {"checks": checks, "trials": 0, "aborted": 0, "health": health}


class RareEvent:
    """``fracrate mc rare-event`` on the linear config as shipped."""

    def make_inputs(self, root, seed, size, inputs):
        trials = SIZES["rare_event"][size]["trials"]
        replace = {("experiment", "trials"): trials} if trials else {}
        cfg, ini = _seeded_config(root, "rare_event_linear.cfg", seed, inputs, replace)
        kind, _, value = ini.get("model", "sigma1").partition(" value=")
        if kind != "constant":
            raise ValueError("the exact tail below needs a constant rough diffusion")
        return {
            "config": str(cfg),
            "threshold": ini.getfloat("experiment", "threshold"),
            "x0": ini.getfloat("model", "x0"),
            "sigma": float(value),
            "hurst": ini.getfloat("model", "hurst"),
            "horizon": ini.getfloat("grid", "horizon", fallback=1.0),
        }

    def run(self, plan, out):
        import fracrate.cli as cli

        return [cli.main(["mc", "rare-event", "--config", plan["config"], "--out", f"{out}/rare.csv"])], None

    def check(self, plan, out, state):
        with open(Path(out) / "rare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks = []
        for i, row in enumerate(rows):
            eps, trials, p_hat = float(row["eps"]), float(row["trials"]), float(row["p_hat"])
            # X_T = x0 + sqrt(eps) sigma T^H Z exactly
            sd = math.sqrt(eps) * plan["sigma"] * plan["horizon"] ** plan["hurst"]
            exact = 0.5 * math.erfc((plan["threshold"] - plan["x0"]) / (sd * math.sqrt(2.0)))
            se = math.sqrt(exact * (1 - exact) / trials)
            checks.append(
                (f"p_hat_eps{i}", abs(p_hat - exact) <= 5 * se, f"p_hat {p_hat!r} vs exact {exact!r} (se {se:.2e})")
            )
        aborted = [int(float(row["aborted"])) for row in rows]
        health = {f"cli.aborted.eps{i}": a for i, a in enumerate(aborted)}
        trials = sum(int(float(row["trials"])) for row in rows)
        return {"checks": checks, "trials": trials, "aborted": sum(aborted), "health": health}


class YoungPathwise:
    """``sample-fbm`` to CSV, read back, then the pathwise library calls."""

    hurst = 0.7

    def make_inputs(self, root, seed, size, inputs):
        return {"config": None, "seed": seed, "n": SIZES["young_pathwise"][size]["n"]}

    def run(self, plan, out):
        import numpy as np

        import fracrate
        import fracrate.cli as cli

        csv_path = f"{out}/bh.csv"
        argv = ["sample-fbm", "--hurst", str(self.hurst), "--n", str(plan["n"]), "--seed", str(plan["seed"])]
        codes = [cli.main([*argv, "--out", csv_path])]
        bh = fracrate.GridPath.from_csv(csv_path)
        alpha = fracrate.default_young_alpha(self.hurst)
        f = fracrate.GridPath(0.0, bh.dt, 1.0 + 0.5 * np.sin(2.0 * bh.times()))
        state = {
            "bh": bh,
            "alpha": alpha,
            "young": fracrate.young_integral(f, bh, alpha),
            "norms": fracrate.path_norms(bh, alpha),
            "rl": fracrate.riemann_liouville(bh, fracrate.FracOrder(0.5)),
            "marchaud": fracrate.marchaud_derivative(bh, fracrate.FracOrder(alpha)),
        }
        return codes, state

    def check(self, plan, out, state):
        import numpy as np

        import fracrate

        bh, alpha = state["bh"], state["alpha"]
        fresh = fracrate.sample_fbm(self.hurst, plan["n"], 1.0, seed=plan["seed"])
        fv = 1.0 + 0.5 * np.sin(2.0 * bh.times())
        riemann = float(np.sum(fv[:-1] * np.diff(bh.scalar())))
        # natural scale of int f dB; a relative error against the integral
        # itself fails whenever the integral happens to be near zero
        scale = float(np.max(np.abs(fv)) * np.max(np.abs(bh.scalar())))
        # criterion 04 on the 8x-coarsened grid: a polynomial integral and
        # the Young integral against 8x-refined left-point Riemann sums
        coarse = fracrate.GridPath(0.0, 8 * bh.dt, bh.values[::8])
        tc = coarse.times()
        poly = float(fracrate.young_integral(coarse.with_values(tc), coarse.with_values(tc**2), 0.5).scalar()[-1])
        fc = coarse.with_values(1.0 + 0.5 * np.sin(2.0 * tc))
        young_coarse = float(fracrate.young_integral(fc, coarse, alpha).scalar()[-1])
        young_full = float(state["young"].scalar()[-1])
        finite = all(np.all(np.isfinite(state[k].values)) for k in ("young", "rl", "marchaud"))
        norms = state["norms"]
        checks = [
            ("csv_round_trip_exact", bh == fresh, "CSV path equals the in-process sample"),
            ("young_polynomial", abs(poly - 2.0 / 3.0) <= 1e-3, f"int t d(t^2) = {poly!r}"),
            ("young_vs_refined_riemann", abs(young_coarse - riemann) <= 1e-2 * scale,
             f"{young_coarse!r} vs {riemann!r}, scale {scale:.3g}"),
            ("young_vs_riemann_same_grid", abs(young_full - riemann) <= 1e-2 * scale,
             f"{young_full!r} vs {riemann!r}"),
            ("outputs_finite", finite and all(math.isfinite(v) and v > 0 for v in norms.values()),
             f"path norms {norms}"),
        ]
        return {"checks": checks, "trials": 0, "aborted": 0, "health": {}}


WORKLOADS = {
    "homogenize": Homogenize(),
    "rate_functionals": RateFunctionals(),
    "rare_event": RareEvent(),
    "young_pathwise": YoungPathwise(),
}

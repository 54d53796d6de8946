"""Command-line interface: validation, experiment orchestration, artifacts.

Subcommands: sample-fbm, simulate, poisson, rate, limit-study, mc, validate.
Each command is named on the command line; the config's ``[experiment]
kind`` only labels the experiment, and ``simulate`` reads it to decide
whether the config's ``trials`` counts trajectories.  Exit codes: 0
success, 2 validation failure or invalid input (an unwritable output
included), 3 numerical failure.  The default output directory is the
environment variable FRACRATE_OUT (falling back to the working directory).
Every command but sample-fbm and validate writes a manifest (command,
config digest, seed, versions, timestamp) beside its outputs; re-running a
config with the same seed reproduces every output byte but its timestamp.
A warning (a possibly unstable fast step, a capped substep count) goes to
stderr as one line, ``warning: <message>``.
"""
from __future__ import annotations

import argparse
import datetime
import json
# argparse's gettext imports locale at the first parse; imported here, its
# 1-2 ms fall in the import rather than in the first command
import locale  # noqa: F401
import os
import sys
import warnings

import numpy as np

from . import __version__
from .cameron_martin import HurstContext
from .coefficients import reads
from .config import float_list, hard_failures, load_config, validate
from .errors import FracrateError, InvalidInputError, ValidationFailure
from .fbm_gen import sample_fbm
from .gridpath import GridPath
from .ldp_harness import (
    HFunctional,
    MonteCarloPlan,
    _check_usable,
    estimate_laplace,
    estimate_rare_event,
    linear_case_prediction,
    rough_noise_only,
    simulate_point,
    stabilization_diagnostic,
)
from .poisson_cell import effective_q
from .rate_fn import (
    averaged_euler,
    build_limit_drift,
    eval_rate_explicit,
    eval_rate_fw_half,
    eval_rate_general,
    eval_rate_tilde_half,
    h_limit_study,
)


def _out_dir(args):
    base = args.out_dir or os.environ.get("FRACRATE_OUT", ".")
    os.makedirs(base, exist_ok=True)
    return base


def _ensure_parent(path):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def _write_manifest(out_dir, config, command):
    payload = {
        "command": command,
        "config_sha256": config.digest(),
        "config_path": config.path,
        "seed": config.seed,
        "versions": {
            "fracrate": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _write_rows_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                val = row.get(col, "")
                cells.append(repr(float(val)) if isinstance(val, (int, float)) and not isinstance(val, bool) else str(val))
            fh.write(",".join(cells) + "\n")


def _validated_config(args):
    config = load_config(args.config)
    checks = validate(config)
    failures = hard_failures(checks)
    for chk in checks:
        print(f"[{chk.status}] {chk.name}: {chk.detail}")
    if failures and not args.force:
        named = "; ".join(f"{chk.name}: {chk.detail}" for chk in failures)
        raise ValidationFailure(
            f"{len(failures)} hard validation failure(s) ({named}); rerun with --force to override"
        )
    return config


def _measure_and_drift(config):
    mu, psol = config.cell_problem()
    return build_limit_drift(config.make_spec(*config.schedule[-1]), psol, mu)


def _input_path(args, config, drift):
    """The ``--path`` CSV, else the admissible cubic with normalized displacement t^2."""
    if args.path:
        return GridPath.from_csv(args.path)
    n, x0 = config.grid["n"], config.model["x0"]
    dt = config.grid["horizon"] / (n - 1)
    t = dt * np.arange(n)
    s1 = float(drift.sigma1_bar([x0])[0])
    return GridPath(0.0, dt, x0 + s1 * t**3 / 3.0)


def cmd_sample_fbm(args):
    path = sample_fbm(args.hurst, args.n, args.horizon, dim=args.dim, seed=args.seed)
    path.to_csv(_ensure_parent(args.out))
    print(f"wrote {args.out}: fBm H={args.hurst}, n={args.n}, dim={args.dim}")
    return 0


def cmd_simulate(args):
    config = _validated_config(args)
    trials = args.trials
    if trials is None:
        # another kind's trials count Monte Carlo samples, one trajectory file each here
        if config.kind != "simulate":
            raise InvalidInputError(
                f"[experiment] trials is read only by kind = simulate, not {config.kind}; pass --trials"
            )
        trials = config.experiment["trials"]
    if trials < 1:
        raise InvalidInputError(f"need at least one trial, got {trials}")
    out_dir = _out_dir(args)
    drift = _measure_and_drift(config)
    n, horizon, substeps = config.grid["n"], config.grid["horizon"], config.grid["substeps"]
    ref = averaged_euler(drift, config.model["x0"], n, horizon / (n - 1))

    summary = {"schedule": [], "trials": trials, "reference": "homogenized Euler"}
    for idx, (eps, eta) in enumerate(config.schedule):
        sup_errs, terminals = [], []
        chunks = simulate_point(config.make_spec(eps, eta), n, horizon, substeps, trials, config.seed, idx)
        for chunk, batch in chunks:
            for i in np.flatnonzero(~batch.diverged):
                batch.paths(i)[0].to_csv(os.path.join(out_dir, f"trajectory_eps{idx}_trial{chunk[i]}.csv"))
                sup_errs.append(float(np.max(np.abs(batch.x[i] - ref))))
                terminals.append(float(batch.x[i, -1]))
        _check_usable(len(terminals), trials, eps)
        summary["schedule"].append(
            {
                "eps": eps,
                "eta": eta,
                "substeps": batch.substeps,
                "aborted": trials - len(terminals),
                "mean_sup_error": float(np.mean(sup_errs)),
                "terminal_mean": float(np.mean(terminals)),
                "terminal_std": float(np.std(terminals)),
            }
        )
    _write_json(os.path.join(out_dir, "simulate_summary.json"), summary)
    _write_manifest(out_dir, config, "simulate")
    print(f"wrote {out_dir}/simulate_summary.json")
    return 0


def cmd_poisson(args):
    config = _validated_config(args)
    out = _ensure_parent(args.out) if args.out else os.path.join(_out_dir(args), "poisson.json")
    spec = config.make_spec(*config.schedule[-1])
    mu, psol = config.cell_problem()
    eq = effective_q(spec, psol, mu, spec.x0)
    # psi, grad_psi and qqt_bar keep a vector system's layout: one-element rows, a 1 x 1 matrix
    payload = {
        "grid": mu.grid.tolist(),
        "density": mu.density.tolist(),
        "psi": [[v] for v in psol.psi.tolist()],
        "grad_psi": [[v] for v in psol.grad.tolist()],
        "qqt_bar": [[eq["qqt_bar"]]],
        "min_eigenvalue": eq["qqt_bar"],
        "degenerate": eq["degenerate"],
    }
    _write_json(out, payload)
    _write_manifest(os.path.dirname(out) or ".", config, "poisson")
    print(f"wrote {out}")
    return 0


def cmd_rate(args):
    config = _validated_config(args)
    out = _ensure_parent(args.out) if args.out else os.path.join(_out_dir(args), "rate.json")
    drift = _measure_and_drift(config)
    phi = _input_path(args, config, drift)
    hurst = config.model["hurst"] if args.hurst is None else args.hurst
    if args.method == "explicit":
        res = eval_rate_explicit(phi, drift, HurstContext(hurst, phi.n, phi.dt))
    elif args.method == "general":
        res = eval_rate_general(phi, drift, HurstContext(hurst, phi.n, phi.dt))
    elif args.method == "fw-half":
        res = eval_rate_fw_half(phi, drift)
    else:
        res = eval_rate_tilde_half(phi, drift)
    payload = {"value": res.value, "method": res.method, "hurst": hurst, "diagnostics": res.diagnostics}
    _write_json(out, payload)
    _write_manifest(os.path.dirname(out) or ".", config, "rate")
    print(f"S = {res.value:.6g} ({args.method}); wrote {out}")
    return 0


def _hurst_list(args, config):
    """``--hurst-list`` read by the config's list rule, else the config's list."""
    if args.hurst_list is None:
        return config.experiment["hurst_list"]
    try:
        h_list = float_list(args.hurst_list)
    except ValueError as exc:
        raise InvalidInputError(f"--hurst-list: {exc}") from None
    if not h_list:
        raise InvalidInputError(f"--hurst-list names no Hurst index: {args.hurst_list!r}")
    return h_list


def cmd_limit_study(args):
    config = _validated_config(args)
    out = _ensure_parent(args.out) if args.out else os.path.join(_out_dir(args), "limit_study.csv")
    h_list = _hurst_list(args, config)
    drift = _measure_and_drift(config)
    phi = _input_path(args, config, drift)
    study = h_limit_study(phi, drift, h_list)
    shared = {key: study[key] for key in ("tilde_half", "fw_half")}
    rows = [{**row, **shared, "gap_to_tilde": gap_t, "gap_to_fw": gap_f}
            for row, gap_t, gap_f in zip(study["rows"], study["gap_to_tilde"], study["gap_to_fw"])]
    _write_rows_csv(out, rows, ["hurst", "value", "tilde_half", "fw_half", "gap_to_tilde", "gap_to_fw"])
    _write_manifest(os.path.dirname(out) or ".", config, "limit-study")
    print(f"wrote {out}")
    return 0


def cmd_mc(args):
    config = _validated_config(args)
    out = _ensure_parent(args.out) if args.out else os.path.join(_out_dir(args), f"mc_{args.mode}.csv")
    exp_cfg = config.experiment
    plan = MonteCarloPlan(
        config.make_spec,
        config.schedule,
        exp_cfg["trials"],
        seed=config.seed,
        n_grid=config.grid["n"],
        horizon=config.grid["horizon"],
        substeps=config.grid["substeps"],
    )
    if args.mode == "laplace":
        h = HFunctional(
            kind=exp_cfg["h_kind"],
            target=exp_cfg["h_target"],
            rho=exp_cfg["h_rho"],
            cap=exp_cfg["h_cap"],
            height=exp_cfg["h_height"],
            width=exp_cfg["h_width"],
        )
        rows = estimate_laplace(plan, h)
        _write_rows_csv(out, rows, ["eps", "eta", "estimate", "std_error", "trials", "aborted", "engine"])
    else:
        spec0 = config.make_spec(*config.schedule[0])
        try:
            sigma_bar = None
            if rough_noise_only(spec0) and reads(spec0.sigma1, "y"):
                sigma_bar = float(_measure_and_drift(config).sigma1_bar([spec0.x0])[0])
            pred = linear_case_prediction(
                spec0, exp_cfg["threshold"], config.grid["horizon"], sigma_bar=sigma_bar
            )
        except FracrateError:
            pred = None
        rows = estimate_rare_event(plan, exp_cfg["threshold"], prediction=pred)
        cols = [
            "eps", "eta", "trials", "aborted", "hits", "p_hat", "bound_only",
            "wilson_low", "wilson_high", "neg_eps_log_p", "p_upper",
            "neg_eps_log_p_lower", "prediction", "engine", "note",
        ]
        _write_rows_csv(out, rows, cols)
        ok, diffs = stabilization_diagnostic(rows)
        print(f"stabilization diagnostic: {'pass' if ok else 'warn'} (diffs {diffs})")
    _write_manifest(os.path.dirname(out) or ".", config, f"mc {args.mode}")
    print(f"wrote {out}")
    return 0


def cmd_validate(args):
    config = load_config(args.config)
    checks = validate(config)
    for chk in checks:
        print(f"[{chk.status}] {chk.name}: {chk.detail}")
    if args.json:
        _write_json(_ensure_parent(args.json), {"checks": [c.as_dict() for c in checks]})
    if hard_failures(checks):
        return 2
    return 0


def _out_flags(p):
    """``--out`` (one file) or ``--out-dir`` (its default name there), not both."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--out")
    group.add_argument("--out-dir")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracrate",
        description="Fractional slow-fast simulation and large-deviations toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-fbm", help="sample one fractional Brownian path to CSV")
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_fbm)

    p = sub.add_parser("simulate", help="slow-fast trajectories along the schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, help="override the config trial count")
    p.add_argument("--out-dir")
    p.add_argument("--force", action="store_true", help="run despite validation failures")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("poisson", help="invariant density, corrector and effective Gram")
    p.add_argument("--config", required=True)
    _out_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("rate", help="evaluate a rate functional on a path")
    p.add_argument("--config", required=True)
    p.add_argument("--path", help="GridPath CSV; defaults to the built-in admissible cubic")
    p.add_argument("--method", choices=["explicit", "general", "fw-half", "tilde-half"], default="explicit")
    p.add_argument("--hurst", type=float)
    _out_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("limit-study", help="rate values along a Hurst schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--path")
    p.add_argument("--hurst-list", help="comma list, e.g. 0.6,0.55,0.52")
    _out_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_limit_study)

    p = sub.add_parser("mc", help="Monte Carlo Laplace / rare-event experiments")
    p.add_argument("mode", choices=["laplace", "rare-event"])
    p.add_argument("--config", required=True)
    _out_flags(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("validate", help="numeric spot checks of the standing conditions")
    p.add_argument("--config", required=True)
    p.add_argument("--json", help="also write the report to this JSON file")
    p.set_defaults(func=cmd_validate)

    return parser


def _format_warning(message, *_):
    """A warning's stderr line, without the source path and line."""
    return f"warning: {message}\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except FracrateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every input's reader maps its own OSError, so this one is an output's
        print(f"invalid input: cannot write output: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())


import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrate import cli, config, ldp_harness
from fracrate import coefficients as cf
from fracrate import multiscale_sim
from fracrate.cli import main
from fracrate.config import hard_failures, load_config, validate
from fracrate.errors import InvalidInputError
from fracrate.gridpath import GridPath
from fracrate.ldp_harness import MonteCarloPlan
from fracrate.poisson_cell import invariant_density_1d

OU_HOMOG = """
[model]
hurst = 0.7
x0 = 1.0
y0 = 0.0
b = zero
c = linear_xy ax=-1.0 ay=1.0
sigma1 = zero
sigma2 = zero
f = ou rate=1.0
g = zero
tau = constant value=1.4142135623730951

[grid]
n = 51
horizon = 1.0

[schedule]
eps = 0.1, 0.05
eta = auto

[experiment]
kind = simulate
trials = 3
seed = 77
"""

COS_LIMIT = """
[model]
hurst = 0.8
x0 = 0.0
b = zero
c = zero
sigma1 = cos_y
sigma2 = zero
f = ou rate=1.0
tau = constant value=1.4142135623730951
beta = 0.45

[grid]
n = 257
horizon = 1.0

[schedule]
eps = 0.1, 0.05
eta = 0.0794328234724281, 0.0370567224553474

[experiment]
kind = limit-study
hurst_list = 0.6, 0.55
seed = 5
"""

RARE_EVENT = """
[model]
hurst = 0.7
x0 = 0.0
b = zero
c = zero
sigma1 = constant value=1.0
sigma2 = zero
f = ou rate=1.0
tau = constant value=1.4142135623730951

[schedule]
eps = 0.1, 0.05
eta = auto

[experiment]
kind = rare-event
trials = 20000
seed = 99
threshold = 0.4
"""

BAD_BRANCH = """
[model]
hurst = 0.7
sigma1 = cos_y
f = ou rate=1.0
tau = constant value=1.4142135623730951
beta = 0.45

[schedule]
eps = 0.1, 0.05
eta = auto

[experiment]
kind = simulate
seed = 1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = [p.read_text() for p in sorted(CONFIGS.glob("*.cfg"))]
FUZZ_TOKENS = [
    "[", "]", "=", ":", ";", "#", "%", "%(x)s", "\n", ",", "abc", "-1", "0", "1e300", "1e999", "nan",
    "[Grid]", "[grid]", "[tolerances]", "[DEFAULT]", "[model]", "condition_limit = 10", "centering_tol = abc",
    "zero", "cos_y", "ou", "ax=abc", "value=", "rate=-1", "auto", "kind = rate", "eta = 0.1", "m = two",
]


@st.composite
def edited_config(draw):
    """A shipped config with one to three whitespace-delimited tokens
    replaced or inserted."""
    parts = re.split(r"(\s+)", draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        token = draw(st.sampled_from(FUZZ_TOKENS) | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))
        if draw(st.booleans()):
            parts[i] = token
        else:
            parts.insert(i, token)
    return "".join(parts)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


class TestConfig:
    def test_parse_and_spec(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", OU_HOMOG))
        assert cfg.kind == "simulate"
        assert cfg.schedule[0][0] == 0.1
        spec = cfg.make_spec(0.1, 0.01)
        assert spec.hurst == 0.7
        assert spec.x0 == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        bad = OU_HOMOG.replace("trials = 3", "trails = 3")
        with pytest.raises(InvalidInputError):
            load_config(write(tmp_path, "b.cfg", bad))

    def test_validate_passes_ou(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", OU_HOMOG))
        checks = validate(cfg)
        assert not hard_failures(checks)
        names = {c.name for c in checks}
        assert {"centering", "hurst_branch", "scale_ratio"} <= names

    def test_validate_is_pure(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", OU_HOMOG))
        before = os.listdir(tmp_path)
        validate(cfg)
        assert os.listdir(tmp_path) == before

    def test_fast_dependent_sigma_needs_high_hurst(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.cfg", BAD_BRANCH))
        checks = validate(cfg)
        fails = {c.name for c in hard_failures(checks)}
        assert "hurst_branch" in fails

    def test_state_only_sigma_low_hurst_ok(self, tmp_path):
        text = BAD_BRANCH.replace("sigma1 = cos_y", "sigma1 = constant value=0.5").replace(
            "hurst = 0.7", "hurst = 0.6"
        )
        cfg = load_config(write(tmp_path, "d.cfg", text))
        checks = validate(cfg)
        branch = [c for c in checks if c.name == "hurst_branch"][0]
        assert branch.status == "pass"

    def test_schedule_ratio_rule_shared(self, tmp_path):
        # eta proportional to eps: sqrt(eta)/sqrt(eps) does not decrease
        text = OU_HOMOG.replace("eta = auto", "eta = 0.01, 0.005")
        cfg = load_config(write(tmp_path, "s.cfg", text))
        assert {c.name for c in hard_failures(validate(cfg))} == {"scale_ratio"}
        with pytest.raises(InvalidInputError, match="scale_ratio"):
            MonteCarloPlan(cfg.make_spec, cfg.schedule, trials=1000)

    def test_fast_dependent_sigma_needs_beta(self, tmp_path):
        cfg = load_config(write(tmp_path, "nb.cfg", COS_LIMIT.replace("beta = 0.45\n", "")))
        fails = {c.name: c.detail for c in hard_failures(validate(cfg))}
        assert list(fails) == ["beta_ratio"]
        assert "requires a declared beta" in fails["beta_ratio"]
        with pytest.raises(InvalidInputError, match="requires a declared beta"):
            MonteCarloPlan(cfg.make_spec, cfg.schedule, trials=1000)

    def test_sigma1_branch_follows_declared_facts(self, tmp_path):
        # a bare callable carries no facts: it reads x and y, so beta is due;
        # the same callable declared state-only is honoured, and linear_xy
        # reads y only when ay != 0
        cfg = load_config(write(tmp_path, "u.cfg", OU_HOMOG))
        fn = lambda x, y: 0.5 + 0.1 * np.asarray(x)  # noqa: E731
        for sigma1, fails in [(fn, {"hurst_branch", "beta_ratio"}),
                              (cf.Coefficient("mine", fn, {}, reads="x"), set()),
                              (cf.parse_spec("sigma1", "linear_xy ax=0.3 ay=0 const=1.0"), set()),
                              (cf.parse_spec("sigma1", "linear_xy ax=0.3 ay=0.1 const=1.0"),
                               {"hurst_branch", "beta_ratio"})]:
            cfg.model["sigma1"] = sigma1
            assert {c.name for c in hard_failures(validate(cfg))} == fails
        cfg.model["sigma1"] = fn
        with pytest.raises(InvalidInputError, match="requires a declared beta"):
            MonteCarloPlan(cfg.make_spec, cfg.schedule, trials=1000)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(text=edited_config())
    def test_fuzzed_config_raises_only_invalid_input(self, text, fuzz_path):
        fuzz_path.write_text(text)
        try:
            load_config(str(fuzz_path))
        except InvalidInputError:
            pass

    def test_input_surface(self):
        # every config value and subcommand, one way in each: a new knob
        # edits this list on purpose
        pairs = sorted((section, key) for section, keys in config._SCHEMA.items() for key in keys)
        assert pairs == [
            ("experiment", "h_cap"), ("experiment", "h_height"), ("experiment", "h_kind"),
            ("experiment", "h_rho"), ("experiment", "h_target"), ("experiment", "h_width"),
            ("experiment", "hurst_list"), ("experiment", "kind"), ("experiment", "seed"),
            ("experiment", "threshold"), ("experiment", "trials"),
            ("grid", "horizon"), ("grid", "n"), ("grid", "substeps"),
            ("model", "b"), ("model", "beta"), ("model", "c"), ("model", "f"), ("model", "g"),
            ("model", "hurst"), ("model", "sigma1"), ("model", "sigma2"), ("model", "tau"),
            ("model", "x0"), ("model", "y0"),
            ("schedule", "eps"), ("schedule", "eta"),
        ]
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == ["limit-study", "mc", "poisson", "rate", "sample-fbm", "simulate", "validate"]

    def test_centering_failure_blocks(self, tmp_path):
        text = OU_HOMOG.replace("b = zero", "b = constant value=0.3")
        cfg = load_config(write(tmp_path, "e.cfg", text))
        fails = hard_failures(validate(cfg))
        assert any(c.name == "centering" for c in fails)


class TestCommands:
    def test_sample_fbm(self, tmp_path):
        out = str(tmp_path / "b.csv")
        rc = main(["sample-fbm", "--hurst", "0.7", "--n", "64", "--horizon", "1.0", "--seed", "3", "--out", out])
        assert rc == 0
        path = GridPath.from_csv(out)
        assert path.n == 64
        assert path.values[0, 0] == 0.0

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_sample_fbm_dim_below_one_is_invalid_input(self, tmp_path, capsys, dim):
        # ended in a ValueError from np.concatenate: exit 1 with a traceback
        out = tmp_path / "b.csv"
        assert main(["sample-fbm", "--hurst", "0.7", "--n", "64", "--dim", dim, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: need at least one fBm component")
        assert not out.exists()

    def test_sample_fbm_creates_out_directory(self, tmp_path):
        out = tmp_path / "new" / "dir" / "b.csv"
        rc = main(["sample-fbm", "--hurst", "0.7", "--n", "64", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert GridPath.from_csv(str(out)).n == 64

    def test_validate_json_creates_its_directory(self, tmp_path):
        # the report went to open() as given: a missing directory ended in a
        # FileNotFoundError traceback and exit 1
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        out = tmp_path / "new" / "dir" / "v.json"
        assert main(["validate", "--config", cfg, "--json", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert checks and all(c["status"] != "fail" for c in checks)

    def test_simulate_and_summary(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        out = str(tmp_path / "out")
        rc = main(["simulate", "--config", cfg, "--out-dir", out])
        assert rc == 0
        summary = json.load(open(os.path.join(out, "simulate_summary.json")))
        assert len(summary["schedule"]) == 2
        assert summary["schedule"][0]["mean_sup_error"] is not None
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_simulate_solves_the_cell_problem_once(self, tmp_path, monkeypatch):
        # validate and the limit drift each solved it: two density builds a run
        calls = []
        monkeypatch.setattr("fracrate.config.invariant_density_1d",
                            lambda *args, **kw: calls.append(args) or invariant_density_1d(*args, **kw))
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        assert main(["simulate", "--config", cfg, "--trials", "2", "--out-dir", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["simulate-config", "mc-config", "sample-fbm-flag"])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, case):
        # numpy's SeedSequence raised a bare ValueError: exit 1 with a traceback
        out = tmp_path / "o"
        simulate = ["simulate", "--trials", "2", "--out-dir", str(out), "--config"]
        argv = {
            "simulate-config": [*simulate, write(tmp_path, "n.cfg", OU_HOMOG.replace("seed = 77", "seed = -1"))],
            "mc-config": ["mc", "rare-event", "--out", str(out / "mc.csv"),
                          "--config", write(tmp_path, "r.cfg", RARE_EVENT.replace("seed = 99", "seed = -1"))],
            "sample-fbm-flag": ["sample-fbm", "--hurst", "0.7", "--n", "64", "--seed", "-1", "--out", str(out / "b.csv")],
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("invalid input: need a seed >= 0, got -1")
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["run", "--config", "c.cfg"], "'run'"),
            (["rate", "--config", "c.cfg", "--spec", "c.cfg"], "--spec"),
            (["simulate", "--config", "c.cfg", "--seed", "3"], "--seed"),
        ],
        ids=["run", "spec", "simulate-seed"],
    )
    def test_removed_flags_exit_2_naming_them(self, tmp_path, capsys, monkeypatch, argv, named):
        # run re-declared the flags of rate and limit-study, --spec was an
        # alias of --config and simulate --seed one of [experiment] seed
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["poisson"], ["rate"], ["limit-study"], ["mc", "rare-event"]])
    def test_out_and_out_dir_together_exit_2(self, tmp_path, capsys, command):
        # --out won and --out-dir was ignored without a word
        cfg = write(tmp_path, "c.cfg", COS_LIMIT)
        argv = [*command, "--config", cfg, "--out", str(tmp_path / "o" / "a"), "--out-dir", str(tmp_path / "d")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument --out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    def test_validation_exit_code(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", BAD_BRANCH)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        rc = main(["validate", "--config", cfg])
        assert rc == 2

    @pytest.mark.parametrize(
        "edit",
        [("y0 = 0.0", "dy = 2\ny0 = 0.0 0.0"), ("x0 = 1.0", "m = 2\nx0 = 1.0 1.0")],
    )
    def test_simulate_dimension_mismatch_is_invalid_input(self, tmp_path, capsys, edit):
        # the system has one slow and one fast dimension: m and dy are
        # unknown keys, and x0 and y0 are one number each
        cfg = write(tmp_path, "d.cfg", OU_HOMOG.replace(*edit))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", cfg, "--out-dir", str(out)])
        assert rc == 2
        assert "invalid input:" in capsys.readouterr().err
        assert not (out / "simulate_summary.json").exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_simulate_trials_below_one_is_invalid_input(self, tmp_path, capsys, monkeypatch, trials):
        # --trials 0 ran the config's trial count and exited 0; no cell
        # problem is built for a run of no trials
        monkeypatch.setattr(cli, "_measure_and_drift", pytest.fail)
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--trials", trials, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: need at least one trial, got {trials}")
        assert not out.exists()

    @pytest.mark.parametrize("config", ["rare_event_linear.cfg", "cos_limit_study.cfg"])
    def test_simulate_without_trials_on_another_kind_is_invalid_input(self, tmp_path, capsys, monkeypatch, config):
        # simulate took the Monte Carlo trials of rare_event_linear.cfg, 1e6
        # per point, and wrote one trajectory CSV per trial with no bound
        monkeypatch.setattr(cli, "_measure_and_drift", pytest.fail)
        out = tmp_path / "o"
        out.mkdir()
        assert main(["simulate", "--config", str(CONFIGS / config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: [experiment] trials is read only by kind = simulate")
        assert "--trials" in err
        assert list(out.iterdir()) == []

    def test_mc_laplace_unknown_functional_kind_exits_before_simulating(self, tmp_path, capsys, monkeypatch):
        # a misspelled h_kind simulated a schedule point of 1000 trials first
        monkeypatch.setattr(cli, "estimate_laplace", pytest.fail)
        text = OU_HOMOG.replace("kind = simulate", "kind = laplace\nh_kind = terminal_sqr")
        cfg = write(tmp_path, "l.cfg", text.replace("trials = 3", "trials = 1000"))
        out = tmp_path / "l.csv"
        assert main(["mc", "laplace", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: unknown functional kind 'terminal_sqr'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            # the cell problem's settings are function defaults, and the
            # input path and rate method are flags of their commands
            ("seed = 77", "seed = 77\n[tolerances]\ncentering_tol = 1e-4"),
            ("seed = 77", "seed = 77\n[poisson]\nn = 4097"),
            ("seed = 77", "seed = 77\npath_csv = path.csv"),
            ("seed = 77", "seed = 77\nmethod = general"),
            ("c = linear_xy ax=-1.0", "c = linear_xy ax=abc"),
            ("[grid]", "[Grid]"),
            # the Monte Carlo engine follows the declared coefficient facts
            ("seed = 77", "seed = 77\nengine = simulate"),
            # out of range: these died with ZeroDivisionError, IndexError or
            # a bare numpy ValueError (exit 1), or exited 2 on a message
            # about a fine grid of -399 points
            ("n = 51", "n = 1"),
            ("n = 51", "n = 0"),
            ("horizon = 1.0", "horizon = 0"),
            ("horizon = 1.0", "horizon = nan"),
            ("horizon = 1.0", "horizon = 1.0\nsubsteps = -2"),
        ],
    )
    def test_malformed_config_is_invalid_input(self, tmp_path, capsys, edit):
        cfg = write(tmp_path, "bad.cfg", OU_HOMOG.replace(*edit))
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config,edit",
        [
            # a misspelled parameter would run with the default value 1.0
            ("rare_event_linear.cfg", ("sigma1 = constant value=1.0", "sigma1 = constant valeu=3.0")),
            # ou returns f(y) in every role, so simulate died with a TypeError
            ("ou_homogenization.cfg", ("c = linear_xy ax=-1.0 ay=1.0", "c = ou rate=1.0")),
            ("ou_homogenization.cfg", ("f = ou rate=1.0", "f = linear_xy ax=1.0")),
        ],
    )
    def test_undeclared_coefficient_use_is_invalid_input(self, tmp_path, capsys, config, edit):
        text = (CONFIGS / config).read_text()
        assert edit[0] in text
        cfg = write(tmp_path, config, text.replace(*edit))
        for argv in (["validate"], ["simulate", "--out-dir", str(tmp_path / "o")]):
            assert main([*argv, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid input:")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            # validated, then simulate aborted every trial and exited 0
            ("c = linear_xy ax=-1.0 ay=1.0", "c = linear_xy ax=-1.0 ay=inf"),
            # validated the centering and the Gram on a NaN density
            ("tau = constant value=1.4142135623730951", "tau = constant value=nan"),
        ],
    )
    def test_non_finite_coefficient_parameter_is_invalid_input(self, tmp_path, capsys, edit):
        text = (CONFIGS / "ou_homogenization.cfg").read_text()
        assert edit[0] in text
        cfg = write(tmp_path, "nf.cfg", text.replace(*edit))
        for argv in (["validate"], ["simulate", "--trials", "2", "--out-dir", str(tmp_path / "o")]):
            assert main([*argv, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid input:")
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_simulate_all_trials_aborted_is_numerical_failure(self, tmp_path, capsys):
        # exited 0 with null mean_sup_error, terminal_mean and terminal_std
        text = (CONFIGS / "ou_homogenization.cfg").read_text().replace("ax=-1.0", "ax=1e300")
        cfg, out = write(tmp_path, "a.cfg", text), tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--trials", "4", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: all 4 trials aborted at eps=0.1")
        assert not (out / "simulate_summary.json").exists()

    def test_simulate_skew_route_matches_the_loop(self, tmp_path, monkeypatch):
        # the OU config stepped as a skew product and by the Euler loop
        # alone, its oracle: every number of the summary within 1e-12
        # relative, every trajectory within 1e-12 of its sup norm
        outs = [tmp_path / "skew", tmp_path / "loop"]
        for out in outs:
            if out.name == "loop":
                monkeypatch.setattr(multiscale_sim, "_skew_route", lambda spec: False)
            argv = ["simulate", "--config", str(CONFIGS / "ou_homogenization.cfg"), "--trials", "2"]
            assert main([*argv, "--out-dir", str(out)]) == 0
        skew, loop = (json.loads((out / "simulate_summary.json").read_text()) for out in outs)
        assert skew["trials"] == loop["trials"] and len(skew["schedule"]) == len(loop["schedule"]) == 3
        for got, want in zip(skew["schedule"], loop["schedule"]):
            assert got.keys() == want.keys()
            for key in got:
                assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key]), key
        names = sorted(p.name for p in outs[0].glob("trajectory_*.csv"))
        assert len(names) == 6 and names == sorted(p.name for p in outs[1].glob("trajectory_*.csv"))
        for name in names:
            got, want = (GridPath.from_csv(str(out / name)) for out in outs)
            assert np.array_equal(got.times(), want.times())
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("route", ["affine", "loop"])
    def test_simulate_unstable_fast_step_aborts_every_trial(self, tmp_path, capsys, monkeypatch, route):
        # dt_fast = 1/(200 * 4096) >> eta: the fast Euler step of the OU
        # config grows y by about -10 per step; the skew route, two affine
        # recurrences, hands the trial to the loop, which aborts it as it
        # does on its own
        if route == "loop":
            monkeypatch.setattr(multiscale_sim, "_skew_route", lambda spec: False)
        text = (CONFIGS / "ou_homogenization.cfg").read_text().replace("eta = auto", "eta = 1e-7, 1e-8, 1e-9")
        cfg, out = write(tmp_path, "u.cfg", text), tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--trials", "1", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: all 1 trials aborted at eps=0.1")

    @pytest.mark.parametrize("method", ["fw-half", "tilde-half", "general", "explicit", "limit-study"])
    def test_rate_never_writes_nan(self, tmp_path, capsys, method):
        # x0 = 1e308 overflows the path's derivative: fw-half and tilde-half
        # wrote "value": NaN and general died with a ValueError; explicit
        # writes Infinity, an inadmissible path, by design.  numpy's overflow
        # warnings reached stderr ahead of the typed failure
        text = (CONFIGS / "cos_limit_study.cfg").read_text().replace("x0 = 0.0", "x0 = 1e308")
        cfg, out = write(tmp_path, "big.cfg", text), tmp_path / "r.out"
        if method == "limit-study":
            rc = main(["limit-study", "--config", cfg, "--out", str(out)])
        else:
            rc = main(["rate", "--config", cfg, "--method", method, "--out", str(out)])
        err = capsys.readouterr().err
        if method == "explicit":
            assert rc == 0 and json.load(open(out))["value"] == float("inf")
            assert err == ""
        else:
            assert rc == 3
            assert err.startswith("numerical failure:") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("method", ["fw-half", "tilde-half", "general"])
    def test_rate_overflowed_coefficients_are_numerical_failure(self, tmp_path, capsys, method):
        # x0 = 1e200 and sigma1 = x + y square to inf in the averaged
        # matrices: fw-half and tilde-half wrote "value": 0.0, and general
        # died with a ValueError from cho_factor
        text = (CONFIGS / "cos_limit_study.cfg").read_text().replace("x0 = 0.0", "x0 = 1e200")
        text = text.replace("sigma1 = cos_y", "sigma1 = linear_xy ax=1.0")
        out = tmp_path / "r.json"
        rc = main(["rate", "--config", write(tmp_path, "big.cfg", text), "--method", method, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["explicit", "general"])
    def test_rate_non_finite_path_is_invalid_input(self, tmp_path, capsys, method):
        # explicit wrote an infinite value, general died with a ValueError
        n = 1025
        t = np.linspace(0.0, 1.0, n)
        vals = t**3 / 3.0
        vals[500] = np.nan
        csv = str(tmp_path / "nan.csv")
        GridPath(0.0, t[1], vals).to_csv(csv)
        out = tmp_path / "r.json"
        argv = ["rate", "--config", str(CONFIGS / "cos_limit_study.cfg"), "--path", csv, "--method", method]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows",
        [["0.0,0.0", "0.1,abc", "0.2,0.0"], ["0.0,0.0", "0.1,2.0,5.0", "0.2,0.0"], ["0.0,0.0", "0.1", "0.2,0.0"]],
        ids=["non_numeric", "too_wide", "too_narrow"],
    )
    def test_rate_malformed_csv_is_invalid_input(self, tmp_path, capsys, rows):
        # each used to escape as a bare ValueError: exit 1 with a traceback
        csv = tmp_path / "bad.csv"
        csv.write_text("\n".join(["t,v0", *rows]) + "\n")
        argv = ["rate", "--config", str(CONFIGS / "cos_limit_study.cfg"), "--path", str(csv)]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [["rate"], ["limit-study"]], ids=["rate", "limit_study"])
    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_path_is_invalid_input(self, tmp_path, capsys, command, case):
        # each ended in a FileNotFoundError, IsADirectoryError or
        # UnicodeDecodeError traceback with exit 1; a missing --config exits 2
        csv = tmp_path / "p.csv"
        if case == "directory":
            csv.mkdir()
        elif case == "not_utf8":
            csv.write_bytes(b"t,v0\n0.0,\xff\xfe\n0.5,0.0\n")
        out = tmp_path / "o.json"
        argv = [*command, "--config", str(CONFIGS / "cos_limit_study.cfg"), "--path", str(csv), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["poisson", "rate", "simulate", "validate", "sample_fbm"])
    def test_unwritable_output_is_invalid_input(self, tmp_path, capsys, case):
        # a directory as the output file, a file as the output directory or
        # its parent, and an empty file name: each ended in an
        # IsADirectoryError, FileExistsError or FileNotFoundError traceback
        # with exit 1
        folder, file = tmp_path / "d", tmp_path / "f"
        folder.mkdir()
        file.write_text("")
        cfg = str(CONFIGS / "cos_limit_study.cfg")
        argv = {
            "poisson": ["poisson", "--config", cfg, "--out", f"{folder}/"],
            "rate": ["rate", "--config", cfg, "--out", str(file / "r.json")],
            "simulate": ["simulate", "--config", cfg, "--trials", "1", "--out-dir", str(file)],
            "validate": ["validate", "--config", cfg, "--json", str(folder)],
            "sample_fbm": ["sample-fbm", "--hurst", "0.7", "--n", "9", "--out", ""],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: cannot write ") and err.count("\n") == 1
        assert list(folder.iterdir()) == [] and file.read_text() == ""

    @pytest.mark.parametrize("command", [["rate", "--method", m] for m in ("explicit", "general", "fw-half", "tilde-half")]
                             + [["limit-study"]], ids=["explicit", "general", "fw_half", "tilde_half", "limit_study"])
    def test_two_column_path_is_invalid_input(self, tmp_path, capsys, command):
        # the slow state is a scalar; the path's dimension is named
        csv = str(tmp_path / "f2.csv")
        assert main(["sample-fbm", "--hurst", "0.7", "--n", "65", "--dim", "2", "--out", csv]) == 0
        out = tmp_path / "o.json"
        argv = [*command, "--config", str(CONFIGS / "cos_limit_study.cfg"), "--path", csv, "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "invalid input: expected a scalar path, got dim=2\n"
        assert not out.exists()

    def test_overflowing_brownian_gram_is_numerical_failure(self, tmp_path, capsys):
        # sigma2 = 1e200 squares to inf: poisson wrote "qqt_bar": [[Infinity]]
        # and exited 0, validate passed the check at inf, and numpy's
        # overflow warning reached stderr
        text = (CONFIGS / "ou_homogenization.cfg").read_text()
        assert "sigma2 = zero" in text
        cfg = write(tmp_path, "big.cfg", text.replace("sigma2 = zero", "sigma2 = constant value=1e200"))
        assert main(["validate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "[warn] qqt_min_eigenvalue: effective Brownian Gram at x = 1.0 is not finite" in captured.out
        assert captured.err == ""
        out = tmp_path / "p.json"
        assert main(["poisson", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: effective Brownian Gram") and err.count("\n") == 1
        assert not out.exists()

    def test_import_leaves_out_scipy_signal(self):
        # scipy.signal (and scipy.stats, which it imports) cost about half a
        # second per process, scipy.integrate (with scipy.optimize, scipy.sparse
        # and scipy.spatial) about 0.2 s; the package needs neither
        heavy = ["scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.sparse"]
        code = f"import sys, fracrate.cli; print([m for m in {heavy!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"

    def test_no_command_imports_scipy(self, tmp_path):
        # every command on every shipped config, and sample-fbm, in one
        # fresh interpreter: whatever each exits with, no scipy module loads,
        # so set-up costs what numpy costs
        runs = [["sample-fbm", "--hurst", "0.7", "--n", "65", "--out", str(tmp_path / "fbm.csv")]]
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            common = ["--config", str(cfg), "--out-dir", str(tmp_path / cfg.stem)]
            runs += [["validate", "--config", str(cfg)], ["poisson", *common], ["limit-study", *common],
                     ["simulate", *common, "--trials", "2"], ["mc", "laplace", *common], ["mc", "rare-event", *common]]
            runs += [["rate", *common, "--method", method] for method in ("explicit", "general", "fw-half", "tilde-half")]
        code = (
            "import json, sys\nfrom fracrate.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'),"
            " 'numpy.polynomial' in sys.modules]))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        codes, loaded, polynomial = json.loads(out.stdout.splitlines()[-1])
        assert len(codes) == len(runs) and set(codes) <= {0, 2, 3}
        assert loaded == []
        # numpy.polynomial costs 5-6 ms to import; the incomplete Beta fit
        # converts its Chebyshev coefficients without it
        assert not polynomial

    def test_warning_is_one_line_without_source(self, tmp_path):
        # the fast-step stability warning printed as
        # "<path>/multiscale_sim.py:<line>: RuntimeWarning: ..." plus the
        # source line, so stderr changed with the checkout path and with
        # any edit above the call
        text = (CONFIGS / "ou_homogenization.cfg").read_text()
        assert "f = ou rate=1.0" in text and "n = 201" in text
        cfg = write(tmp_path, "u.cfg", text.replace("f = ou rate=1.0", "f = cubic_y rate=1.0").replace("n = 201", "n = 51"))
        argv = ["simulate", "--config", cfg, "--trials", "4", "--out-dir", str(tmp_path / "o")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-m", "fracrate.cli", *argv], capture_output=True, text=True, env=env)
        assert out.returncode == 0
        lines = out.stderr.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("warning: fast Euler step may be unstable: eta=") for line in lines)
        assert ".py:" not in out.stderr

    def test_validate_reports_unsupported_dimension(self, tmp_path, capsys):
        # reported as a failed qqt_min_eigenvalue check before the dimension
        # keys went; now the config does not load
        cfg = write(tmp_path, "m2.cfg", OU_HOMOG.replace("x0 = 1.0", "m = 2\nx0 = 1.0"))
        assert main(["validate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid input: unknown keys in [model]: ['m']\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["validate"], ["simulate"], ["mc", "rare-event"]],
                             ids=["validate", "simulate", "mc_rare_event"])
    @pytest.mark.parametrize("edit,named", [
        (("[model]", "[model]\nm = 1"), "unknown keys in [model]: ['m']"),
        (("[model]", "[model]\ndy = 1"), "unknown keys in [model]: ['dy']"),
        (("[model]", "[model]\nk = 1"), "unknown keys in [model]: ['k']"),
        (("[model]", "[model]\nell = 1"), "unknown keys in [model]: ['ell']"),
        (("x0 = 0.0", "x0 = 1.0, 1.0"), "[model] x0: "),
    ], ids=["m", "dy", "k", "ell", "x0_list"])
    def test_dimension_keys_are_invalid_input(self, tmp_path, capsys, monkeypatch, command, edit, named):
        monkeypatch.setenv("FRACRATE_OUT", str(tmp_path / "o"))
        text = (CONFIGS / "rare_event_linear.cfg").read_text().replace("trials = 1000000", "trials = 1000")
        assert edit[0] in text
        assert main([*command, "--config", write(tmp_path, "dim.cfg", text.replace(*edit))]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: {named}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,edit,named", [
        # wrote nan into estimate and std_error of every row and exited 0
        (["mc", "laplace"], ("threshold = 0.309", "h_cap = nan"), "[experiment] h_cap"),
        # divided by zero in the logistic and exited 0
        (["mc", "laplace"], ("threshold = 0.309", "h_kind = smooth_exceedance\nh_width = 0"), "[experiment] h_width"),
        (["mc", "laplace"], ("threshold = 0.309", "h_width = -0.1"), "[experiment] h_width"),
        # exited 3, "too rare"
        (["mc", "rare-event"], ("threshold = 0.309", "threshold = nan"), "[experiment] threshold"),
        # exited 3, "all 2 trials aborted"
        (["simulate", "--trials", "2"], ("x0 = 0.0", "x0 = nan"), "[model] x0"),
        (["simulate", "--trials", "2"], ("y0 = 0.0", "y0 = inf"), "[model] y0"),
        # failed scale_ratio, which --force overrides
        (["simulate", "--trials", "2"], ("eps = 0.1, 0.05", "eps = 0.1, nan"), "[schedule] eps"),
        (["mc", "rare-event"], ("eps = 0.1, 0.05", "eps = 0.1, nan"), "[schedule] eps"),
        # named no key: "bad config ...: need a finite number"
        (["simulate", "--trials", "2"], ("eta = auto", "eta = 0.03, 0.01, nan, 0.001"), "[schedule] eta"),
    ], ids=["h_cap_nan", "h_width_zero", "h_width_negative", "threshold_nan", "x0_nan", "y0_inf", "eps_nan_simulate",
            "eps_nan_mc", "eta_nan"])
    def test_non_finite_setting_is_invalid_input(self, tmp_path, capsys, command, edit, named):
        text = (CONFIGS / "rare_event_linear.cfg").read_text().replace("trials = 1000000", "trials = 1000")
        assert edit[0] in text
        cfg, out = write(tmp_path, "nf.cfg", text.replace(*edit)), tmp_path / "o"
        assert main([*command, "--force", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: {named}: ")
        assert not out.exists()

    def test_rare_event_overflowing_prediction_is_numerical_failure(self, tmp_path, capsys):
        # died with a bare OverflowError at (a - x0)**2: exit 1 and a traceback
        text = (CONFIGS / "rare_event_linear.cfg").read_text().replace("threshold = 0.309", "threshold = 1e308")
        cfg, out = write(tmp_path, "big.cfg", text), tmp_path / "o"
        assert main(["mc", "rare-event", "--config", cfg, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: pilot run found 0/") and err.count("\n") == 1
        assert not (out / "mc_rare-event.csv").exists()

    def test_limit_study_csv(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "ls.csv")
        rc = main(["limit-study", "--config", cfg, "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("hurst,")
        assert len(lines) == 3

    @pytest.mark.parametrize("command", ["limit-study"])
    @pytest.mark.parametrize("hurst_list", ["0.6,abc", " , ", ""])
    def test_bad_hurst_list_is_invalid_input(self, tmp_path, capsys, command, hurst_list):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        argv = [command, "--config", cfg, "--hurst-list", hurst_list, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid input: --hurst-list" in err
        assert "abc" in err or "no Hurst index" in err
        assert not (tmp_path / "limit_study.csv").exists()

    def test_poisson_json(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "p.json")
        rc = main(["poisson", "--config", cfg, "--out", out])
        assert rc == 0
        data = json.load(open(out))
        assert {"grid", "density", "psi", "grad_psi", "qqt_bar", "min_eigenvalue"} <= set(data)

    def test_rate_json(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "r.json")
        rc = main(["rate", "--config", cfg, "--method", "explicit", "--hurst", "0.6", "--out", out])
        assert rc == 0
        data = json.load(open(out))
        assert data["value"] > 0

    def test_rate_general_on_a_fine_grid(self, tmp_path):
        # exited 3 from n = 2049 on: the Gram's smallest eigenvalue fell
        # below the degeneracy ratio while its square root's stayed above
        text = (CONFIGS / "cos_limit_study.cfg").read_text().replace("n = 1025", "n = 2049")
        out = tmp_path / "r.json"
        rc = main(["rate", "--config", write(tmp_path, "fine.cfg", text), "--method", "general", "--out", str(out)])
        assert rc == 0
        assert np.isfinite(json.load(open(out))["value"])

    @pytest.mark.parametrize("hurst", ["0", "0.0"])
    def test_rate_explicit_zero_hurst_is_invalid_input(self, tmp_path, capsys, hurst):
        # --hurst 0 was read as unset: the run used the config's H = 0.8
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = tmp_path / "r.json"
        argv = ["rate", "--config", cfg, "--method", "explicit", "--hurst", hurst, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("invalid input:")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["rare-event", "laplace"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_mc_trials_below_one_is_invalid_input(self, tmp_path, capsys, mode, trials):
        # rare-event exited 3, "event too rare for 0 plain Monte Carlo trials"
        cfg = write(tmp_path, "mc.cfg", RARE_EVENT.replace("trials = 20000", f"trials = {trials}"))
        out = tmp_path / "m.csv"
        assert main(["mc", mode, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: need at least one trial, got {trials}")
        assert not out.exists()

    def test_mc_rare_event_csv_independent_of_workers(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "mc.cfg", RARE_EVENT)
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(ldp_harness, "_POINT_WORKERS", workers)
            outs.append(tmp_path / f"m{workers}.csv")
            assert main(["mc", "rare-event", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mc_laplace_one_finite_trial_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a point with one finite trial of 1000 wrote std_error nan
        def one_finite(plan, spec, stream, trials=None):
            vals = np.full(plan.trials, np.nan)
            vals[0] = 0.1
            return iter([(vals, plan.trials - 1)])

        monkeypatch.setattr(MonteCarloPlan, "terminal_values", one_finite)
        cfg = write(tmp_path, "mc.cfg", RARE_EVENT.replace("trials = 20000", "trials = 1000"))
        out = tmp_path / "m.csv"
        assert main(["mc", "laplace", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: 1 of 1000 trials ended finite at eps=0.1; the standard error needs 2\n"
        assert not out.exists()

    def test_mc_rare_event_determinism(self, tmp_path):
        cfg = write(tmp_path, "mc.cfg", RARE_EVENT)
        out1 = str(tmp_path / "m1.csv")
        out2 = str(tmp_path / "m2.csv")
        assert main(["mc", "rare-event", "--config", cfg, "--out", out1]) == 0
        assert main(["mc", "rare-event", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("edit,engine,prediction", [
        (("", ""), "gaussian", "0.08000000000000002"),
        (("c = zero", "c = linear_xy ax=-2.0"), "simulate", ""),
    ])
    def test_mc_rare_event_prediction_only_for_closed_form(self, tmp_path, edit, engine, prediction):
        # the closed form (a - x0)^2 / (2 sigma^2 T^2H) holds only without drift
        text = RARE_EVENT.replace(*edit).replace("trials = 20000", "trials = 1000")
        cfg = write(tmp_path, "mc.cfg", text + "\n[grid]\nn = 9\n")
        out = str(tmp_path / "m.csv")
        assert main(["mc", "rare-event", "--config", cfg, "--out", out]) == 0
        with open(out) as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh]
        assert len(rows) == 2
        assert {row[header.index("engine")] for row in rows} == {engine}
        assert {row[header.index("prediction")] for row in rows} == {prediction}

    def test_mc_rare_event_threshold_below_start(self, tmp_path):
        # every row predicted (a - x0)^2 / (2 sigma^2 T^2H) = 0.5 for a = -1 < x0,
        # and a point where every trial hits wrote -0.0
        text = RARE_EVENT.replace("threshold = 0.4", "threshold = -1.0").replace("trials = 20000", "trials = 2000")
        out = tmp_path / "m.csv"
        assert main(["mc", "rare-event", "--config", write(tmp_path, "mc.cfg", text), "--out", str(out)]) == 0
        with open(out) as fh:
            header, *rows = [line.rstrip("\n").split(",") for line in fh]
        assert {row[header.index("prediction")] for row in rows} == {"0.0"}
        assert "0.0" in {row[header.index("neg_eps_log_p")] for row in rows}
        assert "-0.0" not in out.read_text()

    def test_simulate_rerun_identical_outputs(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        outs = []
        for sub in ("o1", "o2"):
            out = str(tmp_path / sub)
            assert main(["simulate", "--config", cfg, "--out-dir", out]) == 0
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            if name == "manifest.json":
                m1 = json.load(open(os.path.join(outs[0], name)))
                m2 = json.load(open(os.path.join(outs[1], name)))
                m1.pop("timestamp"), m2.pop("timestamp")
                assert m1 == m2
            else:
                b1 = open(os.path.join(outs[0], name), "rb").read()
                b2 = open(os.path.join(outs[1], name), "rb").read()
                assert b1 == b2, name

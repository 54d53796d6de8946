import json
import os

import numpy as np
import pytest

from fracrate.cli import main
from fracrate.config import hard_failures, load_config, validate
from fracrate.gridpath import GridPath

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


class TestConfig:
    def test_parse_and_spec(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", OU_HOMOG))
        assert cfg.kind == "simulate"
        assert cfg.schedule[0][0] == 0.1
        spec = cfg.make_spec(0.1, 0.01)
        assert spec.hurst == 0.7
        assert spec.x0[0] == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        from fracrate.errors import InvalidInputError

        bad = OU_HOMOG.replace("trials = 3", "trails = 3")
        with pytest.raises(InvalidInputError):
            load_config(write(tmp_path, "b.cfg", bad))

    def test_validate_passes_ou(self, tmp_path):
        cfg = load_config(write(tmp_path, "a.cfg", OU_HOMOG))
        checks = validate(cfg)
        assert not hard_failures(checks)
        names = {c.name for c in checks}
        assert {"centering", "hurst_branch", "scale_ratio", "tau_nondegenerate"} <= names

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

    def test_simulate_and_summary(self, tmp_path):
        cfg = write(tmp_path, "a.cfg", OU_HOMOG)
        out = str(tmp_path / "out")
        rc = main(["simulate", "--config", cfg, "--out-dir", out])
        assert rc == 0
        summary = json.load(open(os.path.join(out, "simulate_summary.json")))
        assert len(summary["schedule"]) == 2
        assert summary["schedule"][0]["mean_sup_error"] is not None
        assert os.path.exists(os.path.join(out, "manifest.json"))

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
        # the homogenized reference averages over one fast dimension against
        # a scalar slow state
        cfg = write(tmp_path, "d.cfg", OU_HOMOG.replace(*edit))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", cfg, "--out-dir", str(out)])
        assert rc == 2
        assert "invalid input:" in capsys.readouterr().err
        assert not (out / "simulate_summary.json").exists()

    def test_limit_study_csv(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "ls.csv")
        rc = main(["limit-study", "--config", cfg, "--out", out, "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("hurst,")
        assert len(lines) == 3

    def test_poisson_json(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "p.json")
        rc = main(["poisson", "--config", cfg, "--out", out, "--out-dir", str(tmp_path)])
        assert rc == 0
        data = json.load(open(out))
        assert {"grid", "density", "psi", "grad_psi", "qqt_bar", "min_eigenvalue"} <= set(data)

    def test_rate_json(self, tmp_path):
        cfg = write(tmp_path, "cos.cfg", COS_LIMIT)
        out = str(tmp_path / "r.json")
        rc = main(["rate", "--config", cfg, "--method", "explicit", "--hurst", "0.6", "--out", out, "--out-dir", str(tmp_path)])
        assert rc == 0
        data = json.load(open(out))
        assert data["value"] > 0

    def test_mc_rare_event_determinism(self, tmp_path):
        cfg = write(tmp_path, "mc.cfg", RARE_EVENT)
        out1 = str(tmp_path / "m1.csv")
        out2 = str(tmp_path / "m2.csv")
        assert main(["mc", "rare-event", "--config", cfg, "--out", out1, "--out-dir", str(tmp_path)]) == 0
        assert main(["mc", "rare-event", "--config", cfg, "--out", out2, "--out-dir", str(tmp_path)]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_run_dispatch_and_empty_kind(self, tmp_path):
        # kind = none: manifest only, exit success
        text = OU_HOMOG.replace("kind = simulate", "kind = none")
        cfg = write(tmp_path, "n.cfg", text)
        out = str(tmp_path / "empty")
        assert main(["run", "--config", cfg, "--out-dir", out]) == 0
        assert os.listdir(out) == ["manifest.json"]
        # kind = limit-study dispatches like the dedicated subcommand
        cfg2 = write(tmp_path, "cos.cfg", COS_LIMIT)
        out2 = str(tmp_path / "ls2.csv")
        assert main(["run", "--config", cfg2, "--out", out2, "--out-dir", str(tmp_path)]) == 0
        assert open(out2).readline().startswith("hurst,")

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

import os
import re

import numpy as np
import pytest

from suplab.cli import ConfigError, main, parse_config, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

MINIMAL = """
[density]
family = weighted_norm
a = one

[mesh]
cells = 64

[exponents]
profile = constant
n_schedule = 4 8
"""


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def config_text(name):
    with open(config_path(name)) as fh:
        return fh.read()


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kind == "norm_gamma"
        assert cfg.mesh.cells == (64,)
        assert cfg.beta == 3.0
        assert cfg.n_schedule == (4, 8)
        assert cfg.solver.epsilons[0] == pytest.approx(0.1)
        assert cfg.threshold == pytest.approx(0.02)

    def test_beta_below_one_cites_ratio_bound(self):
        bad = MINIMAL.replace("profile = constant", "profile = constant\nbeta = 0.5")
        with pytest.raises(ConfigError, match="pn2"):
            parse_config(bad)

    def test_alpha_above_infimum_cites_growth(self):
        bad = MINIMAL.replace("a = one", "a = inverse_one_plus_x\nalpha = 0.9")
        with pytest.raises(ConfigError, match="H2"):
            parse_config(bad)

    def test_unknown_key_is_named(self):
        bad = MINIMAL.replace("cells = 64", "cells = 64\ncellz = 3")
        with pytest.raises(ConfigError, match="cellz"):
            parse_config(bad)

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_declared_convexity_checked(self):
        bad = """
[density]
family = custom
rule = unit_sphere_distance
level_convex = true

[mesh]
cells = 16
"""
        with pytest.raises(ConfigError, match="H1"):
            parse_config(bad)

    def test_plane_anisotropy_default_alpha(self):
        # max(|xi_1|, |xi_2|) >= |xi| / sqrt(2); alpha = min(a) fails H2 in 2-D
        doc = MINIMAL.replace("weighted_norm", "anisotropic").replace(
            "cells = 64", "dimension = 2\ncells = 8")
        assert parse_config(doc).density.alpha == pytest.approx(1.0 / np.sqrt(2.0))

    def test_piecewise_coefficient(self):
        doc = MINIMAL.replace("a = one", "a = piecewise:1.0,2.0")
        cfg = parse_config(doc)
        a = cfg.density.coefficients["a"]
        assert np.all(a[:32] == 1.0) and np.all(a[32:] == 2.0)


class TestRun:
    def test_norms_run_passes(self, tmp_path):
        manifest = run("norms", config_path("norms.ini"), str(tmp_path), seed=7)
        assert manifest.passed
        names = [f for f, _ in manifest.files]
        assert "norms.csv" in names
        text = (tmp_path / "norms.csv").read_text().splitlines()
        assert text[0].startswith("# config_sha256=") and text[0].endswith("seed=7")
        assert text[1] == "n,p_minus,p_plus,norm,sup,error"

    def test_dichotomy_diverging_exit_zero(self, tmp_path):
        code = main(["dichotomy", "--config", config_path("dichotomy_high.ini"),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "dichotomy.csv").read_text().splitlines()[2:]
        final_value = float(rows[-1].split(",")[3])
        assert final_value >= 1e8

    def test_kind_mismatch_is_config_error(self, tmp_path):
        code = main(["dichotomy", "--config", config_path("norms.ini"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["norms", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_boundary_probe_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            config_text("dichotomy_low.ini")
            .replace("probe_scale = 0.5", "probe_scale = 1.0")
        )
        code = main(["dichotomy", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_gamma_study_small(self, tmp_path):
        cfg = tmp_path / "small.ini"
        cfg.write_text(
            config_text("gamma_benchmark.ini")
            .replace("cells = 200", "cells = 32")
            .replace("n_schedule = 4 8 16 32 64", "n_schedule = 4 8")
        )
        code = main(["gamma-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        out = tmp_path / "o"
        assert (out / "gamma_study.csv").exists()
        assert (out / "solver_trace.csv").exists()
        assert (out / "manifest.csv").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = config_path("norms.ini")
        run("norms", cfg, str(tmp_path / "a"), seed=11)
        run("norms", cfg, str(tmp_path / "b"), seed=11)
        for name in ("norms.csv", "manifest.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_minimizers_small(self, tmp_path):
        cfg = tmp_path / "mini.ini"
        cfg.write_text(
            config_text("minimizers.ini")
            .replace("cells = 200", "cells = 32")
            .replace("n_schedule = 4 8 16 32 64", "n_schedule = 4 8")
            .replace("threshold = 0.01", "threshold = 0.1")
        )
        code = main(["minimizers", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "minimizers.csv").read_text().splitlines()
        assert lines[1] == "n,p_minus,p_plus,sup_distance,oracle,error"

    @pytest.mark.parametrize("key, value", [
        ("instances", 0), ("pair_instances", -3), ("jensen_trials", 0), ("probe_trials", 0),
    ])
    def test_nonpositive_trial_count_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                              config_text("verify.ini"), flags=re.M))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"[study] {key}" in capsys.readouterr().err

    def test_csv_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            run("norms", config_path("norms.ini"), str(tmp_path), seed=0)
        finally:
            os.umask(old)
        for name in ("norms.csv", "manifest.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_verify_quick(self, tmp_path):
        cfg = tmp_path / "quick.ini"
        cfg.write_text(
            config_text("verify.ini")
            .replace("instances = 1000", "instances = 50")
            .replace("pair_instances = 200", "pair_instances = 20")
            .replace("jensen_trials = 10000", "jensen_trials = 500")
            .replace("probe_trials = 10000", "probe_trials = 500")
        )
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "verify.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["check", "trials", "failures", "passed"]
        for line in lines[2:]:
            assert line.split(",")[3] == "1"

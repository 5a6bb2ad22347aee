import ast
import hashlib
import inspect
import os
import re
import tracemalloc

import numpy as np
import pytest

from suplab import cli, energy, gamma_lab
from suplab.cli import ConfigError, main, parse_config, run

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")

MINIMAL = """
[density]
family = weighted_norm
a = constant

[mesh]
cells = 64

[exponents]
profile = constant
n_schedule = 4 8
"""

UNIT_SPHERE = """
[density]
family = unit_sphere_distance
level_convex = {word}

[mesh]
cells = 16
"""

# each shipped config and the subcommand that runs it
SHIPPED = {
    "dichotomy_high.ini": "dichotomy",
    "dichotomy_low.ini": "dichotomy",
    "gamma_benchmark.ini": "gamma-study",
    "gamma_sine.ini": "gamma-study",
    "minimizers.ini": "minimizers",
    "norms.ini": "norms",
    "verify.ini": "verify",
}

# each study subcommand and the kind it runs, read off the study table
SUBCOMMAND_KIND = {row.subcommand: kind for kind, row in gamma_lab._STUDIES.items()}


# settable values removed from the schema: (section, key)
REMOVED_KEYS = [
    ("study", "delta"), ("study", "divergence_threshold"), ("study", "convergence_threshold"),
    ("exponents", "beta"), ("study", "instances"), ("study", "pair_instances"),
    ("study", "jensen_trials"), ("study", "probe_trials"), ("density", "gamma"),
]

# density keys no row reads any more: the row names its formula and says
# whether it is level convex
UNREAD_DENSITY_KEYS = {"rule", "level_convex"}

# every float-valued key of the schema, a list or a single value: (section, key)
FLOAT_KEYS = [
    ("density", "b"), ("density", "alpha"),
    ("mesh", "extent"), ("mesh", "g0"), ("mesh", "g1"), ("mesh", "c0"), ("mesh", "cx"),
    ("mesh", "cy"), ("study", "threshold"), ("study", "probe_scale"),
]


def with_key(doc, section, key, raw):
    """``doc`` with ``key = raw`` first in ``[section]``, adding the section if missing."""
    if f"[{section}]" not in doc:
        doc += f"\n[{section}]\n"
    return doc.replace(f"[{section}]\n", f"[{section}]\n{key} = {raw}\n")


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
        assert cfg.sequence().beta == 1.0
        assert cfg.n_schedule == (4, 8)
        assert cfg.threshold == pytest.approx(0.02)

    @pytest.mark.parametrize("key", [
        "epsilons", "tol", "max_iter",
        "step_init", "step_shrink", "sufficient_decrease", "max_backtracks", "inner_steps",
    ])
    def test_removed_solver_key_is_unknown(self, tmp_path, capsys, key):
        # the solver has no settings, so the whole section is unknown
        cfg = tmp_path / "solver.ini"
        cfg.write_text(MINIMAL + f"\n[solver]\n{key} = 1\n")
        code = main(["gamma-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "[solver]: unknown section" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", REMOVED_KEYS,
                             ids=[key for _, key in REMOVED_KEYS])
    def test_removed_study_key_is_unknown(self, section, key):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            parse_config(with_key(MINIMAL, section, key, "1"))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[key for _, key in FLOAT_KEYS])
    def test_non_finite_float_is_refused(self, section, key, raw):
        # a nan tol never stops a stage, an inf threshold passes every
        # error, a nan extent or trace value fails later naming no key
        with pytest.raises(ConfigError) as err:
            parse_config(with_key(MINIMAL, section, key, raw))
        assert str(err.value) == f"[{section}] {key}: cannot parse {raw!r}"

    def test_negative_weight_is_named(self):
        with pytest.raises(ConfigError, match=r"\[density\]: weighted_norm weight 'a'"):
            parse_config(MINIMAL.replace("a = constant", "a = constant:-1"))

    @pytest.mark.parametrize("word, error", [
        ("TRUE", "H1"), ("on", "H1"), ("1", "H1"), ("off", None), ("No", None), ("0", None),
        ("ture", "level_convex: cannot parse"), ("maybe", "level_convex: cannot parse"),
        ("2", "level_convex: cannot parse"),
    ])
    def test_boolean_words(self, word, error):
        # `error` is what the word gave when level_convex was a declaration:
        # an H1 refusal, acceptance, or a parse error. The row now says
        # whether the density is level convex, so every word is refused by
        # name before any probe or boolean parse runs.
        with pytest.raises(ConfigError) as err:
            parse_config(UNIT_SPHERE.format(word=word))
        assert str(err.value) == "[density] level_convex: unknown key"
        assert error is None or error not in str(err.value)

    @pytest.mark.parametrize("family, key, value", [
        ("shifted_norm", "rule", "capped_norm"), ("shifted_norm", "level_convex", "false"),
        ("shifted_norm", "a", "inverse_one_plus_x"), ("weighted_norm", "b", "0.5"),
        ("weighted_norm", "level_convex", "true"), ("anisotropic", "rule", "capped_norm"),
        ("anisotropic", "b", "1"), ("capped_norm", "a", "constant"),
        ("unit_sphere_distance", "b", "0.5"),
    ])
    def test_key_the_family_does_not_read_is_refused(self, family, key, value):
        # a key another row reads is unused by this family; a key no row
        # reads is unknown
        doc = f"[density]\nfamily = {family}\n{key} = {value}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(doc + "\n[mesh]\ncells = 16\n")
        reason = "unknown key" if key in UNREAD_DENSITY_KEYS else f"not used by family {family}"
        assert str(err.value) == f"[density] {key}: {reason}"

    @pytest.mark.parametrize("boundary, key, value", [
        ("endpoints", "c0", "0.5"), ("endpoints", "cx", "2.0"), ("endpoints", "cy", "1.0"),
        ("affine", "g0", "0.0"), ("affine", "g1", "1.0"),
        # a 1-D affine trace has no y slope
        ("affine", "cy", "1.0"),
    ])
    def test_key_the_trace_does_not_read_is_refused(self, boundary, key, value):
        doc = with_key(with_key(MINIMAL, "mesh", key, value), "mesh", "boundary", boundary)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"[mesh] {key}: not used by trace {boundary}"

    @pytest.mark.parametrize("kind, key, value", [
        ("norm_gamma", "probe_scale", "2.0"), ("constant_exponent", "probe_scale", "2.0"),
        ("integral_dichotomy", "threshold", "0.1"),
    ])
    def test_key_the_kind_does_not_read_is_refused(self, kind, key, value):
        doc = with_key(with_key(MINIMAL, "study", key, value), "study", "kind", kind)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == f"[study] {key}: not used by kind {kind}"

    def test_unknown_family_is_named(self):
        with pytest.raises(ConfigError, match=r"\[density\] family: unknown family 'cubic'"):
            parse_config(MINIMAL.replace("weighted_norm", "cubic"))

    def test_alpha_above_infimum_cites_growth(self):
        bad = MINIMAL.replace("a = constant", "a = inverse_one_plus_x\nalpha = 0.9")
        with pytest.raises(ConfigError, match="H2"):
            parse_config(bad)

    def test_unknown_key_is_named(self):
        bad = MINIMAL.replace("cells = 64", "cells = 64\ncellz = 3")
        with pytest.raises(ConfigError, match="cellz"):
            parse_config(bad)

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_declared_convexity_checked(self, monkeypatch):
        # the H1 probe runs for a row that claims level convexity, so a row
        # that claims it falsely is caught at parse time
        doc = "[density]\nfamily = unit_sphere_distance\n\n[mesh]\ncells = 16\n"
        assert not parse_config(doc).density.level_convex
        row = energy._FAMILIES["unit_sphere_distance"]._replace(level_convex=True)
        monkeypatch.setitem(energy._FAMILIES, "unit_sphere_distance", row)
        with pytest.raises(ConfigError, match=r"^\[density\] family: level convexity \(H1\) fails"):
            parse_config(doc)

    def test_plane_anisotropy_default_alpha(self):
        # max(|xi_1|, |xi_2|) >= |xi| / sqrt(2); alpha = min(a) fails H2 in 2-D
        doc = MINIMAL.replace("weighted_norm", "anisotropic").replace(
            "cells = 64", "dimension = 2\ncells = 8")
        assert parse_config(doc).density.alpha == pytest.approx(1.0 / np.sqrt(2.0))

    def test_piecewise_coefficient(self):
        doc = MINIMAL.replace("a = constant", "a = piecewise:1.0,2.0")
        cfg = parse_config(doc)
        a = cfg.density.coefficients["a"]
        assert np.all(a[:32] == 1.0) and np.all(a[32:] == 2.0)


class TestShippedConfigs:
    def test_every_config_is_listed(self):
        assert sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".ini")) == sorted(SHIPPED)

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_parses_with_a_kind_its_subcommand_runs(self, name):
        kind = parse_config(config_text(name)).kind
        subcommand = SHIPPED[name]
        # the verify battery takes any kind's density
        assert kind == SUBCOMMAND_KIND.get(subcommand, kind)
        assert kind in SUBCOMMAND_KIND.values()


class TestRun:
    def test_norms_run_passes(self, tmp_path):
        manifest = run("norms", config_path("norms.ini"), str(tmp_path), seed=7)
        assert manifest.passed
        names = [f for f, _ in manifest.files]
        assert "norms.csv" in names
        text = (tmp_path / "norms.csv").read_text().splitlines()
        assert text[0].startswith("# config_sha256=") and text[0].endswith("seed=7")
        assert text[1] == "n,p_minus,p_plus,norm,sup,error"

    def test_runner_is_looked_up_per_call(self, tmp_path, monkeypatch):
        # a rebinding of the module's runner name (as a profiler's wrapper
        # does) must be the runner that run calls
        calls = []
        real = gamma_lab.run_norm_limit

        def recording(cfg):
            calls.append(cfg.kind)
            return real(cfg)

        monkeypatch.setattr(gamma_lab, "run_norm_limit", recording)
        assert run("norms", config_path("norms.ini"), str(tmp_path)).passed
        assert calls == ["norm_limit"]

    def test_unknown_subcommand_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown subcommand 'plot'"):
            run("plot", config_path("norms.ini"), str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()

    def test_dichotomy_diverging_exit_zero(self, tmp_path):
        code = main(["dichotomy", "--config", config_path("dichotomy_high.ini"),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "dichotomy.csv").read_text().splitlines()[2:]
        final_value = float(rows[-1].split(",")[3])
        assert final_value >= 1e8

    @pytest.mark.parametrize("subcommand, kind", [
        ("norms", "norm_limit"), ("gamma-study", "norm_gamma"),
        ("dichotomy", "integral_dichotomy"), ("minimizers", "constant_exponent"),
    ], ids=["norms", "gamma-study", "dichotomy", "minimizers"])
    def test_subcommand_refuses_another_kind(self, tmp_path, capsys, subcommand, kind):
        name, other = (("norms.ini", "norm_limit") if kind == "norm_gamma"
                       else ("gamma_benchmark.ini", "norm_gamma"))
        code = main([subcommand, "--config", config_path(name), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: [study] kind: subcommand {subcommand!r} "
                                           f"needs kind {kind!r}, got {other!r}\n")
        assert not (tmp_path / "o").exists()

    def test_kind_mismatch_is_config_error(self, tmp_path):
        code = main(["dichotomy", "--config", config_path("norms.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("name, subcommand, old, new", [
        # the probe sits on the dichotomy boundary
        ("dichotomy_high.ini", "dichotomy", "probe_scale = 2.0", "probe_scale = 1.0"),
        # closed-form oracles need the weighted-norm density family
        ("norms.ini", "norms", "family = weighted_norm\na = constant", "family = shifted_norm"),
    ], ids=["probe_on_boundary", "oracle_needs_weighted_norm"])
    def test_runner_refusal_leaves_no_output_directory(self, tmp_path, name, subcommand,
                                                       old, new):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config_text(name).replace(old, new))
        code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

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
        out = tmp_path / "o"
        code = main(["minimizers", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "minimizers.csv").read_text().splitlines()
        assert lines[1] == "n,p_minus,p_plus,sup_distance,oracle,error"
        # each digest the manifest lists is that of the bytes on disk
        listed = dict(line.split(",") for line in
                      (out / "manifest.csv").read_text().splitlines()[2:])
        assert sorted(listed) == ["minimizers.csv", "solver_trace.csv"]
        for name, digest in listed.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    @pytest.mark.parametrize("old, new, label", [
        ("a = constant", "a = constant:abc", "[density] a"),
        ("a = constant", "a = piecewise:1,x", "[density] a"),
        ("a = constant", "a = piecewise:1", "[density] a"),
        ("a = constant", "a = bogus", "[density] a"),
        ("profile = constant", "profile = bogus", "[exponents] profile"),
        ("profile = constant", "profile = piecewise:2,y", "[exponents] profile"),
        ("profile = constant", "profile = constant:-1", "[exponents]:"),
        ("n_schedule = 4 8", "n_schedule = 8 4", "[exponents]:"),
    ])
    def test_bad_value_is_config_error_naming_key(self, tmp_path, capsys, old, new, label):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(MINIMAL.replace(old, new))
        code = main(["gamma-study", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert label in capsys.readouterr().err

    @pytest.mark.parametrize("name, subcommand, key, raw", [
        # a negative threshold fails every verdict
        ("norms.ini", "norms", "threshold", "-1"),
        # a zero probe is the zero field, whose power integral passes vacuously
        ("dichotomy_low.ini", "dichotomy", "probe_scale", "0"),
        ("dichotomy_low.ini", "dichotomy", "probe_scale", "-0.5"),
    ])
    def test_out_of_range_study_value_is_config_error(self, tmp_path, capsys, name,
                                                      subcommand, key, raw):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(with_key(re.sub(rf"(?m)^{key} = .*\n", "", config_text(name)),
                                "study", key, raw))
        code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"[study] {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_schedule_entry_without_float_value_is_config_error(self, tmp_path, capsys):
        # StudyConfig lifts only the first n; 10**400 would overflow in
        # ExponentSequence.field with a bare OverflowError and exit 1
        cfg = tmp_path / "bad.ini"
        cfg.write_text(re.sub(r"(?m)^n_schedule = .*$", "n_schedule = 4 1" + "0" * 400,
                              config_text("norms.ini")))
        code = main(["norms", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("[exponents]: n_schedule entry has no float value: an integer of 1329 bits"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, argv, code, message", [
        ("[density\nfamily = weighted_norm\n", (), 2, "malformed config"),
        (MINIMAL.replace("cells = 64", "cells = 64\nboundary = bogus"), (), 2,
         "[mesh] boundary: unknown trace kind 'bogus'"),
        (MINIMAL.replace("cells = 64", "cells = 1"), (), 2,
         "[mesh]: need at least two cells per axis"),
        (MINIMAL.replace("family = weighted_norm\na = constant", "family = custom"), (), 2,
         "[density] family: unknown family 'custom'"),
        (MINIMAL + "\n[study]\nkind = bogus\n", (), 2, "[study] kind: unknown study kind"),
        (MINIMAL.replace("cells = 64", "cells = 8\nextent = 10\nboundary = affine\ncx = 1e308"),
         (), 2, "[mesh]: affine trace (0.0, 1e+308) overflows"),
        (MINIMAL.replace("cells = 64", "dimension = 2\ncells = 4\nextent = 10\ncx = 1e308"),
         (), 2, "[mesh]: affine trace (0.0, 1e+308, 0.0) overflows"),
        # finite ends whose interpolant overflows: in the stencil's divide,
        # in the cell average, in the 2-D vertex mean
        (MINIMAL.replace("cells = 64", "cells = 4\ng0 = -1e308\ng1 = 1e308"), (), 2,
         "[mesh]: endpoints trace (-1e+308, 1e+308) overflows"),
        (MINIMAL.replace("cells = 64", "cells = 1000\nextent = 1000\ng0 = -1e308\ng1 = 1e308"),
         (), 2, "[mesh]: endpoints trace (-1e+308, 1e+308) overflows"),
        (MINIMAL.replace("cells = 64", "dimension = 2\ncells = 4\nextent = 10\ncx = 1.7e307"),
         (), 2, "[mesh]: affine trace (0.0, 1.7e+307, 0.0) overflows"),
        (MINIMAL, ("--seed", "-1"), 2, "seed must fit in an unsigned 64-bit integer"),
        (config_text("norms.ini").replace("threshold = 0.02", "threshold = 0.0"), (), 1,
         "verdict: FAIL"),
    ], ids=["malformed_ini", "unknown_trace", "one_cell", "custom_without_rule",
            "unknown_kind", "overflowing_trace_1d", "overflowing_trace_2d",
            "overflowing_stencil_1d", "overflowing_cell_average_1d", "overflowing_cell_average_2d",
            "negative_seed",
            "failing_verdict"])
    def test_refusal_or_failure_exit(self, tmp_path, capsys, text, argv, code, message):
        cfg = tmp_path / "doc.ini"
        cfg.write_text(text)
        subcommand = "norms" if "kind = norm_limit" in text else "gamma-study"
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(cfg), "--out", str(out), *argv]) == code
        assert message in capsys.readouterr().err
        assert out.exists() == (code == 1)

    def test_csv_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            run("norms", config_path("norms.ini"), str(tmp_path), seed=0)
        finally:
            os.umask(old)
        for name in ("norms.csv", "manifest.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_verify_quick(self, tmp_path):
        code = main(["verify", "--config", config_path("verify.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "verify.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["check", "trials", "failures", "passed"]
        for line in lines[2:]:
            assert line.split(",")[3] == "1"


class TestWriteCsv:
    def test_raising_rows_leave_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"old\n")

        def rows():
            # more than one write buffer reaches the temp file before the failure
            for i in range(20000):
                yield i, 0.25 * i
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            cli._write_csv(str(path), ("a", "b"), rows(), "0" * 64, 0)
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        rows = ((i // 1000, 0, i, 1.0 / (i + 1)) for i in range(120_000))
        tracemalloc.start()
        try:
            cli._write_csv(str(tmp_path / "t.csv"), ("n", "stage", "step", "objective"),
                           rows, "0" * 64, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def parser_help(capsys, *argv):
    """What ``suplab <argv> --help`` prints, its whitespace runs made single spaces."""
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return " ".join(capsys.readouterr().out.split())


class TestStudyTable:
    """A study kind is one row of ``gamma_lab._STUDIES`` plus its runner:
    everything else the CLI knows of it comes from the row."""

    def test_parser_lists_verify_then_the_table(self, capsys):
        text = parser_help(capsys)
        listed = re.search(r"\{([\w,-]+)\}", text).group(1).split(",")
        assert listed == ["verify", *SUBCOMMAND_KIND]
        for row in gamma_lab._STUDIES.values():
            assert f"{row.subcommand} {row.help}" in text

    @pytest.mark.parametrize("kind", sorted(gamma_lab._STUDIES))
    def test_row_has_a_runner_a_subcommand_and_a_shipped_config(self, capsys, kind):
        row = gamma_lab._STUDIES[kind]
        assert row.runner in gamma_lab.__all__ and callable(getattr(gamma_lab, row.runner))
        assert "--config" in parser_help(capsys, row.subcommand)
        assert set(row.fields) <= set(cli._SCHEMA["study"]) - {"kind"}
        shipped = [name for name, sub in SHIPPED.items() if sub == row.subcommand]
        assert kind in {parse_config(config_text(name)).kind for name in shipped}

    def test_no_kind_is_spelled_outside_the_table(self):
        # a kind or study subcommand written out in cli, or a kind guard in a
        # runner, would be one more place a new kind has to be added
        strings = {node.value for node in ast.walk(ast.parse(inspect.getsource(cli)))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert strings.isdisjoint({*gamma_lab._STUDIES, *SUBCOMMAND_KIND})
        assert "cfg.kind" not in inspect.getsource(gamma_lab)

    def test_readme_lists_the_subcommands_and_kinds(self):
        with open(README) as fh:
            text = fh.read()
        usage = re.search(r"^suplab <([\w|-]+)>", text, re.MULTILINE).group(1)
        assert usage.split("|") == ["verify", *SUBCOMMAND_KIND]
        row = next(line for line in text.splitlines()
                   if line.startswith("| `[study]` | `kind` |"))
        assert set(re.findall(r"`(\w+)`", row.split("|")[3])) == set(gamma_lab._STUDIES)


def readme_config_table():
    """section -> (names in the key column, every backticked name on the
    section's rows) of the README's config-key table."""
    with open(README) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| section | key | value (default) |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        # cells split on the pipes markdown does not escape
        section, key, value = (c.strip() for c in re.split(r"(?<!\\)\|", line)[1:4])
        if section:
            current = table.setdefault(section.strip("`[]"), (set(), set()))
        current[0].update(re.findall(r"`(\w+)`", key))
        current[1].update(re.findall(r"`(\w+)`", f"{key} {value}"))
    return table


class TestReadme:
    def test_config_table_names_the_schema_keys(self):
        table = readme_config_table()
        assert sorted(table) == sorted(cli._SCHEMA)
        for section, keys in cli._SCHEMA.items():
            key_column, named = table[section]
            assert set(keys) <= named, section
            assert key_column <= set(keys), section
        # the family row lists exactly the rows of the family table
        with open(README) as fh:
            row = next(line for line in fh if line.startswith("| `[density]` | `family` |"))
        assert set(re.findall(r"`(\w+)`", row.split("|")[3])) == set(energy._FAMILIES)

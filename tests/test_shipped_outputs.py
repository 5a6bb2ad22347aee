"""``tools/shipped_outputs.py``: its config table and its refusals; no study is run."""

import importlib.util
from pathlib import Path

import pytest

from suplab.cli import _KINDS, parse_config

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("shipped_outputs",
                                               ROOT / "tools" / "shipped_outputs.py")
shipped_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(shipped_outputs)


def test_every_config_has_a_subcommand_that_runs_it():
    for path in shipped_outputs.configs():
        kind = _KINDS[shipped_outputs.SUBCOMMANDS[path.stem]]
        # verify runs no study, whatever [study] kind its config carries
        assert kind is None or parse_config(path.read_text()).kind == kind


def test_config_without_a_subcommand_is_refused(monkeypatch):
    monkeypatch.delitem(shipped_outputs.SUBCOMMANDS, "norms")
    with pytest.raises(SystemExit, match=r"configs without a subcommand: \['norms'\]"):
        shipped_outputs.configs()


def test_out_inside_the_checkout_is_refused():
    with pytest.raises(SystemExit, match="inside the checkout"):
        shipped_outputs.main([str(ROOT / "shipped")])
    assert not (ROOT / "shipped").exists()


def test_out_that_holds_files_is_refused(tmp_path):
    (tmp_path / "old").write_text("")
    with pytest.raises(SystemExit, match="is not empty"):
        shipped_outputs.main([str(tmp_path)])

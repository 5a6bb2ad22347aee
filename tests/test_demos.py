"""Smoke test: the narrative demos on the relation checkers run to the end.

Demos 04 and 05 drive the norm-form solver for several seconds each and are
left to be run by hand.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["01_norms_and_modulars.py", "02_norm_limit_to_sup.py",
                                    "03_young_measures.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out

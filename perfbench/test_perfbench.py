"""Self-tests of the benchmark: tracer coverage and failure counting.

    python3 -m pytest -q perfbench
"""

import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import SolveCounts, Tracer, layer_metrics, suplab_modules  # noqa: E402
from workloads import Workload  # noqa: E402

NORMS = ROOT / "configs" / "norms.ini"


@pytest.fixture
def tracer():
    t = Tracer(observers={"solve.minimize_power": SolveCounts()}).install()
    yield t
    t.uninstall()


def test_every_binding_is_wrapped(tracer):
    from suplab import measure_tools, solve, verification

    assert tracer.unwrapped_bindings() == []
    for module, attr in ((solve, "luxemburg_root"), (verification, "jensen_check"),
                         (measure_tools, "eval_density")):
        assert getattr(module, attr) in tracer._wrappers


def test_missed_binding_is_reported(tracer):
    from suplab import solve

    wrapper = solve.luxemburg_root
    solve.luxemburg_root = wrapper.__wrapped__
    try:
        assert tracer.unwrapped_bindings() == ["suplab.solve.luxemburg_root"]
    finally:
        solve.luxemburg_root = wrapper


def test_uninstall_restores_originals():
    before = {m.__name__: dict(vars(m)) for m in suplab_modules()}
    Tracer().install().uninstall()
    after = {m.__name__: dict(vars(m)) for m in suplab_modules()}
    assert before == after


def test_traced_solve_counts_its_layers(tracer, tmp_path):
    workload = Workload("norms", str(NORMS), "norms.csv")
    result = child.one_run(workload, str(NORMS), 0, str(tmp_path))
    assert result["problems"] == []
    layers = layer_metrics(tracer, tracer.observers["solve.minimize_power"], 0, 0)
    assert layers["cli.parse_config.s"] > 0
    assert layers["exponent_space.luxemburg_root.calls"] > 0
    assert layers["energy.eval_density.calls"] == 8000  # parse-time probes: 2000 + 3 x 2000


def fail_rate(runs):
    return sum(1 for r in runs if r["problems"]) / len(runs)


def two_runs(workload, config, out):
    """Two in-process runs, checked as run.py checks the runs of one call."""
    return run.mark_nondeterministic([child.one_run(workload, str(config), 3, str(out / f"run{i}"))
                                      for i in range(2)])


def test_clean_runs_do_not_fail(tmp_path):
    workload = Workload("norms", str(NORMS), "norms.csv")
    assert fail_rate(two_runs(workload, NORMS, tmp_path)) == 0.0


def test_failed_verdict_counts_as_failure(tmp_path):
    config = tmp_path / "norms_unreachable.ini"
    config.write_text(NORMS.read_text().replace("threshold = 0.02", "threshold = 0.0"))
    workload = Workload("norms", str(config), "norms.csv")
    runs = two_runs(workload, config, tmp_path / "out")
    assert fail_rate(runs) == 1.0
    assert all("a study verdict failed" in r["problems"] for r in runs)


def test_raising_run_counts_as_failure(tmp_path):
    workload = Workload("gamma-study", str(NORMS), "gamma_study.csv")  # kind mismatch
    runs = two_runs(workload, NORMS, tmp_path)
    assert fail_rate(runs) == 1.0
    assert runs[0]["problems"][0].startswith("raised ConfigError")


def test_runs_are_compared_across_processes(tmp_path):
    deadline = time.monotonic() + run.BUDGET_S
    runs, setup = run.measure("verify-battery", "configs/verify.ini", 3, 0.0, tmp_path, deadline)
    assert len(runs) == run.MIN_RUNS
    assert len(setup) == (run.MIN_RUNS + 1) * run.SETUP_PER_GAP
    assert fail_rate(runs) == 0.0
    assert runs[0]["files"] == runs[1]["files"]


def test_wrong_row_count_counts_as_failure(tmp_path):
    workload = Workload("verify", str(NORMS), "verify.csv")
    out = tmp_path / "out"
    out.mkdir()
    (out / "verify.csv").write_text("# hash\ncheck,trials,failures,passed\nx,1,0,1\n")
    from workloads import check_outputs

    assert check_outputs(workload, str(NORMS), str(out)) == [
        "verify.csv has 1 rows, expected 19"]


def test_differing_outputs_count_as_failure():
    runs = [{"files": [["a.csv", "00"]], "problems": []},
            {"files": [["a.csv", "ff"]], "problems": []}]
    run.mark_nondeterministic(runs)
    assert runs[0]["problems"] == []
    assert len(runs[1]["problems"]) == 1


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0


def test_children_pin_blas_threads():
    env = run.child_env()
    assert all(env[v] == "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS"))
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")

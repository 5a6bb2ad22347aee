"""suplab benchmark: one workload per call, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each study run is one
``suplab.cli.run`` in a fresh child process, started after the previous one
ends, so no more than two processes (this one, idle, and the child) exist;
BLAS thread pools are pinned to one thread.  ``--seed`` is passed to
``suplab.cli.run``; the verify battery draws its instances from it and the
two solve workloads have deterministic inputs.  Each run's output hashes are
compared with those of the other runs, made in other processes.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
``run_s`` (median wall time of ``cli.run``), ``run_s.tail``, ``setup_s``
(median over fresh processes of ``import suplab`` plus ``parse_config``,
sampled before every study run and after the last), ``peak_rss_mb`` of the
study's child processes and ``pass_rate``.  With ``--trace 1`` it makes one
untraced and one traced run and prints the per-layer metrics of the traced
one, recorded by wrapping suplab's public functions (see tracer.py).  The
last line of standard output is the JSON result.  Workload choices, the
configs left out, and the seed baseline are in BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# A call must end within 180 s; children are killed past this budget.
BUDGET_S = 170.0
MIN_RUNS = 2            # every run's outputs are compared with another run's
SETUP_PER_GAP = 8       # set-up samples before each study run and after the last
TAIL_BEYOND = 10        # samples a tail percentile must have above it
RATIO_BASES = {"solve.us_per_iter": "solve.iterations",
               "exponent_space.luxemburg_root.us_per_call": "exponent_space.luxemburg_root.calls"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, deadline, **kwargs):
    """Run child.py to completion; raise if it fails or outlives the budget."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("the time budget ran out")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                          env=child_env(), timeout=remaining, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} exited with code {proc.returncode}")
    return proc


def setup_seconds(config, deadline, count):
    """``count`` set-up times, each from a fresh interpreter."""
    return [float(run_child(["setup", config], deadline, stdout=subprocess.PIPE,
                            text=True).stdout.split()[-1])
            for _ in range(count)]


def study_run(name, seed, trace, run_dir, deadline):
    """One ``cli.run`` of the workload in a fresh child; returns its result."""
    result_path = run_dir.with_suffix(".json")
    run_child(["run", name, str(seed), str(trace), str(run_dir), str(result_path)], deadline,
              stdout=sys.stderr)
    return json.loads(result_path.read_text())


def mark_nondeterministic(runs):
    """Flag each run whose output hashes differ from the first complete run's."""
    complete = [r for r in runs if r["files"] is not None]
    for r in complete[1:]:
        if r["files"] != complete[0]["files"]:
            r["problems"].append("outputs differ from another run of the same (config, seed)")
    return runs


def measure(name, config, seed, seconds, out_dir, deadline):
    """Closed loop of untraced runs; returns (runs, set-up samples).

    New runs start while the runs' total time is below ``seconds``, and at
    least MIN_RUNS are made.  Set-up samples are taken between the runs, so
    that both metrics average over the same spells of a machine whose speed
    drifts."""
    setup_seconds(config, deadline, 1)  # fills __pycache__ and the page cache
    runs, setup = [], []
    while len(runs) < MIN_RUNS or sum(r["seconds"] for r in runs) < seconds:
        setup += setup_seconds(config, deadline, SETUP_PER_GAP)
        runs.append(study_run(name, seed, 0, out_dir / f"run{len(runs)}", deadline))
    setup += setup_seconds(config, deadline, SETUP_PER_GAP)
    return mark_nondeterministic(runs), setup


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; below 2 * TAIL_BEYOND samples that would fall under the
    median, so the median is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def declared(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    workload = WORKLOADS[args.workload]
    program = ROOT / "src" / "suplab" / "cli.py"
    config = ROOT / workload.config
    for needed in (program, config):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a suplab checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if args.trace:
        runs = mark_nondeterministic([study_run(args.workload, args.seed, trace, out_dir / label,
                                                deadline)
                                      for trace, label in ((0, "untraced"), (1, "traced"))])
    else:
        runs, setup = measure(args.workload, workload.config, args.seed, args.seconds,
                              out_dir, deadline)

    failed = sum(1 for r in runs if r["problems"])
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"run {i} failed: {problem}")
    times = [r["seconds"] for r in runs]
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, "
          f"fail_rate = {failed}/{len(runs)} = {failed / len(runs):.3g}")

    if args.trace:
        units = declared(spec, "per_layer")
        values = runs[1]["layers"]
        values["trace.overhead_s"] = times[1] - times[0]
        print(f"untraced run {times[0]:.4f} s, traced run {times[1]:.4f} s, "
              f"trace.overhead_s = {values['trace.overhead_s']:.4f} s "
              f"({100 * values['trace.overhead_s'] / times[0]:.1f}%)")
    else:
        units = declared(spec, "end_to_end")
        tail_s, tail_pct = tail(times)
        values = {
            "run_s": statistics.median(times),
            "run_s.tail": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "pass_rate": (len(runs) - failed) / len(runs),
        }
        print(f"run_s.tail is p{tail_pct:.0f} of {len(runs)} runs; "
              f"setup_s is the median of {len(setup)} fresh processes")
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        base = f" (over {RATIO_BASES[name]} = {values[RATIO_BASES[name]]})" \
            if name in RATIO_BASES else ""
        print(f"{name} = {values[name]!r} {unit}{base}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

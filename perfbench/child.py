"""Worker process of the benchmark; ``run.py`` starts it, one at a time.

    child.py setup CONFIG
        Time ``import suplab`` plus ``parse_config`` of CONFIG (the H1/H2
        probes included) in this fresh interpreter and print the seconds.
    child.py run WORKLOAD SEED TRACE OUT_DIR RESULT_JSON
        Make one run of the workload's study through ``suplab.cli.run`` in
        this fresh interpreter, traced if TRACE is 1, and write its time,
        output hashes, problems, peak RSS and (traced) layer metrics to
        RESULT_JSON.

Only ``sys`` and ``time`` are imported before the set-up timer starts, so
the modules ``suplab`` needs are paid for inside ``setup_s``.
"""

import sys
import time


def setup_seconds(config_path):
    start = time.perf_counter()
    import suplab
    from suplab import cli

    with open(config_path) as fh:
        cli.parse_config(fh.read())
    return time.perf_counter() - start


def one_run(workload, config_path, seed, out_dir):
    """Time one ``cli.run`` and check what it wrote."""
    from suplab import cli

    from workloads import check_outputs

    start = time.perf_counter()
    try:
        manifest = cli.run(workload.subcommand, config_path, out_dir, seed)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return {"seconds": time.perf_counter() - start, "files": None,
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - start
    problems = check_outputs(workload, config_path, out_dir)
    if not manifest.passed:
        problems.append("a study verdict failed")
    return {"seconds": seconds, "files": [list(f) for f in manifest.files],
            "problems": problems}


def traced_run(workload, config_path, seed, out_dir):
    """One run with every suplab function wrapped; returns (run, layer metrics)."""
    from tracer import SolveCounts, Tracer, layer_metrics
    from workloads import emitted

    solves = SolveCounts()
    tracer = Tracer(observers={"solve.minimize_power": solves}).install()
    try:
        run = one_run(workload, config_path, seed, out_dir)
    finally:
        tracer.uninstall()
    rows, size = emitted(out_dir) if run["files"] else (0, 0)
    return run, layer_metrics(tracer, solves, rows, size)


def main(argv):
    if argv[0] == "setup":
        print(repr(setup_seconds(argv[1])))
        return 0

    import json
    import os
    import resource

    from workloads import WORKLOADS

    name, seed, trace, out_dir, result_path = argv[1:6]
    workload = WORKLOADS[name]
    config_path = os.path.abspath(workload.config)
    if trace == "1":
        result, layers = traced_run(workload, config_path, int(seed), out_dir)
        result["layers"] = layers
    else:
        result = one_run(workload, config_path, int(seed), out_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads and the checks that decide whether one run failed.

Each workload is one shipped config run through ``suplab.cli.run``.  A run
fails if it raises, if a study verdict fails, if a report has the wrong
number of rows, if a value contradicts the closed-form oracle, or if its
output hashes differ from another run of the same (config, seed).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

# Lipschitz-extension benchmark: a = 1/(1+x) on (0,1), u(0)=0, u(1)=1, so
# the supremal minimum is 1 / integral of (1+x) = 2/3.  The midpoint rule is
# exact for the linear 1/a, so the discrete oracle is 2/3 on every mesh.
LIPSCHITZ_ORACLE = 2.0 / 3.0

# verify.csv has one row per check: ten norm/modular relations, Hölder,
# power identity, embedding, four Jensen rows and the two density probes.
VERIFY_ROWS = 19


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: str             # relative to the repository root
    report: str             # the study's CSV inside the output directory
    oracle: float | None = None


WORKLOADS = {
    "lipschitz-const-200": Workload("gamma-study", "configs/gamma_benchmark.ini",
                                    "gamma_study.csv", LIPSCHITZ_ORACLE),
    "lipschitz-sine-64": Workload("gamma-study", "configs/gamma_sine.ini",
                                  "gamma_study.csv", LIPSCHITZ_ORACLE),
    "verify-battery": Workload("verify", "configs/verify.ini", "verify.csv"),
}


def read_report(path):
    """Rows of a suplab CSV as dicts; the first line is the hash comment."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _schedule(config_path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config_path)
    return [int(n) for n in parser.get("exponents", "n_schedule").split()]


def check_outputs(workload: Workload, config_path, out_dir) -> list:
    """Problems found in one run's report; an empty list means correct."""
    path = os.path.join(out_dir, workload.report)
    if not os.path.isfile(path):
        return [f"{workload.report} was not written"]
    rows = read_report(path)
    if workload.subcommand == "verify":
        if len(rows) != VERIFY_ROWS:
            return [f"verify.csv has {len(rows)} rows, expected {VERIFY_ROWS}"]
        return [f"check {r['check']} did not pass" for r in rows if r["passed"] != "1"]

    schedule = _schedule(config_path)
    if [int(r["n"]) for r in rows] != schedule:
        return [f"{workload.report} rows n={[r['n'] for r in rows]}, expected {schedule}"]
    problems = []
    if workload.oracle is not None:
        for r in rows:
            oracle, minimum = float(r["oracle"]), float(r["minimum"])
            if abs(oracle - workload.oracle) > 1e-12 * workload.oracle:
                problems.append(f"n={r['n']}: oracle {oracle!r} is not {workload.oracle!r}")
            if not 0.0 < minimum < 2.0 * workload.oracle:
                problems.append(f"n={r['n']}: minimum {minimum!r} is not near the oracle")
    return problems


def emitted(out_dir):
    """(data rows, bytes) over every CSV a run wrote, manifest included."""
    rows = size = 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            path = os.path.join(out_dir, name)
            size += os.path.getsize(path)
            with open(path) as fh:
                rows += sum(1 for line in fh if not line.startswith("#")) - 1
    return rows, size

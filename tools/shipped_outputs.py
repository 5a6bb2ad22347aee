"""Run every shipped config at the given seeds and keep all that each run writes.

    python tools/shipped_outputs.py OUT [SEED ...]

For every ``configs/*.ini`` and every seed k (0 and 1 by default) this runs

    python -m suplab.cli <subcommand> --config configs/<stem>.ini \\
        --out OUT/<stem>/seed<k>/files --seed k

in a child process, from the checkout root with its ``src`` first on
``PYTHONPATH``, and writes the run's ``stdout``, ``stderr`` and ``exit``
code beside ``files/``.  Two trees made from two checkouts are then
byte-identical under ``diff -r`` exactly when every shipped output is.
OUT must lie outside the checkout and hold nothing yet.  A full run takes
a couple of minutes, so the test suite checks only the table below.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# config stem -> the subcommand it ships for; verify.ini's [study] kind
# (norm_gamma) is one that verify never runs
SUBCOMMANDS = {
    "dichotomy_high": "dichotomy",
    "dichotomy_low": "dichotomy",
    "gamma_benchmark": "gamma-study",
    "gamma_sine": "gamma-study",
    "minimizers": "minimizers",
    "norms": "norms",
    "verify": "verify",
}


def configs() -> list:
    """The shipped configs, each with a row of :data:`SUBCOMMANDS`, else SystemExit."""
    paths = sorted((ROOT / "configs").glob("*.ini"))
    stems = {p.stem for p in paths}
    if stems != set(SUBCOMMANDS):
        raise SystemExit(f"configs without a subcommand: {sorted(stems - set(SUBCOMMANDS))}; "
                         f"subcommands without a config: {sorted(set(SUBCOMMANDS) - stems)}")
    return paths


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        raise SystemExit(__doc__.split("\n\n")[1])
    out = Path(args[0]).resolve()
    seeds = [int(s) for s in args[1:]] or [0, 1]
    if out == ROOT or ROOT in out.parents:
        raise SystemExit(f"OUT {out} lies inside the checkout {ROOT}")
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"OUT {out} is not empty")
    paths = configs()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for path in paths:
        for seed in seeds:
            run_dir = out / path.stem / f"seed{seed}"
            run_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "suplab.cli", SUBCOMMANDS[path.stem],
                 "--config", str(path.relative_to(ROOT)), "--out", str(run_dir / "files"),
                 "--seed", str(seed)],
                cwd=ROOT, env=env, capture_output=True)
            (run_dir / "stdout").write_bytes(proc.stdout)
            (run_dir / "stderr").write_bytes(proc.stderr)
            (run_dir / "exit").write_text(f"{proc.returncode}\n")
            print(f"{path.stem} seed {seed}: exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Configuration parsing, study execution, and CSV report emission.

Configs are flat INI documents with five sections: [density], [mesh],
[exponents], [solver], [study].  Every contract the studies rely on is
checked at parse time and violations are reported by key path, citing the
hypothesis label (H1 level convexity, H2 growth, pn1/pn2 exponent growth
and ratio bound).

    suplab <verify|norms|gamma-study|dichotomy|minimizers>
        --config <path> --out <dir> [--seed <u64>]

Outputs are CSV files whose first line records the config hash and seed;
identical (config, seed) pairs produce byte-identical files.  Exit codes:
0 success, 1 a study verdict failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .discretize import BoundarySpec, MeshSpec
from .energy import DensitySpec, custom_rule_names, growth_check, level_convexity_probe
from .exponent_space import PreconditionError, StructuralError
from .gamma_lab import (
    StudyConfig,
    run_integral_dichotomy_study,
    run_minimizer_convergence,
    run_norm_gamma_study,
    run_norm_limit,
)
from .solve import SolverSettings
from .verification import full_verification

__all__ = ["ConfigError", "RunManifest", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    config_path: str
    out_dir: str
    seed: int
    files: tuple
    passed: bool


_FLOAT_KEYS = {
    "density": {"alpha", "gamma"},
    "exponents": {"beta"},
    "study": {"threshold", "delta", "probe_scale",
              "divergence_threshold", "convergence_threshold"},
    "solver": {"step_init", "step_shrink", "sufficient_decrease", "tol"},
}

_SCHEMA = {
    "density": {"family", "a", "b", "rule", "alpha", "gamma", "level_convex"},
    "mesh": {"dimension", "extent", "cells", "boundary", "g0", "g1", "c0", "cx", "cy"},
    "exponents": {"profile", "beta", "n_schedule"},
    "solver": {"epsilons", "step_init", "step_shrink", "sufficient_decrease",
               "tol", "max_iter", "max_backtracks", "inner_steps"},
    "study": {"kind", "threshold", "delta", "probe_scale", "divergence_threshold",
              "convergence_threshold", "instances", "pair_instances",
              "jensen_trials", "probe_trials"},
}

_SUBCOMMAND_KIND = {
    "norms": "norm_limit",
    "gamma-study": "norm_gamma",
    "dichotomy": "integral_dichotomy",
    "minimizers": "constant_exponent",
}


def _coefficient_field(name: str, grid):
    """Named coefficient profiles: one, inverse_one_plus_x, constant:<v>, piecewise:<v1>,<v2>."""
    x = grid.cells[:, 0]
    if name == "one":
        return np.ones(grid.n_cells)
    if name == "inverse_one_plus_x":
        return 1.0 / (1.0 + x)
    if name.startswith("constant:"):
        return np.full(grid.n_cells, float(name.split(":", 1)[1]))
    if name.startswith("piecewise:"):
        parts = [float(v) for v in name.split(":", 1)[1].split(",")]
        if len(parts) != 2:
            raise ConfigError(f"piecewise coefficient needs two values, got {name!r}")
        mid = 0.5 * (float(np.min(x)) + float(np.max(x)))
        return np.where(x < mid, parts[0], parts[1])
    raise ConfigError(f"unknown coefficient profile {name!r}")


def _getter(section, values):
    def get(key, default=None, cast=str):
        if key not in values:
            if default is None:
                raise ConfigError(f"[{section}] {key}: required key is missing")
            return default
        raw = values[key]
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return get


def _floats(raw):
    return tuple(float(v) for v in raw.split())


def _ints(raw):
    return tuple(int(v) for v in raw.split())


def parse_config(text: str, trials: dict | None = None) -> StudyConfig:
    """Validate an INI study document and build the StudyConfig.

    Unknown sections or keys are errors naming the offender; hypothesis
    violations are errors citing the label.  The verify battery's trial
    counts ([study] instances, pair_instances, jensen_trials, probe_trials)
    must be positive; when ``trials`` is given, those set are stored in it as
    :func:`full_verification` keywords.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}]: unknown section")
        values = dict(parser.items(section))
        for key in values:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
        sections[section] = values

    # mesh
    get = _getter("mesh", sections.get("mesh", {}))
    dimension = get("dimension", 1, int)
    extents = _floats(get("extent", "1.0"))
    cells = _ints(get("cells", "64"))
    if len(extents) == 1 and dimension == 2:
        extents = extents * 2
    if len(cells) == 1 and dimension == 2:
        cells = cells * 2
    bkind = get("boundary", "endpoints" if dimension == 1 else "affine")
    if bkind == "endpoints":
        boundary = BoundarySpec.endpoints(get("g0", 0.0, float), get("g1", 1.0, float))
    elif bkind == "affine":
        slopes = [get("cx", 1.0, float)]
        if dimension == 2:
            slopes.append(get("cy", 0.0, float))
        boundary = BoundarySpec.affine(get("c0", 0.0, float), *slopes)
    else:
        raise ConfigError(f"[mesh] boundary: unknown trace kind {bkind!r}")
    try:
        mesh = MeshSpec(dimension, extents, cells, boundary)
    except (StructuralError, PreconditionError) as exc:
        raise ConfigError(f"[mesh]: {exc}") from exc
    grid = mesh.grid()

    # density; a family's own default alpha applies unless the document sets one
    density_keys = sections.get("density", {})
    get = _getter("density", density_keys)
    family = get("family", "weighted_norm")
    growth = {"gamma": get("gamma", 1.0, float)}
    if "alpha" in density_keys:
        growth["alpha"] = get("alpha", cast=float)
    level_convex = get("level_convex", True, bool)
    try:
        if family == "weighted_norm":
            a = _coefficient_field(get("a", "one"), grid)
            density = DensitySpec.weighted_norm(grid, a, **growth)
        elif family == "shifted_norm":
            density = DensitySpec.shifted_norm(grid, get("b", 0.0, float), **growth)
        elif family == "anisotropic":
            a = _coefficient_field(get("a", "one"), grid)
            density = DensitySpec.anisotropic(grid, a, **growth)
        elif family == "custom":
            rule = get("rule")
            if rule not in custom_rule_names():
                raise ConfigError(
                    f"[density] rule: {rule!r} is not registered "
                    f"(have {', '.join(custom_rule_names())})"
                )
            coeffs = {}
            if "a" in density_keys:
                coeffs["a"] = _coefficient_field(get("a"), grid)
            density = DensitySpec.custom(grid, rule, coeffs, level_convex=level_convex, **growth)
        else:
            raise ConfigError(f"[density] family: unknown family {family!r}")
    except StructuralError as exc:
        raise ConfigError(f"[density]: {exc}") from exc

    # contract checks at parse time: growth (H2) and declared convexity (H1)
    gr = growth_check(density, trials=2000, seed=0)
    if not gr.passed:
        w = gr.checks[0].witness
        raise ConfigError(
            f"[density] alpha: growth hypothesis (H2) fails with "
            f"alpha={density.alpha}, gamma={density.gamma}; witness at cell "
            f"{w['cell']} (center {w['cell_center']}): value {w['value']:.6g} "
            f"< bound {w['bound']:.6g}"
        )
    if density.level_convex:
        lc = level_convexity_probe(density, trials=2000, seed=0)
        if not lc.passed:
            w = lc.checks[0].witness
            raise ConfigError(
                f"[density] level_convex: level convexity (H1) fails; witness "
                f"xi1={w['xi1']}, xi2={w['xi2']}, theta={w['theta']:.4g}"
            )

    # exponents
    get = _getter("exponents", sections.get("exponents", {}))
    profile = get("profile", "sine")
    beta = get("beta", 3.0, float)
    n_schedule = _ints(get("n_schedule", "4 8 16 32 64"))
    if beta <= 1.0:
        raise ConfigError(f"[exponents] beta: ratio bound (pn2) needs beta > 1, got {beta}")

    # solver
    get = _getter("solver", sections.get("solver", {}))
    try:
        solver = SolverSettings(
            epsilons=_floats(get("epsilons", "1e-1 1e-2 1e-3 1e-4 1e-5 1e-6")),
            step_init=get("step_init", 1.0, float),
            step_shrink=get("step_shrink", 0.5, float),
            sufficient_decrease=get("sufficient_decrease", 1e-4, float),
            tol=get("tol", 1e-10, float),
            max_iter=get("max_iter", 20000, int),
            max_backtracks=get("max_backtracks", 60, int),
            inner_steps=get("inner_steps", 10, int),
        )
    except StructuralError as exc:
        raise ConfigError(f"[solver]: {exc}") from exc

    # study
    study = sections.get("study", {})
    get = _getter("study", study)
    for key in ("instances", "pair_instances", "jensen_trials", "probe_trials"):
        if key in study:
            count = get(key, cast=int)
            if count < 1:
                raise ConfigError(f"[study] {key}: trial count must be positive, got {count}")
            if trials is not None:
                trials[key] = count
    kind = get("kind", "norm_gamma")
    try:
        return StudyConfig(
            kind=kind,
            density=density,
            mesh=mesh,
            profile=profile,
            beta=beta,
            n_schedule=n_schedule,
            solver=solver,
            threshold=get("threshold", 0.02, float),
            delta=get("delta", 0.1, float),
            probe_scale=get("probe_scale", 1.0, float),
            divergence_threshold=get("divergence_threshold", 1e8, float),
            convergence_threshold=get("convergence_threshold", 1e-8, float),
        )
    except (StructuralError, PreconditionError) as exc:
        msg = str(exc)
        if "pn1" in msg or "pn2" in msg:
            raise ConfigError(f"[exponents]: {msg}") from exc
        raise ConfigError(f"[study]: {msg}") from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows, config_hash, seed):
    lines = [f"# config_sha256={config_hash} seed={seed}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    data = ("\n".join(lines) + "\n").encode()
    # write-then-rename keeps readers from ever seeing a partial file
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _trace_rows(traces_by_n):
    rows = []
    for n in sorted(traces_by_n):
        for stage, trace in enumerate(traces_by_n[n]):
            rows.extend((n, stage, step, val) for step, val in enumerate(trace))
    return rows


def run(subcommand: str, config_path: str, out_dir: str, seed: int = 0) -> RunManifest:
    """Execute a subcommand and write its CSV outputs plus a hash manifest."""
    with open(config_path, "rb") as fh:
        raw = fh.read()
    config_hash = hashlib.sha256(raw).hexdigest()
    cfg_text = raw.decode()
    os.makedirs(out_dir, exist_ok=True)

    files = []
    passed = True

    if subcommand == "verify":
        trials = {}
        cfg = parse_config(cfg_text, trials)
        table = full_verification(seed=seed, density=cfg.density, **trials)
        digest = _write_csv(os.path.join(out_dir, "verify.csv"),
                            table.columns, table.rows, config_hash, seed)
        files.append(("verify.csv", digest))
        passed = table.passed
    elif subcommand in _SUBCOMMAND_KIND:
        cfg = parse_config(cfg_text)
        expected = _SUBCOMMAND_KIND[subcommand]
        if cfg.kind != expected:
            raise ConfigError(
                f"[study] kind: subcommand {subcommand!r} needs kind {expected!r}, "
                f"got {cfg.kind!r}"
            )
        runner = {
            "norms": run_norm_limit,
            "gamma-study": run_norm_gamma_study,
            "dichotomy": run_integral_dichotomy_study,
            "minimizers": run_minimizer_convergence,
        }[subcommand]
        result = runner(cfg)
        name = subcommand.replace("-", "_") + ".csv"
        digest = _write_csv(os.path.join(out_dir, name),
                            result.columns, result.rows, config_hash, seed)
        files.append((name, digest))
        if "traces" in result.meta:
            digest = _write_csv(
                os.path.join(out_dir, "solver_trace.csv"),
                ("n", "stage", "step", "objective"),
                _trace_rows(result.meta["traces"]),
                config_hash, seed,
            )
            files.append(("solver_trace.csv", digest))
        passed = result.passed
    else:
        raise ConfigError(f"unknown subcommand {subcommand!r}")

    manifest_rows = sorted(files)
    _write_csv(os.path.join(out_dir, "manifest.csv"),
               ("file", "sha256"), manifest_rows, config_hash, seed)
    return RunManifest(config_path, out_dir, seed, tuple(manifest_rows), passed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="suplab",
        description="variable-exponent norm checks and supremal approximation studies",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, blurb in (
        ("verify", "run the randomized property suite and report pass/fail"),
        ("norms", "tabulate variable-exponent norms against the supremum"),
        ("gamma-study", "sweep the norm-form minima toward the supremal oracle"),
        ("dichotomy", "evaluate the power integral on a fixed probe"),
        ("minimizers", "track minimizers toward the limiting profile"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="INI study document")
        p.add_argument("--out", required=True, help="output directory for CSV reports")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2 ** 64):
        print("seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        manifest = run(args.subcommand, args.config, args.out, args.seed)
    except (ConfigError, PreconditionError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, digest in manifest.files:
        print(f"{name}  sha256={digest[:16]}...")
    if not manifest.passed:
        print("verdict: FAIL", file=sys.stderr)
        return 1
    print("verdict: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

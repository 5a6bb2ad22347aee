"""Configuration parsing, study execution, and CSV report emission.

Configs are flat INI documents with five sections: [density], [mesh],
[exponents], [solver], [study]; one table (``_SCHEMA``) names each
section's keys and the parser of each value.  [density] a and [exponents]
profile are named profiles (:func:`suplab.gamma_lab.named_profile`).  Every
contract the studies rely on is checked at parse time and violations are
reported by key path, citing the hypothesis label (H1 level convexity, H2
growth).  The exponent growth (pn1) and ratio bound (pn2) hold by
construction: p_n = n * profile has beta = max(profile) / min(profile).

    suplab <subcommand> --config <path> --out <dir> [--seed <u64>]

One table (``_SUBCOMMANDS``) names each subcommand (verify, norms,
gamma-study, dichotomy, minimizers) with its help text, the study kind it
needs and its runner; ``verify`` runs the property battery instead.  Every
subcommand yields one :class:`~suplab.reports.Table`, written as
``<subcommand>.csv``, plus ``solver_trace.csv`` when the table carries
solver traces and a ``manifest.csv`` of the files' SHA-256.  Every CSV's
first line records the config hash and seed; identical (config, seed)
pairs produce byte-identical files.  Exit codes: 0 success, 1 a verdict
failed, 2 configuration error.
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
# the runners are bound here for _SUBCOMMANDS' per-call lookup
from .gamma_lab import (
    STUDY_KINDS,
    StudyConfig,
    named_profile,
    run_integral_dichotomy_study,
    run_minimizer_convergence,
    run_norm_gamma_study,
    run_norm_limit,
)
from .solve import SolverSettings
from .verification import full_verification

__all__ = ["ConfigError", "RunManifest", "parse_config", "run", "main"]

# subcommand -> (help, study kind, runner); verify has neither.  A runner is
# named, not held: run looks the name up in this module per call, so a
# rebinding of it (a profiling wrapper, a test double) is the one called.
_SUBCOMMANDS = {
    "verify": ("run the randomized property suite and report pass/fail", None, None),
    "norms": ("tabulate variable-exponent norms against the supremum",
              "norm_limit", "run_norm_limit"),
    "gamma-study": ("sweep the norm-form minima toward the supremal oracle",
                    "norm_gamma", "run_norm_gamma_study"),
    "dichotomy": ("evaluate the power integral on a fixed probe",
                  "integral_dichotomy", "run_integral_dichotomy_study"),
    "minimizers": ("track minimizers toward the limiting profile",
                   "constant_exponent", "run_minimizer_convergence"),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    config_path: str
    out_dir: str
    seed: int
    files: tuple
    passed: bool


def _floats(raw):
    return tuple(float(v) for v in raw.split())


def _ints(raw):
    return tuple(int(v) for v in raw.split())


def _bool(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# section -> key -> parser of the key's raw string; any other key is unknown
_SCHEMA = {
    "density": {"family": str, "a": str, "b": float, "rule": str, "alpha": float,
                "gamma": float, "level_convex": _bool},
    "mesh": {"dimension": int, "extent": _floats, "cells": _ints, "boundary": str,
             "g0": float, "g1": float, "c0": float, "cx": float, "cy": float},
    "exponents": {"profile": str, "n_schedule": _ints},
    "solver": {"epsilons": _floats, "tol": float, "max_iter": int},
    "study": {"kind": str, "threshold": float, "probe_scale": float},
}


# [density] family -> the keys it reads besides ``family``; the built-in
# families are level convex by construction and take no rule
_FAMILY_KEYS = {
    "weighted_norm": {"a", "alpha", "gamma"},
    "shifted_norm": {"b", "alpha", "gamma"},
    "anisotropic": {"a", "alpha", "gamma"},
    "custom": {"a", "rule", "alpha", "gamma", "level_convex"},
}


def _profile(section, key, name, grid):
    try:
        return named_profile(name, grid)
    except StructuralError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config(text: str) -> StudyConfig:
    """Validate an INI study document and build the StudyConfig.

    Unknown sections or keys, values their key's parser rejects, and
    ``[density]`` keys the chosen family does not read are errors naming
    the offender; hypothesis violations are errors citing the label.  A
    key the document leaves out takes its default from
    :class:`DensitySpec`'s constructors, :class:`SolverSettings` or
    :class:`StudyConfig`; only the ``[mesh]`` keys, ``[density] family`` and
    ``[study] kind`` have their defaults here.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}]: unknown section")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
            try:
                sections[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc

    # mesh
    m = sections["mesh"]
    dimension = m.get("dimension", 1)
    extents = m.get("extent", (1.0,))
    cells = m.get("cells", (64,))
    if len(extents) == 1 and dimension == 2:
        extents = extents * 2
    if len(cells) == 1 and dimension == 2:
        cells = cells * 2
    bkind = m.get("boundary", "endpoints" if dimension == 1 else "affine")
    if bkind == "endpoints":
        boundary = BoundarySpec.endpoints(m.get("g0", 0.0), m.get("g1", 1.0))
    elif bkind == "affine":
        slopes = [m.get("cx", 1.0)]
        if dimension == 2:
            slopes.append(m.get("cy", 0.0))
        boundary = BoundarySpec.affine(m.get("c0", 0.0), *slopes)
    else:
        raise ConfigError(f"[mesh] boundary: unknown trace kind {bkind!r}")
    try:
        mesh = MeshSpec(dimension, extents, cells, boundary)
    except (StructuralError, PreconditionError) as exc:
        raise ConfigError(f"[mesh]: {exc}") from exc
    grid = mesh.grid()

    # density: the family's constructor supplies every key left out
    d = sections["density"]
    family = d.pop("family", "weighted_norm")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"[density] family: unknown family {family!r}")
    for key in d:
        if key not in _FAMILY_KEYS[family]:
            raise ConfigError(f"[density] {key}: not used by family {family}")
    if "a" in d:
        d["a"] = _profile("density", "a", d["a"], grid)
    try:
        if family == "custom":
            rule = d.pop("rule", None)
            if rule not in custom_rule_names():
                raise ConfigError(
                    f"[density] rule: the custom family needs one of "
                    f"{', '.join(custom_rule_names())}, got {rule!r}"
                )
            coeffs = {"a": d.pop("a")} if "a" in d else None
            density = DensitySpec.custom(grid, rule, coeffs, **d)
        else:
            density = getattr(DensitySpec, family)(grid, **d)
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

    # exponents, solver, study: the dataclasses supply every key left out
    exponents = sections["exponents"]
    if "profile" in exponents:
        _profile("exponents", "profile", exponents["profile"], grid)
    try:
        solver = SolverSettings(**sections["solver"])
    except StructuralError as exc:
        raise ConfigError(f"[solver]: {exc}") from exc
    study = sections["study"]
    kind = study.pop("kind", "norm_gamma")
    try:
        return StudyConfig(kind=kind, density=density, mesh=mesh, solver=solver,
                           **exponents, **study)
    except (StructuralError, PreconditionError) as exc:
        # every check but the kind's is on the exponent sequence
        section = "[exponents]" if kind in STUDY_KINDS else "[study] kind"
        raise ConfigError(f"{section}: {exc}") from exc


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
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    _, kind, runner = _SUBCOMMANDS[subcommand]

    cfg = parse_config(raw.decode())
    if kind is not None and cfg.kind != kind:
        raise ConfigError(
            f"[study] kind: subcommand {subcommand!r} needs kind {kind!r}, got {cfg.kind!r}"
        )
    # the output directory exists only once the config is accepted
    os.makedirs(out_dir, exist_ok=True)
    if kind is None:
        table = full_verification(seed=seed, density=cfg.density)
    else:
        table = globals()[runner](cfg)

    outputs = [(subcommand.replace("-", "_") + ".csv", table.columns, table.rows)]
    if "traces" in table.meta:
        outputs.append(("solver_trace.csv", ("n", "stage", "step", "objective"),
                        _trace_rows(table.meta["traces"])))
    files = []
    for name, columns, rows in outputs:
        digest = _write_csv(os.path.join(out_dir, name), columns, rows, config_hash, seed)
        files.append((name, digest))
    files.sort()
    _write_csv(os.path.join(out_dir, "manifest.csv"),
               ("file", "sha256"), files, config_hash, seed)
    return RunManifest(config_path, out_dir, seed, tuple(files), table.passed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="suplab",
        description="variable-exponent norm checks and supremal approximation studies",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (blurb, _, _) in _SUBCOMMANDS.items():
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

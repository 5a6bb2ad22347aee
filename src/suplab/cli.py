"""Configuration parsing, study execution, and CSV report emission.

Configs are flat INI documents with four sections: [density], [mesh],
[exponents], [study] (the solver has no settings); one table (``_SCHEMA``)
names each section's keys and the parser of each value.  [density] family
names a row of the family table (``suplab.energy._FAMILIES``), which says
the one coefficient it reads besides alpha.  [density] a and [exponents]
profile are named profiles (:func:`suplab.gamma_lab.named_profile`).
Every contract the studies rely on is checked at parse time and violations
are reported by key path, citing the hypothesis label (H1 level convexity,
for a row that claims it; H2 growth, f >= alpha |xi|).  The exponent
growth (pn1) and ratio bound (pn2) hold by construction: p_n = n * profile
has beta = max(profile) / min(profile).

    suplab <subcommand> --config <path> --out <dir> [--seed <u64>]

``verify`` runs the property battery on the config's density and reads no
``[study]`` key; any other subcommand runs one study kind, whose row of the
study table (``suplab.gamma_lab._STUDIES``) gives the subcommand's name,
help text, ``[study]`` keys and runner.  Every subcommand yields one
:class:`~suplab.reports.Table`, written as ``<subcommand>.csv``, plus
``solver_trace.csv`` when the table carries solver traces and a
``manifest.csv`` of the files' SHA-256.  Every CSV's first line records
the config hash and seed; identical (config, seed) pairs produce
byte-identical files.  Rows are formatted, hashed and written one at a
time, so emission memory does not grow with the row count
(``gamma_benchmark.ini``'s trace is 22,325 rows), and each write is still
atomic: a temp file, then a rename.  Exit codes: 0 success, 1 a verdict
failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .discretize import BoundarySpec, MeshSpec
from .energy import _FAMILIES, DensitySpec, growth_check, level_convexity_probe
from .exponent_space import PreconditionError, StructuralError
from . import gamma_lab
from .gamma_lab import _STUDIES, StudyConfig, named_profile
from .verification import full_verification

__all__ = ["ConfigError", "RunManifest", "parse_config", "run", "main"]

# subcommand -> the study kind it runs; verify runs none
_KINDS = {"verify": None, **{row.subcommand: kind for kind, row in _STUDIES.items()}}


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    files: tuple
    passed: bool


def _float(raw):
    # nan and +-inf parse as floats but satisfy no contract a key states
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _floats(raw):
    return tuple(_float(v) for v in raw.split())


def _ints(raw):
    return tuple(int(v) for v in raw.split())


# section -> key -> parser of the key's raw string; any other key is unknown
_SCHEMA = {
    "density": {"family": str, "a": str, "b": _float, "alpha": _float},
    "mesh": {"dimension": int, "extent": _floats, "cells": _ints, "boundary": str,
             "g0": _float, "g1": _float, "c0": _float, "cx": _float, "cy": _float},
    "exponents": {"profile": str, "n_schedule": _ints},
    "study": {"kind": str, "threshold": _float, "probe_scale": _float},
}


# [mesh] boundary -> its trace keys with their defaults, in the order of the
# BoundarySpec constructor of that name; a trace in d dimensions reads the
# first 1 + d (an affine one: c0 and a slope per axis)
_TRACE_KEYS = {"endpoints": {"g0": 0.0, "g1": 1.0},
               "affine": {"c0": 0.0, "cx": 1.0, "cy": 0.0}}


def _profile(section, key, name, grid):
    try:
        return named_profile(name, grid)
    except StructuralError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config(text: str) -> StudyConfig:
    """Validate an INI study document and build the StudyConfig.

    Unknown sections or keys, values their key's parser rejects (every
    float must be finite), and keys the chosen ``[density]`` family,
    ``[mesh]`` trace or ``[study]`` kind does not read are errors naming
    the offender; hypothesis violations are errors citing the label.  A
    key the document leaves out takes its default from
    :class:`DensitySpec` (the family's row) or :class:`StudyConfig`; only
    the ``[mesh]`` keys and ``[density] family`` have their defaults here.
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
    if bkind not in _TRACE_KEYS:
        raise ConfigError(f"[mesh] boundary: unknown trace kind {bkind!r}")
    trace = dict(itertools.islice(_TRACE_KEYS[bkind].items(), 1 + dimension))
    for key in m:
        if key not in trace and key not in ("dimension", "extent", "cells", "boundary"):
            raise ConfigError(f"[mesh] {key}: not used by trace {bkind}")
    boundary = getattr(BoundarySpec, bkind)(*(m.get(k, v) for k, v in trace.items()))
    try:
        mesh = MeshSpec(dimension, extents, cells, boundary)
    except (StructuralError, PreconditionError) as exc:
        raise ConfigError(f"[mesh]: {exc}") from exc
    grid = mesh.grid()

    # density: the family's row names the coefficient it reads, and
    # DensitySpec supplies every key left out
    d = sections["density"]
    family = d.pop("family", "weighted_norm")
    if family not in _FAMILIES:
        raise ConfigError(f"[density] family: unknown family {family!r}")
    key = _FAMILIES[family].coefficient
    for k in d:
        if k not in (key, "alpha"):
            raise ConfigError(f"[density] {k}: not used by family {family}")
    if "a" in d:
        d["a"] = _profile("density", "a", d["a"], grid)
    coeffs = {key: d.pop(key)} if key in d else {}
    try:
        density = DensitySpec(grid, family, coeffs, **d)
    except StructuralError as exc:
        raise ConfigError(f"[density]: {exc}") from exc

    # contract checks at parse time: growth (H2) and, for a row that
    # claims it, level convexity (H1)
    gr = growth_check(density, trials=2000, seed=0)
    if not gr.passed:
        w = gr.checks[0].witness
        raise ConfigError(
            f"[density] alpha: growth hypothesis (H2) fails with alpha={density.alpha}; "
            f"witness at cell {w['cell']} (center {w['cell_center']}): value "
            f"{w['value']:.6g} < bound {w['bound']:.6g}"
        )
    if density.level_convex:
        lc = level_convexity_probe(density, trials=2000, seed=0)
        if not lc.passed:
            w = lc.checks[0].witness
            raise ConfigError(
                f"[density] family: level convexity (H1) fails; witness "
                f"xi1={w['xi1']}, xi2={w['xi2']}, theta={w['theta']:.4g}"
            )

    # exponents, study: StudyConfig supplies every key left out
    exponents = sections["exponents"]
    if "profile" in exponents:
        _profile("exponents", "profile", exponents["profile"], grid)
    study = sections["study"]
    kind = study.pop("kind", StudyConfig.kind)
    if kind not in _STUDIES:
        raise ConfigError(f"[study] kind: unknown study kind {kind!r}")
    for key in study:
        if key not in _STUDIES[kind].fields:
            raise ConfigError(f"[study] {key}: not used by kind {kind}")
    try:
        return StudyConfig(kind=kind, density=density, mesh=mesh, **exponents, **study)
    except (StructuralError, PreconditionError) as exc:
        # the kind is known, so a check left is on a [study] value, whose
        # message starts with its key, or on the exponent sequence
        if str(exc).partition(":")[0] in study:
            raise ConfigError(f"[study] {exc}") from exc
        raise ConfigError(f"[exponents]: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows, config_hash, seed):
    """Write one CSV report atomically and return its SHA-256 hex digest.

    ``rows`` is any iterable of row tuples, read once.  The hash comment,
    the header and then each row are formatted, hashed and written one line
    at a time, so the memory the write takes does not grow with the row
    count (``gamma_benchmark.ini``'s solver trace is 22,325 rows).  The
    lines go to a temp file beside ``path`` that is renamed onto it only
    once every row is written; if anything raises, the temp file is removed
    and a file already at ``path`` keeps its old bytes.
    """
    digest = hashlib.sha256()
    lines = itertools.chain(
        (f"# config_sha256={config_hash} seed={seed}", ",".join(columns)),
        (",".join(_fmt(v) for v in row) for row in rows),
    )
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for line in lines:
                data = (line + "\n").encode()
                digest.update(data)
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
    return digest.hexdigest()


def _trace_rows(traces_by_n):
    for n in sorted(traces_by_n):
        for stage, trace in enumerate(traces_by_n[n]):
            for step, val in enumerate(trace):
                yield n, stage, step, val


def run(subcommand: str, config_path: str, out_dir: str, seed: int = 0) -> RunManifest:
    """Execute a subcommand and write its CSV outputs plus a hash manifest."""
    with open(config_path, "rb") as fh:
        raw = fh.read()
    config_hash = hashlib.sha256(raw).hexdigest()
    if subcommand not in _KINDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    kind = _KINDS[subcommand]

    cfg = parse_config(raw.decode())
    if kind is None:
        table = full_verification(seed=seed, density=cfg.density)
    elif cfg.kind != kind:
        raise ConfigError(
            f"[study] kind: subcommand {subcommand!r} needs kind {kind!r}, got {cfg.kind!r}"
        )
    else:
        # looked up per call, so a rebinding of the runner is the one called
        table = getattr(gamma_lab, _STUDIES[kind].runner)(cfg)
    # the output directory exists only once the config and the runner accept
    os.makedirs(out_dir, exist_ok=True)

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
    return RunManifest(tuple(files), table.passed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="suplab",
        description="variable-exponent norm checks and supremal approximation studies",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, kind in _KINDS.items():
        p = sub.add_parser(name, help=_STUDIES[kind].help if kind else
                           "run the randomized property suite and report pass/fail")
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

"""Outside-in spans around the public functions of every suplab module.

The benchmark times each layer without editing the program: it replaces
each public function of each suplab module with a wrapper that counts calls
and accumulates inclusive and self time.  Modules import one another's
functions by name (``solve`` holds ``luxemburg_root``, ``verification``
holds ``jensen_check``, ``measure_tools`` holds ``eval_density``), so one
function object is bound in several namespaces.  Every binding is replaced,
and ``unwrapped_bindings`` names any binding that still holds an original:
a missed binding raises no error, it only makes a layer look idle.

Spans are kept as per-function totals in memory; self time is a span's
duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types


def suplab_modules():
    """The suplab package and each of its submodules, imported."""
    import suplab

    modules = [suplab]
    for info in pkgutil.iter_modules(suplab.__path__):
        modules.append(importlib.import_module(f"suplab.{info.name}"))
    return modules


def _is_public_suplab_function(obj) -> bool:
    return (isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("suplab")
            and not obj.__name__.startswith("_"))


_NEVER_CALLED = (0, 0.0, 0.0, 0)


class Tracer:
    """Per-function call counts and times for one traced process.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, depth]`` with names
    such as ``solve.minimize_power``.  ``observers[name]`` is called with
    each return value of that function.
    """

    def __init__(self, observers=None):
        self.stats: dict = {}
        self.observers = dict(observers or {})
        self._open: list = []          # wrapped-child time of each open span
        self._wrappers: set = set()
        self._patched: list = []       # (module, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stats[3] += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[2] += elapsed - children
                if stats[3] == 0:       # a recursive call is inside the outer span
                    stats[1] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
            if observer is not None:
                observer(result)
            return result

        self._wrappers.add(span)
        return span

    def install(self):
        """Wrap every public function and rebind it wherever it is bound."""
        modules = suplab_modules()
        wrapped = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if _is_public_suplab_function(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                    self._patched.append((module, attr, obj))
        missed = self.unwrapped_bindings()
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left originals bound at {missed}")
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self):
        """``module.attribute`` of every binding that still holds an original."""
        return [
            f"{module.__name__}.{attr}"
            for module in suplab_modules()
            for attr, obj in vars(module).items()
            if _is_public_suplab_function(obj) and obj not in self._wrappers
        ]

    def calls(self, name) -> int:
        return self.stats.get(name, _NEVER_CALLED)[0]

    def seconds(self, name) -> float:
        return self.stats.get(name, _NEVER_CALLED)[1]

    def self_seconds(self, name) -> float:
        return self.stats.get(name, _NEVER_CALLED)[2]


class SolveCounts:
    """Work counts read from each ``SolveResult`` that ``minimize_power`` returns."""

    def __init__(self):
        self.iterations = 0
        self.norm_refreshes = 0
        self.residual_max = 0.0
        self.stagnated = 0

    def __call__(self, result):
        self.iterations += result.iterations
        self.norm_refreshes += sum(len(trace) for trace in result.traces)
        self.residual_max = max(self.residual_max, result.residual)
        self.stagnated += int(result.stagnated)


_SUITES = ("norm_modular", "holder", "power_identity", "embedding", "jensen", "density_probe")
_STUDIES = ("run_norm_gamma_study", "run_integral_dichotomy_study",
            "run_minimizer_convergence", "run_norm_limit")


def _per(total_s, count):
    return total_s / count * 1e6 if count else 0.0


def layer_metrics(tracer: Tracer, solves: SolveCounts, rows_out: int, bytes_out: int) -> dict:
    """The per-layer metrics of one traced study run, by name."""
    t = tracer
    roots = t.calls("exponent_space.luxemburg_root")
    metrics = {
        "solve.minimize_power.s": t.self_seconds("solve.minimize_power"),
        "solve.minimize_power.calls": t.calls("solve.minimize_power"),
        "solve.iterations": solves.iterations,
        "solve.norm_refreshes": solves.norm_refreshes,
        "solve.us_per_iter": _per(t.seconds("solve.minimize_power"), solves.iterations),
        "solve.residual_max": solves.residual_max,
        "solve.stagnated": solves.stagnated,
        "exponent_space.luxemburg_root.calls": roots,
        "exponent_space.luxemburg_root.s": t.seconds("exponent_space.luxemburg_root"),
        "exponent_space.luxemburg_root.us_per_call":
            _per(t.seconds("exponent_space.luxemburg_root"), roots),
        "exponent_space.verify_norm_modular_relations.s":
            t.seconds("exponent_space.verify_norm_modular_relations"),
        "energy.probes.s": t.seconds("energy.growth_check")
                           + t.seconds("energy.level_convexity_probe"),
        "energy.eval_density.calls": t.calls("energy.eval_density"),
        "energy.eval_Fn.calls": t.calls("energy.eval_Fn"),
        "energy.eval_Fn.s": t.seconds("energy.eval_Fn"),
        "measure_tools.jensen_check.calls": t.calls("measure_tools.jensen_check"),
        "measure_tools.jensen_check.s": t.seconds("measure_tools.jensen_check"),
    }
    for suite in _SUITES:
        metrics[f"verification.{suite}_suite.s"] = t.seconds(f"verification.{suite}_suite")
    metrics["gamma_lab.study.s"] = sum(t.seconds(f"gamma_lab.{s}") for s in _STUDIES)
    metrics["gamma_lab.study.self_s"] = sum(t.self_seconds(f"gamma_lab.{s}") for s in _STUDIES)
    metrics["discretize.gradient.calls"] = t.calls("discretize.gradient")
    metrics["discretize.gradient.s"] = t.seconds("discretize.gradient")
    metrics["cli.parse_config.s"] = t.seconds("cli.parse_config")
    metrics["cli.emit.s"] = t.self_seconds("cli.run")
    metrics["cli.rows_out"] = rows_out
    metrics["cli.bytes_out"] = bytes_out
    return metrics

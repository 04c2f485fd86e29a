"""Call tracing of the program's layers, installed from outside.

:class:`Tracer` replaces every public function and every public method
of every public class in the traced modules with a wrapper, at every
place the function is bound: ``from .tensors import as_vector`` binds
``as_vector`` into several modules, and each binding is replaced.
:meth:`Tracer.uninstall` puts every original back.

Coarse boundaries (one scenario, one functional, one node-data build,
one validation, one write) record a span ``(name, start, end, parent)``.
Hot boundaries, called per node or per point, only count calls and add
their time to their module's self time; they keep no record, so the
trace stays small.  Everything stays in memory until :meth:`dump`.

Self time of a span is its duration minus the durations of its child
spans.  Self time of a module is the time spent in its wrapped callables
minus the time of wrapped callables they called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

PACKAGE = "relpower"
MODULES = ("cli", "scenarios", "configurational", "materials", "fields",
           "functionals", "geometry", "tensors")

COARSE = frozenset({
    "cli.main",
    "cli.ScenarioRun.run",
    "cli.ScenarioRun.write",
    "cli.sweep_scenario",
    "scenarios.validate_config",
    "scenarios.Scenario.__init__",
    "scenarios.VolumeNodeData.__init__",
    "scenarios.SurfaceNodeData.__init__",
    "functionals.relative_power",
    "functionals.inner_relative_power",
    "functionals.standard_external_power",
    "functionals.integral_balance_residuals",
    "functionals.invariance_decomposition",
    "functionals.noether_point_checks",
    "functionals.surface_independence_check",
    "functionals.material_gradient_integral",
})

WRAPPED_DUNDERS = ("__init__", "__call__")


def _points(args, kwargs) -> int:
    """Reference points in a call ``stress(self, x, f)``: one row per point."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _volume_nodes(args, kwargs) -> int:
    part = args[2] if len(args) > 2 else kwargs["part"]
    return len(part.volume_points)


def _surface_nodes(args, kwargs) -> int:
    part = args[2] if len(args) > 2 else kwargs["part"]
    return len(part.surface.points)


# Work units counted beside calls, keyed by wrapped name.
UNITS: Dict[str, Callable] = {
    "materials.MaterialModel.stress": _points,
    "scenarios.VolumeNodeData.__init__": _volume_nodes,
    "scenarios.SurfaceNodeData.__init__": _surface_nodes,
}


def _targets():
    """(name, module short name, owner, attribute, original) to wrap."""
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{attr}", short, module, attr, obj
            elif inspect.isclass(obj):
                for member, fn in sorted(vars(obj).items()):
                    public = not member.startswith("_") or member in WRAPPED_DUNDERS
                    if public and inspect.isfunction(fn):
                        yield f"{short}.{obj.__qualname__}.{member}", short, obj, member, fn


class Tracer:
    """Spans at coarse boundaries, counts and module self time everywhere."""

    def __init__(self):
        self.spans: List[list] = []           # [name, start, end, parent]
        self.calls: Counter = Counter()
        self.units: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.module_self: Dict[str, float] = defaultdict(float)
        self._frames: List[list] = []         # [child time] per active call
        self._open_spans: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        clock = time.perf_counter
        frames = self._frames
        calls = self.calls
        inclusive = self.inclusive
        module_self = self.module_self
        units = UNITS.get(name)
        coarse = name in COARSE
        spans = self.spans
        open_spans = self._open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if units is not None:
                self.units[name] += units(args, kwargs)
            if coarse:
                index = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                module_self[module] += duration - frame[0]
                inclusive[name] += duration
                if frames:
                    frames[-1][0] += duration
                if coarse:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package imported it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for name, module, owner, attr, fn in list(_targets()):
            wrapper = self._wrap(name, module, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if not inspect.isclass(owner):
                replaced[id(fn)] = (fn, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def span_self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the duration of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def covered(self, names) -> float:
        """Wall time covered by at least one span with a name in ``names``."""
        intervals = sorted((s[1], s[2]) for s in self.spans if s[0] in names)
        total = 0.0
        cursor = float("-inf")
        for start, end in intervals:
            if end <= cursor:
                continue
            total += end - max(start, cursor)
            cursor = end
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": self.spans,
                "calls": dict(self.calls),
                "units": dict(self.units),
                "inclusive_s": dict(self.inclusive),
                "module_self_s": dict(self.module_self),
                "span_self_s": self.span_self_times(),
            }, handle)

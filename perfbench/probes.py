"""Rebinding probes around the public functions of the cascadekit layers.

A probe replaces a library function by a wrapper under every name that
refers to it: the attribute of its own module, each re-export (``cascade.apply``
is also ``verify.apply``, ``selectors.apply`` and ``cascadekit.apply``) and
the ``verify.REGISTRY`` entries, which hold the ``verify_*`` functions
directly.  Library code is never edited; :meth:`Probes.restore` puts every
original back.

Two kinds of wrapper exist.  Counting wrappers sit only on the functions
behind the work counts, a few thousand calls per pass, and read no clock,
so untraced runs carry them at negligible cost.  Timing wrappers (``trace=True``) sit on every
public function and record calls and self time: a span's duration minus the
time covered by the spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = {
    "cascadekit._kernels": "kernels",
    "cascadekit.forest": "forest",
    "cascadekit.f2linalg": "f2linalg",
    "cascadekit.cascade": "cascade",
    "cascadekit.names": "names",
    "cascadekit.orbits": "orbits",
    "cascadekit.selectors": "selectors",
    "cascadekit.verify": "verify",
    "cascadekit.cli": "cli",
}

# kernel calls that sweep every assignment of a table (or every target of a solve)
SWEEPS = ("build_table", "flip_violation", "project_member", "subcube_member_summary")

class SpanStats:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Probes:
    """Installs wrappers on the loaded cascadekit modules; one instance per pass."""

    def __init__(self, trace: bool, clock=time.perf_counter):
        self.trace = trace
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.layer_of: dict[str, str] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._registry_saved: dict | None = None
        self._table_coords: dict[int, int] = {}
        self.instances = 0
        self.assignments_swept = 0
        self.assignments_checked = 0
        self.support_reports = 0
        self.support_sampled = 0
        self.apply_calls = 0
        self.apply_noops = 0

    # ------------------------------------------------------------------ install

    def install(self) -> "Probes":
        for mod_name in LAYERS:
            importlib.import_module(mod_name)
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == "cascadekit" or name.startswith("cascadekit."))
        ]
        registry = sys.modules["cascadekit.verify"].REGISTRY
        lemma_of = {fn: lemma for lemma, (fn, _) in registry.items()}
        wrappers: dict[int, object] = {}
        for mod_name, layer in LAYERS.items():
            mod = sys.modules[mod_name]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod_name
                ):
                    continue
                span = f"{layer}.{lemma_of.get(fn, attr)}"
                wrapper = self._wrap(fn, span, layer, attr, fn in lemma_of)
                if wrapper is not None:
                    wrappers[id(fn)] = wrapper
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._registry_saved = dict(registry)
        for lemma, (fn, text) in self._registry_saved.items():
            registry[lemma] = (wrappers.get(id(fn), fn), text)
        return self

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        if self._registry_saved is not None:
            registry = sys.modules["cascadekit.verify"].REGISTRY
            registry.clear()
            registry.update(self._registry_saved)
            self._registry_saved = None

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ wrappers

    def _wrap(self, fn, span: str, layer: str, attr: str, is_lemma: bool):
        count = self._counter(layer, attr, is_lemma)
        if not self.trace:
            if count is None:
                return None

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, kwargs, result)
                return result

            return counted

        self.layer_of[span] = layer
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(args, kwargs, result)
            return result

        return timed

    def _counter(self, layer: str, attr: str, is_lemma: bool):
        if is_lemma:
            return self._count_lemma
        if layer == "kernels" and attr == "build_table":
            return self._count_build
        if layer == "kernels" and attr in SWEEPS:
            return self._count_sweep
        if layer == "kernels" and attr == "solve_unit_triangular_all":
            return self._count_solve
        if layer == "selectors" and attr == "swap_witness":
            return self._count_swap
        if layer == "names" and attr == "support_report":
            return self._count_support
        if layer == "cascade" and attr == "apply" and self.trace:
            return self._count_apply
        return None

    def _count_lemma(self, args, kwargs, report):
        self.instances += report.trials

    def _count_build(self, args, kwargs, table):
        n_coords = args[0] if args else kwargs["n_coords"]
        # table handles are opaque per backend, so remember their size by identity
        self._table_coords[id(table)] = n_coords
        self.assignments_swept += 1 << n_coords

    def _count_sweep(self, args, kwargs, result):
        table = args[0] if args else kwargs["table"]
        self.assignments_swept += 1 << self._table_coords[id(table)]

    def _count_solve(self, args, kwargs, result):
        self.assignments_swept += len(result)

    def _count_swap(self, args, kwargs, witness):
        self.assignments_checked += witness.certificate.assignments_checked

    def _count_support(self, args, kwargs, report):
        self.support_reports += 1
        self.support_sampled += not report.exhaustive

    def _count_apply(self, args, kwargs, result):
        self.apply_calls += 1
        q = args[1] if len(args) > 1 else kwargs["q"]
        self.apply_noops += result == q

    # ------------------------------------------------------------------ results

    def work_counts(self) -> dict[str, float]:
        """The counts that must repeat exactly for one seed, traced or not."""
        return {
            "verify.instances": self.instances,
            "kernels.assignments_swept": self.assignments_swept,
            "selectors.assignments_checked": self.assignments_checked,
            "names.support_sampled_share": _share(self.support_sampled, self.support_reports),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span, self time per layer, and the work counts."""
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS.values()}
        for span, stats in self.stats.items():
            out[f"{span}.calls"] = stats.calls
            out[f"{span}.self_s"] = stats.self_s
            layer_self[self.layer_of[span]] += stats.self_s
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        out.update(self.work_counts())
        out["cascade.apply_noop_share"] = _share(self.apply_noops, self.apply_calls)
        return out

    def spans_self_s(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

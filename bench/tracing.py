"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces every public function of the layer
modules with a wrapper, in every ``boxkites`` namespace that holds it
(``dmz_pattern`` is bound in ``zd``, ``kites``, ``etable`` and the
package root), and ``uninstall()`` puts the originals back.  Nothing in
the package is edited, so the untraced passes run the program as users
do.

Two wrapper kinds:

span     counts the call and times it.  Spans nest: a stack holds the
         time each open span's children took, so self time is the
         span's duration minus its children's.
counted  for the table lookups (``COUNTED``), called once or more per
         product, where timing every call would swamp the kernel: the
         call is counted and its time stays in the caller's self time.
         The sign tables are built before the passes, so a pass only
         looks them up; the build is timed on its own (``build_s``).

The cli layer is one span at its entry point, ``cli.main``, so its self
time covers argument parsing, dispatch and output formatting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cdp", "trips", "zd", "kites", "etable", "theorems", "cli")
COUNTED = frozenset({"cdp.sign_table", "cdp.mul_basis", "trips.is_trip"})


def _dmz_zero(result):
    return result is not None, 1


def _survey_kites(result):
    frames = len(result.kites) + len(result.broken) + len(result.sailless)
    return len(result.kites), frames


def _et_filled(result):
    side = len(result.axis)
    return sum(1 for _ in result.filled_cells()), side * side - side


def _twist_valid(result):
    return result.valid, 1


#: per-function outcome ratios: name -> (metric suffix, fn(result) -> (hits, trials))
OUTCOMES = {
    "zd.dmz_pattern": ("zero_frac", _dmz_zero),
    "kites.survey": ("kite_frac", _survey_kites),
    "etable.build_et": ("fill_frac", _et_filled),
    "zd.twist": ("valid_frac", _twist_valid),
}


class Stat:
    __slots__ = ("calls", "self", "hits", "trials")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.calls = self.hits = self.trials = 0
        self.self = 0.0


def _layer_functions(mod):
    layer = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
            continue
        if layer == "cli" and name != "main":
            continue
        yield f"{layer}.{name}", obj


class Tracer:
    """Wrappers for the layer functions and the statistics they gather."""

    def __init__(self):
        self._stack = [0.0]
        self.stats: dict[str, Stat] = {}
        self._wrappers = {}
        for layer in LAYERS:
            for name, fn in _layer_functions(importlib.import_module(f"boxkites.{layer}")):
                self.stats[name] = Stat()
                self._wrappers[id(fn)] = self._wrap(name, fn, self.stats[name])
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st.clear()
        self._stack[:] = [0.0]

    def _wrap(self, name, fn, st):
        stack = self._stack

        if name in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counted

        outcome = OUTCOMES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st.calls += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.self += dt - stack.pop()
                stack[-1] += dt
            if outcome is not None:
                hits, trials = outcome(result)
                st.hits += hits
                st.trials += trials
            return result

        return span

    def install(self) -> None:
        """Bind the wrappers in every boxkites namespace that holds an original."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.reset()
        for modname, mod in list(sys.modules.items()):
            if modname != "boxkites" and not modname.startswith("boxkites."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def metrics(self) -> dict[str, float]:
        """calls, self_s (spans only) and outcome ratio of every wrapped function."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            if name not in COUNTED:
                out[f"{name}.self_s"] = st.self
            if name in OUTCOMES:
                out[f"{name}.{OUTCOMES[name][0]}"] = st.hits / st.trials if st.trials else 0.0
        out["kites.survey.frames"] = self.stats["kites.survey"].trials
        return out

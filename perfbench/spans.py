"""Span tracing of the eh-glue modules from outside the package.

`Tracer.install()` rebinds every public function and method of the traced
modules to a timing wrapper; `uninstall()` puts the originals back.  The
package source is never edited: wrappers replace module and class
attributes at run time, in every `ehglue` module namespace that holds a
reference to the original (``from .lattice import omega_partial`` copies the
function object into `suites`).

A span is (name, module, start, end, parent, size).  Spans stay in memory
until `dump()`; self time of a span is its duration minus the time covered
by its direct children (calls are synchronous and single-threaded, so the
children of one span never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("suites", "lattice", "fields", "curvature", "glue", "obstruction",
           "quadrature", "flow", "heat", "jets", "sym2")

# arithmetic dunders carry most of the jet algebra, so they are traced too
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"}


def _size(args) -> int:
    """Leading point count of the first array argument (0 if none)."""
    for a in args:
        if isinstance(a, np.ndarray):
            return int(np.prod(a.shape[:-1])) if a.ndim > 1 else 1
    return 0


class Tracer:
    def __init__(self, modules=MODULES):
        self.mods = {m: importlib.import_module(f"ehglue.{m}") for m in modules}
        self.spans: list[tuple] = []     # (name, module, t0, t1, parent, size)
        self.counts: dict[int, int] = {}   # span index -> HOOKS count
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attr, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, module: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, module, t0, t1, parent, _size(args))
            if hook is not None:
                counts[idx] = hook(args, kwargs, out)
            return out
        return wrapper

    def _targets(self):
        """(owner, attr, original, span name, module) for every public
        function and method defined in the traced modules."""
        for mname, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, obj, f"{mname}.{attr}", mname
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, cobj in vars(obj).items():
                        if cattr.startswith("_") and cattr not in _DUNDERS:
                            continue
                        if not (isinstance(cobj, staticmethod)
                                or inspect.isfunction(cobj)):
                            continue      # properties, constants
                        yield obj, cattr, cobj, \
                            f"{mname}.{attr}.{cattr}", mname

    def install(self):
        if self._patches:
            return
        originals = {}
        for owner, attr, obj, name, mname in self._targets():
            if isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, name, mname))
            else:
                new = self._wrap(obj, name, mname)
            originals[id(obj)] = new
            setattr(owner, attr, new)
            self._patches.append((owner, attr, obj))
        # rebind copies made by `from .x import name` in other modules
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                new = originals.get(id(obj))
                if new is not None and getattr(mod, attr) is obj:
                    setattr(mod, attr, new)
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, lo: int = 0, hi: int | None = None):
        """Per-module (self seconds, calls) over spans lo..hi."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            p = s[4] - lo
            if 0 <= p < len(spans):
                child[p] += s[3] - s[2]
        out: dict[str, list] = {m: [0.0, 0] for m in self.mods}
        for i, s in enumerate(spans):
            out[s[1]][0] += (s[3] - s[2]) - child[i]
            out[s[1]][1] += 1
        top = sum(s[3] - s[2] for s in spans if s[4] < lo)
        return out, top

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[2],
                                     "end": s[3], "parent": s[4],
                                     "size": s[5]}) + "\n")


def _cube(cutoff) -> int:
    return (2 * int(cutoff) + 1) ** 4


def _arg(args, kwargs, i: int, key: str):
    return args[i] if len(args) > i else kwargs[key]


def _nodes(out) -> int:
    nodes = getattr(out, "nodes", None)
    return int(nodes.shape[0]) if isinstance(nodes, np.ndarray) else 0


# per-call counts read from arguments or results, keyed by span name
HOOKS = {
    "lattice.omega_partial":
        lambda a, kw, out: _cube(_arg(a, kw, 0, "cutoff")),
    "lattice.background_values":
        lambda a, kw, out: _size(a[:1]) * _cube(_arg(a, kw, 1, "cutoff")),
    "lattice.background_partial":
        lambda a, kw, out: _size(a[:1]) * _cube(_arg(a, kw, 1, "cutoff")),
    "lattice.BackgroundCache.load": lambda a, kw, out: int(out is not None),
    "lattice.BackgroundField.jets":
        lambda a, kw, out: a[2] if len(a) > 2 else kw.get("order", 2),
    "quadrature.s3_quadrature": lambda a, kw, out: _nodes(out),
    "quadrature.radial_quadrature": lambda a, kw, out: _nodes(out),
}

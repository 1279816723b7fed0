"""Spans around the public functions of leibnizlab's modules, kept in memory.

``Tracer.install`` replaces every public function of the traced modules, in
every ``leibnizlab`` namespace that holds a reference to it, with a wrapper
that records one span: name, start, end and the span that was open when it
was called.  Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.  Spans live in four integer arrays and are written out in one piece by
``write`` when the traced run ends.

A recursive call (``serialize.dumps`` encodes nested values through itself)
is folded into the outermost span of the same name.  ``search.violation`` and
``search.refine`` take the target as their second argument; their spans are
named per target, as ``search.refine.<target>``.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

MODULES = ("cli", "suites", "sampling", "verify", "operators", "core",
           "knorms", "search", "reports", "serialize")

#: Methods traced besides module functions: (module, class, attribute, span name).
METHODS = (
    ("reports", "VerificationReport", "to_dict", "reports.to_dict"),
    # dataclass __init__ calls __post_init__ once per construction
    ("operators", "PiecewiseLinearFn", "__post_init__", "operators.PiecewiseLinearFn"),
)

PER_TARGET = ("search.violation", "search.refine")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        per_target = name in PER_TARGET
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        name_id = self.name_id

        def traced(*args, **kwargs):
            sid = nid
            if per_target:
                sid = name_id(f"{name}.{args[1] if len(args) > 1 else kwargs['target']}")
            top = stack[-1]
            if top >= 0 and names[top] == sid:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(sid)
            parents.append(top)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        import leibnizlab  # noqa: F401  (loads every traced module)

        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"leibnizlab.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for short, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"leibnizlab.{short}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(span, raw.__func__))
            else:
                new = self.wrap(span, raw)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "leibnizlab" or mod_name.startswith("leibnizlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
                    self._undo.append((mod, attr, obj))
                elif isinstance(obj, dict):  # registries such as suites.SUITES
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrapped:
                            obj[key] = wrapped[id(val)]
                            self._undo.append((obj, key, val))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def write(self, path: str) -> int:
        """Write the spans as four int64 columns (name, parent, start, end)."""
        with open(path, "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        return len(self.start)

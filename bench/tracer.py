"""Layer tracer for the traced benchmark run.

Every function and method defined in an ``ffcount`` module is replaced by a
wrapper, in every module namespace that bound it and in the class dicts.  A
call from one layer into another records a span (name, start, end, parent
span, query); a call inside a layer only bumps a per-function counter, so a
hot inner loop such as ``FieldCtx.mul`` costs one extra Python call instead
of a span.  Generator functions are wrapped per resume, because their work
runs while the consumer iterates.

Self time is accumulated online: a span's duration minus the time its child
spans cover.  The harness owns the root span, so the self times of all
layers plus the harness add up to the root span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Module -> layer.  ``bounds`` only serves the univariate brackets.
LAYER_OF_MODULE = {
    "ffcount.qrat": "qrat",
    "ffcount.series": "series",
    "ffcount.ff": "ff",
    "ffcount.mv_counts": "mv_counts",
    "ffcount.uv_counts": "uv_counts",
    "ffcount.bounds": "uv_counts",
    "ffcount.uv_families": "uv_families",
    "ffcount.oracle": "oracle",
    "ffcount.cli": "cli",
}
LAYERS = ("qrat", "series", "ff", "mv_counts", "uv_counts", "uv_families", "oracle", "cli")
HARNESS = "harness"
_DONE = object()


class Tracer:
    def __init__(self):
        self.layer = HARNESS
        self.span = -1  # id of the innermost open span
        self.child_time = 0.0  # time covered by finished children of that span
        self.query = -1
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)  # function name -> calls
        self.yields = defaultdict(int)  # generator name -> items yielded
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans as parallel arrays: name id, start, end, parent id, query id
        self.sp_name = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.sp_query = array("l")
        self.root_s = 0.0
        # function name -> around(call, args, kwargs), which must return
        # call(*args, **kwargs); set before install() to observe that function
        self.around = {}
        self.originals = {}  # function name -> unwrapped callable

    # -- span bookkeeping -----------------------------------------------

    def _open(self, layer: str, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        self.sp_parent.append(self.span)
        self.sp_query.append(self.query)
        saved = (self.layer, self.span, self.child_time)
        self.layer, self.span, self.child_time = layer, sid, 0.0
        return saved

    def _close(self, layer: str, saved, t0: float, t1: float) -> None:
        sid = self.span
        self.sp_start[sid] = t0
        self.sp_end[sid] = t1
        dur = t1 - t0
        self.self_s[layer] += dur - self.child_time
        self.layer, self.span, parent_child = saved
        self.child_time = parent_child + dur

    def cross(self, layer, name, fn, args, kwargs):
        saved = self._open(layer, name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(layer, saved, t0, perf_counter())

    def run_root(self, fn):
        """Run ``fn`` as the harness's root span and return its result; the
        span's duration is left in ``root_s``."""
        saved = self._open(HARNESS, "harness")
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._close(HARNESS, saved, t0, t1)
            self.root_s = t1 - t0

    # -- wrappers ---------------------------------------------------------

    def wrap_function(self, fn, layer: str, name: str):
        tr = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def next_item(gen):
                return next(gen, _DONE)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    if tr.layer == layer:
                        item = next(gen, _DONE)
                    else:
                        item = tr.cross(layer, name, next_item, (gen,), {})
                    if item is _DONE:
                        return
                    yields[name] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if tr.layer == layer:
                return fn(*args, **kwargs)
            return tr.cross(layer, name, fn, args, kwargs)

        around = self.around.get(name)
        if around is None:
            return wrapper

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            return around(wrapper, args, kwargs)

        return observed

    def install(self) -> None:
        """Wrap every function and method defined in the ffcount modules,
        rebinding each name wherever a module bound it."""
        modules = {n: m for n, m in sys.modules.items() if n == "ffcount" or n.startswith("ffcount.")}
        replace: dict[int, object] = {}
        for mod_name, mod in modules.items():
            layer = LAYER_OF_MODULE.get(mod_name)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    replace[id(obj)] = self.wrap_function(obj, layer, name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    setattr(mod, attr, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                self.originals[name] = obj.__func__
                setattr(cls, attr, type(obj)(self.wrap_function(obj.__func__, layer, name)))
            elif isinstance(obj, property):
                if obj.fget is not None:
                    self.originals[name] = obj.fget
                    setattr(cls, attr, property(self.wrap_function(obj.fget, layer, name),
                                                obj.fset, obj.fdel, obj.__doc__))
            elif inspect.isfunction(obj):
                self.originals[name] = obj
                setattr(cls, attr, self.wrap_function(obj, layer, name))

    # -- results ----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def write_spans(self, path: str, queries: list[str]) -> None:
        """One JSON object; spans are rows of ids into ``names`` and
        ``queries``, written one by one so a large trace is never copied."""
        rows = zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_query)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields":["name","start","end","parent","query"],"names":%s,"queries":%s,"spans":['
                     % (json.dumps(self.names), json.dumps(queries)))
            for i, (name, start, end, parent, query) in enumerate(rows):
                fh.write(f"{',' if i else ''}[{name},{start!r},{end!r},{parent},{query}]")
            fh.write("]}\n")

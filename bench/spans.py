"""Spans around calls into each bordcalc layer, kept in memory.

`Tracer.install()` replaces every function and method a layer module
defines with a wrapper, in every `bordcalc` module namespace that refers to
it.  A call that enters a layer from outside it (from the benchmark or
from another layer) opens a span; a call from a layer into itself only
bumps the callee's call count, so its time stays with the span that
entered the layer.  Generator functions are left alone: their work runs
while the caller iterates, so it is charged to the caller.

Each span records its name, start, end, parent span, op id, layer entry
(the outermost open span of the same layer) and whether it is that entry.
Self time is a span's duration minus the durations of its direct children.
`fold()` adds the spans recorded so far to running totals and clears them,
so a long traced run keeps one batch of spans in memory at a time.
"""

import dataclasses
import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# Module name inside the package -> layer name used in metric names.
LAYERS = {
    "termcore": "termcore",
    "presentations": "presentations",
    "_diagram": "diagram",
    "surface": "surface",
    "frobenius": "frobenius",
    "build": "build",
    "standard_terms": "standard_terms",
}

PACKAGE = "bordcalc"
BENCH_LAYER = "bench"
FIELDS = ("name", "start", "end", "parent", "op", "entry", "is_entry")


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.key_id = {}
        self.stack = [-1]
        self.layers = [None]
        self.entry = {}
        self.op = -1
        self.calls = Counter()
        self.counts = Counter()
        self.self_by_entry = Counter()
        self.self_by_layer = Counter()
        self.inclusive = Counter()
        self.span_counts = Counter()
        self.kept = None
        self._patches = []
        self._wrappers = []
        self._clear()

    def _clear(self):
        self.s_name, self.s_parent = array("i"), array("i")
        self.s_op, self.s_entry = array("i"), array("i")
        self.s_is_entry = array("b")
        self.s_start, self.s_end = array("d"), array("d")

    def _kid(self, key, layer):
        kid = self.key_id.get(key)
        if kid is None:
            kid = self.key_id[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(layer)
        return kid

    # -- spans ------------------------------------------------------------

    def _open(self, kid, layer):
        entry = self.entry.get(layer)
        is_entry = entry is None
        if is_entry:
            entry = self.entry[layer] = kid
        idx = len(self.s_name)
        self.s_name.append(kid)
        self.s_parent.append(self.stack[-1])
        self.s_op.append(self.op)
        self.s_entry.append(entry)
        self.s_is_entry.append(is_entry)
        self.s_end.append(0.0)
        self.stack.append(idx)
        self.layers.append(layer)
        self.s_start.append(time.perf_counter())
        return idx

    def _close(self, idx, layer):
        self.s_end[idx] = time.perf_counter()
        self.stack.pop()
        self.layers.pop()
        if self.s_is_entry[idx]:
            del self.entry[layer]

    def begin_op(self, op_id):
        self.op = op_id
        return self._open(self._kid("bench.op", BENCH_LAYER), BENCH_LAYER)

    def end_op(self, idx):
        self._close(idx, BENCH_LAYER)
        self.op = -1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, layer, fn, observe):
        kid = self._kid(key, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[key] += 1
            if tracer.layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(kid, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, layer)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return traced

    def _targets(self):
        """(layer, key, owner class or None, attribute, function)."""
        for mod_name, layer in LAYERS.items():
            mod = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        yield layer, "%s.%s" % (layer, name), None, name, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) \
                                or inspect.isgeneratorfunction(fn):
                            continue
                        # dataclass __init__ only stores fields
                        if attr.startswith("__") and not (
                                attr == "__init__"
                                and not dataclasses.is_dataclass(obj)):
                            continue
                        yield (layer, "%s.%s.%s" % (layer, name, attr),
                               obj, attr, fn)

    def install(self, observers=None):
        """Wrap every layer function; `observers` maps a key to a callback
        (counts, result) run after each call of that key."""
        if self._patches:
            return
        if not self._wrappers:
            observers = observers or {}
            modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == PACKAGE
                                             or n.startswith(PACKAGE + "."))]
            for layer, key, cls, attr, fn in self._targets():
                w = self._wrap(key, layer, fn, observers.get(key))
                if cls is not None:
                    self._wrappers.append((cls, attr, fn, w))
                    continue
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is fn:
                            self._wrappers.append((mod, name, fn, w))
        for owner, attr, fn, w in self._wrappers:
            setattr(owner, attr, w)
            self._patches.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []

    # -- totals -------------------------------------------------------------

    def fold(self, keep=False):
        """Add the recorded spans to the totals and clear them; with `keep`,
        hold on to them for `write` (only the first kept batch is held)."""
        start, end, parent = self.s_start, self.s_end, self.s_parent
        selft = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                selft[p] -= end[i] - start[i]
        names, layer_of = self.names, self.layer_of
        for i, s in enumerate(selft):
            name = names[self.s_name[i]]
            self.self_by_entry[names[self.s_entry[i]]] += s
            self.self_by_layer[layer_of[self.s_name[i]]] += s
            self.span_counts[name] += 1
            if self.s_is_entry[i]:
                self.inclusive[name] += end[i] - start[i]
        if keep and self.kept is None:
            self.kept = (self.s_name, self.s_start, self.s_end, self.s_parent,
                         self.s_op, self.s_entry, self.s_is_entry)
        self._clear()

    def write(self, path):
        """Write the kept spans as gzipped JSON lines: a header naming the
        fields and span names, then one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.kept or ()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": FIELDS, "names": self.names,
                                 "layers": self.layer_of}) + "\n")
            for row in zip(*cols):
                fh.write(json.dumps(row) + "\n")

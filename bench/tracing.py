"""Spans around calls into gnystrom's layers, recorded from outside the library.

A traced pass replaces each public layer function, and the pseudo-layer
``linalg`` (``numpy.linalg.eigh`` and ``eigvalsh``: one m x m ``eigh`` is the
solver's unit of work), with a wrapper that records a span. The wrapper is
bound wherever the original object is bound in a ``gnystrom`` module, so calls
the library makes to itself (``select_lambda`` calling ``fit``, ``from_state``
calling ``factorize``) nest under their caller. No library file changes;
leaving :meth:`Tracer.installed` restores every binding, so the untraced pass
runs the original functions with no wrapper at all.
"""

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs under gnystrom. A name that is missing raises, so a
# renamed layer fails the traced run instead of reading 0.
LAYER_FUNCTIONS = (
    ("datasets", "make_two_moons"),
    ("datasets", "make_blobs"),
    ("datasets", "sample_labeled"),
    ("kernels", "bandwidth_heuristic"),
    ("landmarks", "select_kmeans"),
    ("nystrom", "build_core"),
    ("dictlearn", "fit"),
    ("dictlearn", "factorize"),
    ("modelselect", "select_lambda"),
    ("inductive", "embed"),
    ("inductive", "save"),
    ("inductive", "load"),
    ("linear_svm", "train_linear"),
)
# (module, class, method) triples, patched on the class itself.
LAYER_METHODS = (
    ("inductive", "InductiveModel", "from_state"),
    ("linear_svm", "LinearModel", "predict"),
)
LINALG_FUNCTIONS = ("eigh", "eigvalsh")


class Tracer:
    """Keeps spans in memory: [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, run_id):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, run_id]
            spans.append(span)
            open_spans.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()

        return traced

    @contextmanager
    def installed(self, run_id):
        """Trace every layer call made inside the block under ``run_id``."""
        import numpy.linalg

        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "gnystrom" or name.startswith("gnystrom."))]
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module, attr in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"gnystrom.{module}"), attr)
            wrapper = self.wrap(f"{module}.{attr}", original, run_id)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    patch(mod, attr, wrapper)
        for module, cls_name, attr in LAYER_METHODS:
            cls = getattr(importlib.import_module(f"gnystrom.{module}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{module}.{attr}"
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(self.wrap(name, raw.__func__, run_id)))
            else:
                patch(cls, attr, self.wrap(name, raw, run_id))
        for attr in LINALG_FUNCTIONS:
            patch(numpy.linalg, attr,
                  self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr), run_id))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self, run_id):
        """Per-function time and calls, and per-layer self time, for one run id.

        A span's self time is its duration minus the part covered by its
        children; a layer's self time sums that over the layer's spans.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time = {}
        for _, (name, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        funcs, layers = {}, {}
        for index, (name, start, end, _, _) in spans:
            total, calls = funcs.get(name, (0.0, 0))
            funcs[name] = (total + (end - start), calls + 1)
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - child_time.get(index, 0.0)
        return funcs, layers

    def write(self, path, origin):
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "run": run_id}) + "\n")

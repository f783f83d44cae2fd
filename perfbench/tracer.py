"""Spans around pufir's layers, recorded from outside the package.

The tracer wraps public functions and methods, rebinding every name a
pufir module or class holds for them: `pufir.cli` imports names directly,
so patching only the defining module would miss its calls.  A span is
(name, start, end, parent, op); spans are recorded only while an op is
running, so the harness's own NumPy calls (generation and output checks)
never show up.  The originals are restored on leaving `patched()`.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _array_bytes(args, kwargs):
    return sum(a.nbytes for a in (*args, *kwargs.values())
               if isinstance(a, np.ndarray))


def _read_size(args, kwargs):
    return os.path.getsize(args[0])


def _written_size(args, kwargs):
    return os.path.getsize(args[1])


LINALG = ("svd", "eigvalsh", "solve", "eigh", "eigvals")

# Wrapped name -> (count key, size function), run after each call.  Sizes
# are computed from array and file sizes, not measured traffic.
COUNTERS = {"io.load_poly": ("io.bytes_read", _read_size),
            "io.load_angles": ("io.bytes_read", _read_size),
            "io.save_poly": ("io.bytes_written", _written_size),
            **{f"numpy.linalg.{name}": (f"numpy.linalg.{name}.bytes_in",
                                        _array_bytes)
               for name in LINALG}}


def targets():
    """(metric name, owner, attribute) for each callable to wrap."""
    import pufir.blaschke as blaschke
    import pufir.cli as cli
    import pufir.families as families
    import pufir.hankel as hankel
    import pufir.io as pio
    import pufir.laurent as laurent
    import pufir.realization as realization

    out = [(f"cli.{name}", cli, name)
           for name in ("main", "cmd_check", "cmd_degree", "cmd_synth",
                        "cmd_sample", "cmd_family", "cmd_realize",
                        "cmd_optimize")]
    out += [(f"io.{name}", pio, name)
            for name in ("load_poly", "load_angles", "save_poly",
                         "dumps_poly")]
    out += [(f"laurent.LaurentPoly.{name}", laurent.LaurentPoly, name)
            for name in ("__init__", "multiply", "eval", "unitary_defect")]
    out += [("hankel.BlockHankel.singular_values", hankel.BlockHankel,
             "singular_values")]
    out += [(f"hankel.{name}", hankel, name)
            for name in ("hankel_causal", "hankel_pair", "mcmillan_degree",
                         "is_paraunitary_hankel", "defect_structure")]
    out += [(f"realization.{name}", realization, name)
            for name in ("minimal_realization", "gramians",
                         "gramian_normalize", "check_unitary_realization")]
    out += [(f"blaschke.{name}", blaschke, name)
            for name in ("synth", "decode_angles", "random_member",
                         "design_optimize")]
    out += [(f"families.{name}", families, name)
            for name in ("reverse_poly", "reblock", "dilate", "rect_stack",
                         "rect_widen", "compose_diag", "compose_mix_rows",
                         "compose_mix_cols", "product_via_hankel")]
    out += [(f"numpy.linalg.{name}", np.linalg, name) for name in LINALG]
    return out


def _namespaces(owner):
    """Every namespace that may hold a reference to a wrapped callable."""
    if isinstance(owner, type):
        return [owner]
    if owner is np.linalg:
        return [np.linalg]
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "pufir"
                                    or name.startswith("pufir."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()  # computed byte counts by metric name
        self.op = None           # id of the running op; None: not tracing
        self._stack = []

    def wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter:
                key, size = counter
                tracer.counts[key] += size(args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, wrap_targets):
        """Install wrappers for the targets; restore the originals after."""
        saved = []
        try:
            for name, owner, attr in wrap_targets:
                original = vars(owner)[attr]
                wrapper = self.wrap(name, original)
                for ns in _namespaces(owner):
                    for ref, value in list(vars(ns).items()):
                        if value is original:
                            saved.append((ns, ref, original))
                            setattr(ns, ref, wrapper)
            yield self
        finally:
            for ns, ref, original in reversed(saved):
                setattr(ns, ref, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans):
    """{name: (calls, total self seconds)} over all spans."""
    calls, self_s = Counter(), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    return {name: (calls[name], self_s[name]) for name in calls}

"""Span recorder that times homopart's layers from outside.

``Tracer.install()`` replaces each traced public function with a
wrapper in every ``homopart`` module namespace that holds it (``cli``
imports ``homogeneous_partition``, ``gowers`` imports
``bipartite_regularity_witness`` and so on), and the ``to_dense``
methods on their classes. Each call records one span: name, start,
end, parent span and the benchmark phase (a set-up repeat or a timed
pass). Counts are read from the arguments and return values at the
same boundary. Spans stay in memory until the run ends.

Spans opened in a worker thread with no span of its own (the
``slicewise_vc`` pool) take the main thread's innermost open span as
their parent, so their time counts against it.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import threading
import time


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _io(kind, name):
    """Target spec for one io reader or writer: bytes from the file."""
    counter = "io.bytes_written" if kind == "write" else "io.bytes_read"
    return (f"io.{kind}_{name}", "homopart.io", f"{kind}_{name}",
            lambda a, k, r: {counter: os.path.getsize(_arg(a, k, 0, "path"))})


def _blocks(a, k, r):
    return {"partitions.blocks": r.n_blocks}


def _dense_bytes(a, k, r):
    return {"hypercore.dense_bytes": r.nbytes}


# (span name, module, attribute, counter function or None). The time
# metric of a span name is "<name>_s"; SELF_TIME lists the spans whose
# metric is their self time instead.
TARGETS = (
    ("generators.generate", "homopart.generators", "generate",
     lambda a, k, r: {"generators.cells": math.prod(r.spec.n)}),
    ("homogenizer.homogeneous_partition", "homopart.homogenizer",
     "homogeneous_partition",
     lambda a, k, r: {"homogenizer.atoms": r[1].p}),
    ("homogenizer.tuple_partition", "homopart.homogenizer", "tuple_partition",
     lambda a, k, r: {"homogenizer.anchors": len(r.anchors)}),
    ("partitions.common_refinement", "homopart.partitions",
     "common_refinement", _blocks),
    ("partitions.equalize", "homopart.partitions", "equalize", _blocks),
    ("partitions.beta_refines", "homopart.partitions", "beta_refines", None),
    ("auditor.homogeneity_audit", "homopart.auditor", "homogeneity_audit",
     lambda a, k, r: {
         "auditor.block_tuples": int(r.densities.size),
         "auditor.cells": math.prod(
             p.n for p in _arg(a, k, 1, "partition")),
     }),
    ("auditor.slicewise_vc", "homopart.auditor", "slicewise_vc",
     lambda a, k, r: {"auditor.vc_links": sum(_arg(a, k, 0, "h").part_sizes)}),
    ("auditor.vc_dimension", "homopart.auditor", "vc_dimension", None),
    ("auditor.bipartite_regularity_witness", "homopart.auditor",
     "bipartite_regularity_witness", None),
    ("auditor.weak_regularity_witness", "homopart.auditor",
     "weak_regularity_witness", None),
    ("gowers.build_weighted", "homopart.gowers", "build_weighted",
     lambda a, k, r: {"gowers.weight_bytes": math.prod(
         r.weighted.weights.shape) * r.weighted.weights.dtype.itemsize}),
    ("gowers.link_certificate", "homopart.gowers", "link_certificate",
     lambda a, k, r: {f"gowers.certificates.{r.kind}": 1}),
    ("gowers.verify_certificate", "homopart.gowers", "verify_certificate",
     None),
    ("gowers.quasirandomness_audit", "homopart.gowers",
     "quasirandomness_audit", None),
    ("gowers.refinement_cascade", "homopart.gowers", "refinement_cascade",
     lambda a, k, r: {"gowers.witnesses": sum(
         len(level.witnesses) for level in r.levels)}),
    ("gowers.sample_unweighted", "homopart.gowers", "sample_unweighted",
     lambda a, k, r: {"gowers.sampled_edges": r.graph.edge_count}),
    ("gowers.orthogonal_family", "homopart.gowers", "orthogonal_family",
     lambda a, k, r: {"gowers.family_attempts": r.attempts}),
    ("hypercore.link", "homopart.hypercore", "link",
     lambda a, k, r: {"hypercore.links": 1}),
    ("hypercore.to_dense", "homopart.hypercore", "KPartiteHypergraph.to_dense",
     _dense_bytes),
    ("hypercore.to_dense", "homopart.hypercore", "BipartiteGraph.to_dense",
     _dense_bytes),
    _io("write", "khg"), _io("read", "khg"),
    _io("write", "part"), _io("read", "part"),
    _io("write", "audit"), _io("read", "audit"),
    _io("write", "w3g"), _io("read", "w3g"),
    _io("write", "links"), _io("read", "links"),
    ("manifest.file_digest", "homopart.manifest", "file_digest",
     lambda a, k, r: {"manifest.bytes_hashed": os.path.getsize(
         _arg(a, k, 0, "path"))}),
    ("cli.main", "homopart.cli", "main", None),
)

SELF_TIME = {
    "homogenizer.homogeneous_partition": "homogenizer.homogeneous_partition_self_s",
    "auditor.slicewise_vc": "auditor.slicewise_vc_self_s",
    "cli.main": "cli.self_s",
}


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, phase, thread)
        self.counters = {}  # phase -> {counter: value}
        self.phase = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans[span_id] = (span_id, name, start, end, parent,
                                             phase, threading.get_ident())
            if counter is not None:
                counts = counter(args, kwargs, result)
                with tracer._lock:
                    table = tracer.counters.setdefault(phase, {})
                    for key, value in counts.items():
                        table[key] = table.get(key, 0) + int(value)
            return result

        return traced

    def install(self):
        """Wrap every target in every homopart namespace that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "homopart" or key.startswith("homopart.")]
        for name, module_name, attr, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def phase_metrics(self) -> dict:
        """Per phase: busy or self time per span name, plus counters."""
        by_phase = {}
        children = {}
        for span in self.spans:
            if span is not None and span[4] is not None:
                children.setdefault(span[4], []).append(span)
        for span in self.spans:
            if span is None:
                continue
            span_id, name, start, end, _, phase, _ = span
            duration = end - start
            if name in SELF_TIME:
                kids = [(c[2], c[3]) for c in children.get(span_id, ())]
                duration -= _union_length(kids, start, end)
            table = by_phase.setdefault(phase, {})
            key = SELF_TIME.get(name, f"{name}_s")
            table[key] = table.get(key, 0.0) + duration
        for phase, counts in self.counters.items():
            by_phase.setdefault(phase, {}).update(counts)
        return by_phase

    def layer_metrics(self, names, setup_phases, pass_phases) -> dict:
        """Median over set-up repeats plus median over timed passes.

        A layer that runs in neither reads 0.
        """
        table = self.phase_metrics()
        out = {}
        for name in names:
            value = 0.0
            for phases in (setup_phases, pass_phases):
                if phases:
                    value += statistics.median(
                        table.get(p, {}).get(name, 0) for p in phases)
            out[name] = value
        return out

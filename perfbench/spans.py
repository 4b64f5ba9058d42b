"""Outside-in span recorder for traced benchmark runs.

The recorder wraps public lod2d functions at the module attribute their
callers look up (``lod2d.lod.assemble_stiffness``,
``lod2d.harness.solve_multiscale``, ...), so nothing under ``src/``
changes.  Each call becomes one span: name, id, parent id, start, end.
The parent stack is thread-local because ``run_experiment`` runs sweep
cells on a thread pool; the pool is swapped for a subclass that opens a
``harness.cell`` span in the worker whose parent is the submitting
thread's current span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid parent name t0 t1")

_TOP = object()  # parent = the calling thread's innermost open span

# (span name, function name, modules whose attribute the callers look up)
SITES = (
    ("mesh.build_hierarchy", "build_hierarchy", ("lod2d", "lod2d.harness")),
    ("mesh.element_patch", "element_patch", ("lod2d.lod",)),
    ("coefficient.generate", "gen_stripes", ("lod2d", "lod2d.coefficient")),
    ("coefficient.generate", "gen_random_field", ("lod2d", "lod2d.coefficient")),
    ("coefficient.generate", "gen_random_balls", ("lod2d", "lod2d.coefficient")),
    ("coefficient.connected_components", "connected_components", ("lod2d.interp",)),
    ("assembly.context", "BilinearFormContext", ("lod2d", "lod2d.harness")),
    ("assembly.solve_spd", "solve_spd", ("lod2d.lod",)),
    ("assembly.assemble_stiffness", "assemble_stiffness", ("lod2d.assembly", "lod2d.lod")),
    ("assembly.assemble_load", "assemble_load", ("lod2d.lod",)),
    ("assembly.assemble_mass", "assemble_mass", ("lod2d.assembly", "lod2d.interp")),
    ("assembly.independent_constraint_rows", "independent_constraint_rows", ("lod2d.assembly",)),
    ("interp.build_operator", "build_operator", ("lod2d", "lod2d.harness")),
    ("interp.dual_basis", "dual_basis", ("lod2d.interp",)),
    ("interp.quasi_monotone_region", "quasi_monotone_region", ("lod2d.interp",)),
    ("interp.classify_nodes_ih", "classify_nodes_ih", ("lod2d.interp",)),
    ("interp.coverage_report", "coverage_report", ("lod2d",)),
    ("lod.reference_solution", "reference_solution", ("lod2d", "lod2d.harness")),
    ("lod.compute_correctors", "compute_correctors", ("lod2d.lod",)),
    ("lod.solve_multiscale", "solve_multiscale", ("lod2d", "lod2d.harness")),
    ("lod.relative_energy_error", "relative_energy_error", ("lod2d", "lod2d.harness")),
    ("harness.run_experiment", "run_experiment", ("lod2d",)),
    ("harness.write_csv", "write_csv", ("lod2d.harness",)),
    ("harness.emit_svg", "emit_svg", ("lod2d.harness",)),
)


class Recorder:
    """Collects spans and gauges in memory; safe to call from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.gauges = {}
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args=(), kwargs=None, parent=_TOP):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is _TOP:
            parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = self._clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = self._clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1))


def _traced(rec, name, fn):
    if name == "interp.build_operator":
        def traced(kind, *args, **kwargs):
            op = rec.call(f"{name}.{kind}", fn, (kind,) + args, kwargs)
            rec.gauges[f"interp.op_nnz.{kind}"] = int(op.matrix.nnz)
            return op
    elif name == "mesh.build_hierarchy":
        def traced(*args, **kwargs):
            mesh = rec.call(name, fn, args, kwargs)
            rec.gauges["size.fine_nodes"] = int(mesh.fine.num_nodes)
            rec.gauges["size.free_coarse_nodes"] = int(len(mesh.free_coarse_nodes))
            return mesh
    else:
        def traced(*args, **kwargs):
            return rec.call(name, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def install(rec):
    """Wrap every call site in SITES and the sweep pool.

    Returns ``(restore, missing)``: a function that puts the originals
    back, and the sites that were not found.  A missing site is skipped,
    so its metrics read zero.
    """
    patched, missing = [], []
    for name, attr, modules in SITES:
        wrappers = {}
        for modname in modules:
            try:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{modname}.{attr}")
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = _traced(rec, name, original)
            setattr(module, attr, wrappers[id(original)])
            patched.append((module, attr, original))

    harness = importlib.import_module("lod2d.harness")
    base = getattr(harness, "ThreadPoolExecutor", None)
    if base is None:
        missing.append("lod2d.harness.ThreadPoolExecutor")
    else:
        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.call, "harness.cell", fn, args, kwargs, rec.current())

        harness.ThreadPoolExecutor = TracedPool
        patched.append((harness, "ThreadPoolExecutor", base))

    def restore():
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return restore, missing


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, frontier = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, frontier), min(b, hi)
        if b > a:
            total += b - a
            frontier = b
    return total


def analyse(spans, lo, hi):
    """Per span name: calls, inclusive seconds and self seconds; plus the share
    of [lo, hi] covered by top-level spans.

    Self time is a span's duration minus the part of it covered by its
    child spans, from any thread, so pool workers running concurrently
    are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        dur = s.t1 - s.t0
        calls[s.name] += 1
        total[s.name] += dur
        self_s[s.name] += dur - covered(children.get(s.sid, ()), s.t0, s.t1)
    roots = [(s.t0, s.t1) for s in spans if s.parent is None]
    coverage = covered(roots, lo, hi) / (hi - lo) if hi > lo else 0.0
    return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s), "coverage": coverage}


def layer_metric(name, layers, gauges, trace_wall_s, n_spans):
    """Value of one per-layer metric (as named in BENCHMARK.json) for one repetition."""
    if name == "harness.cells.busy_s":
        return layers["s"].get("harness.cell", 0.0)
    if name == "harness.parallelism":
        wall = layers["s"].get("harness.run_experiment", 0.0)
        return layers["s"].get("harness.cell", 0.0) / wall if wall else 0.0
    if name == "trace.wall_s":
        return trace_wall_s
    if name == "trace.coverage":
        return layers["coverage"]
    if name == "trace.spans":
        return n_spans
    if name.startswith(("size.", "interp.op_nnz.")):
        return gauges.get(name, 0)
    for suffix, key in ((".calls", "calls"), (".self_s", "self_s"), (".s", "s")):
        if name.endswith(suffix):
            return layers[key].get(name[: -len(suffix)], 0)
    raise KeyError(f"no rule computes per-layer metric {name!r}")

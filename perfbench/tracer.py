"""Outside-in layer tracer for channelms.

A hook replaces the module (or class) attribute through which a caller looks
a function up, so `velocity_basis.splu` times only the factorizations made by
the velocity basis layer while `fine_solver.splu` times the fine solver's.
Nothing under src/ is edited.  A hook whose target no longer exists is listed
in `Tracer.unresolved` and yields no metric; it never fails the run.

Spans (name, parent, start, end, thread CPU) stay in memory until the
experiment ends.  A job submitted to a basis builder's thread pool gets the
submitting build call as its parent.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class Span:
    """One traced call.  `cpu` holds the thread CPU clock at the start and,
    once the span has ended, the thread CPU seconds it used."""

    __slots__ = ("name", "parent", "start", "end", "cpu", "tid", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.attrs = {}
        self.cpu = time.thread_time()
        self.start = time.perf_counter()


@dataclass(frozen=True)
class Hook:
    """Trace calls to `channelms.<target>` under the metric prefix `name`.

    key(args, kwargs) names the input whose content hash feeds the
    distinct_ratio; after(tracer, span, args, kwargs, result) records extra
    attributes and returns the (possibly wrapped) result.
    """

    name: str
    target: str
    key: object = None
    after: object = None


def _matrix_key(args, kwargs):
    m = args[0]
    return (m.shape, m.indptr, m.indices, m.data)


def _velocity_key(args, kwargs):
    return args[1]


def _digest(obj) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in obj if isinstance(obj, tuple) else (obj,):
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


class _TracedLU:
    """SuperLU stand-in whose solves are spans of the factoring layer."""

    def __init__(self, tracer, name, lu):
        self._tracer, self._name, self._lu = tracer, name, lu

    def solve(self, rhs, *args, **kwargs):
        span = self._tracer.begin(self._name)
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.end(span)
            span.attrs["rhs"] = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _factor(tracer, span, args, kwargs, lu):
    own = tracer.begin("perfbench.fill_nnz")  # the tracer's own cost, kept apart
    span.attrs["fill_nnz"] = lu.L.nnz + lu.U.nnz
    tracer.end(own)
    return _TracedLU(tracer, span.name.rsplit(".", 1)[0] + ".lu_solve", lu)


def _pool(tracer, span, args, kwargs, result):
    span.attrs["threads"] = kwargs.get("threads", 1)
    return result


def _steady_step(tracer, span, args, kwargs, flow):
    span.attrs["steady_step"] = flow.steady_step or 0
    return flow


def _file_bytes(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])
    return result


def _capture(slot):
    def keep(tracer, span, args, kwargs, result):
        tracer.captured[slot] = result
        return result
    return keep


# Hooks the untraced run needs for its end-to-end metrics and checks.
CORE_HOOKS = (
    Hook("harness.run_experiment", "harness.run_experiment",
         after=_capture("report")),
    Hook("harness.run_experiment", "cli.run_experiment",
         after=_capture("report")),
    Hook("harness.run_fine_phase", "harness.run_fine_phase",
         after=_capture("fine")),
    Hook("velocity_basis.build_velocity_space", "harness.build_velocity_space",
         after=_pool),
    Hook("transport_basis.build_concentration_space",
         "harness.build_concentration_space", after=_pool),
)

# Layer hooks of the traced run.  The metric prefix names the layer that does
# the work; the target is the attribute its caller resolves.
LAYER_HOOKS = (
    Hook("cli.main", "cli.main"),
    Hook("mesh.generate_channel", "harness.generate_channel"),
    Hook("mesh.partition_coarse", "harness.partition_coarse"),
    Hook("assembly.from_mesh", "harness.Discretization.from_mesh"),
    Hook("assembly.assemble_flow", "harness.assemble_flow"),
    Hook("assembly.assemble_transport", "harness.assemble_transport"),
    Hook("fine_solver.solve_flow", "harness.solve_flow", after=_steady_step),
    Hook("fine_solver.solve_transport", "harness.solve_transport"),
    Hook("fine_solver.splu", "fine_solver.splu", after=_factor),
    Hook("fine_solver.assemble_convection", "fine_solver.assemble_convection"),
    Hook("velocity_basis.velocity_snapshots", "velocity_basis.velocity_snapshots"),
    Hook("velocity_basis.spectral_reduce_velocity",
         "velocity_basis.spectral_reduce_velocity"),
    Hook("velocity_basis.assemble_local_stokes",
         "velocity_basis.assemble_local_stokes"),
    Hook("velocity_basis.assemble_local_velocity_forms",
         "velocity_basis.assemble_local_velocity_forms"),
    Hook("velocity_basis.nitsche_rhs_values", "velocity_basis.nitsche_rhs_values"),
    Hook("velocity_basis.splu", "velocity_basis.splu", key=_matrix_key,
         after=_factor),
    Hook("velocity_basis.spectral_reduce", "velocity_basis.spectral_reduce"),
    Hook("transport_basis.concentration_snapshots",
         "transport_basis.concentration_snapshots"),
    Hook("transport_basis.spectral_reduce_concentration",
         "transport_basis.spectral_reduce_concentration"),
    Hook("transport_basis.interior_basis", "transport_basis.interior_basis"),
    Hook("transport_basis.local_diffusion_with_bc",
         "transport_basis.local_diffusion_with_bc"),
    Hook("transport_basis.local_upwind_convection",
         "transport_basis.local_upwind_convection"),
    Hook("transport_basis.scalar_mass", "transport_basis.scalar_mass"),
    Hook("transport_basis.assemble_local_concentration_forms",
         "transport_basis.assemble_local_concentration_forms"),
    Hook("transport_basis.nitsche_rhs_values", "transport_basis.nitsche_rhs_values"),
    Hook("transport_basis.splu", "transport_basis.splu", after=_factor),
    Hook("transport_basis.spectral_reduce", "transport_basis.spectral_reduce"),
    Hook("coarse_solver.project_flow", "harness.project_flow"),
    Hook("coarse_solver.solve_coarse_flow", "harness.solve_coarse_flow"),
    Hook("coarse_solver.solve_coarse_transport", "harness.solve_coarse_transport"),
    Hook("coarse_solver.assemble_convection", "coarse_solver.assemble_convection",
         key=_velocity_key),
    Hook("errors.velocity_error", "harness.velocity_error"),
    Hook("errors.concentration_error", "harness.concentration_error"),
    Hook("harness.check_hash", "harness.FinePhase.check_hash"),
    Hook("vtkio.write_vtk", "harness.write_vtk", after=_file_bytes),
)

# Thread pools whose jobs inherit the submitting span as parent.
POOLS = ("velocity_basis.ThreadPoolExecutor", "transport_basis.ThreadPoolExecutor")


def _resolve(target):
    """(owner, attribute, raw value) for `channelms.<target>`, or None."""
    module, *path = target.split(".")
    try:
        owner = importlib.import_module(f"channelms.{module}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if not isinstance(owner, type):
            return None
    raw = vars(owner).get(path[-1]) if path else None
    if raw is None:
        return None
    return owner, path[-1], raw


class Tracer:
    def __init__(self):
        self.spans = []
        self.unresolved = []
        self.captured = {}
        self._local = threading.local()
        self._patches = []

    # -- spans --------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    def adopt(self, fn):
        """Run fn on another thread as a child of the current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None

        def job(*args, **kwargs):
            worker = self._stack()
            worker.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                worker.pop()
        return job

    # -- hooks --------------------------------------------------------------
    def _wrap(self, hook: Hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            key = None
            if hook.key is not None:
                own = tracer.begin("perfbench.digest")
                key = _digest(hook.key(args, kwargs))
                tracer.end(own)
            span = tracer.begin(hook.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if key is not None:
                span.attrs["key"] = key
            if hook.after is not None:
                result = hook.after(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, target, make):
        found = _resolve(target)
        if found is None or not (callable(found[2])
                                 or isinstance(found[2], (classmethod, staticmethod))):
            self.unresolved.append(target)
            return
        owner, attr, raw = found
        setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))

    def install(self, hooks, pools=()):
        for hook in hooks:
            def make(raw, hook=hook):
                if isinstance(raw, (classmethod, staticmethod)):
                    return type(raw)(self._wrap(hook, raw.__func__))
                return self._wrap(hook, raw)
            self._patch(hook.target, make)
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(fn), *args, **kwargs)

        for target in pools:
            self._patch(target, lambda raw: TracedExecutor)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer metrics: `<name>.calls/.s/.self_s` for every hooked name
        plus the counters (fill_nnz, rhs, bytes, distinct_ratio, steady_step,
        pool_cpu_ratio) of the layers that record them."""
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[id(s.parent)].append(s)
        out = defaultdict(float)
        keys = defaultdict(set)
        pool = defaultdict(lambda: [0.0, 0.0])  # layer -> [job cpu, threads*wall]
        for s in self.spans:
            dur = s.end - s.start
            out[s.name + ".calls"] += 1
            out[s.name + ".s"] += dur
            out[s.name + ".self_s"] += dur - _covered(s, kids.get(id(s), ()))
            layer = s.name.rsplit(".", 1)[0]
            a = s.attrs
            for counter in ("fill_nnz", "rhs", "bytes"):
                if counter in a:
                    out[s.name + "." + counter] += a[counter]
            if "key" in a:
                keys[s.name].add(a["key"])
            if "steady_step" in a:
                out[layer + ".steady_step"] = a["steady_step"]
            if "threads" in a:
                pool[layer][0] += sum(k.cpu for k in kids.get(id(s), ()))
                pool[layer][1] += a["threads"] * dur
        for name, ks in keys.items():
            out[name + ".distinct_ratio"] = len(ks) / out[name + ".calls"]
        for layer, (cpu, wall) in pool.items():
            if wall > 0:
                out[layer + ".pool_cpu_ratio"] = cpu / wall
        return dict(out)

    def dump_spans(self) -> list:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "parent": index.get(id(s.parent), -1),
                 "start": s.start, "end": s.end, "cpu": s.cpu, "tid": s.tid}
                for s in self.spans]


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0.0, span.start
    for a, b in sorted((c.start, c.end) for c in children):
        a, b = max(a, reach), min(b, span.end)
        if b > a:
            total += b - a
            reach = b
    return total

"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer where their
callers look them up (module attributes and class attributes), records
one span per call in memory, and restores the originals on exit. No
program source changes. Spans are per phase (one per build, compile,
step loop or catalog operation), never per simulated step, so the
tracing cost stays small against the work it brackets.

Layers take the names of the repository's modules: ``environment``,
``spec``, ``kernel`` (``repro.simulation.kernel``, whose step closures
run the component physics), ``metrics``, ``fleet`` and ``catalog``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time

#: ``(module, attribute, span name)``: module-level functions (and the
#: ``CompiledEnvironment`` class) wrapped where their callers look them
#: up. ``repro.spec.build`` is the module, reached by import path: the
#: package attribute of that name is the ``build`` function.
FUNCTIONS = (
    ("repro.spec.build", "build", "spec.build"),
    ("repro.spec.build", "build_environment", "environment.build"),
    ("repro.catalog.hashing", "scenario_cache_key", "spec.hash"),
    ("repro.simulation.engine", "CompiledEnvironment", "environment.compile"),
    ("repro.simulation.batched_sweep", "CompiledEnvironment",
     "environment.compile"),
    ("repro.simulation.engine", "run_plan", "kernel.step"),
    ("repro.simulation.batched_sweep", "run_batched", "kernel.step"),
    ("repro.simulation.engine", "compute_metrics", "metrics.reduce"),
    ("repro.simulation.batched_sweep", "compute_metrics", "metrics.reduce"),
    ("repro.fleet.run", "fleet_scenarios", "fleet.compile"),
    ("repro.fleet.run", "fleet_metrics", "fleet.metrics"),
)

#: ``(module, class, method, span name)``: methods wrapped on the class.
METHODS = (
    ("repro.simulation.kernel.plan", "KernelPlan", "compile", "kernel.lower"),
    ("repro.simulation.kernel.batched", "BatchedPlan", "compile",
     "kernel.lower"),
    ("repro.catalog.store", "Catalog", "lookup", "catalog.lookup"),
    ("repro.catalog.store", "Catalog", "restore", "catalog.restore"),
    ("repro.catalog.store", "Catalog", "archive", "catalog.archive"),
)


@dataclasses.dataclass
class Span:
    """One call into a layer. ``parent`` indexes the enclosing span
    (-1 at top level); ``call`` identifies the benchmark call it served."""

    name: str
    function: str
    call: int
    parent: int
    start: float
    end: float = 0.0
    #: Lockstep lanes of a ``run_batched`` call (0 for other spans).
    lanes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self):
        self.spans: list = []
        self.call = 0
        self._stack: list = []

    def wrap(self, name: str, fn, lanes=None):
        """``fn`` recording a ``name`` span per call; ``lanes(args)``
        gives the span's lane count."""
        function = getattr(fn, "__qualname__", type(fn).__name__)

        def traced(*args, **kwargs):
            span = Span(name, function, self.call,
                        self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            if lanes is not None:
                span.lanes = lanes(args)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return functools.update_wrapper(traced, fn, updated=())

    def _prepare_codegen(self, prepare):
        """The codegen tier's lowering, returning a runner whose call
        (the fused step loop) is a ``kernel.step`` span."""
        traced_prepare = self.wrap("kernel.lower", prepare)

        def prepare_codegen(plan, compiled):
            return self.wrap("kernel.step", traced_prepare(plan, compiled))

        return prepare_codegen

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function; restore the originals on exit."""
        undo = []
        try:
            for module_name, attr, name in FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                lanes = (lambda args: len(args[1])) \
                    if attr == "run_batched" else None
                setattr(module, attr, self.wrap(name, original, lanes))
                undo.append((module, attr, original))
            for module_name, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__))
                else:
                    patched = self.wrap(name, original)
                setattr(cls, attr, patched)
                undo.append((cls, attr, original))
            engine = importlib.import_module("repro.simulation.engine")
            original = engine.prepare_codegen
            engine.prepare_codegen = self._prepare_codegen(original)
            undo.append((engine, "prepare_codegen", original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def outermost(self, call: int) -> list:
        """Spans of one call with no enclosing span of the same name, so
        a re-entrant call counts once."""
        spans = self.spans
        kept = []
        for span in spans:
            if span.call != call:
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            if parent < 0:
                kept.append(span)
        return kept

    def top_level_seconds(self, call: int) -> float:
        """Wall time of one call covered by spans with no parent."""
        return sum(s.seconds for s in self.spans
                   if s.call == call and s.parent < 0)

    def to_json(self) -> list:
        return [dataclasses.asdict(s) for s in self.spans]

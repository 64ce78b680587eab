"""Spans around the calls into each gaussbath module, from outside it.

The layers are the modules.  ``install`` wraps each public function in
``TRACED`` and rebinds the wrapper in every gaussbath module that holds
a reference to it: a ``from ... import`` copies the reference, so
``mat_exp`` must be replaced in ``lindblad`` and ``collision`` as well
as in ``linalg``.  A traced name that no longer exists raises, so a
rename cannot silently zero a metric.

Spans record name, start, end, parent and job id, and stay in memory
until the run ends.  The program is single threaded, so spans nest and
a stack gives each one its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = {
    "gaussbath.cli": ("main", "load_model_dict", "model_from_dict", "block_from_dict",
                      "load_density_matrix"),
    "gaussbath.lindblad": ("gks_decompose", "schrodinger_liouvillian", "heisenberg_generator",
                           "steady_state", "evolve"),
    "gaussbath.linalg": ("operator_norm", "mat_exp", "partial_trace"),
    "gaussbath.collision": ("simulate", "step_unitary", "trace_distance"),
    "gaussbath.wick": ("time_to_normal", "normal_to_time"),
    "gaussbath.noise": ("unitarity_defect",),
    "gaussbath.doubling": ("scalar_split",),
}

class TracerError(RuntimeError):
    """A traced name is missing or could not be patched."""


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_time")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans and counters; ``job`` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple] = []
        self.job = None
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, func):
        counts_steps = name == "collision.simulate"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent, self.job)
            self._stack.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                self.spans.append(span)
                if counts_steps:  # simulate(config, ...): one step per collision
                    self.counts.append((self.job, "collision.steps", args[0].steps))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Patch every traced function in every gaussbath module holding it."""
        for module_name, funcs in TRACED.items():
            home = importlib.import_module(module_name)
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    raise TracerError(f"{module_name}.{func} does not exist; update TRACED")
                if getattr(original, "__wrapped_by_perfbench__", False):
                    raise TracerError(f"{module_name}.{func} is already traced")
                wrapper = self.wrap(span_name(module_name, func), original)
                for holder in _gaussbath_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._undo.append((holder, attr, original))
                if getattr(home, func) is not wrapper:
                    raise TracerError(f"{module_name}.{func} was not patched")

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def patched_sites(self) -> list[str]:
        """'module.attr' for every rebinding made, for tests and reports."""
        return sorted(f"{holder.__name__}.{attr}" for holder, attr, _ in self._undo)


def _gaussbath_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gaussbath" or name.startswith("gaussbath."))]


def aggregate(tracer: Tracer) -> dict:
    """Per-pass totals: {pass: {span name: [ms, self_ms, calls]}, ...}.

    Job ids are (pass, job index); spans recorded outside a timed pass
    (pass None, or no job) are dropped.  Counter totals go under their
    own name as [value, 0, 0].
    """
    out: dict = {}
    for span in tracer.spans:
        if span.job is None or span.job[0] is None:
            continue
        row = out.setdefault(span.job[0], {}).setdefault(span.name, [0.0, 0.0, 0])
        row[0] += 1e3 * span.duration
        row[1] += 1e3 * span.self_time
        row[2] += 1
    for job, name, value in tracer.counts:
        if job is None or job[0] is None:
            continue
        out.setdefault(job[0], {}).setdefault(name, [0.0, 0.0, 0])[0] += value
    return out

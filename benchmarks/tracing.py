"""Spans around calls into flexbid's modules, recorded from the benchmark only.

Each target is patched under the name its caller looks up: robust_lp calls
``solvers.solve_lp`` through the module, while verify_sim and robust_lp bind
the helpers they import into their own namespaces.  The per-instant
``eval_reference`` is deliberately not wrapped: it runs once per control
instant (86,401 times per one-day signal) and a span on it would double
the held-reference check time.  Spans are timed with the clock the run
passes in (process CPU time), like the untraced measurements.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field

#: (flexbid module, attribute looked up by the caller, span name)
TARGETS = (
    ("cli", "load_problem", "cli.load_problem"),
    ("robust_lp", "assemble", "robust_lp.assemble"),
    ("robust_lp", "build_market_matrices", "robust_lp.build_market_matrices"),
    ("robust_lp", "discretize_scales", "dynamics.discretize_scales"),
    ("robust_lp", "solve", "robust_lp.solve"),
    ("solvers", "solve_lp", "solvers.solve_lp"),
    ("robust_lp", "required_ramp", "robust_lp.required_ramp"),
    ("verify_sim", "check_feasibility", "verify_sim.check_feasibility"),
    ("verify_sim", "build_market_matrices", "robust_lp.build_market_matrices"),
    ("verify_sim", "average_signal", "verify_sim.average_signal"),
    ("verify_sim", "realized_schedules", "policy.realized_schedules"),
    ("verify_sim", "reference_from_baseline", "reference_map.reference_from_baseline"),
    ("verify_sim", "simulate_state", "verify_sim.simulate_state"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    workload: str
    case: str
    op: int                 # operation number within the run; -1 for set-up
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory until the run writes them out."""

    def __init__(self, workload: str, clock):
        self.workload = workload
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._case = ""
        self._op = -1

    def _call(self, name, fn, args, kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.workload, self._case, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if name == "solvers.solve_lp":
            span.attrs = {"nnz": int(args[0].A.nnz), "iterations": int(result.iterations)}
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def active(self, case: str, op: int):
        """Patch every target for the duration of the block."""
        self._case, self._op = case, op
        saved = []
        try:
            for mod_name, attr, span_name in TARGETS:
                module = importlib.import_module("flexbid." + mod_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span run one after another, never overlapping)."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

"""Spans and call counters around edgesched functions, installed from outside.

A traced function is replaced in every edgesched module namespace that binds
it, because callers look it up in their own module's globals. ``restore``
puts every original back. Spans nest: a span's self time is its duration
minus the durations of its direct children only (a grandchild's time is
already inside its parent's duration).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute); several attributes may feed one span
SPANS = (
    ("config.sample_round_environment", "edgesched.config", "sample_round_environment"),
    ("orchestrator.decide", "edgesched.orchestrator", "optimize_round"),
    ("orchestrator.decide", "edgesched.orchestrator", "baseline_decision"),
    ("seg_solver.schedule_segments", "edgesched.seg_solver", "schedule_segments"),
    ("seg_solver.optimal_partition", "edgesched.seg_solver", "optimal_partition"),
    ("seg_solver.optimal_micro_batches", "edgesched.seg_solver", "optimal_micro_batches"),
    ("res_solver.allocate_resources", "edgesched.res_solver", "allocate_resources"),
    ("res_solver.power_control", "edgesched.res_solver", "power_control"),
    ("res_solver.channel_assignment", "edgesched.res_solver", "channel_assignment"),
    ("lyapunov.drift_penalty", "edgesched.lyapunov", "drift_penalty"),
    ("decision.validate_decision", "edgesched.decision", "validate_decision"),
    ("orchestrator.evaluate_round", "edgesched.orchestrator", "evaluate_round"),
)
# the benchmark's own span around TraceLog.write_jsonl and write_summary_csv
TRACE_WRITE_SPAN = "orchestrator.trace_write"
SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in SPANS] + [TRACE_WRITE_SPAN]))

COUNTERS = (
    ("seg_solver.cluster_objective", "edgesched.seg_solver", "cluster_objective"),
    ("comm.device_d2d_delay", "edgesched.comm", "device_d2d_delay"),
    ("res_solver.linear_sum_assignment", "edgesched.res_solver", "linear_sum_assignment"),
)


class Tracer:
    """Collects per-span busy time, self time and calls, plus plain call counts."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, self._clock()]  # name, time covered by children, start
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = self._clock() - frame[2]
        self._stack.pop()
        name = frame[0]
        self.busy[name] += duration
        self.self_time[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def count(self, name: str, fn):
        """``fn`` wrapped in a plain call counter called ``name``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every edgesched module that binds a traced function."""
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "edgesched" or n.startswith("edgesched."))]
        for kind, specs in ((self.span, SPANS), (self.count, COUNTERS)):
            for name, module_name, attr in specs:
                original = getattr(sys.modules[module_name], attr)
                wrapper = kind(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

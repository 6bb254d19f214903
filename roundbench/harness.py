"""One pass: every policy of a workload over its fixed rounds, traces written.

A pass drives the entry points a user drives: ``run_simulation`` for each
policy, then ``TraceLog.write_jsonl`` and ``TraceLog.write_summary_csv``.
A ``RoundTimer`` times the rounds from inside and times the reference loop
between short batches of them, so each round is rescaled by the host speed
measured right around it.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

from edgesched import orchestrator
from edgesched.errors import SimulationAborted, StalledLinkError

from reference import reference_ms, rescale
from tracer import TRACE_WRITE_SPAN

BATCH_S = 0.15  # target length of a batch of rounds between two reference timings


class RoundTimer:
    """Times each round of ``run_simulation`` and the reference loop between batches.

    It hooks the name ``run_simulation`` looks up for the environment draw,
    so a round runs from one draw to the next (the last one until
    ``run_simulation`` returns). Once ``BATCH_S`` has passed since the last
    reference timing, the loop is timed again before the next round starts:
    every round lies in a short batch with a reference timing on each side,
    and no reference time falls inside a round.
    """

    def __init__(self):
        self.refs: list[float] = []  # reference ms; batch b lies between refs[b] and refs[b + 1]
        self.rounds: list[tuple[float, int]] = []  # (raw seconds, batch index)
        self.ref_s = 0.0  # wall time spent in the reference loop
        self._original = None
        self._round_start: float | None = None
        self._batch_start = 0.0

    def reference(self) -> None:
        start = time.perf_counter()
        self.refs.append(reference_ms())
        self._batch_start = time.perf_counter()
        self.ref_s += self._batch_start - start

    def end_round(self) -> None:
        if self._round_start is not None:
            self.rounds.append((time.perf_counter() - self._round_start, len(self.refs) - 1))
            self._round_start = None

    def install(self) -> None:
        original = orchestrator.sample_round_environment

        def timed_draw(cfg, t):
            self.end_round()
            if time.perf_counter() - self._batch_start >= BATCH_S:
                self.reference()
            self._round_start = time.perf_counter()
            return original(cfg, t)

        self._original = original
        orchestrator.sample_round_environment = timed_draw

    def restore(self) -> None:
        if self._original is not None:
            orchestrator.sample_round_environment = self._original
            self._original = None

    def rescaled_rounds_ms(self) -> list[float]:
        return [rescale(raw * 1e3, self.refs[b], self.refs[b + 1]) for raw, b in self.rounds]


@dataclass
class PolicyRun:
    policy: str
    kept: int
    aborted: str = ""  # the error that stopped run_simulation, if any
    digest: str = ""  # sha256 of trace.jsonl
    trace_bytes: int = 0  # bytes of trace.jsonl plus summary.csv


@dataclass
class PassResult:
    wall_s: float  # raw, reference timings left out
    rescaled_s: float  # rounds rescaled batch by batch, the rest by the pass's outer timings
    runs: list[PolicyRun]
    round_ms: list[float] = field(default_factory=list)  # rescaled, in policy and round order
    raw_round_ms: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    @property
    def digests(self) -> dict[str, str]:
        return {r.policy: r.digest for r in self.runs}


def policy_paths(work_dir: str, policy: str) -> tuple[str, str]:
    base = os.path.join(work_dir, policy)
    return os.path.join(base, "trace.jsonl"), os.path.join(base, "summary.csv")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cfg, policies, rounds: int, work_dir: str, tracer=None) -> PassResult:
    """Run one pass under a fresh ``RoundTimer`` and return its timings and outputs.

    An aborted simulation keeps no rounds and the pass goes on with the next
    policy. Hashing the outputs happens after the timed region.
    """
    timer = RoundTimer()
    runs: list[PolicyRun] = []
    timer.reference()
    timer.install()
    try:
        start, ref_s_before = time.perf_counter(), timer.ref_s
        for policy in policies:
            try:
                trace = orchestrator.run_simulation(cfg, rounds, policy)
            except (SimulationAborted, StalledLinkError) as exc:
                runs.append(PolicyRun(policy, kept=0, aborted=f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                timer.end_round()
            trace_path, summary_path = policy_paths(work_dir, policy)

            def write(trace=trace, trace_path=trace_path, summary_path=summary_path):
                trace.write_jsonl(trace_path)
                trace.write_summary_csv(summary_path)

            if tracer is not None:
                tracer.span(TRACE_WRITE_SPAN, write)()
            else:
                write()
            runs.append(PolicyRun(policy, kept=len(trace.rounds)))
        wall_s = time.perf_counter() - start - (timer.ref_s - ref_s_before)
    finally:
        timer.restore()
    timer.reference()
    if any(run.aborted for run in runs):
        timer.rounds.clear()  # an aborted run leaves partial rounds; time the pass only
    raw_rounds_s = sum(raw for raw, _ in timer.rounds)
    round_ms = timer.rescaled_rounds_ms()
    rescaled_s = sum(round_ms) / 1e3 + rescale(wall_s - raw_rounds_s, timer.refs[0], timer.refs[-1])
    for run in runs:
        if not run.aborted:
            trace_path, summary_path = policy_paths(work_dir, run.policy)
            run.digest = _sha256(trace_path)
            run.trace_bytes = os.path.getsize(trace_path) + os.path.getsize(summary_path)
    return PassResult(
        wall_s=wall_s,
        rescaled_s=rescaled_s,
        runs=runs,
        round_ms=round_ms,
        raw_round_ms=[raw * 1e3 for raw, _ in timer.rounds],
        refs=timer.refs,
    )

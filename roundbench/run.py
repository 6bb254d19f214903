"""Round-loop benchmark of edgesched: one workload, one seed, one result line.

    python3 roundbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Set-up is timed in fresh interpreters, before the passes and after them.
Passes (harness.py) repeat for ``--seconds``; rounds are timed in short
batches between timings of the reference loop (reference.py) that rescale
them. The first pass is checked against the closed forms (checks.py) and the
brute-force oracles (spotchecks.py); every later pass must write the same
bytes. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain and traced passes and reports the per-layer metrics. The last line of
standard output is the JSON result; raw timings go to
``.roundbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_REF_MS
from workloads import PASS_ROUNDS, POLICIES, WORKLOADS, make_doc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".roundbench")
# fresh interpreters timed before the passes and again after them; host speed
# drifts over seconds, so two batches that far apart steady the median
SETUP_RUNS = 4
EXIT_NO_PACKAGE = 2

END_TO_END_UNITS = {
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tau_s.mean": "sim_s",
    "sim_gamma_over_cap.mean": "ratio",
    "rounds_kept_frac": "ratio",
}


def import_package() -> bool:
    """Import edgesched from this checkout's src/; False if that is not possible."""
    package_dir = os.path.join(SRC, "edgesched")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    try:
        import edgesched
    except ImportError:
        return False
    return os.path.dirname(os.path.abspath(edgesched.__file__)) == package_dir


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Time fresh interpreters from spawn until the first round could start."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, SRC, workload, str(seed)], stdout=subprocess.PIPE, text=True, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        sample = json.loads(line)
        sample["setup_s"] = ready - start
        samples.append(sample)
    return samples


class Bench:
    """State of one benchmark run: the config, its checked outputs and tallies."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        from edgesched import build_config
        from harness import run_pass

        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.doc = make_doc(workload, seed)
        self.cfg = build_config(self.doc)
        self.policies, self.rounds = POLICIES[workload], PASS_ROUNDS[workload]
        self.attempted = self.failed = self.kept = self.requested = 0
        self.messages: list[str] = []
        self.matching_passes = {policy: 0 for policy in self.policies}
        self.records: dict[str, list[dict]] = {}
        self.known_defects: list[str] = []  # reported, not counted as failed

        first = run_pass(self.cfg, self.policies, self.rounds, work_dir)
        self.digests = first.digests
        self.first = first
        self.account(first)

    def verify(self) -> None:
        """Check the first pass's files; every later pass matched or was counted.

        Runs after the timed passes, so the oracles' memory stays out of the
        peak-RSS figure; the files on disk are those of the last pass, which
        ``account`` has compared with the first by digest.
        """
        import checks
        from harness import policy_paths
        from spotchecks import closed_form_below_event_sim, run_spot_checks

        for run in self.first.runs:
            if run.aborted:
                continue
            trace_path, summary_path = policy_paths(self.work_dir, run.policy)
            with open(trace_path, encoding="utf-8") as fh, open(summary_path, encoding="utf-8") as fs:
                records, failed, messages = checks.check_policy(self.doc, run.policy, self.rounds, fh.read(), fs.read())
            self.records[run.policy] = records
            # the same failures recur in every pass whose outputs matched the first
            self.failed += failed * self.matching_passes[run.policy]
            self.messages += messages
            attempted, failed, messages = run_spot_checks(self.workload, self.cfg, self.doc, records, self.rounds)
            self.attempted += attempted
            self.failed += failed
            self.messages += messages
            if self.workload != "encoder":
                self.known_defects += closed_form_below_event_sim(self.doc, records)

    def account(self, result) -> None:
        """Tally a pass: rounds kept, and outputs equal to the checked pass."""
        for run in result.runs:
            self.requested += self.rounds
            self.attempted += self.rounds
            self.kept += run.kept
            if run.aborted:
                self.failed += self.rounds
                self.messages.append(f"{run.policy}: {run.aborted}")
            elif run.digest != self.digests.get(run.policy):
                self.failed += self.rounds
                self.messages.append(f"{run.policy}: trace.jsonl differs from the checked pass")
            else:
                self.matching_passes[run.policy] += 1

    def measure(self, seconds: float, traced: bool) -> list[dict]:
        """Repeat passes for ``seconds``; with ``traced``, every other pass is traced."""
        from harness import run_pass
        from tracer import Tracer

        tracer = Tracer() if traced else None
        passes: list[dict] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < deadline:
            with_trace = traced and len(passes) % 2 == 1
            if with_trace:
                tracer.reset()
                tracer.install()
            try:
                result = run_pass(self.cfg, self.policies, self.rounds, self.work_dir, tracer if with_trace else None)
            finally:
                if with_trace:
                    tracer.restore()
            self.account(result)
            entry = {
                "traced": with_trace,
                "wall_s": result.wall_s,
                "rescaled_s": result.rescaled_s,
                "refs_ms": result.refs,
                "round_ms": result.round_ms,
                "raw_round_ms": result.raw_round_ms,
                "digests": result.digests,
                "trace_bytes": sum(r.trace_bytes for r in result.runs),
            }
            if with_trace:
                entry.update(
                    busy_s=dict(tracer.busy),
                    self_s=dict(tracer.self_time),
                    calls=dict(tracer.calls),
                    counts=dict(tracer.counts),
                )
            passes.append(entry)
        return passes

    @property
    def rounds_per_pass(self) -> int:
        return self.rounds * len(self.policies)

    def simulated(self) -> dict:
        """Deterministic figures of the checked pass."""
        recs = [r for records in self.records.values() for r in records]
        cap = self.doc["convergence"]["gamma_max_bound"]
        transmitting = [
            (p, self.doc["clusters"][n]["P_n_max_w"])
            for r in recs
            for n, (p, j) in enumerate(zip(r["p_cu_w"], r["channel"]))
            if j is not None
        ]
        return {
            "tau": statistics.fmean(r["tau_round_s"] for r in recs) if recs else float("nan"),
            "gamma_over_cap": statistics.fmean(r["gamma_t"] / cap for r in recs) if recs else float("nan"),
            "queue_positive_frac": sum(1 for r in recs if max(r["queue_y"]) > 0) / max(1, len(recs)),
            "power_interior_frac": sum(1 for p, pmax in transmitting if 0.0 < p < pmax * (1 - 1e-9))
            / max(1, len(transmitting)),
        }


def round_times_ms(bench: Bench, passes: list[dict]) -> list[float]:
    """Rescaled time of each distinct round: its median over the passes that kept every round.

    Every pass replays the same rounds, so the median over passes removes
    host hiccups and leaves the spread of work between rounds.
    """
    full = [p["round_ms"] for p in passes if len(p["round_ms"]) == bench.rounds_per_pass]
    if not full:
        return [math.nan, math.nan]  # every pass lost rounds: no round time to report
    return [statistics.median(times[i] for times in full) for i in range(bench.rounds_per_pass)]


def end_to_end(bench: Bench, passes: list[dict], setup: list[dict], peak_rss_mb: float) -> dict:
    round_ms = round_times_ms(bench, passes)
    sim = bench.simulated()
    return {
        "round_ms.p50": statistics.median(round_ms),
        "round_ms.p90": statistics.quantiles(round_ms, n=10, method="inclusive")[-1],
        "rounds_per_s": statistics.median(bench.rounds_per_pass / p["rescaled_s"] for p in passes),
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_rss_mb": peak_rss_mb,
        "sim_tau_s.mean": sim["tau"],
        "sim_gamma_over_cap.mean": sim["gamma_over_cap"],
        "rounds_kept_frac": bench.kept / bench.requested,
    }


def per_layer(bench: Bench, passes: list[dict], setup: list[dict]) -> dict:
    from tracer import COUNTERS, SPAN_NAMES

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_round = 1.0 / bench.rounds_per_pass
    first = traced[0]
    for p in traced[1:]:
        if (p["calls"], p["counts"]) != (first["calls"], first["counts"]):
            bench.failed += 1
            bench.messages.append("call counts differ between identical traced passes")
    out: dict[str, tuple[float, str]] = {}
    for span in SPAN_NAMES:
        for key, metric in (("busy_s", "busy_ms"), ("self_s", "self_ms")):
            # span time rescaled by the pass's overall rescaling
            value = statistics.median(
                p[key].get(span, 0.0) * 1e3 * p["rescaled_s"] / p["wall_s"] * per_round for p in traced
            )
            out[f"{span}.{metric}"] = (value, "ms")
        out[f"{span}.calls"] = (first["calls"].get(span, 0) * per_round, "count")
    for name, _, _ in COUNTERS:
        out[f"{name}.calls"] = (first["counts"].get(name, 0) * per_round, "count")
    devices = sum(len(cl["devices"]) for cl in bench.doc["clusters"])
    out["comm.d2d_calls_per_device"] = (out["comm.device_d2d_delay.calls"][0] / devices, "count")
    # allocate_resources is called only from optimize_round and baseline_decision,
    # once per block-coordinate-descent sweep
    out["orchestrator.bcd_sweeps"] = (out["res_solver.allocate_resources.calls"][0], "count")
    out["orchestrator.trace_bytes"] = (first["trace_bytes"] * per_round, "B")
    sim = bench.simulated()
    out["lyapunov.queue_positive_frac"] = (sim["queue_positive_frac"], "ratio")
    out["res_solver.power_interior_frac"] = (sim["power_interior_frac"], "ratio")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    out["setup.build_config_s"] = (statistics.median(s["build_config_s"] for s in setup), "s")
    overhead = statistics.median(p["rescaled_s"] for p in traced) / statistics.median(p["rescaled_s"] for p in plain)
    out["trace_overhead_frac"] = (overhead - 1.0, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("EDGESCHED_SEED", None)  # the seed argument alone picks the draws
    if not import_package():
        print(f"roundbench: no edgesched package importable from {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    setup = measure_setup(args.workload, args.seed)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        passes = bench.measure(args.seconds, traced=bool(args.trace))
        setup += measure_setup(args.workload, args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.verify()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(bench, passes, setup)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(bench, passes, setup, peak_rss_mb).items()}

    traced_digests = [p["digests"] for p in passes if p["traced"]]
    print(json.dumps({
        "kind": "digests",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sha256": bench.digests,
        "traced_equal": all(d == bench.digests for d in traced_digests),
    }, sort_keys=True))
    record_dir = os.path.join(OUT, "records")
    os.makedirs(record_dir, exist_ok=True)
    record_path = os.path.join(record_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"nominal_ref_ms": NOMINAL_REF_MS, "setup": setup, "passes": passes, "metrics": metrics}, fh)
    print(json.dumps({
        "kind": "record",
        "path": os.path.relpath(record_path, ROOT),
        "passes": len(passes),
        "ref_ms_median": statistics.median(ref for p in passes for ref in p["refs_ms"]),
        "closed_form_below_event_sim": len(bench.known_defects),
    }))
    for message in bench.messages[:20]:
        print(f"roundbench: {message}", file=sys.stderr)
    for message in bench.known_defects[:5]:
        print(f"roundbench: known defect, not counted: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the round-loop benchmark (not of edgesched itself).

Run with ``python3 -m pytest roundbench/tests -q`` from the repository root.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import checks
import reference
import spotchecks
import run as runner
import tracer as tracer_mod
from edgesched import orchestrator
from edgesched.errors import InfeasibleError
from harness import policy_paths, run_pass
from workloads import POLICIES, WORKLOADS, make_doc

from conftest import BENCH_DIR


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_and_its_shape_is_fixed(workload):
    from edgesched import build_config

    assert make_doc(workload, 3) == make_doc(workload, 3)
    one, two = make_doc(workload, 1), make_doc(workload, 2)
    assert (one["rng_seed"], two["rng_seed"]) == (1, 2)
    one.pop("rng_seed"), two.pop("rng_seed")
    assert one == two
    assert build_config(make_doc(workload, 1)).rng_seed == 1


def test_rescaling_is_raw_times_nominal_over_measured():
    for raw, before, after in ((0.125, 14.0, 16.0), (3.7, 9.5, 31.25), (1e-4, 15.0, 15.0)):
        measured = (before + after) / 2
        assert reference.rescale(raw, before, after) == raw * reference.NOMINAL_REF_MS / measured
    assert reference.reference_ms() > 0


def test_reference_loop_imports_nothing_from_edgesched():
    tree = ast.parse(open(os.path.join(BENCH_DIR, "reference.py"), encoding="utf-8").read())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert imported and all(name in ("math", "time", "__future__") for name in imported), imported
    code = "import sys, reference; reference.reference_ms(); print(any(m.startswith('edgesched') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_tracer_restores_every_attribute_it_wrapped():
    import edgesched  # noqa: F401  (loads every module the tracer patches)

    modules = {n: m for n, m in sys.modules.items() if n == "edgesched" or n.startswith("edgesched.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert orchestrator.optimize_round is not before["edgesched.orchestrator"]["optimize_round"]
        assert orchestrator.sample_round_environment is not before["edgesched.orchestrator"]["sample_round_environment"]
        assert sys.modules["edgesched.res_solver"].linear_sum_assignment is not before["edgesched.res_solver"]["linear_sum_assignment"]
    finally:
        tracer.restore()
    for name, module in modules.items():
        now = vars(module)
        assert all(now[k] is v for k, v in before[name].items()), name


def test_self_time_subtracts_only_direct_children():
    ticks = iter(range(100))
    tracer = tracer_mod.Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")
    mod.c = lambda: None
    mod.b = lambda: mod.c()
    mod.a = lambda: mod.b()
    mod.a, mod.b, mod.c = tracer.span("a", mod.a), tracer.span("b", mod.b), tracer.span("c", mod.c)
    mod.a()
    # clock reads: a starts 0, b starts 1, c starts 2, c ends 3, b ends 4, a ends 5
    assert (tracer.busy["a"], tracer.busy["b"], tracer.busy["c"]) == (5.0, 3.0, 1.0)
    assert tracer.self_time["c"] == 1.0
    assert tracer.self_time["b"] == 2.0  # minus c
    assert tracer.self_time["a"] == 2.0  # minus b only, not b and c


def _failing_validation(monkeypatch, fail):
    original = orchestrator.validate_decision

    def validate(decision, cfg, env):
        if fail(env.round_index):
            raise InfeasibleError("C0", "injected by the test")
        return original(decision, cfg, env)

    monkeypatch.setattr(orchestrator, "validate_decision", validate)


def test_skipped_rounds_count_as_failed_without_stopping_the_run(monkeypatch, tmp_path):
    _failing_validation(monkeypatch, lambda t: t == 2)
    bench = runner.Bench("baselines", 1, str(tmp_path))
    passes = bench.measure(0.01, traced=False)
    bench.verify()
    n_pol, rounds = len(POLICIES["baselines"]), bench.rounds
    n_passes = len(passes) + 1  # the checked pass is counted too
    assert bench.kept == n_passes * n_pol * (rounds - 1)
    assert bench.requested == n_passes * n_pol * rounds
    # each policy misses one round in every pass, and nothing else fails
    assert bench.failed == n_passes * n_pol
    assert any("missing from the trace" in m for m in bench.messages)


def test_aborted_runs_count_as_failed_without_stopping_the_run(monkeypatch, tmp_path):
    _failing_validation(monkeypatch, lambda t: True)
    bench = runner.Bench("baselines", 1, str(tmp_path))
    passes = bench.measure(0.01, traced=False)
    bench.verify()
    assert len(passes) >= 2 and bench.kept == 0
    assert bench.failed == bench.requested == (len(passes) + 1) * len(POLICIES["baselines"]) * bench.rounds
    assert any("SimulationAborted" in m for m in bench.messages)


def test_checks_accept_a_real_pass_and_flag_a_tampered_one(tmp_path):
    from edgesched import build_config

    doc = make_doc("paper", 4)
    result = run_pass(build_config(doc), ("lyapunov",), 5, str(tmp_path))
    trace_path, summary_path = policy_paths(str(tmp_path), "lyapunov")
    trace, summary = open(trace_path).read(), open(summary_path).read()
    records, failed, messages = checks.check_policy(doc, "lyapunov", 5, trace, summary)
    assert (len(records), failed, messages) == (5, 0, [])
    assert result.runs[0].kept == 5 and len(result.digests["lyapunov"]) == 64

    lines = trace.splitlines()
    rec = json.loads(lines[2])
    rec["p_cu_w"][0] = 2 * doc["clusters"][0]["P_n_max_w"]
    lines[2] = json.dumps(rec)
    _, failed, messages = checks.check_policy(doc, "lyapunov", 5, "\n".join(lines), summary)
    assert failed >= 1 and any("power" in m for m in messages)


@pytest.mark.parametrize(
    "fake_w, message",
    [(1e-4, "over the balance cap"), (0.3, "differs from the grid"), (0.6, "outside (0, 0.5]")],
)
def test_power_spot_check_flags_an_infeasible_or_worse_power(monkeypatch, tmp_path, fake_w, message):
    from edgesched import build_config

    doc = make_doc("contended", 1)
    cfg = build_config(doc)
    run_pass(cfg, ("lyapunov",), 1, str(tmp_path))
    trace_path, summary_path = policy_paths(str(tmp_path), "lyapunov")
    records, failed, _ = checks.check_policy(doc, "lyapunov", 1, open(trace_path).read(), open(summary_path).read())
    records = {r["t"]: r for r in records}
    n = next(n for n, j in enumerate(records[1]["channel"]) if j is not None)
    assert failed == 0 and spotchecks.power(cfg, doc, records, 1, n) == ""
    monkeypatch.setattr(spotchecks, "power_control", lambda *args: fake_w)
    assert message in spotchecks.power(cfg, doc, records, 1, n)


def test_runner_exits_nonzero_when_no_edgesched_is_importable(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "roundbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "roundbench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert "no edgesched package" in out.stderr

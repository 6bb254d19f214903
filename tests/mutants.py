"""Mutation battery: plant one known fault at a time and check that its tests catch it.

Run from anywhere, with the test extra installed:

    python tests/mutants.py

Each row names a file under ``src/edgesched``, an exact old text, its
replacement and the test node ids that must fail. First the runner runs every
listed test once on an unmutated copy of ``src/``, which must pass. Then, for
each row, it copies ``src/`` to a temporary directory, applies the row and runs
each of that row's tests there, one pytest process at a time. A row is
killed when every one of its tests fails, survives when one passes, is stale
when its old text does not occur exactly once, and is broken when pytest ends
any other way (a node id that no longer exists, say). The exit status is 1
unless every row is killed. pytest does not collect this file: its name does
not start with ``test_``.

A row goes only with the code it mutates. When an edit makes a row stale,
update its old text in the same change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # under src/edgesched
    old: str
    new: str
    tests: tuple[str, ...]


SEG = "tests/test_seg_solver.py::"
TABLE = "tests/test_solver_table.py::"
ORCH = "tests/test_orchestrator.py::"
PIPE = "tests/test_pipeline.py::"
GOLDEN = "tests/test_decision_golden.py"
DIGESTS = "tests/test_solver_digests.py::test_solver_digests_match_the_fixture"
ACCEPT = "tests/test_acceptance.py::"
SOLVER = "seg_solver.py"
MALFORMED = PIPE + "test_event_sim_rejects_malformed_input"
INCUMBENT = SEG + "test_schedule_segments_equals_the_oracle_on_systems_built_for_the_incumbent"

MUTANTS = (
    # the partition sweep's O(1) pretest
    Mutant(
        "pretest-b-ge",
        SOLVER,
        "+ s * queue_sum > bar[0]:",
        "+ s * queue_sum >= bar[0]:",
        (SEG + "test_pretest_keeps_a_pair_whose_least_stage_count_ties_the_bar",),
    ),
    Mutant(
        "stage-min-one-too-large",
        SOLVER,
        "s = 1 - (-rest // most)",
        "s = 2 - (-rest // most)",
        (SEG + "test_partition_sweep_equals_the_per_pair_scan",),
    ),
    Mutant(
        "tied-events-by-ascending-device",
        SOLVER,
        "(u, -k, k, d) for k, cap in enumerate(caps)",
        "(u, k, k, d) for k, cap in enumerate(caps)",
        (
            SEG + "test_partition_prices_tied_occupancies_at_the_first_device",
            SEG + "test_partition_sweep_equals_the_per_pair_scan",
            DIGESTS,
        ),
    ),
    # the best-first run-start search
    Mutant(
        "run-start-break-ge",
        SOLVER,
        "if lower > cutoff:",
        "if lower >= cutoff:",
        (SEG + "test_run_start_skip_keeps_an_exact_tie",),
    ),
    Mutant(
        "first-error-not-m-1",
        SOLVER,
        "if m == 1:\n                error = exc",
        "if error is None:\n                error = exc",
        (SEG + "test_no_plan_raises_the_error_of_m_1_though_another_run_start_is_searched_first",),
    ),
    Mutant(
        "run-starts-by-minus-bound",
        SOLVER,
        "insort(priced, (floor if m == 1 else lower, m, floor))",
        "insort(priced, (-(floor if m == 1 else lower), m, floor))",
        (SEG + "test_best_first_search_runs_under_two_partition_searches_per_encoder_solve",),
    ),
    # the walk's lower bound on every later run start, and its stop
    Mutant(
        "later-without-slack",
        SOLVER,
        "        return least * (1 - 1e-9)",
        "        return least",
        (SEG + "test_later_never_falls_and_lies_at_or_below_every_later_bound",),
    ),
    Mutant(
        "later-hop-min-for-hop-max",
        SOLVER,
        "+ (s - 1) * hop_min - hop_max) + s * queue_sum",
        "+ (s - 1) * hop_max - hop_min) + s * queue_sum",
        (SEG + "test_later_never_falls_and_lies_at_or_below_every_later_bound",),
    ),
    Mutant(
        "walk-stop-ge",
        SOLVER,
        "or after > cutoff:",
        "or after >= cutoff:",
        (SEG + "test_walk_keeps_a_run_start_whose_later_ties_the_best_at_v_0",),
    ),
    # the floor and its inverse
    Mutant(
        "floor-hop-min-for-hop-max",
        SOLVER,
        "obj = v_factor * ((s + m - 1) * u - hop_max)",
        "obj = v_factor * ((s + m - 1) * u - hop_min)",
        (SEG + "test_stage_count_floor_is_below_every_composition_of_that_size",),
    ),
    Mutant(
        "floor-slowest-speeds",
        SOLVER,
        "fastest = sorted(speeds, reverse=True)",
        "fastest = sorted(speeds)",
        (SEG + "test_stage_count_floor_is_below_every_composition_of_that_size",),
    ),
    Mutant(
        "stop-without-widening",
        SOLVER,
        "(room + hop_max) / (s + m - 1) * (1 + 1e-9)",
        "(room + hop_max) / (s + m - 1)",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    Mutant(
        "stop-widened-by-1e-6",
        SOLVER,
        "(room + hop_max) / (s + m - 1) * (1 + 1e-9)",
        "(room + hop_max) / (s + m - 1) * (1 + 1e-6)",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    Mutant(
        "stop-without-v-0-guard",
        SOLVER,
        "/ (v_factor * (1 - 1e-12)) if v_factor else math.inf",
        "/ (v_factor * (1 - 1e-12))",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    # the floor's whole-block loads, refined lazily, and the sweep's start
    Mutant(
        "whole-load-one-block-short",
        SOLVER,
        "short = l_blocks - sum(held)",
        "short = l_blocks - 1 - sum(held)",
        (SEG + "test_whole_block_load_is_the_l_th_least_block_ratio",),
    ),
    Mutant(
        "whole-load-without-fix-up",
        SOLVER,
        "        while d and d / speed > load:\n            d -= 1\n        while (d + 1) / speed <= load:\n            d += 1\n",
        "",
        (SEG + "test_whole_block_load_is_the_l_th_least_block_ratio",),
    ),
    Mutant(
        "floor-never-refined",
        SOLVER,
        "            if least > bar or whole[at]:\n",
        "            if True:\n",
        (
            SEG + "test_lazily_refined_floor_equals_the_fully_refined_one_at_or_below_the_bar",
            SEG + "test_best_first_search_runs_under_two_partition_searches_per_encoder_solve",
        ),
    ),
    Mutant(
        "floor-refined-only-below-the-bar",
        SOLVER,
        "            if least > bar or whole[at]:\n",
        "            if least >= bar or whole[at]:\n",
        (SEG + "test_lazily_refined_floor_equals_the_fully_refined_one_at_or_below_the_bar",),
    ),
    Mutant(
        "floor-refinement-may-lower-a-load",
        SOLVER,
        "max(counts[at - s_lo][1], _whole_block_load(l_blocks, fastest[:at]))",
        "_whole_block_load(l_blocks, fastest[:at])",
        (SEG + "test_lazily_refined_floor_equals_the_fully_refined_one_at_or_below_the_bar",),
    ),
    Mutant(
        "sweep-start-at-the-l-th-occupancy",
        SOLVER,
        "events[: l_blocks - 1]:\n            cnt[k] += 1\n        top = max(cnt)  # the largest count\n        for u, _, j, d in events[l_blocks - 1 :]:",
        "events[:l_blocks]:\n            cnt[k] += 1\n        top = max(cnt)  # the largest count\n        for u, _, j, d in events[l_blocks:]:",
        (ACCEPT + "test_criterion_2_segment_solver_optimality", SEG + "test_partition_sweep_equals_the_per_pair_scan", DIGESTS),
    ),
    # the block caps hold C9 as the validator checks it
    Mutant(
        "energy-cap-without-slack",
        SOLVER,
        "> dev.energy_budget_j * (1 + ENERGY_BUDGET_SLACK)",
        "> dev.energy_budget_j",
        (SEG + "test_energy_caps_admit_every_plan_the_validator_admits", INCUMBENT),
    ),
    # the m = 1 incumbent and the pricing of m = 1 beside it
    Mutant(
        "incumbent-break-ge",
        SOLVER,
        "if best_key is not None and obj > best_key[0]:",
        "if best_key is not None and obj >= best_key[0]:",
        (INCUMBENT,),
    ),
    Mutant(
        "incumbent-energy-test-without-slack",
        SOLVER,
        "if not _over_budget(l_blocks, work, devices[j], env.clock_hz[n][j], env.hop_s[n][j]):",
        "if work_energy(l_blocks, work, devices[j], env.clock_hz[n][j], env.hop_s[n][j]) <= devices[j].energy_budget_j:",
        (INCUMBENT,),
    ),
    Mutant(
        "incumbent-without-energy-test",
        SOLVER,
        "if not _over_budget(l_blocks, work, devices[j], env.clock_hz[n][j], env.hop_s[n][j]):",
        "if True:",
        (INCUMBENT,),
    ),
    Mutant(
        "floor-only-bound-at-every-run-start",
        SOLVER,
        "insort(priced, (floor if m == 1 else lower, m, floor))",
        "insort(priced, (floor, m, floor))",
        (INCUMBENT,),
    ),
    Mutant(
        "m-1-floor-only-without-incumbent",
        SOLVER,
        "if not _over_budget(l_blocks, work, devices[j], env.clock_hz[n][j], env.hop_s[n][j]):",
        "if False:",
        (INCUMBENT, DIGESTS),
    ),
    Mutant(
        "m-1-never-searched",
        SOLVER,
        "insort(priced, (floor if m == 1 else lower, m, floor))",
        "insort(priced, (math.inf if m == 1 else lower, m, floor))",
        (INCUMBENT,),
    ),
    Mutant(
        "segment-cap-admits-a-nan-power",
        SOLVER,
        "key=lambda s: not threshold_power(",
        "key=lambda s: threshold_power(",
        (SEG + "test_segment_cap_at_a_nan_power_is_unreachable",),
    ),
    # the partition search's floor skip and the one-stage price
    Mutant(
        "floor-skip-removed",
        SOLVER,
        "if s_cap >= 2 and not floor > bar[0]:",
        "if s_cap >= 2:",
        (SEG + "test_partition_floor_skip_equals_the_full_scan",),
    ),
    Mutant(
        "floor-skip-on-a-tie",
        SOLVER,
        "if s_cap >= 2 and not floor > bar[0]:",
        "if s_cap >= 2 and not floor >= bar[0]:",
        (DIGESTS,),
    ),
    Mutant(
        "one-stage-price-with-slack",
        SOLVER,
        "return v_factor * (m * (l_blocks * work / speed)) + queue_sum",
        "return v_factor * (m * (l_blocks * work / speed)) * (1 + 1e-12) + queue_sum",
        (SEG + "test_run_start_skip_keeps_an_exact_tie",),
    ),
    Mutant(
        "one-stage-plans-first-device-only",
        SOLVER,
        "        if cap >= l_blocks:",
        "        if cap >= l_blocks and not ties:",
        (DIGESTS, INCUMBENT),
    ),
    # metamorphic relations: more memory, energy or head power never costs,
    # nor does one more device
    Mutant(
        "sweep-stop-at-the-shortest-hop",
        SOLVER,
        "s_lo, hop_max = max(2, need), max(hops)",
        "s_lo, hop_max = max(2, need), min(hops)",
        (SEG + "test_adding_a_device_never_raises_the_objective",),
    ),
    # every exit of the plan checks, the run loop and the CLI, deleted or
    # inverted, and the closed form's tie rule
    Mutant(
        "closed-form-without-empty-plan-check",
        "pipeline.py",
        '    if s == 0:\n        raise InfeasibleError("C2", "empty pipeline plan")\n',
        "",
        (SEG + "test_micro_batch_solve_of_an_all_zero_partition_fails_c2", "tests/test_decision.py::test_an_all_zero_plan_fails_c2_through_the_closed_form"),
    ),
    Mutant(
        "closed-form-subtracts-the-last-bottleneck-hop",
        "pipeline.py",
        "return (s + m - 1) * u - hop_times[occupancy.index(u)]",
        "return (s + m - 1) * u - hop_times[s - 1 - occupancy[::-1].index(u)]",
        (PIPE + "test_latency_subtracts_bottleneck_hop",),
    ),
    Mutant(
        "event-sim-without-empty-check",
        "pipeline.py",
        '    if s == 0:\n        raise ValueError("empty pipeline")\n',
        "",
        (MALFORMED + "[times0-hops0-1-empty pipeline]",),
    ),
    Mutant(
        "event-sim-length-check-one-sided",
        "pipeline.py",
        "    if len(hop_times) != s:\n",
        "    if len(hop_times) < s:\n",
        (MALFORMED + "[times2-hops2-2-equal length]",),
    ),
    Mutant(
        "event-sim-without-chunk-check",
        "pipeline.py",
        '    if m < 1:\n        raise ValueError(f"chunk count must be >= 1, got {m}")\n',
        "",
        (MALFORMED + "[times3-hops3-0-chunk count must be >= 1]",),
    ),
    Mutant(
        "uniform-split-without-memory-check",
        "orchestrator.py",
        '        raise InfeasibleError("C7", f"cluster {n}: memory cannot host all blocks")\n',
        "        pass\n",
        (ORCH + "test_uniform_partition_over_no_devices_names_c7",),
    ),
    Mutant(
        "random-plan-without-conservation-test",
        "orchestrator.py",
        "if s <= cfg.model.n_blocks:  # more chosen devices than blocks breaks conservation",
        "if True:",
        (ORCH + "test_random_policy_falls_back_to_the_uniform_split",),
    ),
    Mutant(
        "baseline-unknown-policy-returns-none",
        "orchestrator.py",
        '\n    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")',
        "\n    return None",
        (ORCH + "test_unknown_policy_and_negative_rounds_are_rejected",),
    ),
    Mutant(
        "run-policy-checked-only-with-rounds",
        "orchestrator.py",
        "    if policy not in POLICIES:\n",
        "    if policy not in POLICIES and rounds:\n",
        (ORCH + "test_unknown_policy_and_negative_rounds_are_rejected",),
    ),
    Mutant(
        "run-rounds-check-off-by-one",
        "orchestrator.py",
        "    if rounds < 0:\n",
        "    if rounds < -1:\n",
        (ORCH + "test_unknown_policy_and_negative_rounds_are_rejected",),
    ),
    Mutant(
        "atomic-write-keeps-its-temp-file",
        "orchestrator.py",
        "        if os.path.exists(tmp):\n            os.unlink(tmp)\n",
        "",
        (ORCH + "test_atomic_write_keeps_the_old_file_when_the_rename_fails",),
    ),
    Mutant(
        "cli-internal-error-unhandled",
        "cli.py",
        "    except Exception as exc:  # defensive: anything else is a bug\n",
        "    except ArithmeticError as exc:  # defensive: anything else is a bug\n",
        ("tests/test_cli.py::test_unexpected_error_exits_internal_error",),
    ),
    # the resource solver, the balance threshold, the queues and the generator
    Mutant(
        "matching-ties-to-the-last-cluster",
        "res_solver.py",
        "ranked = sorted(range(cfg.n_clusters), key=costs.__getitem__)",
        "ranked = sorted(range(cfg.n_clusters)[::-1], key=costs.__getitem__)",
        ("tests/test_res_solver.py::test_matching_matches_enumeration_on_random_costs",),
    ),
    Mutant(
        "mute-cluster-ranked-first",
        "res_solver.py",
        "return [math.inf if p is None else _objective(",
        "return [0.0 if p is None else _objective(",
        (ORCH + "test_a_cluster_that_cannot_transmit_sits_out[lyapunov]",),
    ),
    Mutant(
        "mute-cluster-on-the-air-not-raised",
        "res_solver.py",
        "        if assignment.is_transmitting(n):\n            raise exc\n",
        "        if assignment.is_transmitting(n):\n            pass\n",
        (ORCH + "test_the_round_fails_when_fewer_than_min_n_j_clusters_can_transmit",),
    ),
    Mutant(
        "power-clamp-without-floor",
        "res_solver.py",
        "return min(max(_stationary_power(prob, v_factor, y_n), lo), p_ceil)",
        "return min(_stationary_power(prob, v_factor, y_n), p_ceil)",
        ("tests/test_res_solver.py::test_power_is_the_balance_floor_when_it_exceeds_the_stationary_power",),
    ),
    Mutant(
        "balance-threshold-one-segment-up",
        "convergence.py",
        "        - phi2 * n_segments**2 / n_blocks\n        - phi2\n",
        "        - phi2 * (n_segments + 1) ** 2 / n_blocks\n        - phi2\n",
        ("tests/test_convergence.py::test_balance_power_thresholds_invert_gamma",),
    ),
    Mutant(
        "queue-update-without-floor",
        "lyapunov.py",
        "max(y + gamma_t - gamma_max, 0.0)",
        "y + gamma_t - gamma_max",
        ("tests/test_lyapunov.py::test_queue_update_cases",),
    ),
    Mutant(
        "lemire-rejects-once",
        "rng.py",
        "while m & _M32 < threshold:",
        "if m & _M32 < threshold:",
        ("tests/test_rng.py::test_generator_matches_numpy_call_for_call",),
    ),
    # config parsing and the link model
    Mutant(
        "block-cap-without-max-blocks",
        "config.py",
        "return int(min(self.mem_budget_bytes // self.mem_per_block_bytes, MAX_BLOCKS))",
        "return int(self.mem_budget_bytes // self.mem_per_block_bytes)",
        ("tests/test_config.py::test_block_cap_of_a_vanishing_block_size_is_max_blocks",),
    ),
    Mutant(
        "config-without-per-device-memory-check",
        "config.py",
        "    if dev.mem_per_block_bytes > dev.mem_budget_bytes:\n",
        "    if False:\n",
        ("tests/test_config.py::test_memory_invariant_violation_names_constraint",),
    ),
    Mutant(
        "d2d-dead-link-only-below-zero-power",
        "comm.py",
        "    if power_w <= 0.0:\n",
        "    if power_w < 0.0:\n",
        ("tests/test_comm.py::test_d2d_zero_power_dead_link",),
    ),
    Mutant(
        "channel-shared-by-two-clusters",
        "comm.py",
        "            if j in taken:\n",
        "            if False:\n",
        ("tests/test_comm.py::test_channel_assignment_structure",),
    ),
    # the per-config solver table
    Mutant(
        "threshold-table-one-segment-off",
        SOLVER,
        "for s in range(1, l_blocks + 1))",
        "for s in range(2, l_blocks + 2))",
        (TABLE + "test_table_read_segment_cap_and_power_floor_equal_balance_power_threshold",),
    ),
    Mutant(
        "stage-floor-skipped-above-s-lo",
        SOLVER,
        "    if s_cap < s_lo:\n        return _no_floor\n",
        "    if s_cap > s_lo:\n        return _no_floor\n",
        (SEG + "test_run_start_bound_is_below_every_composition",),
    ),
    Mutant(
        "segment-cap-prices-every-s",
        SOLVER,
        "    s_max = min(cfg.clusters[n].n_devices, cfg.model.n_blocks)\n",
        "    s_max = min(cfg.clusters[n].n_devices, cfg.model.n_blocks)\n"
        "    [threshold_power(shares[s - 1], gain, interference_w) for s in range(1, s_max + 1)]\n",
        (ORCH + "test_lyapunov_round_evaluates_at_most_k_plus_one_thresholds_per_cluster",),
    ),
    Mutant(
        "table-survives-replace",
        "config.py",
        "        return SolverTable(self)\n",
        "        return SystemConfig.__dict__.get(\"_kept\") or setattr(SystemConfig, \"_kept\", SolverTable(self)) or SystemConfig._kept\n",
        (TABLE + "test_a_replaced_config_reads_its_own_table",),
    ),
    # evaluated fields that leave the decisions as they were
    Mutant(
        "power-scaled-by-1e-7",
        "res_solver.py",
        "return min(max(_stationary_power(prob, v_factor, y_n), lo), p_ceil)",
        "return min(max(_stationary_power(prob, v_factor, y_n), lo), p_ceil) * (1 + 1e-7)",
        (GOLDEN,),
    ),
    Mutant(
        "e-sch-scaled-by-1e-7",
        "decision.py",
        "hop += cl.devices[k].d2d_power_w * env.hop_s[n][k]",
        "hop += cl.devices[k].d2d_power_w * env.hop_s[n][k] * (1 + 1e-7)",
        (GOLDEN,),
    ),
)


def _copy_src(into: str) -> str:
    src = os.path.join(into, "src")
    shutil.copytree(os.path.join(REPO_ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: str, tests: tuple[str, ...]) -> int:
    """Exit code of one pytest process that imports edgesched from ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    # pyproject's pythonpath would put the unmutated src first; override it
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    return subprocess.run(argv, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        path = os.path.join(src, "edgesched", mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        codes = [_pytest(src, (test,)) for test in mutant.tests]
    if all(code == 1 for code in codes):
        return "killed"
    return "survived" if set(codes) <= {0, 1} else f"broken (pytest exit {max(codes)})"


def main() -> int:
    rows = MUTANTS
    start = time.monotonic()
    tests = tuple(dict.fromkeys(test for row in rows for test in row.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code = _pytest(_copy_src(tmp), tests)
    if code != 0:
        print(f"the listed tests fail without a mutant (pytest exit {code})")
        return 1
    bad = 0
    for row in rows:
        outcome = _outcome(row)
        bad += outcome != "killed"
        print(f"{outcome:>8}  {row.name}", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} killed in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

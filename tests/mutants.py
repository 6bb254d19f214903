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
GOLDEN = "tests/test_decision_golden.py"
SOLVER = "seg_solver.py"

MUTANTS = (
    # the partition sweep's O(1) pretests
    Mutant(
        "pretest-a-le",
        SOLVER,
        "if total - cnt[j] - before < rest:",
        "if total - cnt[j] - before <= rest:",
        (SEG + "test_partition_sweep_equals_the_per_pair_scan",),
    ),
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
        "tie-group-before-zero",
        SOLVER,
        "before = bisect_left(group, (u, j)) if len(group) > 1 else 0",
        "before = 0",
        (SEG + "test_partition_prices_tied_occupancies_at_the_first_device",),
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
        "insort(priced, (bound(m), m))",
        "insort(priced, (-bound(m), m))",
        (SEG + "test_best_first_search_runs_three_partition_searches_per_encoder_solve",),
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
        "pipelined, held = (s + m - 1) * u - hop_max, (s + m - 2) * u",
        "pipelined, held = (s + m - 1) * u - hop_min, (s + m - 2) * u",
        (SEG + "test_stage_count_floor_is_below_every_composition_of_that_size",),
    ),
    Mutant(
        "floor-slowest-speeds",
        SOLVER,
        "accumulate(sorted(speeds, reverse=True))",
        "accumulate(sorted(speeds))",
        (SEG + "test_stage_count_floor_is_below_every_composition_of_that_size",),
    ),
    Mutant(
        "stop-without-widening",
        SOLVER,
        "room / (s + m - 2)) * (1 + 1e-9)",
        "room / (s + m - 2))",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    Mutant(
        "stop-widened-by-1e-6",
        SOLVER,
        "room / (s + m - 2)) * (1 + 1e-9)",
        "room / (s + m - 2)) * (1 + 1e-6)",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    Mutant(
        "stop-without-v-0-guard",
        SOLVER,
        "/ (v_factor * (1 - 1e-12)) if v_factor else math.inf",
        "/ (v_factor * (1 - 1e-12))",
        (SEG + "test_stop_occupancy_inverts_the_stage_count_floor_term",),
    ),
    # the in-call floor and the one-stage price
    Mutant(
        "in-call-floor-without-one-stage-bar",
        SOLVER,
        "not (ties and _stage_count_floor(",
        "not (_stage_count_floor(",
        (SEG + "test_in_call_floor_is_built_only_where_a_one_stage_plan_sets_the_bar",),
    ),
    Mutant(
        "in-call-floor-skip-removed",
        SOLVER,
        "if s_cap >= 2 and not (ties and _stage_count_floor(env, n, caps, l_blocks, v_factor, queue_sum, s_lo, s_cap)(m, work) > bar[0]):",
        "if s_cap >= 2:",
        (SEG + "test_in_call_floor_is_built_only_where_a_one_stage_plan_sets_the_bar", SEG + "test_partition_floor_skip_equals_the_full_scan"),
    ),
    Mutant(
        "one-stage-price-with-slack",
        SOLVER,
        "key = (v_factor * (m * (l_blocks * work / speeds[j])) + queue_sum, 1)",
        "key = (v_factor * (m * (l_blocks * work / speeds[j])) * (1 + 1e-12) + queue_sum, 1)",
        (SEG + "test_run_start_skip_keeps_an_exact_tie",),
    ),
    # a metamorphic relation: more memory, energy or head power never costs
    Mutant(
        "one-stage-plans-first-device-only",
        SOLVER,
        "        if cap >= l_blocks:",
        "        if cap >= l_blocks and not ties:",
        (SEG + "test_more_memory_energy_or_head_power_never_raises_the_objective",),
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

"""Golden decisions: every policy's per-round choices on three fixed inputs.

The fixture holds, for each kept round, the segment counts S, micro-batch
counts m, block partitions delta and channels, which must match exactly, and
the uplink powers p_cu_w, queues queue_y and every evaluated delay, energy,
balance bound, objective and gap bound, which must match within 1e-8
relative (a skipped upload and a vacuous gap bound are null and must stay
null). Pinning the evaluated fields catches a change in an evaluated value
that leaves the decisions as they were.

The inputs are the shipped configs: table2, homogeneous and binding
(six two-device clusters on three channels under a tight balance cap). In
binding the uplink interference is fixed at 0.058 W, so a cluster left off the
air lifts the balance bound over its cap and the queues grow every round:
power control works at positive queues.

A change that is meant to keep decisions must keep this test passing. Only a
change meant to alter decisions regenerates the fixture:

    PYTHONPATH=src python tests/test_decision_golden.py
"""

import json
import math
import os

import pytest

from edgesched.config import build_config
from edgesched.orchestrator import POLICIES, run_simulation

from conftest import BINDING, HOMOGENEOUS, TABLE2

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_decisions.json")
ROUNDS = 24
EXACT_FIELDS = ("t", "S", "m", "delta", "channel")
FLOAT_FIELDS = (
    "p_cu_w",
    "queue_y",
    "tau_pipe_s",
    "tau_up_s",
    "tau_round_s",
    "e_pipe_j",
    "e_com_j",
    "e_sch_j",
    "gamma_t",
    "drift_penalty",
    "gap_bound",
)
FLOAT_REL_TOL = 1e-8


def _docs() -> dict:
    docs = {}
    for name, path in (("binding", BINDING), ("table2", TABLE2), ("homogeneous", HOMOGENEOUS)):
        with open(path, encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def decisions(doc: dict, policy: str) -> dict[str, list]:
    """Each compared field of one run, as a list over its kept rounds."""
    records = [r.to_record() for r in run_simulation(build_config(doc), ROUNDS, policy).rounds]
    return {key: [rec[key] for rec in records] for key in EXACT_FIELDS + FLOAT_FIELDS}


def _close(got, want) -> bool:
    """Equal structure, nulls in the same places, floats within FLOAT_REL_TOL."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def _round12(value):
    """12 significant digits keep the file small and lose nothing at 1e-8."""
    if isinstance(value, list):
        return [_round12(v) for v in value]
    return None if value is None else float(f"{value:.12g}")


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


CASES = [(name, policy) for name in ("table2", "homogeneous", "binding") for policy in POLICIES]


@pytest.mark.parametrize("name,policy", CASES)
def test_decisions_match_golden(name, policy):
    want = _load_fixture()[name][policy]
    got = decisions(_docs()[name], policy)
    for key in EXACT_FIELDS:
        assert got[key] == want[key], f"{key} changed"
    for key in FLOAT_FIELDS:
        assert len(got[key]) == len(want[key]), f"{key} changed"
        for t, g, w in zip(want["t"], got[key], want[key]):
            assert _close(g, w), f"round {t}: {key} {g} vs {w}"


def test_binding_scenario_exercises_the_queues():
    # the binding input must keep the queue-driven path live, or it guards nothing
    run = _load_fixture()["binding"]["lyapunov"]
    assert all(y[0] > 0.0 for y in run["queue_y"])
    assert len({p for powers in run["p_cu_w"] for p in powers if p > 0.0}) > 1


if __name__ == "__main__":
    docs = _docs()
    out = {name: {policy: decisions(docs[name], policy) for policy in POLICIES} for name in docs}
    for run in (run for runs in out.values() for run in runs.values()):
        for key in FLOAT_FIELDS:
            run[key] = _round12(run[key])
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)")

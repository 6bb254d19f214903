"""Trace digests: the sha256 of every byte of ``trace.jsonl`` over a run matrix.

The golden fixture (``test_decision_golden.py``) compares powers, queues and
evaluated fields to 1e-8 relative, so a change that moves a power by a few
ulps passes it. This test pins the whole trace, byte for byte, on:

- the four roundbench workload shapes (``roundbench/workloads.py``, loaded
  read-only) under each of their policies, seeds 1-5, at their pass lengths,
  with ``contended`` cut to 12 rounds;
- the shipped configs table2, homogeneous and binding under every policy,
  seeds 1-3, 60 rounds.

A change that is meant to keep decisions must keep this test passing. A
change meant to alter decisions regenerates the fixture and lists the keys
that changed; the script prints how many changed and which, against the
fixture it overwrites:

    PYTHONPATH=src python tests/test_trace_digests.py
"""

import hashlib
import importlib.util
import json
import os
import tempfile

from edgesched.config import build_config
from edgesched.orchestrator import POLICIES, run_simulation

from conftest import BINDING, HOMOGENEOUS, REPO_ROOT, TABLE2

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "trace_digests.json")
WORKLOAD_SEEDS = range(1, 6)
CONTENDED_ROUNDS = 12
CONFIG_SEEDS = range(1, 4)
CONFIG_ROUNDS = 60


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "roundbench_workloads", os.path.join(REPO_ROOT, "roundbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _cases():
    """(key, config document, policy, rounds) of every run in the matrix."""
    wl = _workloads()
    for name in wl.WORKLOADS:
        rounds = CONTENDED_ROUNDS if name == "contended" else wl.PASS_ROUNDS[name]
        for seed in WORKLOAD_SEEDS:
            for policy in wl.POLICIES[name]:
                yield f"workload/{name}/seed{seed}/{policy}", wl.make_doc(name, seed), policy, rounds
    for name, path in (("table2", TABLE2), ("homogeneous", HOMOGENEOUS), ("binding", BINDING)):
        with open(path, encoding="utf-8") as fh:
            base = json.load(fh)
        for seed in CONFIG_SEEDS:
            for policy in POLICIES:
                yield f"config/{name}/seed{seed}/{policy}", dict(base, rng_seed=seed), policy, CONFIG_ROUNDS


def _digest(doc: dict, policy: str, rounds: int) -> str:
    trace = run_simulation(build_config(doc), rounds, policy)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "trace.jsonl")
        trace.write_jsonl(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _digests() -> dict:
    return {key: _digest(doc, policy, rounds) for key, doc, policy, rounds in _cases()}


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def _changed(want: dict, got: dict) -> list[str]:
    """Keys whose digest differs, or that only one of the two has, sorted."""
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def test_trace_digests_match_the_fixture():
    want = _load_fixture()
    got = _digests()
    assert sorted(got) == sorted(want)
    changed = _changed(want, got)
    assert not changed, f"{len(changed)} of {len(want)} traces changed: {changed}"


if __name__ == "__main__":
    old = _load_fixture()
    new = _digests()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = _changed(old, new)
    print(f"{len(changed)} of {len(new)} digests changed")
    for key in changed:
        print(f"  {key}")

"""Differential fuzz battery: the solvers of two source trees, on the same seeded inputs.

Run from anywhere:

    python tests/fuzz.py --against REF

``git archive REF src`` is unpacked into a temporary directory. One seeded
battery of solver calls then runs twice, in two separate processes: once
against that tree's ``edgesched`` and once against this checkout's ``src``.
The systems are perturbed from the shipped configs: N 1-6 clusters, K 1-8
devices each, L 1-16 blocks, b in {1, 2, 4, 7, 16, 64}, J 1..N+1 channels,
memory caps of 1-40 blocks, device and head energy budgets of 1e-3-50 J, and
a balance cap gamma_max of 1e-5-1e-2; each runs rounds 1 and 2 at queue
values q in {0, 1e-3, 1}. The calls are ``schedule_segments`` per cluster at
its full head power, ``optimal_partition`` at m in {1, b} and at most 1 or
min(K, L) segments, then
``allocate_resources`` at the plans' segment counts and ``validate_decision``
of the decision they make. Plans, powers, channels, priced costs and the
constraint each error names are compared exactly, floats by their repr. The
first call whose answers differ is printed with its case's config document,
and the exit status is 1; otherwise 0. It needs only the standard library
and the package. pytest does not collect this file: its name does not start
with ``test_``.
"""

from __future__ import annotations

import argparse
import copy
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2609
CASES = 1000
SHAPES = ("table2.json", "homogeneous.json", "binding.json")


def case_doc(rng: random.Random, shapes: list[dict]) -> dict:
    """One config document perturbed from a shipped shape."""
    base = rng.choice(shapes)
    n_clusters, n_blocks = rng.randint(1, 6), rng.randint(1, 16)
    doc = copy.deepcopy({key: value for key, value in base.items() if key != "clusters"})
    doc["J"] = rng.randint(1, n_clusters + 1)
    doc["model"] = dict(doc.get("model", {}), L=n_blocks, b=rng.choice((1, 2, 4, 7, 16, 64)))
    doc["convergence"] = dict(doc.get("convergence", {}), gamma_max_bound=10 ** rng.uniform(-5, -2))
    doc["clusters"] = []
    for n in range(n_clusters):
        cluster = copy.deepcopy(base["clusters"][n % len(base["clusters"])])
        cluster["E_n_max_j"] = 10 ** rng.uniform(-3, math.log10(50))
        devices = cluster["devices"]
        cluster["devices"] = []
        for k in range(rng.randint(1, 8)):
            dev = dict(devices[k % len(devices)])
            dev["gamma_max_bytes"] = rng.randint(1, 40) * dev.get("gamma0_bytes", 2.5e8)
            dev["E_k_max_j"] = 10 ** rng.uniform(-3, math.log10(50))
            cluster["devices"].append(dev)
        doc["clusters"].append(cluster)
    return doc


def case_docs(seed: int):
    """The battery's config documents, in case order."""
    shapes = []
    for name in SHAPES:
        with open(os.path.join(REPO_ROOT, "configs", name), encoding="utf-8") as fh:
            shapes.append(json.load(fh))
    rng = random.Random(seed)
    while True:
        yield case_doc(rng, shapes)


def _outcome(call):
    """``call()``'s answer, or the error it raised: its class and the constraint
    or field it names. Any other exception is an answer too, by its class, so
    that a tree that crashes where the other answers is a difference."""
    from edgesched.errors import ConfigError, InfeasibleError, StalledLinkError

    try:
        return call()
    except InfeasibleError as exc:
        return ["error", "InfeasibleError", exc.constraint]
    except ConfigError as exc:
        return ["error", "ConfigError", exc.field]
    except StalledLinkError:
        return ["error", "StalledLinkError", None]
    except Exception as exc:
        return ["error", type(exc).__name__, None]


def battery(cases: int, seed: int = SEED):
    """Yield (case, call, args, answer) for every call of the battery, with the
    importable ``edgesched``; every value is plain JSON."""
    from edgesched.config import build_config, sample_round_environment
    from edgesched.decision import SchedulingDecision, validate_decision
    from edgesched.res_solver import allocate_resources
    from edgesched.seg_solver import optimal_partition, schedule_segments

    for case, doc in zip(range(cases), case_docs(seed)):
        cfg = _outcome(lambda: build_config(doc))
        if isinstance(cfg, list):
            yield case, "build_config", [], cfg
            continue
        v, n_blocks, b = cfg.convergence.v_factor, cfg.model.n_blocks, cfg.model.batch_items
        for t in (1, 2):
            env = _outcome(lambda: sample_round_environment(cfg, t))
            if isinstance(env, list):
                yield case, "sample_round_environment", [t], env
                continue
            for q in (0.0, 1e-3, 1.0):
                queues = (q,) * cfg.n_clusters
                plans = []
                for n, cl in enumerate(cfg.clusters):
                    plan = _outcome(lambda: schedule_segments(cfg, env, n, queues, v, cl.uplink_power_max_w))
                    plans.append(plan)
                    yield case, "schedule_segments", [t, q, n], plan if isinstance(plan, list) else [list(plan.delta), plan.m]
                    for m, s_cap in itertools.product(sorted({1, b}), sorted({1, min(cl.n_devices, n_blocks)})):
                        found = _outcome(lambda: optimal_partition(m, cfg, env, n, v, q * cfg.n_clusters, s_cap))
                        yield case, "optimal_partition", [t, q, n, m, s_cap], found if isinstance(found, list) else [list(found[0]), found[1]]
                counts = tuple(n_blocks if isinstance(p, list) else p.n_segments for p in plans)
                alloc = _outcome(lambda: allocate_resources(cfg, env, queues, v, counts))
                yield case, "allocate_resources", [t, q, list(counts)], alloc if isinstance(alloc, list) else [list(alloc[0].assigned), list(alloc[1])]
                if isinstance(alloc, list) or any(isinstance(p, list) for p in plans):
                    continue
                decision = SchedulingDecision(plans=tuple(plans), assignment=alloc[0], powers_w=alloc[1])
                costs = _outcome(lambda: [list(row) for row in validate_decision(decision, cfg, env)])
                yield case, "validate_decision", [t, q], costs


def _emit(cases: int, seed: int) -> None:
    import edgesched

    print(json.dumps(os.path.dirname(os.path.dirname(os.path.abspath(edgesched.__file__)))))
    for record in battery(cases, seed):
        print(json.dumps(record))


def _run(src: str, cases: int, seed: int) -> list[str]:
    """The battery's JSON lines, from a process that imports ``edgesched`` from ``src``."""
    code = f"import sys; sys.path[:0] = [{src!r}, {os.path.dirname(os.path.abspath(__file__))!r}]; import fuzz; fuzz._emit({cases}, {seed})"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the battery failed with {src}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    if json.loads(lines[0]) != os.path.abspath(src):
        raise RuntimeError(f"edgesched was imported from {lines[0]}, not {src}")
    return lines[1:]


def first_difference(src_a: str, src_b: str, cases: int = CASES, seed: int = SEED) -> tuple[str | None, int]:
    """(None, or a report of the first call whose answers differ, and the number of calls)."""
    a, b = _run(src_a, cases, seed), _run(src_b, cases, seed)
    for line_a, line_b in itertools.zip_longest(a, b, fillvalue="null"):
        if line_a != line_b:
            case = json.loads(line_a if line_a != "null" else line_b)[0]
            doc = json.dumps(next(itertools.islice(case_docs(seed), case, None)), sort_keys=True)
            return f"case {case} differs\n  {src_a}: {line_a}\n  {src_b}: {line_b}\n  config: {doc}", len(a)
    return None, len(a)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REF", help="the git revision to compare this checkout's src with")
    args = parser.parse_args(argv)
    start = time.monotonic()
    archive = subprocess.run(["git", "archive", args.against, "src"], cwd=REPO_ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        report, calls = first_difference(os.path.join(tmp, "src"), os.path.join(REPO_ROOT, "src"))
    if report is not None:
        print(report)
        return 1
    print(f"{CASES} cases, {calls} calls: {args.against} and this checkout answer alike ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

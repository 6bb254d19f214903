import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import edgesched

from conftest import REPO_ROOT

ROUNDBENCH = os.path.join(REPO_ROOT, "roundbench")


def test_every_exported_name_resolves():
    missing = [name for name in edgesched.__all__ if not hasattr(edgesched, name)]
    assert missing == []
    assert len(set(edgesched.__all__)) == len(edgesched.__all__)


def test_names_the_benchmark_binds_resolve():
    # roundbench traces, imports and patches these by name; a rename must fail here
    spec = importlib.util.spec_from_file_location("roundbench_tracer", os.path.join(ROUNDBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = [
        getattr(importlib.import_module(module), attr, None) for _, module, attr in tracer.SPANS + tracer.COUNTERS
    ]
    assert traced and all(callable(fn) for fn in traced)
    missing = []
    for script in ("spotchecks.py", "harness.py", "run.py"):
        with open(os.path.join(ROUNDBENCH, script), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        bound = {
            alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "edgesched"
            for alias in node.names
        }
        assert bound, script
        missing += [(script, name) for name, value in bound.items() if value is None]
        # attributes read off an imported module, such as harness's orchestrator.run_simulation
        missing += [
            (script, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and inspect.ismodule(bound.get(node.value.id))
            and not hasattr(bound[node.value.id], node.attr)
        ]
    assert missing == []


def test_calls_the_benchmark_makes_bind():
    # every call roundbench's spot checks make to an edgesched function, with
    # its positional count and keyword names, must fit that function's
    # signature, so a removed or reordered parameter fails here
    with open(os.path.join(ROUNDBENCH, "spotchecks.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "edgesched"
        for alias in node.names
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions
    ]
    assert {"schedule_segments", "power_control", "brute_force_segment_plan"} <= {c.func.id for c in calls}
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg for kw in call.keywords)
        signature = inspect.signature(functions[call.func.id])
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


_ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_library_reads_no_environment_outside_the_cli():
    # a library call must not depend on the caller's shell; only the CLI reads
    # one, the deployment path EDGESCHED_OUT_DIR
    package = os.path.dirname(edgesched.__file__)
    reads = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                if node.attr in _ENVIRONMENT_READS:
                    reads.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [(name, node.lineno, a.name) for a in node.names if a.name in _ENVIRONMENT_READS]
    assert reads == []


_SCIPY_FREE_RUN = """
import os, sys
import edgesched
from edgesched import cli
for policy in edgesched.POLICIES:
    out = os.path.join(sys.argv[1], policy)
    rc = cli.main(["run", sys.argv[2], "--rounds", "3", "--policy", policy, "--out", out])
    assert rc == 0, (policy, rc)
    assert os.path.exists(os.path.join(out, "trace.jsonl")), policy
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_scheduling_never_imports_scipy(tmp_path):
    # scipy is only the Hungarian test reference's solver; the package and a
    # run of every policy must not pay for importing it. One fresh interpreter,
    # because this test process has scipy loaded already
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    table2 = os.path.join(REPO_ROOT, "configs", "table2.json")
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path), table2],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


_NUMPY_FREE_RUN = """
import os, sys
before = set(sys.modules)
import edgesched
from edgesched import cli
for policy in edgesched.POLICIES:
    rc = cli.main(["run", sys.argv[2], "--rounds", "3", "--policy", policy, "--out", os.path.join(sys.argv[1], policy)])
    assert rc == 0, (policy, rc)
policies = ",".join(edgesched.POLICIES)
rc = cli.main(["compare", sys.argv[2], "--rounds", "3", "--policies", policies, "--out", os.path.join(sys.argv[1], "compare")])
assert rc == 0, ("compare", rc)
from edgesched import oracles  # its numpy oracles load numpy only when called
loaded = sorted(set(sys.modules) - before)
foreign = [m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "edgesched"]
print("numpy" in sys.modules, foreign)
"""


def test_numpy_free_policies_load_only_the_standard_library(tmp_path):
    # importing numpy costs more than a whole run; only the oracles and the
    # test tools may load it, when called. One fresh interpreter, because
    # this test process has numpy loaded already
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    table2 = os.path.join(REPO_ROOT, "configs", "table2.json")
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN, str(tmp_path), table2],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False []"
    for policy in edgesched.POLICIES:
        assert os.path.getsize(tmp_path / policy / "trace.jsonl") > 0, policy
    assert os.path.getsize(tmp_path / "compare" / "compare.csv") > 0


def test_runtime_dependencies_are_empty():
    # the package runs on the standard library alone; numpy, scipy and mpmath
    # belong to the test extra
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])

import ast
import importlib
import importlib.util
import os

import edgesched

from conftest import REPO_ROOT

ROUNDBENCH = os.path.join(REPO_ROOT, "roundbench")


def test_every_exported_name_resolves():
    missing = [name for name in edgesched.__all__ if not hasattr(edgesched, name)]
    assert missing == []
    assert len(set(edgesched.__all__)) == len(edgesched.__all__)


def test_names_the_benchmark_binds_resolve():
    # roundbench traces and imports these by name; a rename must fail here
    spec = importlib.util.spec_from_file_location("roundbench_tracer", os.path.join(ROUNDBENCH, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = [(module, attr) for _, module, attr in tracer.SPANS + tracer.COUNTERS]
    with open(os.path.join(ROUNDBENCH, "spotchecks.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "edgesched"
        for alias in node.names
    ]
    assert imported
    missing = [(m, a) for m, a in bound + imported if not hasattr(importlib.import_module(m), a)]
    assert missing == []

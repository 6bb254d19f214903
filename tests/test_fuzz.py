"""A slice of the differential fuzz battery in ``tests/fuzz.py``: with both
sides on the working tree every call answers alike, and a planted change to
the program is reported at the first call it alters, with its config."""

import os
import shutil

from fuzz import REPO_ROOT, first_difference

SRC = os.path.join(REPO_ROOT, "src")


def test_fuzz_slice_answers_alike_on_the_working_tree():
    report, calls = first_difference(SRC, SRC, cases=20)
    assert report is None and calls > 1000


def test_fuzz_reports_the_first_call_a_planted_change_alters(tmp_path):
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "edgesched" / "res_solver.py"
    text = path.read_text(encoding="utf-8")
    old = "return min(max(_stationary_power(prob, v_factor, y_n), lo), p_ceil)"
    assert text.count(old) == 1
    path.write_text(text.replace(old, f"{old} * (1 - 1e-12)"), encoding="utf-8")
    report, _ = first_difference(SRC, str(tmp_path / "src"), cases=20)
    assert report is not None
    assert '"allocate_resources"' in report.splitlines()[1] and '"clusters"' in report.splitlines()[3]

"""The demos and the README are examples, not tests, but a package name they
import can be deleted or renamed unnoticed.  Resolve every demo's imports
without running it, run the print-only demos, which write no files, end to
end, and hold the package root to the names the README says it exports."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import ris_sop

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_the_package_root_exports_the_six_names_the_readme_lists():
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"The package root exports six names: (.*?)\.\n", readme, re.S)
    listed = re.findall(r"`(\w+)`", sentence.group(1))
    assert sorted(ris_sop.__all__) == sorted(listed) == [
        "SystemConfig", "estimate", "estimate_sop", "sop_asymptotic",
        "sop_asymptotic_closed", "sop_closed_form"]
    assert all(callable(getattr(ris_sop, name)) for name in ris_sop.__all__)


def test_every_package_import_in_the_demos_resolves():
    checked = 0
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module.split(".")[0] != "ris_sop":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: from {node.module} import {alias.name}"
                )
                checked += 1
    assert checked > 0


def _run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_saturation_demo_runs():
    proc = _run_demo("03_saturation_design_rules.py")
    assert proc.returncode == 0, proc.stderr


def test_cross_validation_demo_runs():
    proc = _run_demo("04_cross_validation_oracle.py")
    assert proc.returncode == 0, proc.stderr

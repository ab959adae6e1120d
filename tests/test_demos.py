"""The demos are examples, not tests, but a package name they import can be
deleted or renamed unnoticed.  Resolve every demo's imports without running
it, and run the print-only demos, which write no files, end to end."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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

"""The suite does not run the demos, so a package name they import could be
deleted or renamed unnoticed; resolve their imports without running them."""

import ast
import importlib
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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

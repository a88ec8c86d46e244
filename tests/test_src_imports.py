"""Replaced implementations live only under tests/: no module of the
package imports a test oracle or a test helper."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ipckit"
TEST_ONLY = {"_pureval", "helpers", "identity", "mutants"}


def _test_only_imports(source):
    """Names of the test-only modules that source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            names = base + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            for part in name.split("."):
                if part.startswith("_oracle_") or part in TEST_ONLY:
                    found.append(name)
    return found


def test_the_import_check_sees_every_form():
    source = ("import _oracle_poset\nfrom helpers import f\n"
              "from .mutants import MUTANTS\nfrom . import _pureval\n"
              "from .poset import Poset\n")
    assert _test_only_imports(source) == [
        "_oracle_poset", "helpers", "mutants", "_pureval"]


def test_no_module_imports_test_code():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    for path in files:
        assert _test_only_imports(path.read_text(encoding="utf-8")) == [], path.name

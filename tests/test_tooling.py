"""Repository-level checks: declared dependencies and the line counter."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_src_imports_only_numpy_beyond_the_stdlib():
    """``ci.yml`` installs ``numpy pytest hypothesis``: the package itself
    may import nothing third-party but numpy."""
    third_party = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            third_party.update(
                module.split(".")[0] for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names)
    assert third_party - {"repro"} == {"numpy"}


def test_code_lines_defaults_to_src(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "code_lines", REPO / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    monkeypatch.chdir(REPO)
    assert code_lines.main([]) == 0
    default_total = capsys.readouterr().out
    assert code_lines.main(["src"]) == 0
    assert default_total == capsys.readouterr().out
    assert int(default_total.replace(",", "")) > 0

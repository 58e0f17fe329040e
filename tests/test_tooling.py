"""Repository-level checks: declared dependencies and the line counter."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Ratchet on ``tools/code_lines.py src`` (the coverage ratchet's rule,
#: pointed the other way): the figure of the PR that last set it.
MAX_SRC_CODE_LINES = 8_784


def _code_lines_tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", REPO / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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


def test_reference_executor_shares_no_code_with_the_key_module():
    """The oracle stays an oracle: ``relational/reference.py`` groups and
    matches on column values and imports nothing from ``relational/keys.py``
    (whose fold it once shared, agreeing with every collision)."""
    tree = ast.parse((REPO / "src" / "repro" / "relational"
                      / "reference.py").read_bytes())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not [name for name in imported if "keys" in name.split(".")]


def test_code_lines_defaults_to_src(monkeypatch, capsys):
    code_lines = _code_lines_tool()
    monkeypatch.chdir(REPO)
    assert code_lines.main([]) == 0
    default_total = capsys.readouterr().out
    assert code_lines.main(["src"]) == 0
    assert default_total == capsys.readouterr().out
    assert int(default_total.replace(",", "")) > 0


def test_src_code_lines_stay_under_the_ratchet():
    tool = _code_lines_tool()
    total = sum(map(tool.code_lines, tool.python_files(REPO / "src")))
    assert total <= MAX_SRC_CODE_LINES, (
        f"src/ has {total:,} code lines, over the ratchet of "
        f"{MAX_SRC_CODE_LINES:,}: lower MAX_SRC_CODE_LINES in a simplicity "
        "PR, or raise it deliberately in the same diff as the code that "
        "needs the lines")


def test_the_engine_moves_bytes_in_one_place():
    """A batch's whereabouts are a ``Residency`` record and
    ``Executor.deliver`` is the one caller of ``Route.transfer`` (the
    co-processed join's own timeline lives in ``operators/``): no location
    string to build or parse, no second transfer loop."""
    source = "".join(path.read_text() for path in sorted(
        (REPO / "src" / "repro" / "engine").glob("*.py")))
    assert "class Residency" in source
    assert source.count(".transfer(") == 1
    for banned in ('"distributed', '.startswith(("gpu"'):
        assert banned not in source, banned


def test_no_operator_takes_morsel_rows():
    """The morsel contract: kernels take whole batches, and the one carve
    -> stream -> reassemble loop is the executor's.  A ``morsel_rows``
    parameter on anything :mod:`repro.operators` exports is a second loop
    coming back."""
    import repro.operators as operators

    callables = {name: getattr(operators, name) for name in operators.__all__
                 if callable(getattr(operators, name))}
    assert "hash_join_kernel" in callables
    offenders = []
    for name, value in callables.items():
        targets = [value]
        if inspect.isclass(value):  # methods and classmethods too
            targets += [member for _, member in inspect.getmembers(
                value, inspect.isroutine)]
        for target in targets:
            try:
                parameters = inspect.signature(target).parameters
            except ValueError:  # no signature: type aliases, builtins
                continue
            if "morsel_rows" in parameters:
                offenders.append(getattr(target, "__qualname__", name))
    assert not offenders, offenders


def test_expressions_have_one_evaluator():
    """Expressions are interpreted by ``Expr.evaluate``.  A ``to_source``
    rendering was a second encoding of every node, emitted for a JIT
    back-end no execution path ran; generated code comes back only
    together with the path that executes it."""
    import repro.codegen as codegen
    import repro.relational.expr as expr

    nodes = [value for value in vars(expr).values()
             if inspect.isclass(value) and issubclass(value, expr.Expr)]
    assert len(nodes) >= 7
    assert [node.__name__ for node in nodes
            if hasattr(node, "to_source")] == []
    assert not hasattr(codegen, "backend")


def test_join_models_hold_no_second_cost_derivation():
    """Figs. 5-6 replay the operators' ``estimate_*`` on closed-form stats;
    the per-operator arithmetic those functions own must not come back."""
    import repro.perf.join_models as join_models

    source = inspect.getsource(join_models)
    for banned in ("hash_build", "hash_probe", "_OPS_PER_"):
        assert banned not in source, banned

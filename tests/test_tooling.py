"""Repository-level checks: declared dependencies, the line counter, the
benchmark-pairs summary and the in-process kernel A/B."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
#: Ratchet on ``tools/code_lines.py src`` (the coverage ratchet's rule,
#: pointed the other way): the figure of the PR that last set it.
MAX_SRC_CODE_LINES = 8_417


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
    ``Executor.ship`` is the one caller of ``Route.transfer`` (the
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


def test_device_memory_is_checked_in_one_place():
    """A device's memory is its spec's capacity: ``Device.ensure_fits`` is
    the one check and the one site that raises ``OutOfDeviceMemoryError``,
    so every "does not fit" is device-scoped and fails over.  No ledger,
    no second way of asking, and no per-thread state: one thread drives a
    session or a server."""
    root = REPO / "src" / "repro"
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in sorted(root.rglob("*.py"))}
    raised = [name for name, text in sources.items()
              for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "OutOfDeviceMemoryError"]
    assert raised == ["hardware/device.py"]
    for banned in (".allocate(", "fits_in_memory", "MemoryPool"):
        assert not [name for name, text in sources.items()
                    if banned in text], banned
    assert [name for name, text in sources.items()
            if "threading" in text] == []


def test_no_capacity_check_reads_a_column():
    """A batch's size is its record's: ``NodeResult`` carries ``rows`` and
    ``nbytes`` and derives no row count from its columns, and no
    description's ``check`` reads ``.columns`` — so a check can price a
    batch whose columns were never made."""
    tree = ast.parse(
        (REPO / "src" / "repro" / "engine" / "descriptions.py").read_text())
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    body = classes["NodeResult"].body
    fields = {member.target.id for member in body
              if isinstance(member, ast.AnnAssign)}
    methods = {member.name for member in body
               if isinstance(member, ast.FunctionDef)}
    assert {"rows", "nbytes"} <= fields
    assert "num_rows" not in fields | methods
    checks = {name: member for name, node in classes.items()
              for member in node.body
              if isinstance(member, ast.FunctionDef)
              and member.name == "check"}
    assert {"HashJoin", "RadixJoin"} <= set(checks)
    assert [name for name, check in checks.items()
            if any(isinstance(node, ast.Attribute) and node.attr == "columns"
                   for node in ast.walk(check))] == []


def _bench_pairs_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_pairs_counts_wins_against_the_parents_spread():
    """``tools/bench_pairs.py``'s summary on fixed numbers: wins and ties
    pair by pair, the parent's quartiles, and a gain that holds only with
    nine wins in ten and a median gain wider than the parent's IQR."""
    tool = _bench_pairs_tool()
    parent = [5.0, 5.2, 5.1, 5.3, 4.9, 5.0, 5.4, 5.1, 5.2, 5.0]
    change = [3.8, 3.7, 3.9, 3.8, 5.0, 3.6, 3.8, 3.9, 3.7, 3.8]
    summary = tool.pair_summary(parent, change, lower_is_better=True)
    assert (summary["pairs"], summary["wins"], summary["ties"]) == (10, 9, 0)
    assert (summary["parent_median"], summary["change_median"]) == (5.1, 3.8)
    assert (summary["parent_q1"], summary["parent_q3"]) \
        == pytest.approx((5.0, 5.225))
    assert summary["holds"]
    # Eight wins in ten is not enough, however wide the gain.
    assert not tool.pair_summary(parent, change[:4] + [5.5, 5.5] + change[6:],
                                 lower_is_better=True)["holds"]
    # Ten wins by less than the parent's IQR are not a gain either.
    assert not tool.pair_summary(parent, [value - 0.01 for value in parent],
                                 lower_is_better=True)["holds"]
    # Higher-is-better metrics win the other way; equal runs tie.
    summary = tool.pair_summary([1.0, 1.0], [1.0, 2.0],
                                lower_is_better=False)
    assert (summary["wins"], summary["ties"]) == (1, 1)
    assert tool.quartiles([4.0]) == (4.0, 4.0)


def test_bench_pairs_takes_several_workloads(capsys):
    """``--workload`` repeats: the workloads run in the order given, each
    once; at least one is required, and the other options keep their
    defaults."""
    tool = _bench_pairs_tool()
    args = tool.parse_args(["parent", "change", "--workload", "serve_closed",
                            "--workload", "tpch_warm", "--workload",
                            "serve_closed", "--pairs", "3"])
    assert args.workloads == ["serve_closed", "tpch_warm"]
    assert (args.parent, args.change) == (Path("parent"), Path("change"))
    assert (args.pairs, args.seconds, args.seed) == (3, 10.0, 2019)
    assert tool.parse_args(["p", "c", "--workload", "join_micro"]
                           ).workloads == ["join_micro"]
    with pytest.raises(SystemExit):
        tool.parse_args(["p", "c"])
    assert "--workload" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("make") is None, reason="no make")
def test_make_bench_pairs_passes_every_workload_through():
    """``make bench-pairs WORKLOAD="a b"`` asks the tool for both."""
    dry_run = subprocess.run(
        ["make", "-n", "-s", "bench-pairs", "PARENT=parent",
         "WORKLOAD=serve_closed tpch_warm", "PAIRS=4"],
        cwd=REPO, capture_output=True, text=True, check=True).stdout
    words = dry_run.replace("\\\n", " ").split()
    assert words[words.index("tools/bench_pairs.py"):] == [
        "tools/bench_pairs.py", "parent", ".", "--workload", "serve_closed",
        "--workload", "tpch_warm", "--pairs", "4"]


def test_kernel_ab_runs_both_sides_in_one_process():
    """``tools/kernel_ab.py`` with this checkout on both sides, at smoke
    scale: the interleaved units' facts agree, every operation has a
    finite floor ratio, and the last line printed is the result."""
    finished = subprocess.run(
        [sys.executable, str(REPO / "tools" / "kernel_ab.py"), str(REPO),
         str(REPO), "--workload", "join_micro", "--scale", "smoke",
         "--rounds", "2"],
        cwd=REPO, capture_output=True, text=True, check=False)
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.splitlines()[-1])
    assert result["facts_equal"] and result["failed"] == 0
    assert sorted(result["ratios"]) == sorted(result["floors_ms"]["parent"])
    assert "hashjoin.dense" in result["ratios"]
    assert all(math.isfinite(ratio) and ratio > 0
               for ratio in [*result["ratios"].values(),
                             result["geomean_ratio"], result["sum_ratio"]])
    # Each ratio's round-by-round band: two ordered, finite quartiles.
    assert sorted(result["ratio_iqr"]) == sorted(result["ratios"])
    assert all(0 < low <= high and math.isfinite(high)
               for low, high in result["ratio_iqr"].values())
    assert "round IQR" in finished.stdout
    # wall_s reads the summed floors: the ratio of the two sides' sums.
    floors = result["floors_ms"]
    assert result["sum_ratio"] == pytest.approx(
        sum(floors["change"].values()) / sum(floors["parent"].values()))
    assert "sum of floors (wall_s)" in finished.stdout


@pytest.mark.skipif(shutil.which("make") is None, reason="no make")
def test_make_kernel_ab_passes_the_workload_through():
    dry_run = subprocess.run(
        ["make", "-n", "-s", "kernel-ab", "PARENT=parent",
         "WORKLOAD=tpch_cold", "ROUNDS=4"],
        cwd=REPO, capture_output=True, text=True, check=True).stdout
    words = dry_run.replace("\\\n", " ").split()
    assert words[words.index("tools/kernel_ab.py"):] == [
        "tools/kernel_ab.py", "parent", ".", "--workload", "tpch_cold",
        "--rounds", "4"]

"""Tier-1 smoke test of the benchmark: every workload at smoke scale.

Guards the contract between ``BENCHMARK.json`` and the harness — every
declared metric is emitted with its unit by the workloads that measure
it — and the two-clock rule: everything not on the host clock repeats
bit-for-bit between two runs of the same seed.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

# Tier-1 sets PYTHONPATH=src; a bare `pytest bench/` still finds the engine.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from hapebench.harness import clock_of, load_manifest  # noqa: E402
from hapebench.runner import run_workload, workloads  # noqa: E402

MANIFEST = load_manifest()
NAMES = [entry["name"] for entry in MANIFEST["workloads"]]
SEED = 7


def test_manifest_matches_the_workloads():
    assert NAMES == list(workloads("smoke"))
    names = [metric["name"] for section in ("end_to_end", "per_layer")
             for metric in MANIFEST[section]] + NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert any(metric["name"] == "setup_s"
               for metric in MANIFEST["end_to_end"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    return {
        (name, trace): run_workload(name, seed=SEED, seconds=0.0,
                                    trace=bool(trace), scale="smoke",
                                    out_dir=out_dir)
        for name in NAMES for trace in (0, 1)
    }, out_dir


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics(runs, name):
    result = runs[0][name, 0]
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 < result["attempted"]
    declared = {metric["name"]: metric["unit"]
                for metric in MANIFEST["end_to_end"]}
    assert {metric: value["unit"]
            for metric, value in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass(runs, name):
    results, out_dir = runs
    result = results[name, 1]
    assert result["correct"], result["notes"]
    declared = {metric["name"]: metric["unit"]
                for metric in MANIFEST["per_layer"]}
    assert {metric: value["unit"]
            for metric, value in result["metrics"].items()} == declared
    assert set(result["measured"]) <= set(declared)
    spans = (out_dir / f"trace-{name}.jsonl").read_text().splitlines()
    assert len(spans) > 3


def test_every_layer_metric_is_measured_somewhere(runs):
    measured = set().union(*(runs[0][name, 1]["measured"] for name in NAMES))
    assert measured == {metric["name"] for metric in MANIFEST["per_layer"]}


@pytest.mark.parametrize("name", ["tpch_pressure", "serve_open"])
def test_sim_and_count_metrics_repeat(runs, name):
    """The two most seed-driven workloads, traced again: exact means exact.

    (Within a run every unit is already held to the first unit's facts.)
    """
    again = run_workload(name, seed=SEED, seconds=0.0, trace=True,
                         scale="smoke")
    first = runs[0][name, 1]["metrics"]
    exact = [metric for metric in first if clock_of(metric) != "host"]
    assert len(exact) > 40
    assert ({metric: again["metrics"][metric] for metric in exact}
            == {metric: first[metric] for metric in exact})

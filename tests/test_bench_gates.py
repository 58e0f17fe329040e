"""The bench gates of ``benchmarks/run_benchmarks.py``.

Three parts: (a) a mutation check over the declared gate table — a
hand-built passing record passes, and doctoring the one key a gate reads
makes exactly that gate fail by name — plus the identity gates' vacuous
cases and the figure gates applied to the real models; (b) registry
sanity against the Makefile and the ``benchmarks/`` directory; (c) one
smoke run of the command line, including the
never-overwrite-an-unreadable-history rule.
"""

from __future__ import annotations

import copy
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", REPO / "benchmarks" / "run_benchmarks.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


rb = _load_harness()

SIMS = {f"{query}/{mode}": 0.001 * (index + 1)
        for index, (query, mode) in enumerate(
            (query, mode) for query in ("Q1", "Q5") for mode in rb.MODES)}
SERVED = {label: seconds for label, seconds in SIMS.items()
          if not label.endswith("hybrid")}
ARGS = {"sf": 0.05, "seed": 2019, "repeat": 1}

#: Per suite, the smallest record its gates and its summary read, passing.
PASSING = {
    "fig5": {"wall_clock_seconds": 0.001,
             "simulated_seconds": {"SM": {"128": 0.011, "4096": 0.004},
                                   "L1": {"128": 0.037, "4096": 0.027}}},
    "fig6": {"wall_clock_seconds_model": 0.001,
             "wall_clock_seconds_execution": 0.3,
             "simulated_seconds_model": {
                 "Partitioned CPU": {"1000000": 0.002, "128000000": 0.34},
                 "Partitioned GPU": {"1000000": 0.003, "128000000": 0.05},
                 "DBMS G": {"1000000": 0.001, "128000000": None}},
             "output_rows_execution": {"Partitioned CPU": 200_000,
                                       "Partitioned GPU": 200_000},
             "cpu_sockets": 2,
             "executed_over_replayed": {"Partitioned CPU": 2.0,
                                        "Partitioned GPU": 1.0}},
    "fig7": {"wall_clock_seconds_model": 0.001,
             "wall_clock_seconds_execution": 0.4,
             "simulated_seconds_model": {
                 "1 GPU": {"256000000": 0.35, "2048000000": 2.8},
                 "2 GPUs": {"256000000": 0.18, "2048000000": 1.5},
                 "DBMS C": {"256000000": 0.77, "2048000000": 6.2},
                 "DBMS G": {"256000000": 2.9, "2048000000": 22.9}},
             "output_rows_execution": {"1gpu": 300_000, "2gpu": 300_000}},
    "fig8": {"wall_clock_seconds": 0.001,
             "simulated_seconds": {
                 "Q1": {"DBMS C": 0.51, "Proteus CPUs": 0.26,
                        "Proteus Hybrid": 0.23, "DBMS G": 1.54},
                 "Q5": {"DBMS C": 1.13, "Proteus CPUs": 0.80,
                        "Proteus Hybrid": 0.51, "DBMS G": None}},
             "wall_clock_seconds_execution": 0.3,
             "executed_hybrid_over_cpu": {"Q1": 0.92, "Q5": 1.22, "Q6": 0.93},
             "link_mb_execution": {
                 "Q1": {"cpu": 0.0, "hybrid": 3.3, "gpu": 19.8},
                 "Q9": {"cpu": 0.0, "hybrid": 6.4, "gpu": 19.9}}},
    "fig9": {"wall_clock_seconds": 0.001,
             "partitioned_gain": {"GPU": 1.93, "Hybrid": 1.33},
             "gpu_gain_vs_hybrid_gain": 1.45},
    "claims": {"wall_clock_seconds": 0.001,
               "claims": {"2-GPU vs 1-GPU co-processing (2B tuples)":
                          {"paper": "1.7x", "measured": 1.91}}},
    "tpch": {"wall_clock_seconds": 0.5, "simulated_seconds": SIMS},
    "tpch_warm": {"wall_clock_seconds_cold": 0.5,
                  "wall_clock_seconds_warm": 0.01, "warm_speedup": 50.0,
                  "cache": {"hits": 127, "misses": 53},
                  "warm_simulated_seconds_identical": True},
    "mem": {"variants": {"morsels": {"peak_intermediate_bytes": 18_600_000,
                                     "wall_clock_seconds": 0.07}},
            "morsels_peak_vs_whole_column": 0.56,
            "fused_peak_vs_morsels": 0.85,
            "simulated_seconds_identical": True},
    "scale": {"cpu_count": 8, "speedup_at_4_workers": 1.8,
              "workers": {"1": {"wall_clock_seconds": 0.5},
                          "4": {"wall_clock_seconds": 0.28}},
              "simulated_identical_across_workers": True,
              "server_cache_identical_across_workers": True},
    "stats": {"worst_median_q_error": 2.0,
              "queries": {"Q1": {"median_q_error": 2.0, "max_q_error": 3.0},
                          "Q5": {"median_q_error": 1.0, "max_q_error": 7.5}},
              "sims_identical_for_unchanged_plans": True},
    "serve": {"queries_served": 32, "wall_clock_seconds": 0.4,
              "latency_p99_seconds": 0.009,
              "throughput_speedup_vs_serial": 2.2,
              "single_query_simulated_identical": True,
              "simulated_seconds": SERVED},
    "chaos": {"queries_submitted": 16, "completed": 16, "failed": 0,
              "timed_out": 0, "failovers": 14, "recovered_gpu_queries": 0,
              "wasted_simulated_seconds": 0.004,
              "makespan_degradation": 1.94, "clean_completion": True,
              "failover_results_identical": True,
              "empty_plan_consistent": True,
              "empty_plan_simulated_seconds": SERVED},
    "open_loop": {"queries_served": 16, "queries_submitted": 16,
                  "wall_clock_seconds": 1.1, "preemptions": 6,
                  "slos_met": True, "batch_completed": 4,
                  "batch_starved": False, "deterministic_replay": True,
                  "single_query_simulated_identical": True,
                  "tenants": {
                      "lat_cpu": {"slo_met": True, "slo_p99_seconds": 0.05,
                                  "latency_p99_seconds": 0.02},
                      "batch": {"slo_met": None, "slo_p99_seconds": None,
                                "latency_p99_seconds": 0.08}},
                  "simulated_seconds": SIMS},
    "trace": {"trace_lines": 493, "critical_paths": {"batch:Q1/hybrid": {}},
              "trace_identical_across_workers_and_replay": True,
              "perfetto_loadable": True, "critical_paths_bound": True,
              "tracing_off_overhead_pct": 0.4,
              "event_kinds": ["admit", "complete", "device_health",
                              "dispatch", "failover", "preempt", "retry",
                              "submit"],
              "failovers": 3, "retries": 2, "preemptions": 1},
}

#: (suite, declared gate key) -> (concrete path to doctor, failing value).
DOCTORED = {
    ("fig5", "simulated_seconds"):  # L1 ties the scratchpad at one size
        ("simulated_seconds", {"SM": {"128": 0.011, "4096": 0.004},
                               "L1": {"128": 0.037, "4096": 0.004}}),
    ("fig6", "simulated_seconds_model"):  # fastest at 1 M, not at 128 M
        ("simulated_seconds_model", {
            "Partitioned CPU": {"1000000": 0.002, "128000000": 0.05},
            "Partitioned GPU": {"1000000": 0.001, "128000000": 0.05},
            "DBMS G": {"1000000": 0.003, "128000000": None}}),
    ("fig6", "output_rows_execution"):
        ("output_rows_execution", {"Partitioned CPU": 200_000,
                                   "Partitioned GPU": 199_999}),
    ("fig6", "executed_over_replayed"):  # the parent's per-chunk launches
        ("executed_over_replayed", {"Partitioned CPU": 2.0,
                                    "Partitioned GPU": 1.5}),
    ("fig7", "simulated_seconds_model"):  # DBMS C overtakes one GPU at 2 B
        ("simulated_seconds_model", {
            "1 GPU": {"256000000": 0.35, "2048000000": 6.3},
            "2 GPUs": {"256000000": 0.18, "2048000000": 1.5},
            "DBMS C": {"256000000": 0.77, "2048000000": 6.2},
            "DBMS G": {"256000000": 2.9, "2048000000": 22.9}}),
    ("fig7", "output_rows_execution"):
        ("output_rows_execution", {"1gpu": 300_000, "2gpu": 299_999}),
    ("fig8", "simulated_seconds.*.Proteus Hybrid"):
        ("simulated_seconds.Q1.Proteus Hybrid", 0.27),
    ("fig8", "simulated_seconds.Q5.DBMS G"):
        ("simulated_seconds.Q5.DBMS G", 0.9),
    ("fig8", "executed_hybrid_over_cpu.Q1"):  # the parent's re-shipping
        ("executed_hybrid_over_cpu.Q1", 1.139),
    ("fig8", "executed_hybrid_over_cpu.Q6"):
        ("executed_hybrid_over_cpu.Q6", 1.001),
    ("fig8", "link_mb_execution.*.hybrid"):  # the parent's Q9, 19.95 GPU-only
        ("link_mb_execution.Q9.hybrid", 22.05),
    ("fig9", "partitioned_gain.GPU"): ("partitioned_gain.GPU", 1.1),
    ("fig9", "partitioned_gain.Hybrid"): ("partitioned_gain.Hybrid", 1.05),
    ("fig9", "gpu_gain_vs_hybrid_gain"): ("gpu_gain_vs_hybrid_gain", 1.0),
    ("claims", "claims.*.measured"):
        ("claims.2-GPU vs 1-GPU co-processing (2B tuples).measured", 1.0),
    ("tpch_warm", "warm_simulated_seconds_identical"):
        ("warm_simulated_seconds_identical", False),
    ("mem", "morsels_peak_vs_whole_column"):
        ("morsels_peak_vs_whole_column", 0.76),
    ("mem", "fused_peak_vs_morsels"): ("fused_peak_vs_morsels", 1.01),
    ("mem", "simulated_seconds_identical"):
        ("simulated_seconds_identical", False),
    ("scale", "simulated_identical_across_workers"):
        ("simulated_identical_across_workers", False),
    ("scale", "server_cache_identical_across_workers"):
        ("server_cache_identical_across_workers", False),
    ("scale", "speedup_at_4_workers"): ("speedup_at_4_workers", 1.49),
    ("stats", "queries.*.median_q_error"):
        ("queries.Q5.median_q_error", 4.01),
    ("stats", "sims_identical_for_unchanged_plans"):
        ("sims_identical_for_unchanged_plans", False),
    ("serve", "single_query_simulated_identical"):
        ("single_query_simulated_identical", False),
    ("serve", "throughput_speedup_vs_serial"):
        ("throughput_speedup_vs_serial", 1.99),
    ("chaos", "clean_completion"): ("clean_completion", False),
    ("chaos", "failover_results_identical"):
        ("failover_results_identical", False),
    ("chaos", "failovers"): ("failovers", 0),
    ("chaos", "wasted_simulated_seconds"): ("wasted_simulated_seconds", 0.0),
    ("chaos", "makespan_degradation"): ("makespan_degradation", 0.99),
    ("chaos", "empty_plan_consistent"): ("empty_plan_consistent", False),
    ("open_loop", "single_query_simulated_identical"):
        ("single_query_simulated_identical", False),
    ("open_loop", "slos_met"): ("slos_met", False),
    ("open_loop", "tenants.*.slo_met"): ("tenants.lat_cpu.slo_met", False),
    ("open_loop", "batch_starved"): ("batch_starved", True),
    ("open_loop", "deterministic_replay"): ("deterministic_replay", False),
    ("open_loop", "queries_served"): ("queries_served", 15),
    ("trace", "trace_identical_across_workers_and_replay"):
        ("trace_identical_across_workers_and_replay", False),
    ("trace", "perfetto_loadable"): ("perfetto_loadable", False),
    ("trace", "critical_paths_bound"): ("critical_paths_bound", False),
    ("trace", "tracing_off_overhead_pct"):
        ("tracing_off_overhead_pct", 2.01),
    ("trace", "event_kinds"): ("event_kinds", ["submit", "complete"]),
    ("trace", "failovers"): ("failovers", 0),
    ("trace", "retries"): ("retries", 0),
    ("trace", "preemptions"): ("preemptions", 0),
}

GATES = [(name, gate.key) for name, declared in rb.SUITES.items()
         for gate in declared.gates]


def _run(*suites: str) -> dict:
    """A run record of the passing records of ``suites``."""
    return {"args": dict(ARGS), "git_revision": "test",
            "suites": {name: copy.deepcopy(PASSING[name]) for name in suites}}


def _doctor(record: dict, path: str, value=rb._MISSING) -> None:
    """Set (or, without a value, delete) the key at a dotted path."""
    *parents, leaf = path.split(".")
    for part in parents:
        record = record[part]
    if value is rb._MISSING:
        del record[leaf]
    else:
        record[leaf] = value


# ----------------------------------------------------------------------
# (a) the gate table, mutated one key at a time
# ----------------------------------------------------------------------
def test_every_declared_gate_has_a_doctored_case():
    assert sorted(GATES) == sorted(DOCTORED)


@pytest.mark.parametrize("name", rb.SUITES)
def test_passing_record_passes(name):
    failures, notes = rb.check_run(_run(name))
    assert failures == []
    # An OK line is printed exactly when something was checked.
    assert any(note.startswith(f"{name} ok") for note in notes) == bool(
        rb.SUITES[name].gates)


@pytest.mark.parametrize("name,key", GATES)
def test_doctoring_one_key_fails_that_gate_by_name(name, key):
    path, bad = DOCTORED[name, key]
    # A wrong value, then no value at all.
    for value, ending in ((bad, ""), (rb._MISSING, "not recorded")):
        run = _run(name)
        _doctor(run["suites"][name], path, value)
        failures, _ = rb.check_run(run)
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"{name}.{path}: ")
        assert failures[0].endswith(ending)


def test_a_wildcard_gate_over_nothing_fails():
    run = _run("stats")
    run["suites"]["stats"]["queries"] = {}
    failures, _ = rb.check_run(run)
    assert failures == ["stats.queries.*.median_q_error: not recorded"]


def test_speedup_gate_is_skipped_below_four_cpus_not_passed_silently():
    run = _run("scale")
    run["suites"]["scale"].update(cpu_count=2, speedup_at_4_workers=0.84)
    failures, notes = rb.check_run(run)
    assert failures == []
    assert any(note.startswith("SKIP: scale.speedup_at_4_workers")
               and "2" in note and "0.84x" in note for note in notes)
    run["suites"]["scale"]["cpu_count"] = 4  # enough CPUs: the gate applies
    failures, _ = rb.check_run(run)
    assert [f.split(":")[0] for f in failures] == [
        "scale.speedup_at_4_workers"]


# ---- identity gates: two independent records, never nothing ------------
def _baseline(**suites) -> dict:
    return {"runs": [{"args": dict(ARGS), "git_revision": "abc1234",
                      "suites": {name: {"simulated_seconds": dict(sims)}
                                 for name, sims in suites.items()}}]}


IDENTITIES = [(name, declared.identity)
              for name, declared in rb.SUITES.items() if declared.identity]


def test_the_identity_table():
    assert {name: (identity.key, identity.against)
            for name, identity in IDENTITIES} == {
        "tpch": ("simulated_seconds", ("tpch",)),
        "serve": ("simulated_seconds", ("tpch",)),
        "open_loop": ("simulated_seconds", ("tpch",)),
        "chaos": ("empty_plan_simulated_seconds", ("serve", "tpch")),
    }


@pytest.mark.parametrize("name,identity", IDENTITIES)
def test_identity_against_the_recorded_baseline(name, identity):
    run = _run(name)
    sims = run["suites"][name][identity.key]
    baseline = _baseline(**{identity.against[0]: SIMS})
    failures, notes = rb.check_run(run, baseline)
    assert failures == []
    assert any(note.startswith(f"{name} ok") and f"{len(sims)} labels vs the "
               f"recorded {identity.against[0]} baseline (abc1234)" in note
               for note in notes)

    label = next(iter(sims))
    sims[label] += 1e-12  # one bit of drift in one label
    failures, _ = rb.check_run(run, baseline)
    assert len(failures) == 1
    assert failures[0].startswith(f"{name}.{identity.key}: {label} ")
    assert "recorded" in failures[0]


@pytest.mark.parametrize("name,identity", IDENTITIES)
def test_same_shape_baseline_with_no_common_label_fails(name, identity):
    baseline = _baseline(**{identity.against[0]: {"Q99/cpu": 1.0}})
    failures, _ = rb.check_run(_run(name), baseline)
    assert len(failures) == 1 and "nothing was compared" in failures[0]
    assert failures[0].startswith(f"{name}.{identity.key}: ")


@pytest.mark.parametrize("name,identity", IDENTITIES)
def test_baseline_at_another_sf_or_seed_is_a_note_not_a_failure(
        name, identity):
    baseline = _baseline(**{ref: {"Q99/cpu": 1.0} for ref in identity.against})
    baseline["runs"][0]["args"]["sf"] = 0.01
    failures, notes = rb.check_run(_run(name), baseline)
    assert failures == []
    assert any(note.startswith(f"note: {name}:") and "skipped" in note
               for note in notes)


def test_chaos_falls_through_to_the_tpch_baseline():
    baseline = _baseline(serve=SERVED)
    baseline["runs"][0]["args"]["seed"] = 7  # serve entry: another shape
    baseline["runs"].insert(0, _baseline(tpch=SIMS)["runs"][0])
    failures, notes = rb.check_run(_run("chaos"), baseline)
    assert failures == []
    assert any("vs the recorded tpch baseline" in note for note in notes)


@pytest.mark.parametrize("name", ["serve", "open_loop"])
def test_in_run_identity_compares_every_label(name):
    run = _run("tpch", name)
    failures, notes = rb.check_run(run)
    assert failures == []
    compared = len(run["suites"][name]["simulated_seconds"])
    assert any(note.startswith(f"{name} ok")
               and f"{compared} labels vs the in-run tpch suite" in note
               for note in notes)

    # A renamed label must not pass by finding nothing to compare with.
    sims = run["suites"][name]["simulated_seconds"]
    sims["Q1/cpu-renamed"] = sims.pop("Q1/cpu")
    failures, _ = rb.check_run(run)
    assert failures == [f"{name}.simulated_seconds: Q1/cpu-renamed is "
                        "absent from the in-run tpch suite"]

    run = _run("tpch", name)
    run["suites"]["tpch"]["simulated_seconds"]["Q1/gpu"] *= 2
    failures, _ = rb.check_run(run)
    assert len(failures) == 1 and "Q1/gpu" in failures[0]


def test_an_empty_identity_record_fails():
    run = _run("serve")
    run["suites"]["serve"]["simulated_seconds"] = {}
    failures, _ = rb.check_run(run)
    assert failures == [
        "serve.simulated_seconds: no simulated seconds recorded"]


def test_tpch_is_never_compared_with_itself():
    assert rb.check_run(_run("tpch")) == ([], [])  # nothing to compare with


def test_the_figure_gates_hold_on_the_real_models():
    """Figs. 5-9 and the headline claims, recorded through the registry
    from the calibrated models (and, for Figs. 6-7, one real execution):
    the paper-shape assertions of the figures live in the gates alone."""
    bench = rb.Workbench(sf=0.01, seed=2019, repeat=1)
    suites = ("fig5", "fig6", "fig7", "fig8", "fig9", "claims")
    run = {"args": dict(ARGS), "git_revision": "test",
           "suites": {name: rb.SUITES[name].run(bench) for name in suites}}
    failures, notes = rb.check_run(run)
    assert failures == []
    assert [note.split(":")[0] for note in notes] == [
        f"{name} ok" for name in suites]


# ----------------------------------------------------------------------
# (b) the registry against the Makefile
# ----------------------------------------------------------------------
GATE_TARGETS = ("figures", "serve-bench", "scale-bench", "stats", "chaos",
                "trace", "open-loop")


def _makefile_recipes() -> dict[str, list[str]]:
    """target -> its recipe's commands (continuation lines joined)."""
    text = (REPO / "Makefile").read_text().replace("\\\n", " ")
    recipes: dict[str, list[str]] = {}
    target = None
    for line in text.splitlines():
        rule = re.match(r"^([A-Za-z][\w-]*):", line)
        if rule:
            target = rule.group(1)
            recipes[target] = []
        elif line.startswith("\t") and target:
            recipes[target].append(" ".join(line.split()))
    return recipes


def test_default_suites_exist():
    assert set(rb.DEFAULT_SUITES) <= set(rb.SUITES)
    assert len(rb.SUITES) == 15
    assert "claims" in rb.DEFAULT_SUITES


def test_every_suite_declares_a_gate_or_an_identity():
    """A suite that records numbers nothing checks is how Figs. 5-9 went
    ungated for twenty PRs."""
    assert [name for name, declared in rb.SUITES.items()
            if not (declared.gates or declared.identity)] == []


def test_benchmarks_holds_the_one_harness():
    """The standalone ``bench_*.py`` scripts (and their ``conftest.py``)
    asserted the figures' shape where no Makefile target or CI job ran
    them; those assertions are gates now, and a new one belongs there."""
    assert sorted(path.name for path in (REPO / "benchmarks").iterdir()
                  if path.name != "__pycache__") == ["run_benchmarks.py"]


def test_makefile_gate_targets_are_one_gated_command_over_gated_suites():
    recipes = _makefile_recipes()
    for target in GATE_TARGETS:
        assert len(recipes[target]) == 1, target
        command = recipes[target][0]
        assert "benchmarks/run_benchmarks.py" in command
        assert "--gate" in command.split()
        named = re.search(r"--suites ((?:\w+ ?)+)", command).group(1).split()
        assert named
        for name in named:
            declared = rb.SUITES[name]  # KeyError: the Makefile names a ghost
            assert declared.gates or declared.identity, (target, name)


def test_makefile_names_no_removed_tool_or_flag():
    text = (REPO / "Makefile").read_text()
    assert not re.search(r"tools/(check_(?!docs)|bench_history)", text)
    flags = set(re.findall(r"(--[a-z][\w-]*)", " ".join(
        command for commands in _makefile_recipes().values()
        for command in commands if "run_benchmarks.py" in command)))
    assert flags <= {"--sf", "--seed", "--repeat", "--output", "--suites",
                     "--gate", "--baseline"}


@pytest.mark.parametrize("name", rb.SUITES)
def test_summary_formats_from_a_minimal_record(name):
    summary = rb.SUITES[name].summary(PASSING[name])
    assert isinstance(summary, str) and summary and "\n" not in summary


# ----------------------------------------------------------------------
# (c) the command line
# ----------------------------------------------------------------------
def test_smoke_run_appends_one_gated_run_and_never_clobbers_a_history(
        tmp_path, capsys):
    output = tmp_path / "history.json"
    argv = ["--suites", "stats", "--sf", "0.01", "--repeat", "1", "--gate",
            "--output", str(output)]
    assert rb.main(argv) == 0  # a missing file starts a fresh history
    assert "stats ok: 2 gate(s)" in capsys.readouterr().out
    history = rb.load_history(output)
    assert len(history["runs"]) == 1
    assert list(history["runs"][0]["suites"]) == ["stats"]
    assert history["runs"][0]["args"] == {"sf": 0.01, "seed": 2019,
                                          "repeat": 1}
    assert rb.main(argv) == 0
    assert len(rb.load_history(output)["runs"]) == 2  # appended, not reset

    for corrupt in ('{"runs": [{"suites": ', '{"not_runs": []}'):
        output.write_text(corrupt)
        assert rb.main(argv) != 0
        assert output.read_text() == corrupt  # left byte-identical
        assert str(output) in capsys.readouterr().err


def test_unknown_suite_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as error:
        rb.main(["--suites", "tpch", "nope", "--output",
                 str(tmp_path / "h.json")])
    assert error.value.code == 2
    assert not (tmp_path / "h.json").exists()

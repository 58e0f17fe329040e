PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fuzz coverage examples bench bench-full bench-e2e bench-pairs kernel-ab loc figures serve-bench stats chaos open-loop trace docs-check

## Tier-1 test suite (what CI runs).  Includes 200 seeded differential
## plan-fuzzing cases; `make fuzz` cranks the seed count.
test:
	$(PYTHON) -m pytest -x -q

## Differential plan fuzzing with extra seeds (default 1000; override
## with FUZZ_SEEDS=n).  Every failure message prints the reproducing
## seed and plan, and seeds are stable across runs.
FUZZ_SEEDS ?= 1000
fuzz:
	FUZZ_PLAN_CASES=$(FUZZ_SEEDS) $(PYTHON) -m pytest tests/test_fuzz_plans.py -q

## Coverage-gated test run (CI job "coverage"; needs pytest-cov).  The
## fail-under threshold is a ratchet: raise it when coverage grows,
## never lower it.
COV_FAIL_UNDER ?= 87
coverage:
	$(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FAIL_UNDER)

## Docs consistency (CI runs this too): python snippets in README.md and
## docs/*.md must parse, their imports/symbol references must resolve
## against the package, and referenced repo paths must exist.
docs-check:
	$(PYTHON) tools/check_docs.py

## Run every docs-facing example script (CI runs this too, so the
## quickstart and tours referenced from README.md cannot rot).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done; echo "all examples ran cleanly"

## The default suites (fig5-fig9, claims, tpch, tpch_warm, mem, serve) at
## SF 0.05, appending one run record to BENCH_results.json.
bench:
	$(PYTHON) benchmarks/run_benchmarks.py --sf 0.05 --repeat 3

## Larger TPC-H scale factor for more stable wall-clock numbers.
bench-full:
	$(PYTHON) benchmarks/run_benchmarks.py --sf 0.1 --repeat 5

## The two-clock end-to-end benchmark (bench/README.md): all six
## workloads into $(OUT); with BASELINE=<earlier results file> the run is
## then compared against it (exit 1 on any metric labelled worse).
OUT ?= bench/results/e2e.json
BASELINE ?=
bench-e2e:
	$(PYTHON) bench/run.py --out $(OUT)
	$(if $(BASELINE),$(PYTHON) bench/compare.py $(BASELINE) $(OUT))

## Alternating before/after pairs of bench/run.py workloads
## (tools/bench_pairs.py): PARENT is a second checkout, e.g. a `git
## archive` of the parent commit; the change is this tree.  WORKLOAD may
## name several workloads (WORKLOAD="serve_closed tpch_warm"), run in one
## alternating loop.  Prints compare.py's verdicts and, per workload and
## end-to-end metric, the change's wins out of the pairs and the parent's
## IQR.
PAIRS ?= 10
bench-pairs:
	$(if $(PARENT),,$(error set PARENT=<checkout of the parent commit>))
	$(if $(WORKLOAD),,$(error set WORKLOAD=<bench/run.py workload(s)>))
	$(PYTHON) tools/bench_pairs.py $(PARENT) . \
		$(foreach workload,$(WORKLOAD),--workload $(workload)) \
		--pairs $(PAIRS)

## In-process A/B of one workload (tools/kernel_ab.py): PARENT's and this
## tree's engine and bench/hapebench loaded into one process, their units
## interleaved for ROUNDS rounds; both sides' facts must be equal.  Prints
## per-operation floor ratios and the query_geomean_ms ratio.
ROUNDS ?= 20
kernel-ab:
	$(if $(PARENT),,$(error set PARENT=<checkout of the parent commit>))
	$(if $(WORKLOAD),,$(error set WORKLOAD=<bench/run.py workload>))
	$(PYTHON) tools/kernel_ab.py $(PARENT) . --workload $(WORKLOAD) \
		--rounds $(ROUNDS)

## Code lines (comments and docstrings excluded) — the figure simplicity
## PRs quote.  LOC_PATHS=src/repro/server for one package; run the tool
## with --files for a per-file listing.  tests/test_tooling.py holds the
## src/ total under a ratchet (MAX_SRC_CODE_LINES).
LOC_PATHS ?= src
loc:
	$(PYTHON) tools/code_lines.py $(LOC_PATHS)

## The six smoke gates below are each ONE command: run the named suites
## at SF 0.05 into a scratch history file, then (--gate) apply the gates
## those suites declare in benchmarks/run_benchmarks.py — the gate table
## is the @suite(...) declaration above each suite — to the run just
## recorded.  --baseline adds the cross-PR identity check against the
## committed BENCH_results.json.  Any failure is printed; exit non-zero.

## Paper figures: the Fig. 5-9 model sweeps and the headline claims hold
## the shape the paper reports (SM below L1; partitioned GPU join fastest;
## 2 GPUs < 1 GPU < DBMS C < DBMS G; hybrid never slower; the partitioned
## join gains most on GPU-only Q5; every claimed speed-up above 1x).
figures:
	$(PYTHON) benchmarks/run_benchmarks.py \
		--suites fig5 fig6 fig7 fig8 fig9 claims \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_figures_smoke.json \
		--gate

## Serving (CI job "serve"): served per-query simulated seconds
## bit-identical to a cold solo session, to the in-run tpch suite AND to
## the recorded baseline; throughput >= 2x serial.
serve-bench:
	$(PYTHON) benchmarks/run_benchmarks.py --suites tpch serve \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_serve_smoke.json \
		--gate --baseline BENCH_results.json

## Statistics (CI job "stats"): per-query median q-error <= 4, and
## simulated seconds bit-identical between statistics on/off whenever the
## chosen plan is unchanged.
stats:
	$(PYTHON) benchmarks/run_benchmarks.py --suites stats \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_stats_smoke.json \
		--gate

## Chaos (CI job "chaos"): the serve mix through a mid-run dual-GPU
## outage — every query completes, failed-over results bit-identical to
## fault-free solo runs, the empty-fault-plan pass bit-identical to the
## recorded baseline.
chaos:
	$(PYTHON) benchmarks/run_benchmarks.py --suites chaos \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_chaos_smoke.json \
		--gate --baseline BENCH_results.json

## Tracing (CI job "obs"): a fault-injected, preempting epoch traced,
## then replayed — JSONL byte-identical on replay, Chrome export
## Perfetto-loadable, every critical path bound, tracing-off path at most
## 2% slower than the traced control.
trace:
	$(PYTHON) benchmarks/run_benchmarks.py --suites trace \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_trace_smoke.json \
		--gate

## Open loop (CI job "open-loop"): Poisson/trace arrivals with preemption
## and aging — per-query simulated seconds bit-identical to solo, in-run
## tpch and recorded baseline; interactive p99 within each SLO; zero
## batch starvation; same-seed replay exact.
open-loop:
	$(PYTHON) benchmarks/run_benchmarks.py --suites tpch open_loop \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_open_loop_smoke.json \
		--gate --baseline BENCH_results.json

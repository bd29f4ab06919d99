# Convenience targets; everything is plain dune underneath.
# `make help` lists them.
all:
	dune build @all
test:
	dune runtest
# Everything CI runs: full build, full test suite (unit + qcheck +
# expect, including the fixed-seed fuzz smoke), then the dedicated fuzz
# smoke entry point and the two end-to-end smoke sweeps.
ci: all test fuzz-smoke bench-smoke loopnest-smoke
bench:
	dune exec bench/main.exe
# Tiny 2x2 sweep that validates the JSON pipeline end to end (~seconds).
bench-smoke:
	dune exec bench/main.exe -- --smoke
# Dependence-distance figure over the loop-nest family (DOACROSS vs
# postdominance vs adaptive; see EXPERIMENTS.md). Flags pass through
# ARGS, e.g. `make bench-loopnest ARGS=--no-cache`.
bench-loopnest:
	dune exec bench/main.exe -- --loopnest $(ARGS)
# Self-checking smoke-scale version of the same sweep (CI's figure gate):
# asserts the DOACROSS-vs-superscalar trend, not just that it runs.
loopnest-smoke:
	dune exec bench/main.exe -- --loopnest --smoke $(ARGS)
# Engine microbenchmark: prepare-vs-simulate phase timings plus a timed
# full-grid sweep, written to BENCH_engine.json (see docs/ENGINE.md).
# Extra flags pass through ARGS, e.g. `make bench-engine ARGS=--smoke`.
bench-engine:
	dune exec bench/engine_bench.exe -- $(ARGS)
# Batched-vs-sequential cold-sweep comparison only (Run.simulate_batch
# against N fresh prepare+simulate pairs), printed, no artifact.
bench-batch:
	dune exec bench/engine_bench.exe -- --batch-only $(ARGS)
# Cold-vs-warm window preparation through the persistent trace store
# (a hit skips machine set-up, fast-forward, capture and the
# dependence pass), printed, no artifact.
bench-prepare:
	dune exec bench/engine_bench.exe -- --prepare-only $(ARGS)
# Simulation-as-a-service (docs/SERVING.md). `serve` boots the daemon on
# SOCKET (flags pass through ARGS, e.g. `make serve ARGS=--http-port\ 8080`);
# `bench-serve` runs the load generator -> BENCH_serve.json, and its
# `--smoke` mode is the self-checking variant dune runtest and CI use.
SOCKET ?= polyflow.sock
serve:
	dune exec bin/polyflow_serve.exe -- --socket $(SOCKET) $(ARGS)
bench-serve:
	dune exec bench/serve_bench.exe -- $(ARGS)
# Differential fuzzing (docs/FUZZING.md). `fuzz-smoke` is the fixed-seed
# batch CI runs; `fuzz` is an open-ended randomized campaign — findings
# are shrunk and written to _fuzz/corpus/ as replayable repro files.
FUZZ_SEED ?= $(shell date +%s)
FUZZ_COUNT ?= 300
fuzz-smoke:
	dune exec bin/polyflow_fuzz.exe -- run --gen both --count 25 --seed 42
fuzz:
	dune exec bin/polyflow_fuzz.exe -- run --gen both --count $(FUZZ_COUNT) --seed $(FUZZ_SEED)
doc:
	dune build @doc
clean:
	dune clean
help:
	@echo "make all          build everything"
	@echo "make test         run the test suite (dune runtest)"
	@echo "make ci           what CI runs: all + test + fuzz-smoke + smoke sweeps"
	@echo "make bench        full figure-reproduction sweep (minutes)"
	@echo "make bench-smoke  tiny end-to-end sweep self-check (~seconds)"
	@echo "make bench-loopnest  dependence-distance figure -> JSON (ARGS)"
	@echo "make loopnest-smoke  self-checking loop-nest sweep (~seconds)"
	@echo "make bench-engine engine microbenchmark -> BENCH_engine.json"
	@echo "make bench-batch  batched vs sequential cold sweeps (printed only)"
	@echo "make bench-prepare  cold vs warm trace-store preparation (printed only)"
	@echo "make serve        boot the polyflow_serve daemon (SOCKET, ARGS)"
	@echo "make bench-serve  serving latency/throughput bench -> BENCH_serve.json"
	@echo "make fuzz-smoke   fixed-seed differential-fuzz batch (~seconds)"
	@echo "make fuzz         randomized fuzz campaign (FUZZ_SEED, FUZZ_COUNT)"
	@echo "make doc          build the odoc API docs"
	@echo "make clean        remove _build"
.PHONY: all test ci bench bench-smoke bench-loopnest loopnest-smoke bench-engine bench-batch bench-prepare serve bench-serve fuzz fuzz-smoke doc clean help

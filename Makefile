# Convenience targets; everything is plain dune underneath.
# `make help` lists them.
all:
	dune build @all
test:
	dune runtest
# What CI's build jobs run: full build and full test suite (unit +
# qcheck + expect). `dune runtest` already runs and diffs the fuzz and
# loop-nest smokes (test/dune), so `fuzz-smoke` and `loopnest-smoke`
# below are for local use.
ci: all test
bench:
	dune exec bench/main.exe
# Dependence-distance figure over the loop-nest family (DOACROSS vs
# postdominance vs adaptive; see EXPERIMENTS.md). Flags pass through
# ARGS, e.g. `make bench-loopnest ARGS=--no-cache`.
bench-loopnest:
	dune exec bench/main.exe -- --loopnest $(ARGS)
# Self-checking smoke-scale version of the same sweep (CI's figure gate):
# asserts the DOACROSS-vs-superscalar trend, not just that it runs.
loopnest-smoke:
	dune exec bench/main.exe -- --loopnest --smoke $(ARGS)
# Engine microbenchmark: prepare-vs-simulate phase timings, cold-vs-warm
# trace-store preparation and shared-prepare cold sweeps, written to
# BENCH_engine.json (see docs/ENGINE.md); end-to-end timings are
# pfbench's (`bash pfbench/run.sh`). Extra flags pass through ARGS,
# e.g. `make bench-engine ARGS=--smoke`.
bench-engine:
	dune exec bench/engine_bench.exe -- $(ARGS)
# Simulation-as-a-service (docs/SERVING.md): boots the daemon on SOCKET
# (flags pass through ARGS, e.g. `make serve ARGS=--jobs\ 4`); the python
# client in docs/SERVING.md talks to the socket.
SOCKET ?= polyflow.sock
serve:
	dune exec bin/polyflow_serve.exe -- --socket $(SOCKET) $(ARGS)
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
	@echo "make ci           what CI's build jobs run: all + test"
	@echo "make bench        full figure-reproduction sweep (minutes)"
	@echo "make bench-loopnest  dependence-distance figure -> JSON (ARGS)"
	@echo "make loopnest-smoke  self-checking loop-nest sweep (~seconds)"
	@echo "make bench-engine engine microbenchmark -> BENCH_engine.json"
	@echo "make serve        boot the polyflow_serve daemon (SOCKET, ARGS)"
	@echo "make fuzz-smoke   fixed-seed differential-fuzz batch (~seconds)"
	@echo "make fuzz         randomized fuzz campaign (FUZZ_SEED, FUZZ_COUNT)"
	@echo "make doc          build the odoc API docs"
	@echo "make clean        remove _build"
.PHONY: all test ci bench bench-loopnest loopnest-smoke bench-engine serve fuzz fuzz-smoke doc clean help

GO ?= go

# Tier-1 gate: what CI and the roadmap require to stay green.
.PHONY: tier1
tier1:
	$(GO) build ./...
	$(GO) test ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Deeper static analysis. staticcheck is fetched via `go run`, which
# needs either a warm module cache or network access; when neither is
# available (hermetic CI, offline dev) the target degrades to a skip
# message instead of failing the whole check pipeline. The probe runs
# `-version` first so real findings on the main invocation still fail.
STATICCHECK_VERSION ?= 2023.1.7
STATICCHECK = $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
.PHONY: staticcheck
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck unavailable (offline module cache?) -- skipped"; \
	fi

# Race-detector pass over the concurrent record path (per-CPU rings,
# store, control plane, metrics run against live tables) plus the
# cluster conformance corpus.
.PHONY: race
race:
	$(GO) test -race ./internal/core ./internal/tracedb ./internal/control ./internal/metrics ./internal/conformance

# Fault-injection pass over delivery semantics: flaky collector, lost
# acknowledgements, connection kill before reply, collector restart, and
# spool eviction — all under the race detector.
.PHONY: faults
faults:
	$(GO) test -race -run 'TestFault' ./internal/control

# Deep conformance sweep: the full scenario corpus under the race
# detector plus a wide seed sweep of the fault-heavy scenarios. The
# 3-seed default rides in tier-1; this raises it.
CONFORMANCE_SEEDS ?= 25
.PHONY: conformance
conformance:
	CONFORMANCE_SEEDS=$(CONFORMANCE_SEEDS) $(GO) test -race -count=1 ./internal/conformance

# Native fuzz targets, one short burst each (Go runs one -fuzz target
# per invocation). The committed corpora under testdata/fuzz replay in
# plain `go test` runs; this explores beyond them.
FUZZTIME ?= 5s
.PHONY: fuzz
fuzz:
	$(GO) test -run NONE -fuzz FuzzDecodeBatchFrame -fuzztime $(FUZZTIME) ./internal/control
	$(GO) test -run NONE -fuzz FuzzTraceIDStrip -fuzztime $(FUZZTIME) ./internal/vnet
	$(GO) test -run NONE -fuzz FuzzVerifyProgram -fuzztime $(FUZZTIME) ./internal/ebpf
	$(GO) test -run NONE -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzDecodeAggFrame -fuzztime $(FUZZTIME) ./internal/control
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/tracedb

# Coverage summary over the whole module.
.PHONY: cover
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

.PHONY: check
check: tier1 vet bench-build staticcheck race faults crash fuzz cover bench-json

# The end-to-end benchmark is a nested module (pipebench/go.mod), so the
# root `go build ./...` and `go test ./...` never compile it. Vetting it
# here catches an exported name it uses disappearing from the main
# module.
.PHONY: bench-build
bench-build:
	cd pipebench && $(GO) vet ./...

.PHONY: bench-wire
bench-wire:
	$(GO) test -run NONE -bench 'BenchmarkBatchWireEncoding|BenchmarkCollectorIngest' .

# Short benchmark smoke run archived as JSON: the emit hot path
# (reserve/commit, contended per-CPU vs shared ring), the interpreter
# record script, and batch wire encoding. -benchtime 1000x keeps it
# fast enough to ride in `make check`; allocs are recorded so a
# regression on the zero-allocation paths shows up in the diff.
.PHONY: bench-json
bench-json:
	$(GO) test -run NONE -bench 'BenchmarkRingBuffer|BenchmarkEBPFInterpRecordScript|BenchmarkBatchWireEncoding' \
		-benchmem -benchtime 1000x . | $(GO) run ./cmd/benchjson -o BENCH_pr3.json
	$(GO) test -run NONE -bench 'BenchmarkSegment' \
		-benchmem -benchtime 100x . | $(GO) run ./cmd/benchjson -o BENCH_pr6.json
	$(GO) test -run NONE -bench 'BenchmarkEBPF(Interp|Compiled)RecordScript' \
		-benchmem -benchtime 100000x . | $(GO) run ./cmd/benchjson -o BENCH_pr7.json
	$(GO) test -run NONE -bench 'BenchmarkAggregationAblation' \
		-benchmem -benchtime 1000x . | $(GO) run ./cmd/benchjson -o BENCH_pr8.json
	$(GO) test -run NONE -bench 'BenchmarkClusterIngest' \
		-benchmem -benchtime 20000x . | $(GO) run ./cmd/benchjson -o BENCH_pr9.json
	( $(GO) test -run NONE -bench 'BenchmarkWALIngest' -benchmem -benchtime 1000x . && \
	  $(GO) test -run NONE -bench 'BenchmarkWALRecovery' -benchmem -benchtime 10x . ) \
		| $(GO) run ./cmd/benchjson -o BENCH_pr10.json

# Crash-recovery conformance: the kill -9 collector scenarios (recover
# mid-traffic from WAL + checkpoint; recovery racing the ring's agent
# re-homing) swept across CONFORMANCE_SEEDS seeds under the race
# detector. The acceptance bar for the durable collector.
.PHONY: crash
crash:
	CONFORMANCE_SEEDS=$(CONFORMANCE_SEEDS) $(GO) test -race -count=1 \
		-run 'TestScenarioCorpus/(collector-kill-recover|recover-vs-rehome)|TestSeedSweep/(collector-kill-recover|recover-vs-rehome)' \
		./internal/conformance

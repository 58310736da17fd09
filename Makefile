# `make check` is the one local command that runs what CI's first job
# runs, in order: gofmt, vet, tier-1 build + tests, then the bench/
# module (its own Go module, so root vet/test never see it).

BENCH_ENV := GOFLAGS=-mod=mod GOPROXY=off

.PHONY: check check-modes fuzz-smoke bench-pairs
check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go build ./... && go test ./...
	cd bench && $(BENCH_ENV) go vet ./... && $(BENCH_ENV) go test ./...

# `make check-modes` runs the race suite the way CI's test-spill and
# test-durable jobs do: every blocking operator under a forced 4 KB
# memory budget, then every component database and coordinator log
# forced durable with 4 KB checkpoints.
check-modes:
	MYRIAD_TEST_MEM_BUDGET=4096 go test -race -timeout 300s ./...
	MYRIAD_TEST_DURABLE=4096 go test -race -timeout 600s ./...

# `make fuzz-smoke` runs every fuzz target for FUZZTIME (default 10s):
# enough to catch a freshly introduced parser, framing, codec, sort or
# WAL-replay crash without turning CI into a fuzz farm. CI's fuzz smoke
# step calls it, so a new target is added here once.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	FuzzParse:./internal/sqlparser \
	FuzzShapeBind:./internal/sqlparser \
	FuzzBatchFraming:./internal/comm \
	FuzzDecodeMessage:./internal/comm \
	FuzzDecodeRow:./internal/value \
	FuzzScanBatch:./internal/localdb \
	FuzzScanRows:./internal/value \
	FuzzSortKernel:./internal/spill \
	FuzzWALReplay:./internal/wal
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ($${t#*:}, $(FUZZTIME))"; \
		go test -run='^$$' -fuzz="^$${t%%:*}$$" -fuzztime=$(FUZZTIME) "$${t#*:}"; \
	done

# `make bench-pairs PARENT=<rev> W="<workload> [<workload>...]" SEED=<n>
# PAIRS=10` runs PERF.md's paired protocol: the working tree against a
# git archive of PARENT, alternating which side runs first, one table
# per workload in turn (see scripts/benchpairs.sh).
PARENT ?= HEAD
SEED ?= 1
PAIRS ?= 10
bench-pairs:
	@if [ -z "$(W)" ]; then echo "bench-pairs: set W=\"<workload> [<workload>...]\"" >&2; exit 2; fi
	bash scripts/benchpairs.sh $(PARENT) "$(W)" $(SEED) $(PAIRS)

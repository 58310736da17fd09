# `make check` is the one local command that runs what CI's first job
# runs, in order: gofmt, vet, tier-1 build + tests, then the bench/
# module (its own Go module, so root vet/test never see it).

BENCH_ENV := GOFLAGS=-mod=mod GOPROXY=off

.PHONY: check
check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go build ./... && go test ./...
	cd bench && $(BENCH_ENV) go vet ./... && $(BENCH_ENV) go test ./...

# Developer entry points. CI (.github/workflows/ci.yml) runs the same gates
# split into legible jobs; keep the two in sync.

GO ?= go

.PHONY: all build test race fuzz lint fmt bovet schema-lock bench-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs CI's seven fuzz targets at CI's fixed budgets.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzNormalizeMemo$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 20000x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzBOAgainstReference$$' -fuzztime 20000x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDRAMTiming$$' -fuzztime 20000x ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 20000x ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzSameOptions$$' -fuzztime 20000x ./internal/experiments

# lint runs the stock gates plus bovet, the repo's own analyzer suite
# (internal/analysis): nondeterm, statecodec, hotalloc, deadallow — see
# DESIGN.md "Static invariants".
# staticcheck and govulncheck additionally run in CI at pinned versions; run
# them locally if installed.
lint: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/bovet ./...

bovet:
	$(GO) run ./cmd/bovet ./...

# schema-lock regenerates the three testdata/schema.lock files the
# TestSchemaLock tests check (internal/schemalock) after a reviewed layout
# change. A lock is not rewritten while the constant that governs it
# (engine.SnapshotVersion, the result-cache version, distrib.ProtocolVersion)
# is the one it already records — bump, regenerate, commit both. A struct
# that a cached result and a snapshot both carry is in every lock that
# reaches it, and moves every one of their constants.
schema-lock:
	$(GO) test -run '^TestSchemaLock$$' ./internal/engine ./internal/experiments ./internal/distrib -write-schema-lock

# bench-smoke runs every bopbench workload at 1/100 size, both passes (a few
# seconds). The full instrument is `go run ./benchmarks/bopbench`; CI's bench
# job runs it on base and head and compares (benchmarks/README.md).
bench-smoke:
	$(GO) run ./benchmarks/bopbench -smoke

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Developer entry points. CI (.github/workflows/ci.yml) runs the same gates
# split into legible jobs; keep the two in sync.

GO ?= go

.PHONY: all build test race fuzz lint fmt bovet schema-lock bench-smoke best-offset

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs CI's eleven fuzz targets at CI's fixed budgets.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzNormalizeMemo$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 20000x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzOptions$$' -fuzztime 300x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzBOAgainstReference$$' -fuzztime 20000x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDRAMTiming$$' -fuzztime 20000x ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 20000x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzSameOptions$$' -fuzztime 20000x ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzCacheAgainstNaive$$' -fuzztime 20000x ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzFillQueueAgainstNaive$$' -fuzztime 20000x ./internal/uncore
	$(GO) test -run '^$$' -fuzz '^FuzzMSHRsAgainstMap$$' -fuzztime 20000x ./internal/uncore

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

# schema-lock regenerates the two locks after a reviewed change: engine's
# testdata/model.lock (engine.ModelVersion: everything a run stores and
# everything the version moves — layouts, the pinned runs' digests,
# result-cache keys, generator streams, a kernel reading and the golden
# renders' SHA-256s) and distrib's testdata/schema.lock
# (distrib.ProtocolVersion: the wire envelope). It first renders the three
# golden sweeps into internal/experiments/testdata/golden (about 30 s on 2
# vCPUs), which the model lock records. A change that moves any of those
# bumps ModelVersion once; one that moves the envelope bumps ProtocolVersion.
# A lock is not rewritten at the version it already records: bump,
# regenerate, commit the lock and the renders. This is the only writer of
# either; CI fails a lock whose body changed while its version line did not,
# and a golden file that differs from a render.
GOLDEN = internal/experiments/testdata/golden
schema-lock:
	$(GO) run ./cmd/experiments -quick -n 40000 -all -zoo > $(GOLDEN)/all-zoo.txt
	$(GO) run ./cmd/experiments -quick -n 40000 -all -zoo -warmup 20000 -checkpoint > $(GOLDEN)/all-zoo-warmup.txt
	$(GO) run ./cmd/experiments -quick -n 40000 -wzoo > $(GOLDEN)/wzoo.txt
	$(GO) test -run '^TestSchemaLock$$' ./internal/engine ./internal/distrib -write-schema-lock

# bench-smoke runs every bopbench workload at 1/100 size, both passes (a few
# seconds). The full instrument is `go run ./benchmarks/bopbench`; CI's bench
# job runs it on base and head and compares (benchmarks/README.md).
bench-smoke:
	$(GO) run ./benchmarks/bopbench -smoke

# best-offset renders Figure 8 per workload, BO against its oracle (the
# best fixed offset for each workload): the quick 16 at 4KB and 4MB pages,
# 1 core, the figure default run length. BEST_OFFSET_WORKLOADS (a
# -workloads list) and BEST_OFFSET_N override the rows and the length.
BEST_OFFSET_WORKLOADS ?=
BEST_OFFSET_N ?= 300000
best-offset:
	$(GO) run ./cmd/experiments -best-offset -quick -workloads "$(BEST_OFFSET_WORKLOADS)" -n $(BEST_OFFSET_N)

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

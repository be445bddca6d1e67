# Developer entry points. CI (.github/workflows/ci.yml) runs the same gates,
# split into legible jobs.

GO ?= go

.PHONY: all build test race fuzz lint fmt bovet schema-lock bench-smoke best-offset

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs the eleven fuzz targets at fixed budgets (CI's "Fuzz" step):
#   - FuzzParse: the spec grammar, both forms.
#   - FuzzNormalizeMemo: the memoised Normalize against a normalisation
#     computed with an empty memo, quoted sub-specs included.
#   - FuzzRestore: snapshot restore never panics on corrupt bytes.
#   - FuzzOptions: each input is a small run executed straight, with
#     skip-ahead off, with the refusal memos off and, when it has a warmup
#     region, restored from its own snapshot; all four must give one Result
#     byte string. Four simulations per input, so a small budget (about half
#     a minute on 2 vCPUs, after its build).
#   - FuzzBOAgainstReference: the BO prefetcher against a naive learner
#     written from the paper's section 4, in lock step.
#   - FuzzDRAMTiming: the DRAM controllers against a reference written from
#     Table 1's timing, which places every command at its earliest legal
#     cycle.
#   - FuzzCacheEntry: the result-record decoder (engine, beside the
#     snapshot's) never panics and accepts only the exact bytes its decoded
#     record encodes back to.
#   - FuzzSameOptions: the key memo's and the assembly pass's field-by-field
#     equality against reflect.DeepEqual.
#   - FuzzCacheAgainstNaive: a cache under LRU and 5P against a per-set
#     model, with full-width line addresses and cores 0-3, so a packing bug
#     in cache.Line shows as a wrong line.
#   - FuzzFillQueueAgainstNaive: a fill queue, its CAM behind the line
#     filter, against a plain slice, over lines some of which share a filter
#     bit.
#   - FuzzMSHRsAgainstMap: the DL1 MSHR table against a map, under merges,
#     L2-hit resolves and the takes of DL1 fills; every register taken back
#     must carry its merged stores and its prefetch bit.
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

# schema-lock regenerates the one lock after a reviewed change: engine's
# testdata/model.lock (engine.ModelVersion: everything a run stores or
# distrib sends and everything the version moves — layouts, the pinned runs'
# digests, result-cache keys, generator streams, a kernel reading and the
# golden renders' SHA-256s). It first renders the three golden sweeps into
# internal/experiments/testdata/golden (about 30 s on 2 vCPUs), which the
# lock records. A change that moves any of those bumps ModelVersion once. The
# lock is not rewritten at the version it already records: bump, regenerate,
# commit the lock and the renders. This is the only writer of either; CI
# fails a lock whose body changed while its version line did not, and a
# golden file that differs from a render.
GOLDEN = internal/experiments/testdata/golden
schema-lock:
	$(GO) run ./cmd/experiments -quick -n 40000 -all -zoo > $(GOLDEN)/all-zoo.txt
	$(GO) run ./cmd/experiments -quick -n 40000 -all -zoo -warmup 20000 -checkpoint > $(GOLDEN)/all-zoo-warmup.txt
	$(GO) run ./cmd/experiments -quick -n 40000 -wzoo > $(GOLDEN)/wzoo.txt
	$(GO) test -run '^TestSchemaLock$$' ./internal/engine -write-schema-lock

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

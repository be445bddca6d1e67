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

# fuzz runs CI's three fuzz targets at CI's fixed budgets.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzNormalizeMemo$$' -fuzztime 20000x ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 20000x ./internal/engine

# lint runs the stock gates plus bovet, the repo's own analyzer suite
# (internal/analysis): nondeterm, statecodec, hotalloc, schemalock,
# sigcomplete, deadallow — see DESIGN.md "Static invariants".
# staticcheck and govulncheck additionally run in CI at pinned versions; run
# them locally if installed.
lint: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/bovet ./...

bovet:
	$(GO) run ./cmd/bovet ./...

# schema-lock regenerates internal/analysis/schemalock/schema.lock from the
# current tree after a reviewed layout change. The generator refuses to run
# when a governed layout changed without its version constant
# (engine.SnapshotVersion, distrib.ProtocolVersion, or the result-cache
# version) being bumped first — bump, regenerate, commit both.
schema-lock:
	$(GO) run ./cmd/bovet -write-schema-lock ./...

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

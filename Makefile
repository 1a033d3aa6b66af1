# Development entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make check` is the full local equivalent of the CI gate.

GO ?= go

.PHONY: build test race alloc-guard lint fmt generate check sweepd hpserve dist-smoke cache-smoke serve-smoke chaos-smoke sample-smoke bench bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race gives the suite an explicit timeout: under -race,
# internal/experiments alone takes 9-10 minutes, close to go test's
# 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# alloc-guard runs the simulator allocation guards outside -race, as CI
# does: the race detector's instrumentation allocates, so `make race`
# skips them. A 200k-instruction run may allocate only a few more objects
# than a 20k one, and a sampled run's extra windows only their Stats.
alloc-guard:
	$(GO) test -count=1 -run AllocsIndependentOf ./internal/uarch

# lint runs the repo's own static-analysis suite — all nine analyzers
# (go run ./cmd/hpvet -list) plus stale //hp:nolint detection — and go
# vet. It exits non-zero on any finding.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/hpvet

fmt:
	gofmt -l -w .

# generate rewrites the generated CPI-stack balance test
# (internal/uarch/cpistack_balance_gen_test.go) from the current
# CycleClass constants; it runs as part of the tier-1 `go test ./...`
# path, and TestCPIStackGeneratedCurrent fails if it goes stale.
generate:
	$(GO) run ./cmd/hpvet -write-cpistack-test

# sweepd builds the distributed-sweep worker daemon into bin/.
sweepd:
	$(GO) build -o bin/sweepd ./cmd/sweepd

# hpserve builds the simulation-as-a-service daemon into bin/.
hpserve:
	$(GO) build -o bin/hpserve ./cmd/hpserve

# dist-smoke runs the distributed-sweep equivalence check CI runs: two
# local sweepd workers, one figures sweep through the coordinator,
# byte-identical output vs the serial run, well-formed merged NDJSON.
dist-smoke:
	bash scripts/dist-smoke.sh

# cache-smoke runs the result-store crash/resume check CI runs: SIGKILL
# a caching sweep mid-flight, resume from the same cache directory,
# byte-identical output vs an uninterrupted run.
cache-smoke:
	bash scripts/cache-smoke.sh

# serve-smoke runs the simulation-as-a-service check CI runs: hpserve
# over a two-worker token-authenticated fleet, two tenants end to end —
# auth, NDJSON streaming, a cross-tenant result-CDN hit, and a 429 with
# Retry-After from a one-slot admission queue.
serve-smoke:
	bash scripts/serve-smoke.sh

# chaos-smoke runs the deterministic fault-storm check CI runs: the
# internal/chaos storm tests (a seeded faulty transport over a
# two-worker fleet — results byte-identical to serial, exactly-once
# accounting, bounded time) plus a process-level sweep through sweepd
# workers injecting seeded -chaos-seed pre-run delays.
chaos-smoke:
	bash scripts/chaos-smoke.sh

# sample-smoke runs the sampled-simulation check CI runs: the t2 sweep
# full and sampled at the same budget — sampled output must carry ci95
# columns, stay near the full-detail IPCs, and be byte-identical across
# two identical sampled runs.
sample-smoke:
	bash scripts/sample-smoke.sh

# bench runs the pinned BENCH_<n>.json matrix (PERF.md, README.md
# §Benchmarking) into BENCH_dev.json, diffed against the newest
# committed BENCH_<n>.json automatically. To commit a trajectory point,
# rerun with an explicit -id: see cmd/bench's doc.
bench:
	$(GO) run ./cmd/bench -out BENCH_dev.json

# bench-smoke is the cheap CI shape: a one-cell-per-scheme matrix plus
# schema validation of the smoke output and every committed report.
bench-smoke:
	$(GO) run ./cmd/bench -insts 5000 -repeats 1 -benchmarks gzip \
		-widths 4 -schemes base,halfprice -quiet -out /tmp/bench-smoke.json
	$(GO) run ./cmd/bench -check /tmp/bench-smoke.json
	for f in BENCH_*.json; do $(GO) run ./cmd/bench -check $$f; done

check: build lint race alloc-guard

# One-command tier-1 gate: `make ci` is what every PR must keep green.
GO ?= go
# Coverage floor for `make cover` (percent of statements).
COVER_FLOOR ?= 70
# Ceiling for `make loc` (non-test Go lines, benchmark/ excluded): the
# current total rounded up to the next 50. ROADMAP aim 2 says the number
# goes down; a PR that lowers it lowers this with it.
LOC_CEILING ?= 28200

.PHONY: all build test test-benchmark race vet fmt-check fuzz bench bench-micro cover smoke loc ci

all: ci

build:
	$(GO) build ./...

# fmt-check fails the gate on formatting drift (gofmt -l must print
# nothing); run `gofmt -w .` to fix.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# test-benchmark runs the benchmark module's own tests (import allowlist,
# schedule determinism, TestOracleIsLive, a 1/10-size smoke of every
# workload). benchmark/ is its own module, so root `go test ./...` never
# reaches them.
test-benchmark:
	$(GO) test -C benchmark ./...

# race runs the full suite under the race detector; the parallel executor
# tests (internal/exec, internal/ort, package raven) are written to hammer
# shared tables, predictors and the session cache when run this way, and
# the cancellation tests (cancel_test.go) double as goroutine-leak checks:
# they fail if exchange workers or predictor goroutines survive a
# cancelled query.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cover reports statement coverage and enforces a floor so the serving-API
# surface (prepared statements, plan cache, streaming, cancellation) stays
# tested as it grows.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: coverage %.1f%% below floor %s%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %s%%)\n", t, f }'

# smoke drives the real CLI through the streaming serving API with a
# deadline, end to end.
smoke:
	echo "SELECT COUNT(*) AS n FROM patient_info" | $(GO) run ./cmd/ravensql -rows 2000 -timeout 30s

# bench regenerates the paper experiment tables at quick scale.
bench:
	$(GO) run ./cmd/ravenbench -quick

# bench-micro runs the micro-benchmarks with allocation reporting: the
# data plane (typed kernels, vector pooling, gather), the tree kernel on
# the benchmark's two forest shapes (ns/row), the bounded sort beside the
# unbounded one and, beside the selection-pushdown rule, selective PREDICT
# queries end to end.
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/types ./internal/expr ./internal/xopt ./internal/ml ./internal/exec

# fuzz gives the tree kernel's native fuzzer a short budget on top of its
# checked-in corpus (internal/ml/testdata/fuzz), which plain `go test`
# already replays: random forests and matrices against the reference
# walker.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzForestKernel -fuzztime=5s ./internal/ml

# loc prints non-test Go lines per package, benchmark/ excluded — the
# number ROADMAP aim 2 tracks — and fails above LOC_CEILING. It also
# fails if anything outside internal/rescache counts an eviction or picks
# an LRU victim: there is one cache implementation, and caches are
# instances of it. And it fails if the fragment cut comes back: there is
# one plan tree and one filter-pushdown rule (relopt.PushFilters), so no
# RelNode wrapper, no plan.Input placeholder and no second pushdown.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*'
loc:
	@$(LOC_FILES) | xargs wc -l | awk -v ceiling=$(LOC_CEILING) '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t; \
		if (t > ceiling) { printf "FAIL: %d non-test lines, ceiling %d\n", t, ceiling; exit 1 } }'
	@second=$$($(LOC_FILES) ! -path './internal/rescache/*' | xargs grep -lE 'victions\+\+|lru[A-Za-z]* *(:=|=|,)' || true); \
	if [ -n "$$second" ]; then echo "FAIL: eviction loop outside internal/rescache:"; echo "$$second"; exit 1; fi
	@cut=$$($(LOC_FILES) | xargs grep -nE 'type RelNode|plan\.Input\b|func (\([^)]*\) )?(pushSelections|[pP]ushFilters)\(' \
		| grep -v '^./internal/relopt/relopt.go:[0-9]*:func (o \*Optimizer) PushFilters(' || true); \
	if [ -n "$$cut" ]; then echo "FAIL: a cut plan tree or a second filter pushdown:"; echo "$$cut"; exit 1; fi

# ci runs the suite twice, not three times: cover subsumes a plain
# `make test` (same tests, plus the coverage floor and cover.out), so
# the gate is cover + race rather than test + race + a separate cover.
# The servers are driven end to end by test-benchmark (real ravenserved
# and ravenrouter children) and by their packages' own tests. loc holds
# the line-count ceiling and the one-cache-implementation guard; fuzz is
# five seconds of the tree kernel's fuzzer.
ci: fmt-check build vet loc cover race fuzz test-benchmark smoke

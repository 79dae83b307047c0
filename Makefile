# One-command tier-1 gate: `make ci` is what every PR must keep green.
GO ?= go
# Coverage floor for `make cover` (percent of statements).
COVER_FLOOR ?= 70
# Ceiling for `make loc` (non-test Go lines, benchmark/ excluded): the
# current total rounded up to the next 50. ROADMAP aim 2 says the number
# goes down; a PR that lowers it lowers this with it.
LOC_CEILING ?= 27550

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
# surface (prepared statements, result cache, streaming, cancellation)
# stays tested as it grows.
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
# unbounded one, the table scan source, the segment column reader and,
# beside the selection-pushdown rule, selective PREDICT queries end to end.
# The hash join runs once more at two workers, the benchmark's DOP.
# BenchmarkStreamRows sends one 2,000-row result over loopback through
# each front end (HTTP/NDJSON and pg wire).
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/types ./internal/expr ./internal/xopt ./internal/ml ./internal/exec ./internal/segment
	$(GO) test -run='^$$' -bench=BenchmarkParallelHashJoin -benchmem -cpu 2 ./internal/exec
	$(GO) test -run='^$$' -bench=BenchmarkStreamRows -benchmem ./internal/server ./internal/pgwire

# fuzz gives each native fuzzer a short budget on top of its checked-in
# corpus (testdata/fuzz beside it), which plain `go test` already
# replays: random forests and matrices against the tree kernel's
# reference walker, damaged segment data areas against the reader (an
# error or the rows, never a panic or an outsized allocation), random
# join keys of every type against the serial reference join, random
# INT columns and range filters against the spans a narrowed scan reads,
# and random typed rows against encoding/json's NDJSON bytes.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzForestKernel -fuzztime=5s ./internal/ml
	$(GO) test -run='^$$' -fuzz=FuzzSegmentReader -fuzztime=5s ./internal/segment
	$(GO) test -run='^$$' -fuzz=FuzzHashJoin -fuzztime=5s ./internal/exec
	$(GO) test -run='^$$' -fuzz=FuzzTableSpans -fuzztime=5s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzNDJSONRow -fuzztime=5s ./internal/server

# loc prints non-test Go lines per package, benchmark/ excluded — the
# number ROADMAP aim 2 tracks — and fails above LOC_CEILING. It also
# fails if anything outside internal/rescache counts an eviction or picks
# an LRU victim: there is one cache implementation, and caches are
# instances of it. And it fails if the fragment cut comes back: there is
# one plan tree and one filter-pushdown rule (relopt.PushFilters), so no
# RelNode wrapper, no plan.Input placeholder and no second pushdown. And
# it fails if storage stops honouring the scan's column list: a table
# scan in internal/exec projecting after the read, or a second column-read
# path in internal/storage beside Table.ScanRange. And it fails if the
# join grows a second table layout: internal/exec builds one flat table,
# with no Go map of row lists and no buildPartition. And it fails if the
# table scan source regains a second cursor mode: its one cursor indexes
# the morsel list Open builds from Table.Spans, so no pruned flag, no row
# cursor advanced by a morsel size and no Lo/Hi row bounds beside it.
# And it fails if a front end boxes rows again: results leave
# internal/server and internal/pgwire from typed batches, so no
# rows.Scan, no per-row enc.Encode(vals) and no writeDataRow.
# And it fails if the router grows a result cache again: the router is a
# proxy that decodes bodies and headers with internal/server's code, and
# there is one result-cache tier, the replica engine's, so
# internal/cluster does not import internal/rescache.
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
	@scan=$$( { $(LOC_FILES) -path './internal/exec/*' | xargs grep -nE '[A-Za-z0-9_]\.Project\(s\.colIdx\)'; \
		$(LOC_FILES) -path './internal/storage/*' | xargs grep -n 'func (t \*Table) scanColumn'; } || true); \
	if [ -n "$$scan" ]; then echo "FAIL: a projection after the scan or a second column-read path:"; echo "$$scan"; exit 1; fi
	@join=$$($(LOC_FILES) -path './internal/exec/*' | xargs grep -nE 'map\[(int64|any)\]\[\]int32|func buildPartition' || true); \
	if [ -n "$$join" ]; then echo "FAIL: a second join table layout:"; echo "$$join"; exit 1; fi
	@cursor=$$($(LOC_FILES) -path './internal/exec/*' | xargs grep -nE '\bpruned\b|cursor\.Add\([^1]|^\s+Lo, Hi +int' || true); \
	if [ -n "$$cursor" ]; then echo "FAIL: a second scan cursor mode:"; echo "$$cursor"; exit 1; fi
	@boxed=$$($(LOC_FILES) \( -path './internal/server/*' -o -path './internal/pgwire/*' \) \
		| xargs grep -nE 'rows\.Scan\(|enc\.Encode\(vals\)|func \(c \*conn\) writeDataRow' || true); \
	if [ -n "$$boxed" ]; then echo "FAIL: a per-row boxing path in a front end:"; echo "$$boxed"; exit 1; fi
	@tier=$$($(LOC_FILES) -path './internal/cluster/*' | xargs grep -n '"raven/internal/rescache"' || true); \
	if [ -n "$$tier" ]; then echo "FAIL: a second result-cache tier in the router:"; echo "$$tier"; exit 1; fi

# ci runs the suite twice, not three times: cover subsumes a plain
# `make test` (same tests, plus the coverage floor and cover.out), so
# the gate is cover + race rather than test + race + a separate cover.
# The servers are driven end to end by test-benchmark (real ravenserved
# and ravenrouter children) and by their packages' own tests. loc holds
# the line-count ceiling and the structural guards; fuzz is five seconds
# each of the tree kernel's, the segment reader's, the join's, the scan
# spans' and the NDJSON encoder's fuzzers.
ci: fmt-check build vet loc cover race fuzz test-benchmark smoke

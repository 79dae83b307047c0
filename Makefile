# One-command tier-1 gate: `make ci` is what every PR must keep green.
GO ?= go
# Coverage floor for `make cover` (percent of statements).
COVER_FLOOR ?= 70
# Ceiling for `make loc` (non-test Go lines, benchmark/ excluded): a few
# lines above the current total. ROADMAP aim 2 says the number goes down;
# a PR that lowers it lowers this with it, and one that must grow it
# raises it by exactly its net increase.
# The partitioned forest walk (a block's row numbers split node by node,
# and a row-major matrix gathered into columns first) is 40 lines more than
# the level-by-level tile walk it replaced. Binding parameters as stages
# are built (no per-execution plan clone), Table.MinMax in place of
# Table.Stats and deleting cmd/ravenexplain took 217 lines off. Deleting
# the execution-mode knob took the second NN path and the simulated
# external runtime out of the engine; the runtime moved into
# internal/bench as a modelled baseline, so the total fell by only 3.
# The column-at-a-time aggregate (typed group ids per morsel, one typed
# loop per aggregate) and the superaccumulator behind exact SUM/AVG (its
# first six limbs inline, so a narrow sum allocates nothing) are 151 lines
# more than the row-at-a-time fold and the float expansion they replaced;
# the row-at-a-time fold lives on as the tests' reference.
LOC_CEILING ?= 26758

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
# deadline, end to end, then through a script that creates, fills and
# selects from a table (one mixed query script) and one whose `;` sits
# inside a string literal (no statement boundary), and explains the
# paper's running example (Fig 1): bound plan, unified IR, optimized IR
# and regenerated SQL.
smoke:
	echo "SELECT COUNT(*) AS n FROM patient_info" | $(GO) run ./cmd/ravensql -rows 2000 -timeout 30s
	echo "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT a FROM t;" | $(GO) run ./cmd/ravensql -rows 200
	echo "SELECT COUNT(*) AS n FROM patient_info WHERE 'a;b' = 'a;b';" | $(GO) run ./cmd/ravensql -rows 200
	echo "DECLARE @model = 'duration_of_stay'; WITH data AS (SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) SELECT d.id, p.length_of_stay FROM PREDICT(MODEL = @model, DATA = data AS d) WITH (length_of_stay FLOAT) AS p WHERE d.pregnant = 1 AND p.length_of_stay > 0.5;" | $(GO) run ./cmd/ravensql -rows 2000 -explain

# bench regenerates the paper experiment tables at quick scale.
bench:
	$(GO) run ./cmd/ravenbench -quick

# bench-micro runs the micro-benchmarks with allocation reporting: the
# data plane (typed kernels, vector pooling, gather), the tree kernel on
# the benchmark's two forest shapes and on unbalanced trees up to depth 30
# (BenchmarkForestKernelUnbalanced: rows stop early, deep chains hold few
# rows) in ns/row, the hospital forest under a
# top-100 bound beside the full kernel over the same 120K rows
# (BenchmarkForestTopK: ns/row and survivors/row), the bounded sort beside the
# unbounded one, an exact SUM of 1 to 64 values from an empty
# accumulator (BenchmarkExactSumSmall), the table scan source, the
# segment column reader and,
# beside the selection-pushdown rule, selective PREDICT queries end to end.
# The hash join and the grouped aggregate (ns per input row; the B/op of
# its 100K-group SUM is what a group's state costs) run once more at two
# workers, the benchmark's DOP.
# BenchmarkStreamRows sends one 2,000-row result over loopback through
# each front end (HTTP/NDJSON and pg wire); BenchmarkHotPointHTTP a
# one-row cache hit over HTTP, with the server's writes per request.
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/types ./internal/expr ./internal/xopt ./internal/ml ./internal/exec ./internal/segment
	$(GO) test -run='^$$' -bench='BenchmarkParallelHashJoin|BenchmarkParallelHashAggregate' -benchmem -cpu 2 ./internal/exec
	$(GO) test -run='^$$' -bench='BenchmarkStreamRows|BenchmarkHotPointHTTP' -benchmem ./internal/server ./internal/pgwire

# fuzz gives each native fuzzer a short budget on top of its checked-in
# corpus (testdata/fuzz beside it), which plain `go test` already
# replays: random forests and matrices against the tree kernel's
# reference walker, random forests, rows, k and directions against the
# full kernel under the top-k bound (the k best survive, bit for bit), damaged segment data areas against the reader (an
# error or the rows, never a panic or an outsized allocation), random
# join keys of every type against the serial reference join, random
# float64 sequences split into partial sums merged in a random order
# against the math/big sum rounded half-even (exact SUM/AVG), random
# INT columns and range filters against the spans a narrowed scan reads,
# random typed rows against encoding/json's NDJSON bytes, and arbitrary
# log files against WAL replay (no panic, allocation bounded by the file,
# the good offset on a frame boundary), and arbitrary SQL against the pg
# front end's $n rewrite (no panic, at most 32767 parameters, a second
# pass changes nothing).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzForestKernel -fuzztime=5s ./internal/ml
	$(GO) test -run='^$$' -fuzz=FuzzForestTopK -fuzztime=5s ./internal/ml
	$(GO) test -run='^$$' -fuzz=FuzzSegmentReader -fuzztime=5s ./internal/segment
	$(GO) test -run='^$$' -fuzz=FuzzHashJoin -fuzztime=5s ./internal/exec
	$(GO) test -run='^$$' -fuzz=FuzzExactSum -fuzztime=5s ./internal/exec
	$(GO) test -run='^$$' -fuzz=FuzzTableSpans -fuzztime=5s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzNDJSONRow -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=5s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzRewritePlaceholders -fuzztime=5s ./internal/pgwire

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
# And it fails if storage grows a second write path: the catalog, its
# tables and its model store log through their *Durable themselves, so
# internal/storage declares no Backend interface and no ...Local( twin.
# And it fails if the router balances load again: a replica's admission
# 429 is the one load-shedding signal, so internal/cluster reads no
# replica's queue (.Queue) and fetches no replica's stats (StatsContext).
# And it fails if an execution copies the plan again: parameters bind in
# exec.compile as expressions become stages, and the template is shared as
# it is, so internal/plan has no BindParams and no plan node a Clone.
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
	@twin=$$($(LOC_FILES) -path './internal/storage/*' | xargs grep -nE 'type Backend interface|func (\([^)]*\) )?[a-z][A-Za-z]*Local\(' || true); \
	if [ -n "$$twin" ]; then echo "FAIL: a second storage write path:"; echo "$$twin"; exit 1; fi
	@spill=$$($(LOC_FILES) -path './internal/cluster/*' | xargs grep -nE 'StatsContext\(|\.Queue\b' || true); \
	if [ -n "$$spill" ]; then echo "FAIL: the router reads replica load or fans out /stats:"; echo "$$spill"; exit 1; fi
	@clone=$$($(LOC_FILES) \( -path './internal/plan/*' -o -path './internal/ir/*' \) \
		| xargs grep -nE 'func BindParams|Clone\(\) Node' || true); \
	if [ -n "$$clone" ]; then echo "FAIL: a per-execution plan copy:"; echo "$$clone"; exit 1; fi
	@knob=$$($(LOC_FILES) ! -path './internal/bench/*' \
		| xargs grep -nE 'ModeInProcessNN|ModeOutOfProcess|OutOfProcessPredictor|NNPredictor|ExternalStartup|DisableSessionCache' || true); \
	if [ -n "$$knob" ]; then echo "FAIL: an execution-mode knob, or the modelled external runtime outside internal/bench:"; echo "$$knob"; exit 1; fi

# ci runs the suite twice, not three times: cover subsumes a plain
# `make test` (same tests, plus the coverage floor and cover.out), so
# the gate is cover + race rather than test + race + a separate cover.
# The servers are driven end to end by test-benchmark (real ravenserved
# and ravenrouter children) and by their packages' own tests. loc holds
# the line-count ceiling and the structural guards; fuzz is five seconds
# each of the tree kernel's, its top-k bound's, the segment reader's, the
# join's, the exact sum's, the scan spans', the NDJSON encoder's, WAL
# replay's and the pg placeholder rewrite's fuzzers.
ci: fmt-check build vet loc cover race fuzz test-benchmark smoke

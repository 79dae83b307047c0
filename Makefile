# One-command tier-1 gate: `make ci` is what every PR must keep green.
GO ?= go
# Coverage floor for `make cover` (percent of statements).
COVER_FLOOR ?= 70

.PHONY: all build test test-benchmark race vet fmt-check bench bench-quick bench-check bench-micro cover smoke smoke-serve smoke-cluster smoke-durable smoke-pgwire loc ci

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

# smoke-serve boots ravenserved on a random port and drives the wire
# protocol end to end over real HTTP: DDL + INSERT through /query, a
# parameterized PREDICT, the prepared-statement warm path, /stats, and a
# graceful drain. One process, exits non-zero on any failure.
smoke-serve:
	$(GO) run ./cmd/ravenserved -selftest -rows 2000

# smoke-cluster boots two in-process replicas behind ravenrouter and
# drives the cluster end to end: replicated DDL + model store, routed
# and prepared-statement reads with fingerprint parity across homes, a
# graceful drain of one replica under concurrent load (zero errors
# tolerated), and aggregated stats. One process, exits non-zero on any
# failure.
smoke-cluster:
	$(GO) run ./cmd/ravenrouter -selftest

# smoke-durable proves durability against real processes and a real
# kill -9: a child ravenserved on a scratch -data-dir is loaded over
# HTTP (table + model), SIGKILLed, restarted on the same directory, and
# must answer byte-identical query/PREDICT fingerprints for every
# acknowledged pre-crash write; a graceful restart then proves the
# checkpoint path. One command, exits non-zero on any divergence.
smoke-durable:
	$(GO) run ./cmd/ravenserved -crashtest

# smoke-pgwire boots ravenserved with both front ends on random ports
# and drives the Postgres wire protocol end to end with an in-process
# pg client: simple-protocol DDL + SELECT, PREDICT through both the
# simple and extended (prepared, $1-parameterized) protocols with
# byte-equivalent results against the HTTP/NDJSON path, pg sessions
# billed to their startup-param tenant in /stats, and a zero-quota
# tenant refused with SQLSTATE 53300. One process, exits non-zero on
# any failure.
smoke-pgwire:
	$(GO) run ./cmd/ravenserved -pgselftest -rows 2000

# bench regenerates the paper experiment tables at quick scale.
bench:
	$(GO) run ./cmd/ravenbench -quick

# bench-quick smoke-runs the pipeline-breaker ablation, the serving
# concurrency ablation, the multi-tenant isolation ablation, the
# cluster scale-out/drain experiment and the result-cache experiment
# and records all of them, so `make ci` catches breaker regressions (a
# breaker that silently serializes or errors), serving regressions
# (admission breach, wire-path breakage), tenant regressions (quota
# breach, starved tenant), cluster regressions (dropped or diverged
# queries during a graceful drain) and cache regressions (a stale read,
# a lost hit speedup, a cached read consuming a scheduler slot) without
# paying for the full paper suite. BENCH_JSON / BENCH_SERVE_JSON /
# BENCH_TENANT_JSON / BENCH_CLUSTER_JSON / BENCH_CACHE_JSON are where
# the tables are recorded; `make ci` points them at untracked scratch
# paths so routine CI runs don't churn the checked-in BENCH_*.json
# files — regenerate those deliberately with a plain `make bench-quick`.
# bench-check then validates the recordings (including the cluster
# drain-proof and cache stale=0 notes), so a silently-empty bench run
# fails the gate instead of committing a hollow BENCH file.
BENCH_JSON ?= BENCH_parallel_breakers.json
BENCH_SCALING_JSON ?= BENCH_parallel_scaling.json
BENCH_SERVE_JSON ?= BENCH_serve.json
BENCH_TENANT_JSON ?= BENCH_tenant.json
BENCH_CLUSTER_JSON ?= BENCH_cluster.json
BENCH_CACHE_JSON ?= BENCH_cache.json
BENCH_WAL_JSON ?= BENCH_wal.json
bench-quick:
	$(GO) run ./cmd/ravenbench -quick -only ParallelBreakers -json $(BENCH_JSON)
	$(GO) run ./cmd/ravenbench -quick -only ParallelScaling -json $(BENCH_SCALING_JSON)
	$(GO) run ./cmd/ravenbench -quick -only ServeConcurrency -json $(BENCH_SERVE_JSON)
	$(GO) run ./cmd/ravenbench -quick -only MultiTenantServe -json $(BENCH_TENANT_JSON)
	$(GO) run ./cmd/ravenbench -quick -only ClusterServe -json $(BENCH_CLUSTER_JSON)
	$(GO) run ./cmd/ravenbench -quick -only CachedServe -json $(BENCH_CACHE_JSON)
	$(GO) run ./cmd/ravenbench -quick -only DurableRecovery -json $(BENCH_WAL_JSON)
	@$(MAKE) bench-check

bench-check:
	$(GO) run ./cmd/ravenbench -check "$(BENCH_JSON):ParallelBreakers,$(BENCH_SCALING_JSON):ParallelScaling,$(BENCH_SERVE_JSON):ServeConcurrency,$(BENCH_TENANT_JSON):MultiTenantServe,$(BENCH_CLUSTER_JSON):ClusterServe,$(BENCH_CACHE_JSON):CachedServe,$(BENCH_WAL_JSON):DurableRecovery"

# bench-micro runs the data-plane micro-benchmarks (typed kernels, vector
# pooling, gather) with allocation reporting.
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/types ./internal/expr

# loc prints non-test Go lines per package, benchmark/ excluded — the
# number ROADMAP aim 2 tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# ci runs the suite twice, not three times: cover subsumes a plain
# `make test` (same tests, plus the coverage floor and cover.out), so
# the gate is cover + race rather than test + race + a separate cover.
ci: fmt-check build vet cover race test-benchmark smoke smoke-serve smoke-cluster smoke-durable smoke-pgwire
	@$(MAKE) bench-quick BENCH_JSON=.bench_ci.json BENCH_SCALING_JSON=.bench_scaling_ci.json BENCH_SERVE_JSON=.bench_serve_ci.json BENCH_TENANT_JSON=.bench_tenant_ci.json BENCH_CLUSTER_JSON=.bench_cluster_ci.json BENCH_CACHE_JSON=.bench_cache_ci.json BENCH_WAL_JSON=.bench_wal_ci.json

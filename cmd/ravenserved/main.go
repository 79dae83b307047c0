// Command ravenserved serves a Raven engine over HTTP: the network front
// end that turns the embedded library into an inference server. It wires
// the admission-controlled query scheduler (bounded concurrent queries,
// bounded worker slots, bounded queue with timeouts) in front of the
// serving API and speaks the NDJSON wire protocol of internal/server.
//
// Usage:
//
//	ravenserved [-addr :8080] [-rows N] [-parallelism N]
//	            [-max-queries N] [-max-slots N] [-queue N] [-queue-timeout D]
//	            [-query-timeout D] [-drain-timeout D] [-drain-grace D]
//	            [-result-cache-bytes N] [-tenant name=maxq[:maxslots] ...]
//	            [-default-tenant NAME] [-preload] [-pg-addr :5432]
//	            [-data-dir DIR] [-fsync always|interval|off] [-segment-rows N]
//
// With -pg-addr the server also speaks the Postgres wire protocol
// (internal/pgwire): psql, BI tools and pg drivers run SELECT/PREDICT/
// INSERT/DDL against the same engine through the same admission path,
// with the startup database/user parameters mapping onto the tenant
// scheduler and engine errors mapping onto SQLSTATEs (429 ⇔ 53300,
// draining ⇔ 57P01). Both front ends share one prepared-statement
// registry and one request-options surface (internal/server/reqopt).
//
// With -data-dir the engine is durable: every write is logged to a
// write-ahead log under DIR before it is acknowledged, cold tables are
// sealed into immutable columnar segment files, and a restart replays
// the WAL tail — recovery runs to completion before the listener opens,
// so a server that answers /healthz serves every committed pre-crash
// write. A graceful drain ends with a checkpoint so the next start
// replays an empty log. If the recovered directory already holds the
// demo tables, -preload is skipped rather than duplicated.
//
// Tenant quotas declare the multi-tenant serving policy at boot: each
// -tenant flag (repeatable) bounds one tenant's concurrent queries and,
// optionally, its worker slots; maxq 0 shuts the tenant off. Requests
// pick their tenant with the X-Raven-Tenant header (or a "tenant" body
// field); untagged traffic bills to -default-tenant. Admission is first
// come, first served within the quotas. Per-tenant counters, gauges and
// queue-wait histograms nest under scheduler.tenants in GET /stats.
//
// By default the engine is preloaded with the paper's demo workload
// (hospital tables + 'duration_of_stay' model, flights_features +
// 'flight_delay'), so a fresh server answers PREDICT queries
// immediately:
//
//	curl -s localhost:8080/query -d '{"sql":"SELECT COUNT(*) AS n FROM patient_info"}'
//
// SIGINT/SIGTERM drain gracefully in two phases: first a lame-duck
// window (-drain-grace) where healthz flips to 503 "draining" while the
// query paths still accept work — so a health-probing router stops
// sending new queries before any are refused — then admission closes,
// in-flight queries finish or hit the drain deadline, and the listener
// closes. main_test.go builds this binary and drives that path (load
// over HTTP, SIGTERM, restart on the same -data-dir); the SIGKILL path
// is benchmark/'s ingest_durable workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/pgwire"
	"raven/internal/server"
	"raven/internal/server/stmtreg"
	"raven/internal/train"
)

// tenantQuota is one parsed -tenant flag.
type tenantQuota struct {
	name                 string
	maxQueries, maxSlots int
}

// tenantQuotaFlags collects repeatable -tenant flags of the form
// name=maxQueries[:maxSlots].
type tenantQuotaFlags []tenantQuota

func (f *tenantQuotaFlags) String() string {
	var parts []string
	for _, q := range *f {
		parts = append(parts, fmt.Sprintf("%s=%d:%d", q.name, q.maxQueries, q.maxSlots))
	}
	return strings.Join(parts, ",")
}

func (f *tenantQuotaFlags) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=maxQueries[:maxSlots], got %q", v)
	}
	qs, ss, _ := strings.Cut(spec, ":")
	maxQ, err := strconv.Atoi(qs)
	if err != nil || maxQ < 0 {
		return fmt.Errorf("bad maxQueries in %q: want an integer >= 0 (0 shuts the tenant off)", v)
	}
	maxS := 0
	if ss != "" {
		if maxS, err = strconv.Atoi(ss); err != nil || maxS < 0 {
			return fmt.Errorf("bad maxSlots in %q: want an integer >= 0", v)
		}
	}
	*f = append(*f, tenantQuota{name, maxQ, maxS})
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	rows := flag.Int("rows", 100000, "rows per preloaded demo table")
	preload := flag.Bool("preload", true, "preload the demo workload (hospital + flights tables and models)")
	parallelism := flag.Int("parallelism", 0, "engine degree of parallelism (0 = GOMAXPROCS, 1 = serial)")
	maxQueries := flag.Int("max-queries", 2*runtime.GOMAXPROCS(0), "admission limit: max concurrent queries (0 = unlimited, no scheduler)")
	maxSlots := flag.Int("max-slots", 4*runtime.GOMAXPROCS(0), "admission limit: max total worker slots across running queries; requested DOP is capped to fit (0 = queries-only limit)")
	queueDepth := flag.Int("queue", 64, "admission queue depth (queries waiting beyond the limit; 0 = reject immediately)")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max time a query waits for admission (0 = until its own deadline)")
	queryTimeout := flag.Duration("query-timeout", 0, "default per-query deadline for requests without timeout_ms (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	drainGrace := flag.Duration("drain-grace", 2*time.Second, "lame-duck window on shutdown: healthz advertises draining while queries are still accepted, so routers re-route before admission closes (0 = cut over immediately)")
	resultCacheBytes := flag.Int64("result-cache-bytes", 0, "semantic result cache budget in bytes: repeated read-only queries are served from cache, before admission, until DDL/INSERT/model stores invalidate them (0 = off)")
	var tenants tenantQuotaFlags
	flag.Var(&tenants, "tenant", "declare a tenant quota as name=maxQueries[:maxSlots] (repeatable; 0 queries shuts the tenant off; requires -max-queries > 0)")
	defaultTenant := flag.String("default-tenant", "", "tenant untagged requests bill to (default \"default\")")
	pgAddr := flag.String("pg-addr", "", "Postgres wire protocol listen address (host:port; empty = pg front end disabled). psql/pgx connect here; database/user startup params pick the tenant")
	dataDir := flag.String("data-dir", "", "durable data directory: writes are WAL-logged before acknowledgement, cold rows are sealed into columnar segments, and restart recovers committed state before the listener opens (empty = in-memory)")
	fsync := flag.String("fsync", "always", "WAL fsync policy for -data-dir: always (group-committed fsync per append), interval (background fsync) or off")
	segmentRows := flag.Int("segment-rows", 0, "rows per sealed on-disk segment for -data-dir (0 = default 65536)")
	flag.Parse()

	opts := []raven.Option{raven.WithParallelism(*parallelism)}
	if *resultCacheBytes > 0 {
		opts = append(opts, raven.WithResultCache(*resultCacheBytes))
	}
	if *maxQueries > 0 {
		opts = append(opts,
			raven.WithMaxConcurrentQueries(*maxQueries),
			raven.WithMaxWorkerSlots(*maxSlots),
			raven.WithSchedulerQueue(*queueDepth, *queueTimeout),
		)
		for _, q := range tenants {
			opts = append(opts, raven.WithTenantQuota(q.name, q.maxQueries, q.maxSlots))
		}
		if *defaultTenant != "" {
			opts = append(opts, raven.WithDefaultTenant(*defaultTenant))
		}
	} else if len(tenants) > 0 || *defaultTenant != "" {
		fmt.Fprintln(os.Stderr, "-tenant quotas and -default-tenant need the scheduler: set -max-queries > 0")
		os.Exit(2)
	}
	if *dataDir != "" {
		opts = append(opts,
			raven.WithDataDir(*dataDir),
			raven.WithFsync(*fsync),
			raven.WithSegmentRows(*segmentRows),
		)
	}
	// Recovery (WAL replay + segment attach) happens inside Open, before
	// the listener exists: a server that accepts connections has already
	// recovered every committed pre-crash write.
	db, err := raven.Open(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	if *preload && !db.Catalog().HasTable("patient_info") {
		if err := loadDemo(db, *rows); err != nil {
			fmt.Fprintln(os.Stderr, "preload:", err)
			os.Exit(1)
		}
	}

	// One statement registry for both front ends: pg prepared statements
	// and HTTP /prepare share a capacity budget and an id space.
	reg := stmtreg.New(0)
	srv := server.New(db, server.Options{DefaultTimeout: *queryTimeout, DrainGrace: *drainGrace, Statements: reg})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ravenserved listening on %s (max-queries=%d queue=%d)\n",
		l.Addr(), *maxQueries, *queueDepth)

	var (
		pgs        *pgwire.Server
		pgServeErr chan error
	)
	if *pgAddr != "" {
		pgl, err := net.Listen("tcp", *pgAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pg listen:", err)
			os.Exit(1)
		}
		pgs = pgwire.New(db, reg, pgwire.Options{DefaultTimeout: *queryTimeout, DefaultTenant: *defaultTenant})
		srv.SetPgwireStats(func() any { return pgs.Stats() })
		fmt.Fprintf(os.Stderr, "ravenserved pg protocol on %s\n", pgl.Addr())
		pgServeErr = make(chan error, 1)
		go func() { pgServeErr <- pgs.Serve(pgl) }()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	// drainAll shuts both front ends down in order: pg stops admitting
	// first (so its refusals read 57P01, not connection resets), the HTTP
	// Shutdown drains the engine once (the single engine-level drain —
	// pgwire's Shutdown deliberately leaves it to the caller), then the
	// pg connections unwind.
	drainAll := func(ctx context.Context) error {
		if pgs != nil {
			pgs.BeginDrain()
		}
		err := srv.Shutdown(ctx)
		if pgs != nil {
			if perr := pgs.Shutdown(ctx); perr != nil && err == nil {
				err = fmt.Errorf("pg shutdown: %w", perr)
			}
			if serr := <-pgServeErr; serr != nil && serr != pgwire.ErrServerClosed && err == nil {
				err = serr
			}
		}
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "%v: draining (up to %v)...\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := drainAll(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
			os.Exit(1)
		}
		<-serveErr
		// A clean drain ends with a checkpoint: the WAL folds into sealed
		// segments and the next start replays an empty log.
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "drained clean")
	}
}

// loadDemo mirrors ravensql's preload: hospital tables with a stored
// decision tree, flights_features with an L1-sparse logistic model.
func loadDemo(db *raven.DB, rows int) error {
	h, err := data.GenHospital(db.Catalog(), rows, 4000, 42)
	if err != nil {
		return err
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	if err := db.StoreModel("duration_of_stay", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}); err != nil {
		return err
	}
	fl, err := data.GenFlightsWide(db.Catalog(), rows, 100, 30, 4000, 7)
	if err != nil {
		return err
	}
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.02, Epochs: 60, Seed: 1})
	return db.StoreModel("flight_delay", &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols})
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"raven"
	"raven/internal/ml"
)

// traceOps is how many ops of the schedule the traced pass replays at
// most; the time budget may cut it shorter.
const traceOps = 200

// tracedPass runs after the measured window, never inside it: it
// replays the start of the schedule one op at a time on an in-process
// database holding the same data, with a span around each layer's
// entry point, then measures the layers that are reachable on their
// own. Results land in layer; the span file is written to the out
// directory. It returns the median share of a root span covered by its
// children, and how many answers it checked and found wrong.
func tracedPass(cfg *config, r rig, w *window, layer map[string]float64) (coverage float64, failed, attempted int, err error) {
	tr := newTracer()
	deadline := time.Now().Add(cfg.traced / 3)
	replay := func(db *raven.DB, dop int, ops []op, query func(op) (sql, shape string, forest bool, want fingerprint, tol float64)) {
		for i, o := range ops {
			if i >= traceOps || (i > 0 && time.Now().After(deadline)) {
				break
			}
			q, shape, forest, want, tol := query(o)
			got := fingerprint{ordered: want.ordered}
			attempted++
			if _, qerr := tracedQuery(tr, i, shape, db, q, forest, dop, &got); qerr != nil || !want.matches(&got, tol) {
				failed++
				if err == nil {
					err = fmt.Errorf("traced %s: %v: got %v, want %v", shape, qerr, &got, &want)
				}
			}
		}
	}

	switch r := r.(type) {
	case *batchRig:
		replay(r.db, cfg.nproc, r.sched[0], func(o op) (string, string, bool, fingerprint, float64) {
			s := batchShapeDefs[o.shape]
			return s.sql, batchShapes[o.shape], s.forestRuntime, *r.want[o.shape], s.tol
		})
		if err == nil {
			err = probeBatch(cfg, r, w, tr, layer)
		}
	case *serveRig:
		replay(r.data.twin, cfg.nproc, r.sched[0], func(o op) (string, string, bool, fingerprint, float64) {
			return serveLiteralSQL(o), serveShapes[o.shape], false, r.data.expect(o), tolExact
		})
		if err == nil {
			err = probeServe(cfg, r, layer)
		}
	case *ingestRig:
		// The twin holds the preload, so reads replay at that frontier;
		// the writer's ops have no compile pipeline to walk.
		replay(r.data.twin, cfg.nproc, r.sched[1], func(o op) (string, string, bool, fingerprint, float64) {
			lo, hi := readRange(o, r.data.preload)
			q := windowSQL
			if o.shape == shFresh {
				q = freshSQL
			}
			q = strings.NewReplacer("@a", strconv.Itoa(lo), "@b", strconv.Itoa(hi)).Replace(q)
			return q, ingestShapes[o.shape], false, r.data.expect(o, lo, hi), tolExact
		})
		if err == nil {
			err = probeStorage(cfg, r, layer)
		}
	}
	if err != nil {
		return 0, failed, attempted, err
	}
	for _, name := range []string{"sql.parse", "plan.bind", "ir.build", "xopt.optimize", "codegen.compile", "exec.open", "exec.drain", "exec.close"} {
		layer[name+"_us"] = tr.medianUS(name)
	}
	return tr.childCoverage(), failed, attempted, tr.write(cfg.paths.out, r.name(), cfg.seed)
}

// serveLiteralSQL renders a serve op with its parameters as literals,
// which is the statement the traced pass compiles.
func serveLiteralSQL(o op) string {
	switch o.shape {
	case shHot, shCold:
		return pointSQL + strconv.FormatInt(o.a, 10)
	case shRowset:
		return rowsetSQL + strconv.FormatInt(o.a, 10) + " AND d.id < " + strconv.FormatInt(o.b, 10)
	default:
		return adhocSQL + adhocLiteral(o.a)
	}
}

// timeQuery runs a prepared statement reps times and returns the median
// wall time of a full drain.
func timeQuery(st *raven.Stmt, reps int, params ...raven.Param) (time.Duration, error) {
	var times []time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		rows, err := st.QueryContext(context.Background(), params...)
		if err != nil {
			return 0, err
		}
		var fp fingerprint
		if err := foldRows(rows, &fp); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	return medianDurations(times), nil
}

// probeBatch measures what batch_predict's layers cost on their own:
// single-operator queries at the workload's table sizes, the same at
// DOP 1, the model runtimes standalone on the matrix the query feeds
// them, and the tracing overhead.
func probeBatch(cfg *config, r *batchRig, w *window, tr *tracer, layer map[string]float64) error {
	const reps = 3
	h, f := float64(r.rows), float64(r.rows/2)
	flights := `SELECT COUNT(*) AS n, AVG(p.s) AS a FROM PREDICT(MODEL='%s', DATA=flights_features AS d) WITH (s FLOAT) AS p`
	probes := []struct {
		metric, sql string
		rows        float64
		forest      bool
		serial      string // metric of the DOP-1 / DOP-nproc ratio, if wanted
	}{
		{"exec.scan_ns_per_row", `SELECT COUNT(*) AS n FROM patient_info AS pi`, h, false, ""},
		{"exec.filter_ns_per_row", `SELECT COUNT(*) AS n FROM patient_info AS pi WHERE pi.age > 40 AND pi.weight < 100`, h, false, ""},
		{"exec.join_ns_per_row", `SELECT SUM(pi.age) AS a, SUM(bt.bp) AS b FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id`, 2 * h, false, "exec.dop_speedup_join"},
		{"exec.agg_ns_per_row", `SELECT pi.gender, COUNT(*) AS n, AVG(pi.age) AS a FROM patient_info AS pi GROUP BY pi.gender`, h, false, "exec.dop_speedup_agg"},
		{"exec.sort_ns_per_row", `SELECT pi.id, pi.weight FROM patient_info AS pi ORDER BY pi.weight DESC, pi.id LIMIT 100`, h, false, ""},
		{"exec.predict_tree_ns_per_row", fmt.Sprintf(flights, "fl_tree"), f, false, ""},
		{"exec.predict_forest_ns_per_row", fmt.Sprintf(flights, "fl_forest"), f, true, "exec.dop_speedup_predict"},
		{"exec.predict_nn_ns_per_row", fmt.Sprintf(flights, "flight_delay"), f, false, ""},
	}
	for _, p := range probes {
		opts := raven.DefaultQueryOptions()
		opts.DisableNNTranslation = p.forest
		opts.NoResultCache = true
		st, err := r.db.PrepareWithOptions(p.sql, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		par, err := timeQuery(st, reps)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		layer[p.metric] = float64(par) / p.rows
		if p.serial == "" {
			continue
		}
		opts.Parallelism = 1
		if st, err = r.db.PrepareWithOptions(p.sql, opts); err != nil {
			return err
		}
		ser, err := timeQuery(st, reps)
		if err != nil {
			return err
		}
		layer[p.serial] = float64(ser) / float64(par)
		fmt.Printf("  %s: DOP 1 %.2f ms / DOP %d %.2f ms\n", p.serial, ms(ser), cfg.nproc, ms(par))
	}

	// Bytes allocated per input row over the measured window: the
	// process under test is this process.
	var inputRows float64
	for sh, n := range w.stats.shapeOps {
		inputRows += float64(n * batchShapeDefs[sh].inputRows(r.rows))
	}
	layer["engine.alloc_bytes_per_row"] = ratio(float64(w.alloc[w.total]-w.alloc[0]), inputRows)

	// Standalone model runtimes on flights_features' own feature matrix.
	models := map[string]*ml.Pipeline{}
	for _, name := range []string{"fl_tree", "fl_forest", "flight_delay"} {
		p, err := r.db.LoadModel(name)
		if err != nil {
			return err
		}
		models[name] = p
	}
	res, err := r.db.Query(`SELECT * FROM flights_features`)
	if err != nil {
		return err
	}
	matrix := func(cols []string) (ml.Matrix, error) {
		data, n, err := res.Batch.FloatMatrix(cols)
		return ml.Matrix{Data: data, Rows: n, Cols: len(cols)}, err
	}
	for metric, name := range map[string]string{"ml.tree_predict_ns_per_row": "fl_tree", "ml.forest_predict_ns_per_row": "fl_forest"} {
		m, err := matrix(models[name].InputColumns)
		if err != nil {
			return err
		}
		var times []time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := models[name].Predict(m); err != nil {
				return err
			}
			times = append(times, time.Since(start))
		}
		layer[metric] = float64(medianDurations(times)) / float64(m.Rows)
	}
	// The tensor graph is taken from the optimized plan of the NN probe,
	// so it is the graph the engine runs, projection pushdown included.
	var fp fingerprint
	g, err := tracedQuery(newTracer(), 0, "probe", r.db, fmt.Sprintf(flights, "flight_delay"), false, cfg.nproc, &fp)
	if err != nil {
		return err
	}
	graph, cols := tensorGraphOf(g)
	if graph == nil {
		return fmt.Errorf("the logistic regression was not translated to a tensor graph")
	}
	m, err := matrix(cols)
	if err != nil {
		return err
	}
	build, runs, err := probeSession(graph, m.Data, m.Rows, m.Cols, reps)
	if err != nil {
		return err
	}
	layer["ort.session_build_us"] = us(build)
	layer["ort.session_run_ns_per_row"] = float64(medianDurations(runs)) / float64(m.Rows)

	// Tracing overhead: per shape, the traced op's root span against the
	// untraced median of the measured window; the median over shapes.
	byShape := map[string][]float64{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			byShape[s.Shape] = append(byShape[s.Shape], float64(s.End-s.Start)/1e6)
		}
	}
	var over []float64
	for sh, name := range batchShapes {
		if un := w.stats.shapeP50[uint8(sh)]; un > 0 && len(byShape[name]) > 0 {
			over = append(over, (median(byShape[name])/un-1)*100)
		}
	}
	layer["trace.overhead_pct"] = median(over)
	return nil
}

// wirePath is one way to send a serve op, for the wire probes.
type wirePath struct {
	send  func(o op, fp *fingerprint) error
	ttfb  func() time.Duration
	bytes func() int64
}

func (p wirePath) measure(ops []op, expect func(op) fingerprint) (request, ttfb time.Duration, err error) {
	var reqs, ttfbs []time.Duration
	for _, o := range ops {
		var got fingerprint
		start := time.Now()
		if err := p.send(o, &got); err != nil {
			return 0, 0, err
		}
		reqs = append(reqs, time.Since(start))
		ttfbs = append(ttfbs, p.ttfb())
		if want := expect(o); !want.matches(&got, tolExact) {
			return 0, 0, fmt.Errorf("wire probe: wrong answer for %v", o)
		}
	}
	return medianDurations(reqs), medianDurations(ttfbs), nil
}

// probeServe measures the serving layers one at a time, on one
// connection: the same hot_point ops over HTTP, over pg, through a
// router in front of the same replica, and on the in-process twin —
// all result-cache hits, so what differs is the wire.
func probeServe(cfg *config, r *serveRig, layer map[string]float64) error {
	var hot []op
	var rowset op
	for _, o := range r.sched[0] {
		if o.shape == shHot && len(hot) < traceOps {
			hot = append(hot, o)
		}
		if o.shape == shRowset {
			rowset = o
		}
	}

	// In-process twin: same statement, same keys, result cache on.
	st, err := r.data.twin.Prepare(pointHTTP)
	if err != nil {
		return err
	}
	var twin []time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass fills the cache
		twin = twin[:0]
		for _, o := range hot {
			d, err := timeQuery(st, 1, raven.P("id", strconv.FormatInt(o.a, 10)))
			if err != nil {
				return err
			}
			twin = append(twin, d)
		}
	}
	inproc := medianDurations(twin)

	h, err := dialServeHTTP(r.child.http)
	if err != nil {
		return err
	}
	defer h.conn.close()
	pg, err := dialServePG(r.child.pg)
	if err != nil {
		return err
	}
	defer pg.close()
	httpPath := wirePath{send: h.send, ttfb: func() time.Duration { return h.conn.ttfb }, bytes: func() int64 { return h.conn.bytesIn }}
	pgPath := wirePath{
		send:  func(o op, fp *fingerprint) error { return pgOp(pg, o, fp) },
		ttfb:  func() time.Duration { return pg.ttfb },
		bytes: func() int64 { return pg.bytesIn },
	}
	var direct time.Duration
	for _, p := range []struct {
		name string
		path wirePath
	}{{"http", httpPath}, {"pgwire", pgPath}} {
		if _, _, err := p.path.measure(hot, r.data.expect); err != nil { // fills the cache
			return fmt.Errorf("%s: %w", p.name, err)
		}
		req, ttfb, err := p.path.measure(hot, r.data.expect)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		layer[p.name+".request_us"] = us(req)
		layer[p.name+".ttfb_us"] = us(ttfb)
		layer[p.name+".overhead_us"] = us(req - inproc)
		before := p.path.bytes()
		var fp fingerprint
		if err := p.path.send(rowset, &fp); err != nil {
			return fmt.Errorf("%s rowset: %w", p.name, err)
		}
		layer[p.name+".bytes_per_row"] = ratio(float64(p.path.bytes()-before), float64(fp.rows))
		if p.name == "http" {
			direct = req
		}
	}

	// One router hop: a ravenrouter child in front of the same replica.
	router, err := spawn(filepath.Join(cfg.paths.bin, "ravenrouter"), false,
		"-addr", "127.0.0.1:0", "-replica", "r1=http://"+r.child.http)
	if err != nil {
		return err
	}
	defer router.kill()
	if _, err := router.waitHealthy(30 * time.Second); err != nil {
		return err
	}
	rh, err := dialServeHTTP(router.http)
	if err != nil {
		return err
	}
	defer rh.conn.close()
	routed := wirePath{send: rh.send, ttfb: func() time.Duration { return rh.conn.ttfb }}
	if _, _, err := routed.measure(hot, r.data.expect); err != nil {
		return fmt.Errorf("router: %w", err)
	}
	via, _, err := routed.measure(hot, r.data.expect)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	layer["router.hop_us"] = us(via - direct)

	if layer["sched.admit_release_ns"], err = probeSched(cfg.nproc); err != nil {
		return err
	}
	layer["rescache.get_ns"] = probeRescache()
	return nil
}

// probeStorage times the storage layer's public write and read paths
// directly, in a scratch directory inside the checkout.
func probeStorage(cfg *config, r *ingestRig, layer map[string]float64) error {
	d, err := probeWAL(cfg.paths.tmp)
	if err != nil {
		return err
	}
	layer["wal.append_fsync_us"] = us(d)
	q := fmt.Sprintf(`SELECT * FROM events AS e WHERE e.id < %d`, 16384/cfg.scale)
	layer["segment.write_mb_s"], layer["segment.read_mb_s"], err = probeSegment(r.data.twin, q, cfg.paths.tmp)
	return err
}

// finish closes ingest_durable's run: space and write amplification
// from the child's own accounting, then the crash check.
func (r *ingestRig) finish(res *result, w *window, layer map[string]float64) error {
	user := float64(r.ackedRows.Load()+int64(r.data.preload)) * eventBytes
	disk, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	lost, recovery, err := r.crashCheck()
	if err != nil {
		return fmt.Errorf("%s: crash check: %w", wlIngest, err)
	}
	res.Attempted++
	if lost != 0 {
		res.Failed++
	}
	fmt.Printf("  crash check: %d acknowledged rows, %v lost, recovered in %.1f ms\n",
		r.ackedRows.Load()+int64(r.data.preload), lost, ms(recovery))
	if layer != nil {
		written := float64(w.stats.shapeOps[shInsert]*insertRows) * eventBytes
		layer["storage.write_bytes_per_user_byte"] = ratio(w.io[w.total]-w.io[0], written)
		layer["storage.disk_bytes_per_user_byte"] = ratio(disk, user)
		layer["storage.recovery_ms"] = ms(recovery)
		layer["storage.lost_acked_rows"] = lost
	}
	return nil
}

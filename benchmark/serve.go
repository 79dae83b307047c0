package main

import (
	"fmt"
	"path/filepath"
	"strconv"

	"raven"
	"raven/internal/ml"
)

// resultCacheBytes sizes the served engine's result cache for about a
// thousand point results (80 bytes each as the engine counts them): the
// 256-key hot set stays resident, cold points pass through, and a
// rowset_2k result is above the per-entry cap (a quarter of the budget)
// so it is never kept.
const resultCacheBytes = 80 << 10

const (
	pointSQL  = `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p WHERE d.id = `
	rowsetSQL = `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p WHERE d.id >= `
	scoresSQL = `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p`
	adhocSQL  = `SELECT COUNT(*) AS n, SUM(r.amount) AS s FROM requests AS r WHERE r.amount < `
)

// The prepared shapes, in each front end's placeholder syntax.
var (
	pointHTTP  = pointSQL + "@id"
	rowsetHTTP = rowsetSQL + "@lo AND d.id < @hi"
	pointPG    = pointSQL + "$1"
	rowsetPG   = rowsetSQL + "$1 AND d.id < $2"
)

// adhocLiteral renders op value a as a six-decimal literal in (0, 100]:
// distinct values give distinct query texts, so each one is a plan-cache
// miss.
func adhocLiteral(a int64) string {
	a++
	return strconv.FormatInt(a/1_000_000, 10) + "." + fmt.Sprintf("%06d", a%1_000_000)
}

// serveData is what a serve workload's oracle needs: the twin, and the
// per-row reference values every expected answer is assembled from.
type serveData struct {
	twin    *raven.DB
	rows    int
	models  []model
	scores  prefix    // score of row id, from the unoptimized serial bulk query
	score   []float64 // the same, by id
	amounts []float64
}

func buildServeData(cfg *config) (*serveData, error) {
	d := &serveData{rows: serveRows / cfg.scale, amounts: requestAmounts(cfg.seed)}
	var err error
	if d.twin, err = raven.Open(raven.WithParallelism(cfg.nproc), raven.WithResultCache(resultCacheBytes)); err != nil {
		return nil, err
	}
	if d.models, err = genHospital(d.twin, d.rows, cfg.seed, false); err != nil {
		return nil, err
	}
	if err := storeModels(d.twin, d.models); err != nil {
		return nil, err
	}
	for _, s := range requestsScript(cfg.seed) {
		if err := d.twin.Exec(s); err != nil {
			return nil, err
		}
	}
	if d.score, err = columnOf(d.twin, scoresSQL, d.rows, 1); err != nil {
		return nil, err
	}
	d.scores = newPrefix(d.score)
	return d, nil
}

// expect assembles the reference fingerprint of one serve op.
func (d *serveData) expect(o op) fingerprint {
	var fp fingerprint
	switch o.shape {
	case shHot, shCold:
		id := float64(o.a)
		s := d.score[o.a]
		fp.rows = 1
		fp.sum[0], fp.sum2[0] = id, id*id
		fp.sum[1], fp.sum2[1] = s, s*s
	case shRowset:
		lo, hi := int(o.a), int(o.b)
		fp.rows = hi - lo
		fp.sum[0], fp.sum2[0] = idSum(lo, hi), idSum2(lo, hi)
		fp.sum[1], fp.sum2[1] = d.scores.sum(lo, hi), d.scores.sum2(lo, hi)
	case shAdhoc:
		lit, _ := strconv.ParseFloat(adhocLiteral(o.a), 64)
		n, s := 0.0, 0.0
		for _, a := range d.amounts {
			if a < lit {
				n++
				s += a
			}
		}
		fp.rows = 1
		fp.sum[0], fp.sum2[0] = n, n*n
		fp.sum[1], fp.sum2[1] = s, s*s
	}
	return fp
}

// execAll runs side-effect scripts through POST /query, in order.
func execAll(h *httpConn, scripts []string) error {
	for _, s := range scripts {
		if err := h.exec(s); err != nil {
			return err
		}
	}
	return nil
}

// loadTables copies tables of the twin to a served child through its
// wire: CREATE TABLE and multi-row INSERT via POST /query.
func loadTables(h *httpConn, twin *raven.DB, tables []string) error {
	for _, t := range tables {
		scripts, err := dumpTable(twin, t, 2000)
		if err != nil {
			return err
		}
		if err := execAll(h, scripts); err != nil {
			return fmt.Errorf("load %s: %w", t, err)
		}
	}
	return nil
}

// sendModels stores pipelines on a served child via POST /model.
func sendModels(h *httpConn, models []model) error {
	for _, m := range models {
		blob, err := ml.Marshal(m.pipe)
		if err != nil {
			return err
		}
		if err := h.storeModel(m.name, blob); err != nil {
			return err
		}
	}
	return nil
}

// serveHTTP is one HTTP client of a serve workload: a connection and
// the ids of the two prepared shapes.
type serveHTTP struct {
	conn            *httpConn
	pointID, rowsID string
}

func dialServeHTTP(addr string) (*serveHTTP, error) {
	c := &serveHTTP{}
	var err error
	if c.conn, err = dialHTTP(addr); err != nil {
		return nil, err
	}
	if c.pointID, err = c.conn.prepare(pointHTTP); err == nil {
		c.rowsID, err = c.conn.prepare(rowsetHTTP)
	}
	if err != nil {
		c.conn.close()
		return nil, err
	}
	return c, nil
}

// send runs one serve op over HTTP: prepared shapes through
// POST /stmt/{id}/query, the ad-hoc one through POST /query.
func (c *serveHTTP) send(o op, fp *fingerprint) error {
	switch o.shape {
	case shHot, shCold:
		return c.conn.stmtQuery(c.pointID, [2]string{"id"}, [2]int64{o.a}, 1, fp)
	case shRowset:
		return c.conn.stmtQuery(c.rowsID, [2]string{"lo", "hi"}, [2]int64{o.a, o.b}, 2, fp)
	default:
		return c.conn.query(adhocSQL+adhocLiteral(o.a), fp)
	}
}

// dialServePG opens a pg connection and parses the two prepared shapes
// on it (pg statements belong to their session).
func dialServePG(addr string) (*pgConn, error) {
	p, err := dialPG(addr)
	if err != nil {
		return nil, err
	}
	if err = p.parse("point", pointPG); err == nil {
		err = p.parse("rowset", rowsetPG)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// pgOp sends one serve op over pg: prepared shapes through the extended
// protocol (Bind/Execute/Sync on a statement parsed once), the ad-hoc
// one as a simple Query.
func pgOp(p *pgConn, o op, fp *fingerprint) error {
	switch o.shape {
	case shHot, shCold:
		return p.execute("point", [2]int64{o.a}, 1, fp)
	case shRowset:
		return p.execute("rowset", [2]int64{o.a, o.b}, 2, fp)
	default:
		return p.simple(adhocSQL+adhocLiteral(o.a), fp)
	}
}

// serveRig is a serve workload's process under test: a ravenserved
// child loaded over the wire, and two client connections of one
// protocol.
type serveRig struct {
	cfg   *config
	proto string // wlHTTP or wlPG
	data  *serveData
	child *child
	ctl   *httpConn // control connection: loading and GET /stats, never load
	sched schedule

	http []*serveHTTP
	pg   []*pgConn
}

func spawnServed(cfg *config, extra ...string) (*child, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0", "-pg-addr", "127.0.0.1:0",
		"-preload=false", "-parallelism", strconv.Itoa(cfg.nproc), "-drain-grace", "0s",
	}, extra...)
	return spawn(filepath.Join(cfg.paths.bin, "ravenserved"), true, args...)
}

func setupServe(cfg *config, proto string) (rig, error) {
	r := &serveRig{cfg: cfg, proto: proto}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	var err error
	if r.data, err = buildServeData(cfg); err != nil {
		return nil, err
	}
	r.sched = scheduleFor(proto, cfg.seed, cfg.scale)
	if r.child, err = spawnServed(cfg, "-result-cache-bytes", strconv.Itoa(resultCacheBytes)); err != nil {
		return nil, err
	}
	if r.ctl, err = dialHTTP(r.child.http); err != nil {
		return nil, err
	}
	if err := loadTables(r.ctl, r.data.twin, hospitalTables); err != nil {
		return nil, err
	}
	if err := execAll(r.ctl, requestsScript(cfg.seed)); err != nil {
		return nil, err
	}
	if err := sendModels(r.ctl, r.data.models); err != nil {
		return nil, err
	}
	for range r.sched {
		if proto == wlHTTP {
			c, err := dialServeHTTP(r.child.http)
			if err != nil {
				return nil, err
			}
			r.http = append(r.http, c)
		} else {
			p, err := dialServePG(r.child.pg)
			if err != nil {
				return nil, err
			}
			r.pg = append(r.pg, p)
		}
	}
	ok = true
	return r, nil
}

// prime asks for every hot key once, so the measured window opens on a
// full result cache. Filling it from the schedule alone takes some 1,500
// hot operations, longer than the warm-up.
func (r *serveRig) prime() error {
	run := r.clients()[0].run
	seen := map[int64]bool{}
	for _, o := range r.sched[0] {
		if o.shape == shHot && !seen[o.a] {
			seen[o.a] = true
			if err := run(o); err != nil {
				return err
			}
		}
		if len(seen) == hotKeys {
			break
		}
	}
	return nil
}

func (r *serveRig) name() string       { return r.proto }
func (r *serveRig) shapes() []string   { return serveShapes }
func (r *serveRig) schedule() schedule { return r.sched }
func (r *serveRig) pid() int           { return r.child.pid }

func (r *serveRig) close() {
	for _, c := range r.http {
		c.conn.close()
	}
	for _, p := range r.pg {
		p.close()
	}
	if r.ctl != nil {
		r.ctl.close()
	}
	r.child.kill()
	if r.data != nil && r.data.twin != nil {
		r.data.twin.Close()
	}
}

func (r *serveRig) stats() (map[string]any, error) {
	_, tree, err := r.ctl.getJSON("/stats")
	return tree, err
}

func (r *serveRig) clients() []*client {
	cs := make([]*client, len(r.sched))
	for i := range cs {
		var send func(op, *fingerprint) error
		if r.proto == wlHTTP {
			send = r.http[i].send
		} else {
			p := r.pg[i]
			send = func(o op, fp *fingerprint) error { return pgOp(p, o, fp) }
		}
		cs[i] = &client{ops: r.sched[i], run: func(o op) error { return r.check(o, send) }}
	}
	return cs
}

// check sends one op and compares the answer with the oracle's.
func (r *serveRig) check(o op, send func(op, *fingerprint) error) error {
	var got fingerprint
	if err := send(o, &got); err != nil {
		return err
	}
	want := r.data.expect(o)
	if !want.matches(&got, tolExact) {
		return fmt.Errorf("%s(%d,%d): wrong answer: got %v, want %v", serveShapes[o.shape], o.a, o.b, &got, &want)
	}
	return nil
}

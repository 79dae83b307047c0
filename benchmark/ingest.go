package main

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"raven"
)

const (
	writerRate = 100 // paced inserts per second
	windowSQL  = `SELECT COUNT(*) AS n, AVG(e.v0) AS a FROM events AS e WHERE e.ts >= @a AND e.ts < @b`
	freshSQL   = `SELECT COUNT(*) AS n, AVG(p.score) AS a FROM PREDICT(MODEL='ev_model', DATA=(SELECT * FROM events AS e WHERE e.ts >= @a AND e.ts < @b) AS d) WITH (score FLOAT) AS p`
	countSQL   = `SELECT COUNT(*) AS n, SUM(e.id) AS s FROM events AS e`
)

// ingestData is the oracle side of ingest_durable. The events table is
// a pure function of (seed, id), so the reference values of every row
// the writer will ever insert exist before the run: v0 from the
// generator, the score from the stored pipeline run standalone. The twin
// database (the same rows loaded through the same INSERT text) is only
// built for the traced pass.
type ingestData struct {
	preload int
	total   int // preload plus every row the writer can reach
	model   model
	v0      prefix
	score   prefix
	twin    *raven.DB
}

func buildIngestData(cfg *config) (*ingestData, error) {
	d := &ingestData{preload: ingestPreload / cfg.scale, model: eventModel()}
	d.total = d.preload + insertRows*ingestOps
	feats := eventFeatures(cfg.seed, d.total)
	v0 := make([]float64, d.total)
	for i := range v0 {
		v0[i] = feats.Data[i*eventCols]
	}
	d.v0 = newPrefix(v0)
	scores, err := d.model.pipe.Predict(feats)
	if err != nil {
		return nil, err
	}
	d.score = newPrefix(scores)
	if cfg.trace {
		// The twin holds the preload only: the traced pass replays reads
		// at the preload frontier.
		if d.twin, err = raven.Open(raven.WithParallelism(cfg.nproc)); err != nil {
			return nil, err
		}
		if err := d.twin.Exec(eventsDDL); err != nil {
			return nil, err
		}
		for lo := 0; lo < d.preload; lo += loadChunk {
			if err := d.twin.Exec(eventsInsert(cfg.seed, lo, min(lo+loadChunk, d.preload))); err != nil {
				return nil, err
			}
		}
		if err := storeModels(d.twin, []model{d.model}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// loadChunk is the rows per preload INSERT: one WAL record and one
// fsync each.
const loadChunk = 4000

// readRange resolves a reader op against the write frontier: the id
// range it asks for.
func readRange(o op, frontier int) (lo, hi int) {
	hi = frontier - int(o.a)
	lo = max(hi-int(o.b), 0)
	return lo, hi
}

func (d *ingestData) expect(o op, lo, hi int) fingerprint {
	p := d.v0
	if o.shape == shFresh {
		p = d.score
	}
	n := float64(hi - lo)
	avg := p.sum(lo, hi) / n
	var fp fingerprint
	fp.rows = 1
	fp.sum[0], fp.sum2[0] = n, n*n
	fp.sum[1], fp.sum2[1] = avg, avg*avg
	return fp
}

// ingestRig is ingest_durable's process under test: a durable
// ravenserved child, a paced writer connection and a closed-loop reader
// connection.
type ingestRig struct {
	cfg     *config
	data    *ingestData
	dir     string
	child   *child
	ctl     *httpConn
	sched   schedule
	writer  *httpConn
	reader  *httpConn
	windowI string
	freshI  string

	// The acknowledged-row ledger. ackedRows counts rows of acknowledged
	// inserts; frontier is the end of the gap-free acknowledged prefix,
	// which is what readers may assume present.
	ackedRows atomic.Int64
	frontier  atomic.Int64
	gap       bool
}

func (r *ingestRig) spawn() (*child, error) {
	return spawnServed(r.cfg, "-data-dir", r.dir, "-fsync", "always",
		"-segment-rows", strconv.Itoa(16384/r.cfg.scale))
}

func setupIngest(cfg *config) (rig, error) {
	r := &ingestRig{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	var err error
	if r.data, err = buildIngestData(cfg); err != nil {
		return nil, err
	}
	r.sched = scheduleFor(wlIngest, cfg.seed, cfg.scale)
	if r.dir, err = os.MkdirTemp(cfg.paths.tmp, "ingest-"); err != nil {
		return nil, err
	}
	if r.child, err = r.spawn(); err != nil {
		return nil, err
	}
	if r.ctl, err = dialHTTP(r.child.http); err != nil {
		return nil, err
	}
	if err := r.ctl.exec(eventsDDL); err != nil {
		return nil, err
	}
	for lo := 0; lo < r.data.preload; lo += loadChunk {
		if err := r.ctl.exec(eventsInsert(cfg.seed, lo, min(lo+loadChunk, r.data.preload))); err != nil {
			return nil, fmt.Errorf("preload events: %w", err)
		}
	}
	if err := sendModels(r.ctl, []model{r.data.model}); err != nil {
		return nil, err
	}
	r.frontier.Store(int64(r.data.preload))
	if r.windowI, err = r.ctl.prepare(windowSQL); err != nil {
		return nil, err
	}
	if r.freshI, err = r.ctl.prepare(freshSQL); err != nil {
		return nil, err
	}
	if r.writer, err = dialHTTP(r.child.http); err != nil {
		return nil, err
	}
	if r.reader, err = dialHTTP(r.child.http); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

func (r *ingestRig) name() string       { return wlIngest }
func (r *ingestRig) shapes() []string   { return ingestShapes }
func (r *ingestRig) schedule() schedule { return r.sched }
func (r *ingestRig) pid() int           { return r.child.pid }

func (r *ingestRig) close() {
	for _, h := range []*httpConn{r.writer, r.reader, r.ctl} {
		if h != nil {
			h.close()
		}
	}
	r.child.kill()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	if r.data != nil && r.data.twin != nil {
		r.data.twin.Close()
	}
}

func (r *ingestRig) stats() (map[string]any, error) {
	_, tree, err := r.ctl.getJSON("/stats")
	return tree, err
}

func (r *ingestRig) clients() []*client {
	return []*client{
		{ops: r.sched[0], pace: time.Second / writerRate, run: r.insert},
		{ops: r.sched[1], run: r.read},
	}
}

func (r *ingestRig) insert(o op) error {
	lo := r.data.preload + int(o.a)*insertRows
	if err := r.writer.exec(eventsInsert(r.cfg.seed, lo, lo+insertRows)); err != nil {
		r.gap = true // readers stop trusting ids past the frontier
		return err
	}
	r.ackedRows.Add(insertRows)
	if !r.gap {
		r.frontier.Store(int64(lo + insertRows))
	}
	return nil
}

func (r *ingestRig) read(o op) error {
	lo, hi := readRange(o, int(r.frontier.Load()))
	id := r.windowI
	if o.shape == shFresh {
		id = r.freshI
	}
	var got fingerprint
	if err := r.reader.stmtQuery(id, [2]string{"a", "b"}, [2]int64{int64(lo), int64(hi)}, 2, &got); err != nil {
		return err
	}
	want := r.data.expect(o, lo, hi)
	if !want.matches(&got, tolExact) {
		return fmt.Errorf("%s[%d,%d): wrong answer: got %v, want %v", ingestShapes[o.shape], lo, hi, &got, &want)
	}
	return nil
}

// crashCheck is the durability half of the oracle: SIGKILL the child,
// restart it on the same directory, and require every acknowledged row.
// It returns the rows lost and the time from restart to a healthy
// /healthz. A kill leaves the OS page cache intact, so this proves
// process-crash durability, not power-loss durability.
func (r *ingestRig) crashCheck() (lost float64, recovery time.Duration, err error) {
	for _, h := range []*httpConn{r.writer, r.reader, r.ctl} {
		h.close()
	}
	r.writer, r.reader, r.ctl = nil, nil, nil
	r.child.kill()
	start := time.Now()
	if r.child, err = r.spawn(); err != nil {
		return 0, 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if _, err := r.child.waitHealthy(60 * time.Second); err != nil {
		return 0, 0, err
	}
	recovery = time.Since(start)
	if r.ctl, err = dialHTTP(r.child.http); err != nil {
		return 0, recovery, err
	}
	var got fingerprint
	if err := r.ctl.query(countSQL, &got); err != nil {
		return 0, recovery, err
	}
	wantRows := float64(r.data.preload) + float64(r.ackedRows.Load())
	lost = wantRows - got.sum[0]
	if lost == 0 && !r.gap && !closeTo(got.sum[1], idSum(0, int(wantRows)), tolExact) {
		return 0, recovery, fmt.Errorf("recovered %v rows but SUM(id)=%v, want %v", got.sum[0], got.sum[1], idSum(0, int(wantRows)))
	}
	return lost, recovery, nil
}

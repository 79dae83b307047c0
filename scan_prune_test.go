package raven

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"raven/internal/ml"
	"raven/internal/types"
)

// pruneSegRows is the seal threshold of the pruning matrix: every
// 64-row append seals one segment.
const pruneSegRows = 64

// pruneRows builds rows [lo, hi) of the matrix table
// pts(id INT, ts INT, f FLOAT, flag BOOL, s VARCHAR, n INT). Row i lands
// in segment i/64, and some segments are built to be awkward for
// pruning: 2 has only NaN in f and only NULL in n (value slot 3, which
// filters still compare); 3 mixes NaN into f and NULLs (slot 1000) into
// n; 4 ends at ts = 2^53+1, which float64 rounds onto 2^53; 5 starts at
// ts = -(2^53+1). Everywhere else ts = id.
func pruneRows(lo, hi int) *types.Batch {
	b := types.NewBatch(types.NewSchema(
		types.Column{Name: "id", Type: types.Int}, types.Column{Name: "ts", Type: types.Int},
		types.Column{Name: "f", Type: types.Float}, types.Column{Name: "flag", Type: types.Bool},
		types.Column{Name: "s", Type: types.String}, types.Column{Name: "n", Type: types.Int}))
	for i := lo; i < hi; i++ {
		seg, k := i/pruneSegRows, i%pruneSegRows
		ts, f, n, null := int64(i), float64(i)*0.5, int64(i%5), false
		switch seg {
		case 2:
			f, n, null = math.NaN(), 3, true
		case 3:
			if k%3 == 0 {
				f = math.NaN()
			}
			if k%4 == 0 {
				n, null = 1000, true
			}
		case 4:
			ts = 1<<53 - 62 + int64(k)
		case 5:
			ts = -(1 << 53) - 1 + int64(k)
		}
		if err := b.AppendRow(int64(i), ts, f, seg%2 == 0, fmt.Sprintf("k%03d", i%100), n); err != nil {
			panic(err)
		}
		if null {
			b.Vecs[5].SetNull(b.Len() - 1)
		}
	}
	return b
}

// loadPruneRows appends rows [lo, hi) to pts on each engine, one sealed
// segment's worth per call so a durable engine seals exactly at 64-row
// boundaries, and other(id, k = 2·id) alongside for the first 300 ids.
func loadPruneRows(t *testing.T, lo, hi int, dbs ...*DB) {
	t.Helper()
	for _, db := range dbs {
		pts, err := db.Catalog().Table("pts")
		if err != nil {
			t.Fatal(err)
		}
		other, err := db.Catalog().Table("other")
		if err != nil {
			t.Fatal(err)
		}
		for s := lo; s < hi; s = (s/pruneSegRows + 1) * pruneSegRows {
			e := min((s/pruneSegRows+1)*pruneSegRows, hi)
			if err := pts.AppendBatch(pruneRows(s, e)); err != nil {
				t.Fatal(err)
			}
			if s >= 300 {
				continue
			}
			ob := types.NewBatch(other.Schema())
			for i := s; i < min(e, 300); i++ {
				if err := ob.AppendRow(int64(i), int64(2*i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := other.AppendBatch(ob); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func openPruneDurable(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(WithDataDir(dir), WithFsync("off"), WithSegmentRows(pruneSegRows))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pruneCases is the exactness matrix: each query's WHERE sits directly on
// a scan of a table with sealed segments, so the durable engine may skip
// segments, and its answer must equal the in-memory twin's.
var pruneCases = []struct {
	name   string
	q      string
	params []Param
}{
	{"non-strict at a segment's exact min/max", `SELECT * FROM pts WHERE ts >= 64 AND ts <= 127`, nil},
	{"strict at the neighbours' max/min", `SELECT * FROM pts WHERE ts > 63 AND ts < 128`, nil},
	{"strict at a segment's own max", `SELECT id, ts FROM pts WHERE ts > 127 AND ts < 200`, nil},
	{"strict at a segment's own min", `SELECT id, ts FROM pts WHERE ts < 64`, nil},
	{"empty window", `SELECT COUNT(*) AS c FROM pts WHERE ts >= 100000 AND ts < 100001`, nil},
	{"contradiction", `SELECT * FROM pts WHERE ts > 5 AND ts < 3`, nil},
	{"non-strict contradiction", `SELECT * FROM pts WHERE f >= 300 AND f <= 20`, nil},
	{"OR", `SELECT id, ts FROM pts WHERE ts < 10 OR ts > 700`, nil},
	{"NOT", `SELECT id, ts FROM pts WHERE NOT (ts < 700)`, nil},
	{"VARCHAR conjunct", `SELECT id, s FROM pts WHERE s = 'k007' AND ts < 500`, nil},
	{"VARCHAR range", `SELECT COUNT(*) AS c FROM pts WHERE s >= 'k095'`, nil},
	{"BOOL column", `SELECT id, flag FROM pts WHERE flag = TRUE AND ts < 300`, nil},
	{"NULL-only segment", `SELECT id, n FROM pts WHERE n = 3`, nil},
	{"NULL value slots", `SELECT id, n FROM pts WHERE n >= 1000`, nil},
	{"NaN passes >=", `SELECT id, f FROM pts WHERE f >= 100`, nil},
	{"NaN passes <=", `SELECT id, f FROM pts WHERE f <= 10`, nil},
	{"NaN fails >", `SELECT id, f FROM pts WHERE f > 110.5`, nil},
	{"FLOAT equality", `SELECT id, f FROM pts WHERE f = 250`, nil},
	{"INT above 2^53 with >", `SELECT id, ts FROM pts WHERE ts > 9007199254740992`, nil},
	{"INT above 2^53 with >=", `SELECT id, ts FROM pts WHERE ts >= 9007199254740993`, nil},
	{"INT below -2^53 with <", `SELECT id, ts FROM pts WHERE ts < @a`, []Param{P("a", "-9007199254740992")}},
	{"INT below -2^53 with <=", `SELECT id, ts FROM pts WHERE ts <= @a`, []Param{P("a", "-9007199254740993")}},
	{"INT between ±2^53 with <", `SELECT COUNT(*) AS c FROM pts WHERE ts > @a AND ts < 9007199254740992`, []Param{P("a", "-9007199254740992")}},
	{"window wholly in the tail", `SELECT * FROM pts WHERE ts >= 780`, nil},
	{"window straddling tail and segment", `SELECT * FROM pts WHERE ts >= 740 AND ts < 790`, nil},
	{"prepared bounds", `SELECT COUNT(*) AS c, SUM(ts) AS s, AVG(f) AS a FROM pts WHERE ts >= @a AND ts < @b`, []Param{P("a", "400"), P("b", "530")}},
	{"fresh PREDICT shape", `SELECT COUNT(*) AS n, AVG(p.score) AS a FROM PREDICT(MODEL='pts_model', DATA=(SELECT * FROM pts AS e WHERE e.ts >= @a AND e.ts < @b) AS d) WITH (score FLOAT) AS p`, []Param{P("a", "384"), P("b", "790")}},
	{"PREDICT rows", `SELECT d.id, p.score FROM PREDICT(MODEL='pts_model', DATA=(SELECT * FROM pts AS e WHERE e.ts >= @a AND e.ts < @b) AS d) WITH (score FLOAT) AS p`, []Param{P("a", "450"), P("b", "520")}},
	{"JOIN with a pruned scan on both sides", `SELECT p.id, p.ts, o.k FROM pts AS p JOIN other AS o ON p.id = o.id WHERE p.ts >= 64 AND p.ts < 250 AND o.k < 300`, nil},
}

// TestPrunedScansMatchInMemoryTwin is the exact-aggregation invariant for
// segment pruning and column pushdown: the same rows in a durable engine
// (sealed segments plus a tail) and an in-memory one, every matrix query
// at DOP 1, 2 and 8, identical fingerprints — live, after a checkpoint
// that compacts undersized segments, after a clean reopen and after an
// unclean stop.
func TestPrunedScansMatchInMemoryTwin(t *testing.T) {
	dir := t.TempDir()
	dur, mem := openPruneDurable(t, dir), MustOpen()
	for _, db := range []*DB{dur, mem} {
		for _, ddl := range []string{
			`CREATE TABLE pts (id INT, ts INT, f FLOAT, flag BOOL, s VARCHAR, n INT)`,
			`CREATE TABLE other (id INT, k INT)`,
		} {
			if err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		// f <= 200 → 0.2; else ts <= 500 → 0.5, else 0.9.
		tree := &ml.DecisionTree{
			NFeat: 2, Feature: []int{0, -1, 1, -1, -1}, Threshold: []float64{200, 0, 500, 0, 0},
			Left: []int{1, -1, 3, -1, -1}, Right: []int{2, -1, 4, -1, -1}, Value: []float64{0, 0.2, 0, 0.5, 0.9},
		}
		if err := db.StoreModel("pts_model", &ml.Pipeline{Final: tree, InputColumns: []string{"f", "ts"}}); err != nil {
			t.Fatal(err)
		}
	}
	loadPruneRows(t, 0, 12*pruneSegRows+40, dur, mem) // 12 segments and a 40-row tail

	check := func(stage string) {
		t.Helper()
		pruned := dur.Stats().Storage.SegmentsPruned
		for _, c := range pruneCases {
			for _, dop := range []int{1, 2, 8} {
				opts := DefaultQueryOptions()
				opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = dop, 1, 16
				run := func(db *DB) string {
					rows, err := db.QueryContextParams(context.Background(), c.q, opts, c.params...)
					if err != nil {
						t.Fatalf("%s: %s: %v", stage, c.name, err)
					}
					return rowsFingerprint(t, c.q, rows)
				}
				if want, got := run(mem), run(dur); got != want {
					t.Errorf("%s: %s at DOP %d: durable engine differs from the in-memory twin\nwant:\n%s\ngot:\n%s", stage, c.name, dop, want, got)
				}
			}
		}
		if dur.Stats().Storage.SegmentsPruned == pruned {
			t.Fatalf("%s: the matrix pruned no segment", stage)
		}
	}
	check("live")

	// The first checkpoint seals the 40-row tail; the second seals ten
	// more rows beside it and folds the two undersized segments into one.
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs := dur.Stats().Storage.Segments
	loadPruneRows(t, 12*pruneSegRows+40, 12*pruneSegRows+50, dur, mem)
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := dur.Stats().Storage.Segments; got != segs {
		t.Fatalf("checkpoint did not compact: %d segments before, %d after", segs, got)
	}
	check("compacted")

	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur = openPruneDurable(t, dir)
	check("reopened")

	loadPruneRows(t, 12*pruneSegRows+50, 12*pruneSegRows+70, dur, mem)
	if err := dur.Abort(); err != nil {
		t.Fatal(err)
	}
	dur = openPruneDurable(t, dir)
	defer dur.Close()
	check("recovered after an unclean stop")
}

// TestWindowScanReadsTwoSegments loads the benchmark's window shape —
// 300K events rows in 4,000-row inserts over a 16,384-row seal
// threshold, a prepared ts window over 5% of them — and requires each
// window to read at most two of the sealed segments.
func TestWindowScanReadsTwoSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 300K rows")
	}
	db, err := Open(WithDataDir(t.TempDir()), WithFsync("off"), WithSegmentRows(16384))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE events (id INT PRIMARY KEY, ts INT, v0 FLOAT, v1 FLOAT, v2 FLOAT, v3 FLOAT)`); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Catalog().Table("events")
	if err != nil {
		t.Fatal(err)
	}
	const rows, chunk, window = 300_000, 4000, 300_000 / 20
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < rows; lo += chunk {
		b := types.NewBatch(tb.Schema())
		for i := lo; i < lo+chunk; i++ {
			if err := b.AppendRow(int64(i), int64(i), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Prepare(`SELECT COUNT(*) AS n, AVG(e.v0) AS a FROM events AS e WHERE e.ts >= @a AND e.ts < @b`)
	if err != nil {
		t.Fatal(err)
	}
	segs := db.Stats().Storage.Segments
	for _, hi := range []int{rows, rows - 7777, rows / 2, window} {
		before := db.Stats().Storage
		res, err := collect(st.Query(P("a", strconv.Itoa(hi-window)), P("b", strconv.Itoa(hi))))
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Batch.Vecs[0].Value(0); n != int64(window) {
			t.Fatalf("window ending at %d counted %v rows, want %d", hi, n, window)
		}
		after := db.Stats().Storage
		read, pruned := after.SegmentsScanned-before.SegmentsScanned, after.SegmentsPruned-before.SegmentsPruned
		if read > 2 || read+pruned != uint64(segs) {
			t.Errorf("window ending at %d read %d and pruned %d of %d segments", hi, read, pruned, segs)
		}
	}
}

func collect(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// TestPrunedWindowUnderConcurrentCheckpoints runs a pruned window query in
// a loop while a writer appends and checkpoints (sealing, compacting and
// retiring the segments the reader's spans were computed over): every
// answer must equal the closed form for the rows below the acknowledged
// frontier. Run it with -race.
func TestPrunedWindowUnderConcurrentCheckpoints(t *testing.T) {
	db, err := Open(WithDataDir(t.TempDir()), WithFsync("off"), WithSegmentRows(pruneSegRows))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`CREATE TABLE w (id INT, ts INT)`); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Catalog().Table("w")
	if err != nil {
		t.Fatal(err)
	}
	var frontier atomic.Int64
	appendRows := func(lo, hi int) error {
		b := types.NewBatch(tb.Schema())
		for i := lo; i < hi; i++ {
			if err := b.AppendRow(int64(i), int64(i)); err != nil {
				return err
			}
		}
		if err := tb.AppendBatch(b); err != nil {
			return err
		}
		frontier.Store(int64(hi))
		return nil
	}
	if err := appendRows(0, 4*pruneSegRows); err != nil {
		t.Fatal(err)
	}
	// The writer takes one step per answered read, so reads interleave
	// with appends, seals and compactions instead of trailing them.
	var wg sync.WaitGroup
	read, stop, done := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	wg.Add(1)
	defer wg.Wait() // before the deferred Close, on every exit
	defer close(stop)
	go func() {
		defer wg.Done()
		defer close(done)
		const batch = 40 // not a multiple of the seal threshold: tails vary
		for k := 0; k < 60; k++ {
			select {
			case <-read:
			case <-stop:
				return
			}
			lo := int(frontier.Load())
			if err := appendRows(lo, lo+batch); err != nil {
				t.Error(err)
				return
			}
			if k%7 == 3 {
				if err := db.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	opts := DefaultQueryOptions()
	opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = 2, 1, 16
	q := `SELECT COUNT(*) AS c, SUM(ts) AS s FROM w WHERE ts >= @a AND ts < @b`
	rng := rand.New(rand.NewSource(7))
	for {
		select {
		case <-done:
			return
		case read <- struct{}{}:
		default:
		}
		f := int(frontier.Load())
		lo := rng.Intn(f)
		hi := lo + rng.Intn(f-lo) + 1
		res, err := collect(db.QueryContextParams(context.Background(), q, opts, P("a", strconv.Itoa(lo)), P("b", strconv.Itoa(hi))))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(res.Batch.Row(0))
		if want := fmt.Sprint([]any{hi - lo, float64((hi - lo) * (hi + lo - 1) / 2)}); got != want {
			t.Fatalf("window [%d,%d): (count, sum) = %s, want %s", lo, hi, got, want)
		}
	}
}

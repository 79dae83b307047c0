package raven

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"raven/internal/expr"
	"raven/internal/types"
)

// narrowRows are the rows of the narrowing matrix's tables, in key order:
//   - nk(id, k, v): id runs of three equal even keys (0,0,0,2,2,2,...), k
//     the row number — two sorted INT columns;
//   - hi53(id, k): sorted ids ending exactly at 2^53, a whole segment's
//     worth of them equal to it;
//   - lo53(id, k): the mirror, starting exactly at -2^53;
//   - ooo(id, k): nk's shape, then one row whose id goes back;
//   - nul(id, k): nk's shape with NULL ids in the middle.
//
// A NULL id is written as nullKey.
func narrowRows(table string, n int) [][]int64 {
	const p53 = int64(1) << 53
	var rows [][]int64
	for i := range int64(n) {
		switch table {
		case "nk", "ooo", "nul":
			id := 2 * (i / 3)
			if table == "nul" && i%50 == 49 {
				id = nullKey
			}
			rows = append(rows, []int64{id, i})
		case "hi53":
			rows = append(rows, []int64{min(p53-int64(n)/2+i, p53), i})
		case "lo53":
			rows = append(rows, []int64{max(-p53-int64(n)/2+i, -p53), i})
		}
	}
	if table == "ooo" {
		rows = append(rows, []int64{7, int64(n)})
	}
	return rows
}

const nullKey = -1 << 62

var narrowTables = []string{"nk", "hi53", "lo53", "ooo", "nul"}

// loadNarrow appends rows to table on db in segment-sized batches, so a
// durable engine seals at narrowSegRows boundaries. nk also carries a
// FLOAT column v = k/4.
func loadNarrow(t *testing.T, db *DB, table string, rows [][]int64) {
	t.Helper()
	tb, err := db.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(rows); lo += narrowSegRows {
		b := types.NewBatch(tb.Schema())
		for _, r := range rows[lo:min(lo+narrowSegRows, len(rows))] {
			vals := []any{r[0], r[1]}
			if table == "nk" {
				vals = append(vals, float64(r[1])/4)
			}
			if err := b.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
			if r[0] == nullKey {
				b.Vecs[0].SetNull(b.Len() - 1)
			}
		}
		if err := tb.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

const narrowSegRows = 64

// openNarrow creates the matrix tables on db and loads rows [0, n) of
// each, in key order or shuffled.
func openNarrow(t *testing.T, db *DB, n int, shuffle bool) *DB {
	t.Helper()
	for _, name := range narrowTables {
		cols := "id INT, k INT"
		if name == "nk" {
			cols += ", v FLOAT"
		}
		if err := db.Exec(`CREATE TABLE ` + name + ` (` + cols + `)`); err != nil {
			t.Fatal(err)
		}
		rows := narrowRows(name, n)
		if shuffle {
			rand.New(rand.NewSource(int64(len(name)))).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		loadNarrow(t, db, name, rows)
	}
	return db
}

// narrowCases is the matrix: every comparison shape DeriveRanges reads, on
// a sorted key with duplicate runs, at and past both ends, with FLOAT
// literals on the INT key, and with bounds at ±2^53±1 — where a float64
// bound no longer names one integer.
var narrowCases = []struct {
	name   string
	q      string
	params []Param
}{
	{"=", `SELECT * FROM nk WHERE id = 40`, nil},
	{"= a whole duplicate run at a morsel edge", `SELECT * FROM nk WHERE id = 10`, nil},
	{"= between keys", `SELECT * FROM nk WHERE id = 41`, nil},
	{"<", `SELECT * FROM nk WHERE id < 40`, nil},
	{"<=", `SELECT * FROM nk WHERE id <= 40`, nil},
	{">", `SELECT * FROM nk WHERE id > 300`, nil},
	{">=", `SELECT * FROM nk WHERE id >= 300`, nil},
	{"two-sided", `SELECT id, k FROM nk WHERE id >= 100 AND id < 160`, nil},
	{"two sorted columns", `SELECT id, k FROM nk WHERE id >= 100 AND k < 200 AND k > 160`, nil},
	{"sorted and unsorted column", `SELECT id, k FROM nk WHERE id >= 100 AND v < 50`, nil},
	{"empty", `SELECT * FROM nk WHERE id > 160 AND id < 100`, nil},
	{"past the low end", `SELECT * FROM nk WHERE id < -5`, nil},
	{"past the high end", `SELECT * FROM nk WHERE id > 100000`, nil},
	{"around both ends", `SELECT COUNT(*) AS c, SUM(k) AS s FROM nk WHERE id >= -100 AND id <= 100000`, nil},
	{"FLOAT equality on the INT key", `SELECT * FROM nk WHERE id = 5.5`, nil},
	{"FLOAT bounds on the INT key", `SELECT * FROM nk WHERE id > 39.5 AND id <= 60.25`, nil},
	{"prepared bounds", `SELECT id, k FROM nk WHERE id >= @a AND id < @b`, []Param{P("a", "50"), P("b", "90")}},
	{"prepared FLOAT bound", `SELECT id, k FROM nk WHERE id < @a`, []Param{P("a", "20.5")}},
	{"< 2^53+1 on small keys", `SELECT COUNT(*) AS c FROM nk WHERE id < 9007199254740993`, nil},
	{"> -2^53-1 on small keys", `SELECT COUNT(*) AS c FROM nk WHERE id > -9007199254740993`, nil},
	{">= 2^53-1 on small keys", `SELECT COUNT(*) AS c FROM nk WHERE id >= 9007199254740991`, nil},
	{"< 2^53+1 ending at 2^53", `SELECT * FROM hi53 WHERE id < 9007199254740993`, nil},
	{"<= 2^53-1 ending at 2^53", `SELECT * FROM hi53 WHERE id <= 9007199254740991`, nil},
	{"> 2^53-1 ending at 2^53", `SELECT * FROM hi53 WHERE id > 9007199254740991`, nil},
	{"= 2^53", `SELECT * FROM hi53 WHERE id = 9007199254740992`, nil},
	{">= 2^53+1", `SELECT * FROM hi53 WHERE id >= 9007199254740993`, nil},
	{"> -2^53-1 starting at -2^53", `SELECT * FROM lo53 WHERE id > -9007199254740993`, nil},
	{">= -2^53+1 starting at -2^53", `SELECT * FROM lo53 WHERE id >= -9007199254740991`, nil},
	{"< -2^53+1 starting at -2^53", `SELECT * FROM lo53 WHERE id < -9007199254740991`, nil},
	{"after an out-of-order append", `SELECT * FROM ooo WHERE id >= 4 AND id <= 10`, nil},
	{"NULL keys", `SELECT * FROM nul WHERE id >= 30 AND id < 40`, nil},
	{"NULL keys, one side", `SELECT COUNT(*) AS c FROM nul WHERE id > 100`, nil},
	{"JOIN of two narrowed scans", `SELECT a.id, a.k, b.k FROM nk AS a JOIN ooo AS b ON a.k = b.k WHERE a.id >= 20 AND a.id < 40 AND b.id < 30`, nil},
}

// sortedFingerprint is rowsFingerprint with the rows in sorted order: the
// twin holds the same rows in another order.
func sortedFingerprint(t *testing.T, q string, rows *Rows) string {
	lines := strings.Split(rowsFingerprint(t, q, rows), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkNarrowMatrix runs every matrix query on db and on its shuffled twin
// at DOP 1, 2 and 8 and two morsel sizes; the rows must be byte-identical.
func checkNarrowMatrix(t *testing.T, stage string, db, twin *DB) {
	t.Helper()
	for _, c := range narrowCases {
		for _, dop := range []int{1, 2, 8} {
			for _, morsel := range []int{16, 0} {
				opts := DefaultQueryOptions()
				opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = dop, 1, morsel
				run := func(db *DB) string {
					rows, err := db.QueryContextParams(context.Background(), c.q, opts, c.params...)
					if err != nil {
						t.Fatalf("%s: %s: %v", stage, c.name, err)
					}
					return sortedFingerprint(t, c.q, rows)
				}
				if want, got := run(twin), run(db); got != want {
					t.Errorf("%s: %s at DOP %d, morsel %d: sorted table differs from its shuffled twin\nwant:\n%s\ngot:\n%s", stage, c.name, dop, morsel, want, got)
				}
			}
		}
	}
}

// tailRows is how many tail rows Spans leaves a scan of table under
// ranges to read.
func tailRows(t *testing.T, db *DB, table string, ranges map[string]expr.Range) int {
	t.Helper()
	tb, err := db.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	_, sealed := tb.Segments()
	n := 0
	for _, sp := range tb.Spans(ranges) {
		n += max(sp.Hi-max(sp.Lo, sealed), 0)
	}
	return n
}

// TestNarrowedScansMatchShuffledTwin is the exact-aggregation invariant for
// scan narrowing: a table whose key is sorted — so scans binary-search it —
// returns the same rows as a twin holding them shuffled, where they cannot.
func TestNarrowedScansMatchShuffledTwin(t *testing.T) {
	const n = 600
	db, twin := openNarrow(t, MustOpen(), n, false), openNarrow(t, MustOpen(), n, true)
	checkNarrowMatrix(t, "in memory", db, twin)

	// The whole equal run comes back, and only it; a flag that flipped off
	// reads the table whole.
	id := func(lo, hi float64) map[string]expr.Range { return map[string]expr.Range{"id": {Lo: lo, Hi: hi}} }
	for _, tc := range []struct {
		table  string
		ranges map[string]expr.Range
		want   int
	}{
		{"nk", id(40, 40), 3},
		{"nk", id(39, 41.5), 3},
		{"nk", map[string]expr.Range{"id": {Lo: 100, Hi: 300}, "k": {Lo: 160, Hi: 170}}, 11},
		{"hi53", id(0, 9007199254740991), n},
		{"ooo", id(40, 40), n + 1},
		{"nul", id(40, 40), n},
	} {
		if got := tailRows(t, db, tc.table, tc.ranges); got != tc.want {
			t.Errorf("%s under %v: reads %d tail rows, want %d", tc.table, tc.ranges, got, tc.want)
		}
	}
}

// TestNarrowedDurableScansMatchShuffledTwin runs the matrix on a durable
// engine — sealed segments plus a sorted tail — live, after a checkpoint
// that seals the tail and compacts, with more rows appended after it, and
// after reopening, where WAL replay rebuilds the tail's sortedness.
func TestNarrowedDurableScansMatchShuffledTwin(t *testing.T) {
	const n = 600
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(WithDataDir(dir), WithFsync("off"), WithSegmentRows(narrowSegRows))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dur, twin := openNarrow(t, open(), n, false), openNarrow(t, MustOpen(), n, true)
	checkNarrowMatrix(t, "live", dur, twin)

	// more appends nk's rows [lo, hi) to both engines; the key keeps rising.
	more := func(lo, hi int) {
		loadNarrow(t, dur, "nk", narrowRows("nk", hi)[lo:])
		loadNarrow(t, twin, "nk", narrowRows("nk", hi)[lo:])
	}
	// oneKey requires the tail to hold key 2·(hi-1)/3's whole run of three.
	oneKey := func(stage string, hi int) {
		t.Helper()
		key := float64(2 * ((hi - 1) / 3))
		if got := tailRows(t, dur, "nk", map[string]expr.Range{"id": {Lo: key, Hi: key}}); got != 3 {
			t.Errorf("%s: the sorted tail reads %d rows for key %v, want 3", stage, got, key)
		}
	}

	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more(n, n+20)
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more(n+20, n+30)
	checkNarrowMatrix(t, "compacted", dur, twin)
	oneKey("compacted", n+30)

	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur = open()
	more(n+30, n+42)
	checkNarrowMatrix(t, "reopened", dur, twin)
	oneKey("reopened", n+42)

	if err := dur.Abort(); err != nil {
		t.Fatal(err)
	}
	dur = open()
	defer dur.Close()
	checkNarrowMatrix(t, "recovered after an unclean stop", dur, twin)
	oneKey("recovered after an unclean stop", n+42)
}

// TestNarrowedScanUnderConcurrentAppends runs a narrowed window query in a
// loop while a writer appends ascending keys and, now and then, rows that
// break the tail's order (a key below every window, a NULL key): every
// answer must equal the closed form for the keys below the acknowledged
// frontier. Run it with -race.
func TestNarrowedScanUnderConcurrentAppends(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE w (id INT, ts INT)`); err != nil {
		t.Fatal(err)
	}
	tb, err := db.Catalog().Table("w")
	if err != nil {
		t.Fatal(err)
	}
	var frontier atomic.Int64
	appendRows := func(lo, hi int, stray bool) error {
		b := types.NewBatch(tb.Schema())
		for i := lo; i < hi; i++ {
			if err := b.AppendRow(int64(i), int64(i)); err != nil {
				return err
			}
		}
		if stray {
			if err := b.AppendRow(int64(-1), int64(0)); err != nil {
				return err
			}
			if err := b.AppendRow(int64(0), int64(0)); err != nil {
				return err
			}
			b.Vecs[0].SetNull(b.Len() - 1)
		}
		if err := tb.AppendBatch(b); err != nil {
			return err
		}
		frontier.Store(int64(hi))
		return nil
	}
	if err := appendRows(0, 256, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	read, stop, done := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	wg.Add(1)
	defer wg.Wait()
	defer close(stop)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < 60; k++ {
			select {
			case <-read:
			case <-stop:
				return
			}
			lo := int(frontier.Load())
			if err := appendRows(lo, lo+40, k == 30); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	opts := DefaultQueryOptions()
	opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = 2, 1, 16
	q := `SELECT COUNT(*) AS c, SUM(ts) AS s FROM w WHERE id >= @a AND id < @b`
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

package raven

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/train"
)

// lifetimeModel is the reference a lifetime script checks the engine
// against: each live table's rows in order, and each model's hash.
type lifetimeModel struct {
	rows   map[string][]int64
	gen    map[string]int // bumped at every create of a name
	models map[string]string
}

// heldHandle is a *Table taken from the catalog and kept across later
// steps; it may write only while its generation of the name is live.
type heldHandle struct {
	name string
	gen  int
	tb   *storage.Table
}

func tableRows(t *testing.T, tb *storage.Table) []int64 {
	t.Helper()
	b, err := tb.ScanRange(0, tb.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, b.Len())
	for i := range out {
		out[i] = b.Vecs[0].IntAt(i)
	}
	return out
}

// checkLifetime compares the engine with the reference: no table or
// model the reference lacks, and no row or model missing or moved.
func checkLifetime(t *testing.T, db *DB, ref *lifetimeModel, step string) {
	t.Helper()
	var names []string
	for name := range ref.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	if got := db.Catalog().TableNames(); !slices.Equal(got, names) {
		t.Fatalf("%s: tables %v, want %v", step, got, names)
	}
	for _, name := range names {
		tb, err := db.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tableRows(t, tb); !slices.Equal(got, ref.rows[name]) {
			t.Fatalf("%s: table %s holds %v, want %v", step, name, got, ref.rows[name])
		}
	}
	for _, name := range []string{"m1", "m2"} {
		m, err := db.Catalog().Models.Latest(name)
		if want, ok := ref.models[name]; ok != (err == nil) || ok && m.Hash != want {
			t.Fatalf("%s: model %s = %v, %v; want hash %q (stored: %v)", step, name, m, err, want, ok)
		}
	}
}

// lifetimePipeline fits a small tree whose bytes differ with k.
func lifetimePipeline(t *testing.T, k int) *ml.Pipeline {
	const n = 16
	feats, ys := make([]float64, n), make([]float64, n)
	for i := range n {
		feats[i], ys[i] = float64(i), float64(i*k)
	}
	xs, err := ml.NewMatrix(feats, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &ml.Pipeline{
		Final:        train.FitTree(xs, ys, train.TreeOptions{MaxDepth: 3, MinLeaf: 2}),
		InputColumns: []string{"id"},
	}
}

// TestLifetimeScript runs seeded scripts of table and model lifetimes on
// a durable engine: CREATE, INSERT, appends through *Table handles held
// across DROP and re-create, model stores, checkpoints (which compact),
// and unclean (Abort) and clean (Close) reopens. After every reopen, and
// at the end, Open has succeeded and the engine equals the reference: no
// additions, no gaps.
func TestLifetimeScript(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			db := openDurableEngine(t, dir)
			defer func() { db.Close() }()
			ref := &lifetimeModel{rows: map[string][]int64{}, gen: map[string]int{}, models: map[string]string{}}
			var handles []heldHandle
			next := int64(0)
			expect := func(step string, err error, ok bool) {
				t.Helper()
				if (err == nil) != ok {
					t.Fatalf("%s: err = %v, want success %v", step, err, ok)
				}
			}
			for i := range 150 {
				name := []string{"a", "b", "c"}[rng.Intn(3)]
				_, live := ref.rows[name]
				switch op := rng.Intn(10); op {
				case 0, 1:
					step := fmt.Sprintf("step %d: create %s", i, name)
					expect(step, db.Exec(fmt.Sprintf("CREATE TABLE %s (id INT)", name)), !live)
					if !live {
						ref.rows[name] = []int64{}
						ref.gen[name]++
					}
				case 2, 3:
					var vals []string
					var ids []int64
					for range 1 + rng.Intn(40) {
						vals, ids = append(vals, fmt.Sprintf("(%d)", next)), append(ids, next)
						next++
					}
					step := fmt.Sprintf("step %d: insert %d rows into %s", i, len(ids), name)
					expect(step, db.Exec(fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", "))), live)
					if live {
						ref.rows[name] = append(ref.rows[name], ids...)
					}
				case 4:
					if tb, err := db.Catalog().Table(name); err == nil {
						handles = append(handles, heldHandle{name, ref.gen[name], tb})
					}
				case 5:
					if len(handles) == 0 {
						continue
					}
					h := handles[rng.Intn(len(handles))]
					_, hLive := ref.rows[h.name]
					hLive = hLive && ref.gen[h.name] == h.gen
					expect(fmt.Sprintf("step %d: append %d through a held %s (live %v)", i, next, h.name, hLive), h.tb.AppendRow(next), hLive)
					if hLive {
						ref.rows[h.name] = append(ref.rows[h.name], next)
					}
					next++
				case 6:
					expect(fmt.Sprintf("step %d: drop %s", i, name), db.Exec("DROP TABLE "+name), live)
					delete(ref.rows, name)
				case 7:
					m := []string{"m1", "m2"}[rng.Intn(2)]
					if err := db.StoreModel(m, lifetimePipeline(t, i)); err != nil {
						t.Fatal(err)
					}
					sm, err := db.Catalog().Models.Latest(m)
					if err != nil {
						t.Fatal(err)
					}
					ref.models[m] = sm.Hash
				case 8:
					if err := db.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case 9:
					stop := db.Abort
					if rng.Intn(2) == 0 {
						stop = db.Close
					}
					if err := stop(); err != nil {
						t.Fatal(err)
					}
					db, handles = openDurableEngine(t, dir), nil
					checkLifetime(t, db, ref, fmt.Sprintf("step %d: reopen", i))
				}
			}
			checkLifetime(t, db, ref, "end")
			if err := db.Abort(); err != nil {
				t.Fatal(err)
			}
			db = openDurableEngine(t, dir)
			checkLifetime(t, db, ref, "final reopen")
		})
	}
}

// TestLifetimeInsertVsDrop races single-row INSERTs against a DDL loop
// that creates and drops their target, then creates it a last time. It
// checks only what holds under any interleaving. Writers read epoch
// before and after each INSERT; it turns odd when a CREATE begins and
// even once the DROP after it has returned, and last reads final. So:
// every INSERT begun in the final epoch is in the final table (an
// acknowledged write to a live table survives); every row there was
// acknowledged in the final epoch (no row reaches a table created after
// its write was acknowledged); and the table reads the same after an
// unclean stop and reopen.
func TestLifetimeInsertVsDrop(t *testing.T) {
	const rounds, writers = 20, 2
	const final = 2*rounds + 1
	dir := t.TempDir()
	db := openDurableEngine(t, dir)
	var epoch atomic.Int64
	type ack struct{ id, e0, e1 int64 }
	acks := make([][]ack, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			insert := func(i int) {
				id := int64(w*1_000_000 + i)
				e0 := epoch.Load()
				if db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", id)) == nil {
					acks[w] = append(acks[w], ack{id, e0, epoch.Load()})
				}
			}
			i := 0
			for ; ; i++ {
				select {
				case <-stop:
					for j := range 5 {
						insert(i + j)
					}
					return
				default:
					insert(i)
				}
			}
		}()
	}
	for g := int64(1); g <= rounds; g++ {
		epoch.Store(2*g - 1)
		if err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // let the writers find it live
		if err := db.Exec("DROP TABLE t"); err != nil {
			t.Fatal(err)
		}
		epoch.Store(2 * g)
	}
	epoch.Store(final)
	if err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	tb, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	live := tableRows(t, tb)
	have := make(map[int64]bool, len(live))
	for _, id := range live {
		have[id] = true
	}
	inFinal := map[int64]bool{}
	for _, as := range acks {
		for _, a := range as {
			inFinal[a.id] = a.e1 == final
			if a.e0 == final && !have[a.id] {
				t.Errorf("row %d, acknowledged in the final epoch, is missing", a.id)
			}
		}
	}
	for _, id := range live {
		if !inFinal[id] {
			t.Errorf("row %d reached the final table but was not acknowledged after it was created", id)
		}
	}
	if len(have) != len(live) {
		t.Errorf("the final table holds duplicate rows: %d rows, %d distinct", len(live), len(have))
	}

	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
	db = openDurableEngine(t, dir)
	defer db.Close()
	tb, err = db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tableRows(t, tb); !slices.Equal(got, live) {
		t.Errorf("after reopen t holds %d rows, before the stop %d", len(got), len(live))
	}
}

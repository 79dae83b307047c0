package raven

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// funnelCall is one public entry point bound to a statement, options and
// parameter values.
type funnelCall func(ctx context.Context) (*Rows, error)

// funnelEntries are the three public ways into DB.run. The ad-hoc surface
// takes no parameters, so a statement with an @param fails there in the
// binder — an error exit like any other. A Stmt is prepared when bound,
// as a client would; a failed Prepare surfaces from the call.
var funnelEntries = []struct {
	name string
	bind func(db *DB, q string, opts QueryOptions, params ...Param) funnelCall
}{
	{"QueryContextWithOptions", func(db *DB, q string, opts QueryOptions, _ ...Param) funnelCall {
		return func(ctx context.Context) (*Rows, error) {
			return db.QueryContextWithOptions(ctx, q, opts)
		}
	}},
	{"QueryContextParams", func(db *DB, q string, opts QueryOptions, params ...Param) funnelCall {
		return func(ctx context.Context) (*Rows, error) {
			return db.QueryContextParams(ctx, q, opts, params...)
		}
	}},
	{"Stmt.QueryContext", func(db *DB, q string, opts QueryOptions, params ...Param) funnelCall {
		st, err := db.PrepareWithOptions(q, opts)
		return func(ctx context.Context) (*Rows, error) {
			if err != nil {
				return nil, err
			}
			return st.QueryContext(ctx, params...)
		}
	}},
}

const (
	funnelPlain = `SELECT d.id, p.s FROM PREDICT(MODEL='risk', DATA=pts AS d) WITH (s FLOAT) AS p WHERE d.age > 40`
	funnelParam = `SELECT d.id, p.s FROM PREDICT(MODEL='risk', DATA=pts AS d) WITH (s FLOAT) AS p WHERE d.age > @lo`
)

// funnelDB is a one-slot engine with a result cache: a slot that is not
// returned starves the very next admission.
func funnelDB(t *testing.T, queue int) *DB {
	t.Helper()
	db := MustOpen(WithResultCache(1<<20), WithParallelism(1),
		WithMaxConcurrentQueries(1), WithSchedulerQueue(queue, 5*time.Second))
	var ins strings.Builder
	ins.WriteString(`CREATE TABLE pts (id INT PRIMARY KEY, age FLOAT); INSERT INTO pts VALUES (0, 0.0)`)
	for i := 1; i < 100; i++ {
		fmt.Fprintf(&ins, ", (%d, %d.0)", i, i)
	}
	if err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	if err := db.StoreModel("risk", lrPipeline(0.01)); err != nil {
		t.Fatal(err)
	}
	return db
}

// funnelDrain reads a result to its end and renders rows and applied
// rules, so two results compare byte for byte.
func funnelDrain(t *testing.T, rows *Rows, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < res.Batch.Len(); i++ {
		fmt.Fprintln(&sb, res.Batch.Row(i)...)
	}
	return sb.String() + strings.Join(res.AppliedRules, ",")
}

// TestFunnelExitPaths drives every way out of DB.run through each public
// entry point and checks, after each, that the admission slot came back,
// that no result-cache flight is left for an identical call to wedge
// behind, and that the three entry points agree on the answer.
func TestFunnelExitPaths(t *testing.T) {
	bg := context.Background()
	mustFail := func(t *testing.T, rows *Rows, err error, want error) {
		t.Helper()
		if err == nil {
			rows.Close()
			t.Fatal("call succeeded, want an error")
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
	failsOnce := func(t *testing.T, _ *DB, call funnelCall) {
		rows, err := call(bg)
		mustFail(t, rows, err, nil)
	}
	scenarios := []struct {
		name   string
		queue  int
		q      string
		params []Param
		// act takes one exit path; the statement still answers afterwards
		// unless fails is set.
		act   func(t *testing.T, db *DB, call funnelCall)
		fails bool
	}{
		{name: "result-cache hit", q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			rows, err := call(bg)
			first := funnelDrain(t, rows, err)
			admitted := db.Scheduler().Stats().Admitted
			rows, err = call(bg)
			if again := funnelDrain(t, rows, err); again != first {
				t.Fatalf("hit differs from the result it cached:\n%s\nvs\n%s", again, first)
			}
			if rc := db.Stats().ResultCache; rc.Hits != 1 || db.Scheduler().Stats().Admitted != admitted {
				t.Fatalf("second call was not an admission-free hit: %+v", rc)
			}
		}},
		{name: "leader drained", q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			rows, err := call(bg)
			funnelDrain(t, rows, err)
			if rc := db.Stats().ResultCache; rc.Misses != 1 || rc.Entries != 1 {
				t.Fatalf("drained leader did not commit: %+v", rc)
			}
		}},
		{name: "leader closed early", q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			rows, err := call(bg)
			if err != nil || !rows.Next() {
				t.Fatalf("no first row: %v", err)
			}
			rows.Close()
			if rc := db.Stats().ResultCache; rc.Entries != 0 {
				t.Fatalf("a partial result was cached: %+v", rc)
			}
		}},
		{name: "waiter whose leader fails", queue: 4, q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			leader, err := call(bg)
			if err != nil {
				t.Fatal(err)
			}
			waiter := make(chan error, 1)
			calling := make(chan struct{})
			go func() {
				ctx, cancel := context.WithTimeout(bg, 10*time.Second)
				defer cancel()
				close(calling)
				rows, err := call(ctx)
				if err == nil {
					_, err = rows.Collect()
				}
				waiter <- err
			}()
			<-calling
			leader.Close() // undrained: the flight is cancelled, not committed
			if err := <-waiter; err != nil {
				t.Fatalf("waiter behind a failed leader: %v", err)
			}
		}},
		{name: "admission rejected", q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			held, err := db.QueryContext(ContextWithoutResultCache(bg), `SELECT id FROM pts`)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := call(bg)
			mustFail(t, rows, err, ErrQueueFull)
			held.Close()
		}},
		{name: "compile error", q: funnelPlain, fails: true, act: func(t *testing.T, db *DB, call funnelCall) {
			if err := db.Exec(`DROP TABLE pts`); err != nil {
				t.Fatal(err)
			}
			rows, err := call(bg)
			mustFail(t, rows, err, nil)
		}},
		{name: "missing param", q: funnelParam, fails: true, act: failsOnce},
		{name: "unknown param", q: funnelParam, fails: true, params: []Param{P("lo", "40"), P("nope", "1")},
			act: failsOnce},
		{name: "duplicate param", q: funnelParam, fails: true, params: []Param{P("lo", "40"), P("lo", "50")},
			act: failsOnce},
		{name: "ctx cancelled waiting on a flight", queue: 4, q: funnelPlain, act: func(t *testing.T, db *DB, call funnelCall) {
			leader, err := call(bg)
			if err != nil {
				t.Fatal(err)
			}
			// A context that is already done takes the waiter's ctx branch
			// deterministically: the leader's flight is open and stays open.
			ctx, cancel := context.WithCancel(bg)
			cancel()
			rows, err := call(ctx)
			mustFail(t, rows, err, context.Canceled)
			funnelDrain(t, leader, nil)
		}},
	}

	want := ""
	for _, sc := range scenarios {
		for _, e := range funnelEntries {
			t.Run(sc.name+"/"+e.name, func(t *testing.T) {
				db := funnelDB(t, sc.queue)
				opts := DefaultQueryOptions()
				sc.act(t, db, e.bind(db, sc.q, opts, sc.params...))

				if st := db.Scheduler().Stats(); st.Active != 0 || st.Waiting != 0 || st.SlotsInUse != 0 {
					t.Fatalf("admission not returned: active %d, waiting %d, slots %d", st.Active, st.Waiting, st.SlotsInUse)
				}
				// An identical call must come back — promptly, from a fresh
				// flight or the cache — rather than wait on a flight nobody
				// will settle, and must hold nothing when it does.
				ctx, cancel := context.WithTimeout(bg, 10*time.Second)
				defer cancel()
				rows, err := e.bind(db, sc.q, opts, sc.params...)(ctx)
				if sc.fails {
					mustFail(t, rows, err, nil)
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("identical call wedged: %v", err)
					}
				} else if got := funnelDrain(t, rows, err); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("rows or applied rules differ from the other entry points:\n%s\nvs\n%s", got, want)
				}
				if st := db.Scheduler().Stats(); st.Active != 0 || st.Waiting != 0 {
					t.Fatalf("identical call left admission held: %+v", st)
				}
			})
		}
	}
	if !strings.Contains(want, "\n") || strings.HasSuffix(want, "\n") {
		t.Fatalf("the reference answer has no rows or no applied rules: %q", want)
	}

	// Bound parameters change none of it: the two parameterized surfaces
	// answer @lo = 40 exactly as every surface answers the literal.
	for _, e := range funnelEntries[1:] {
		db := funnelDB(t, 0)
		rows, err := e.bind(db, funnelParam, DefaultQueryOptions(), P("lo", "40"))(bg)
		if got := funnelDrain(t, rows, err); got != want {
			t.Errorf("%s with @lo=40 differs from the literal query:\n%s\nvs\n%s", e.name, got, want)
		}
	}
}

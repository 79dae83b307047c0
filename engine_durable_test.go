package raven

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"raven/internal/ml"
	"raven/internal/train"
)

// openDurableEngine opens a durable engine on dir with small segments
// so a few hundred rows span sealed segments plus a live tail.
func openDurableEngine(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(
		WithDataDir(dir),
		WithFsync("off"), // crash here is process death, not power loss
		WithSegmentRows(64),
		WithParallelism(1),
	)
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	return db
}

// queryFingerprint renders a query's full result deterministically.
func queryFingerprint(t *testing.T, db *DB, q string) string {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	defer rows.Close()
	cols := rows.Columns()
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var sb strings.Builder
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatalf("scan %q: %v", q, err)
		}
		for i, v := range vals {
			if i > 0 {
				sb.WriteByte('\t')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows %q: %v", q, err)
	}
	return sb.String()
}

// TestEngineCrashRecoveryFingerprints is the engine-level half of the
// crash-recovery suite: after an abrupt close (no checkpoint, no sync —
// the WAL tail is all recovery has), scans and PREDICT answer
// byte-identically to the pre-crash engine, and again after a clean
// checkpointed restart, when every row is read from a sealed segment.
// An in-memory engine over identical data is the reference for all of
// them.
func TestEngineCrashRecoveryFingerprints(t *testing.T) {
	dir := t.TempDir()
	db := openDurableEngine(t, dir)
	mem := MustOpen(WithParallelism(1))

	// Several statements so earlier rows seal into segments (64/segment)
	// while the last land in the WAL-backed tail.
	const rowsN = 300
	const chunk = 100
	for _, e := range []*DB{db, mem} {
		if err := e.Exec(`CREATE TABLE eng_pts (id INT, x FLOAT, y FLOAT)`); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rowsN; lo += chunk {
			var ins strings.Builder
			ins.WriteString("INSERT INTO eng_pts VALUES ")
			for i := lo; i < lo+chunk; i++ {
				if i > lo {
					ins.WriteString(", ")
				}
				fmt.Fprintf(&ins, "(%d, %g, %g)", i, float64(i)*0.5, float64(i%7))
			}
			if err := e.Exec(ins.String()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A stored model, so PREDICT exercises model-store recovery too.
	const n = 64
	feats := make([]float64, 0, n*2)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := float64(i)*0.5, float64(i%7)
		feats = append(feats, x0, x1)
		ys[i] = x0 + 2*x1
	}
	xs, err := ml.NewMatrix(feats, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	pipe := &ml.Pipeline{
		Final:        train.FitTree(xs, ys, train.TreeOptions{MaxDepth: 4, MinLeaf: 4}),
		InputColumns: []string{"x", "y"},
	}
	for _, e := range []*DB{db, mem} {
		if err := e.StoreModel("eng_model", pipe); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`SELECT COUNT(*) AS n FROM eng_pts`,
		`SELECT id, x, y FROM eng_pts WHERE id >= 60 AND id < 80`,
		`SELECT d.id, p.score FROM PREDICT(MODEL='eng_model',
			DATA=(SELECT * FROM eng_pts) AS d) WITH (score FLOAT) AS p WHERE d.id < 16`,
		`SELECT id, x, y FROM eng_pts WHERE id < 300 AND y < 4 ORDER BY y DESC, x DESC LIMIT 50`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = queryFingerprint(t, mem, q)
		if want[i] == "" {
			t.Fatalf("query %d produced no rows on the in-memory reference", i)
		}
		if got := queryFingerprint(t, db, q); got != want[i] {
			t.Errorf("query %d: durable engine diverges from the in-memory reference pre-crash:\nwant:\n%s\ngot:\n%s", i, want[i], got)
		}
	}

	// Crash: no checkpoint, no final sync.
	if err := db.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	db = openDurableEngine(t, dir)
	st := db.Stats().Storage
	if st == nil {
		t.Fatal("recovered engine reports no storage stats")
	}
	if st.Segments == 0 || st.SealedRows == 0 {
		t.Fatalf("recovered engine attached no segments: %+v", st)
	}
	for i, q := range queries {
		if got := queryFingerprint(t, db, q); got != want[i] {
			t.Errorf("query %d diverged after crash recovery:\nwant:\n%s\ngot:\n%s", i, want[i], got)
		}
	}

	// Post-recovery writes must still work and persist across a clean
	// checkpointed restart together with everything recovered.
	if err := db.Exec(fmt.Sprintf(`INSERT INTO eng_pts VALUES (%d, %g, %g)`, rowsN, float64(rowsN)*0.5, float64(rowsN%7))); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	wantCount := queryFingerprint(t, db, queries[0])
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db = openDurableEngine(t, dir)
	defer db.Close()
	if st := db.Stats().Storage; st == nil || st.WalRecords != 0 {
		t.Fatalf("restart after checkpoint should replay an empty log, got %+v", st)
	}
	if got := queryFingerprint(t, db, queries[0]); got != wantCount {
		t.Errorf("count diverged after checkpointed restart: want %q got %q", wantCount, got)
	}
	for i, q := range queries[1:] {
		if got := queryFingerprint(t, db, q); got != want[i+1] {
			t.Errorf("query %d diverged after checkpointed restart", i+1)
		}
	}
}

package raven

import (
	"fmt"
	"testing"
)

// TestScalarAggregateOverNoRows: a scalar aggregate over no rows is one
// row, COUNT 0 and SUM, AVG, MIN and MAX NULL, whether a filter removed
// every row or the table has none — in memory and after a durable reopen,
// at DOP 1, 2 and 8. A GROUP BY over no rows stays empty.
func TestScalarAggregateOverNoRows(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(WithDataDir(dir), WithFsync("off"))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dur, mem := open(), MustOpen()
	for _, db := range []*DB{dur, mem} {
		for _, s := range []string{
			`CREATE TABLE t (a INT, x FLOAT)`,
			`CREATE TABLE e (a INT, x FLOAT)`,
			`INSERT INTO t VALUES (1, 0.5), (2, 1.5), (5, 2.5)`,
		} {
			if err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	dur = open()
	defer dur.Close()
	const empty = "[[0 <nil> <nil> <nil> <nil>]]"
	for _, c := range []struct{ q, want string }{
		{`SELECT COUNT(*) AS n, SUM(t.x) AS s, AVG(t.x) AS m, MIN(t.x) AS lo, MAX(t.a) AS hi FROM t WHERE t.a > 5`, empty},
		{`SELECT COUNT(*) AS n, SUM(e.x) AS s, AVG(e.x) AS m, MIN(e.x) AS lo, MAX(e.a) AS hi FROM e`, empty},
		{`SELECT t.a, COUNT(*) AS n FROM t WHERE t.a > 5 GROUP BY t.a`, "[]"},
		{`SELECT COUNT(*) AS n, SUM(t.x) AS s, AVG(t.x) AS m, MIN(t.x) AS lo, MAX(t.a) AS hi FROM t WHERE t.a > 1`, "[[2 4 2 1.5 5]]"},
	} {
		for name, db := range map[string]*DB{"in memory": mem, "reopened": dur} {
			for _, dop := range []int{1, 2, 8} {
				res, err := db.QueryWithOptions(c.q, QueryOptions{Parallelism: dop, ParallelThresholdRows: 1})
				if err != nil {
					t.Fatal(err)
				}
				got := []string{}
				for i := 0; i < res.Batch.Len(); i++ {
					got = append(got, fmt.Sprint(res.Batch.Row(i)))
				}
				if s := fmt.Sprint(got); s != c.want {
					t.Errorf("%s, DOP %d: %s\n= %s, want %s", name, dop, c.q, s, c.want)
				}
			}
		}
	}
}

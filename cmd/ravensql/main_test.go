package main

import (
	"strings"
	"testing"
)

// TestScriptStatements drives scripts the way main does: a script that
// creates and fills a table and then selects from it runs as one query
// script, and a `;` inside a string literal ends no statement. Under
// -explain the same kind of group runs its DDL and INSERTs, then
// explains the SELECT with the DECLARE it reads.
func TestScriptStatements(t *testing.T) {
	db, err := setup(200, 1, 0, "", "always", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct {
		script  string
		explain bool
		want    string
	}{
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT a FROM t;", false, "-- 2 rows in"},
		{"SELECT a FROM t WHERE 'a;b' = 'a;b';", false, "-- 2 rows in"},
		{"CREATE TABLE u (a INT, s VARCHAR); DECLARE @s = 'x'; INSERT INTO u VALUES (1, 'y'); SELECT a FROM u WHERE s <> @s;", true, "== optimized IR"},
		{"SELECT a FROM u;", false, "-- 1 rows in"},
	} {
		var out strings.Builder
		if err := runScript(&out, db, c.script, c.explain, 0, 0); err != nil {
			t.Fatalf("%q: %v", c.script, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%q printed %q, want %q", c.script, out.String(), c.want)
		}
	}
}

package main

import (
	"strings"
	"testing"
)

// TestScriptStatements drives scripts the way main does: a script that
// creates and fills a table and then selects from it runs as one query
// script, and a `;` inside a string literal ends no statement.
func TestScriptStatements(t *testing.T) {
	db, err := setup(200, 1, 0, "", "always", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, script := range []string{
		"CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT a FROM t;",
		"SELECT a FROM t WHERE 'a;b' = 'a;b';",
	} {
		var out strings.Builder
		if err := runScript(&out, db, script, false, 0, 0); err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		if !strings.Contains(out.String(), "-- 2 rows in") {
			t.Errorf("%q printed %q, want the two rows of t", script, out.String())
		}
	}
}

package raven

import (
	"strings"
	"testing"
)

// TestInsertLiteralTypeMismatches pins down literalValue's error behavior
// for every mismatched (literal, column type) combination.
func TestInsertLiteralTypeMismatches(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE typed (i INT, f FLOAT, s VARCHAR(8), b BIT)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label, insert, wantErr string
	}{
		{"string into INT", `INSERT INTO typed VALUES ('x', 1.0, 'ok', TRUE)`, "string value"},
		{"string into FLOAT", `INSERT INTO typed VALUES (1, 'x', 'ok', TRUE)`, "string value"},
		{"bool into INT", `INSERT INTO typed VALUES (TRUE, 1.0, 'ok', TRUE)`, "bool value"},
		{"bool into FLOAT", `INSERT INTO typed VALUES (1, FALSE, 'ok', TRUE)`, "bool value"},
		{"number into VARCHAR", `INSERT INTO typed VALUES (1, 1.0, 2.5, TRUE)`, "numeric value"},
		{"string into BIT", `INSERT INTO typed VALUES (1, 1.0, 'ok', 'yes')`, "string value"},
	}
	for _, tc := range cases {
		err := db.Exec(tc.insert)
		if err == nil {
			t.Errorf("%s: insert succeeded, want error", tc.label)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.wantErr)
		}
		// Error messages name the table and column for debuggability.
		if !strings.Contains(err.Error(), "typed") {
			t.Errorf("%s: error %q does not name the table", tc.label, err)
		}
	}
	// Numeric coercions that are allowed: int into FLOAT, float into INT
	// (truncating), numeric into BIT.
	if err := db.Exec(`INSERT INTO typed VALUES (2.9, 3, 'ok', 1)`); err != nil {
		t.Fatalf("valid coercing insert failed: %v", err)
	}
	res, err := db.QueryWithOptions(`SELECT i, f, b FROM typed`, QueryOptions{CrossOptimize: false})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Batch
	if out.Len() != 1 || out.Col("i").Ints[0] != 2 || out.Col("f").Floats[0] != 3.0 || !out.Col("b").Bools[0] {
		t.Errorf("coercions wrong: %v", out)
	}
	// No mismatched row may have been half-applied.
	if n := out.Len(); n != 1 {
		t.Errorf("table has %d rows after failed inserts, want 1", n)
	}
}

func TestInsertArityMismatch(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`CREATE TABLE two (a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	for _, ins := range []string{
		`INSERT INTO two VALUES (1)`,
		`INSERT INTO two VALUES (1, 2, 3)`,
	} {
		err := db.Exec(ins)
		if err == nil {
			t.Errorf("%s: want arity error", ins)
			continue
		}
		if !strings.Contains(err.Error(), "columns") {
			t.Errorf("%s: unhelpful arity error %q", ins, err)
		}
	}
	// A multi-row insert failing on a later row must not apply the earlier
	// rows of the same statement half-way and then error confusingly:
	// current semantics are row-at-a-time, so the valid first row lands.
	err := db.Exec(`INSERT INTO two VALUES (1, 2), (3, 'x')`)
	if err == nil {
		t.Fatal("mixed-validity insert should fail")
	}
	res, err := db.QueryWithOptions(`SELECT a FROM two`, QueryOptions{CrossOptimize: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Len() != 1 {
		t.Errorf("expected exactly the valid row to land, got %d rows", res.Batch.Len())
	}
}

// TestExecScriptFailsMidway documents multi-statement script semantics:
// statements execute in order, the first failure stops the script, and
// earlier statements' effects persist (no script-level rollback).
func TestExecScriptFailsMidway(t *testing.T) {
	db := MustOpen()
	err := db.Exec(`CREATE TABLE kept (a INT);
		INSERT INTO kept VALUES (7);
		INSERT INTO kept VALUES ('boom');
		CREATE TABLE never (b INT)`)
	if err == nil {
		t.Fatal("script with a bad insert should fail")
	}
	if !strings.Contains(err.Error(), "kept") {
		t.Errorf("error %q does not name the failing table", err)
	}
	// Earlier statements applied...
	res, qerr := db.QueryWithOptions(`SELECT a FROM kept`, QueryOptions{CrossOptimize: false})
	if qerr != nil || res.Batch.Len() != 1 || res.Batch.Col("a").Ints[0] != 7 {
		t.Errorf("statements before the failure should persist: %v %v", res, qerr)
	}
	// ...later ones never ran.
	if _, err := db.Catalog().Table("never"); err == nil {
		t.Error("statements after the failure must not run")
	}
	// Same mid-script stop inside a Query call's side-effecting prefix.
	_, err = db.Query(`CREATE TABLE q1 (x INT); INSERT INTO q1 VALUES ('bad'); SELECT x FROM q1`)
	if err == nil {
		t.Fatal("Query script with failing insert should fail")
	}
	if _, err := db.Catalog().Table("q1"); err != nil {
		t.Error("CREATE before the failing INSERT should persist")
	}
}

// TestExecUnsupportedAndMissing covers the remaining Exec error paths.
func TestExecUnsupportedAndMissing(t *testing.T) {
	db := MustOpen()
	if err := db.Exec(`INSERT INTO ghost VALUES (1)`); err == nil {
		t.Error("insert into missing table should fail")
	}
	if err := db.Exec(`DROP TABLE ghost`); err == nil {
		t.Error("dropping a missing table should fail")
	}
	if err := db.Exec(`CREATE TABLE dup (a INT)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`CREATE TABLE dup (a INT)`); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
}

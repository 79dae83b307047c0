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

// runningExample is the paper's running example (Fig 1) as a script.
const runningExample = `
DECLARE @model = 'duration_of_stay';
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN blood_tests AS bt ON pi.id = bt.id
  JOIN prenatal_tests AS pt ON bt.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay FLOAT) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 0.5;`

// explainScript runs script under -explain over a 500-row demo engine.
func explainScript(t *testing.T, script string) string {
	t.Helper()
	db, err := setup(500, 1, 0, "", "always", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var out strings.Builder
	if err := runScript(&out, db, script, true, 0, 0); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestRunningExampleShowsSelectionPushdown: the running example filters on
// d.pregnant, a data column, so the report must name the rule that moved
// that conjunct below PREDICT and show it on the scan it reached.
func TestRunningExampleShowsSelectionPushdown(t *testing.T) {
	out := explainScript(t, runningExample)
	rules := out[strings.Index(out, "== optimized IR (rules: "):]
	if !strings.Contains(strings.SplitN(rules, "\n", 2)[0], "selection-pushdown") {
		t.Errorf("rule list does not name selection-pushdown:\n%s", out)
	}
	if !strings.Contains(out, "--             Filter((pregnant = 1))\n--               Scan(patient_info") {
		t.Errorf("regenerated SQL does not show the filter on the patient_info scan:\n%s", out)
	}
	// The optimized IR is the tree that runs, not one line per fragment.
	if !strings.Contains(out, "          [RA/db] RA:Filter((pregnant = 1))\n            [RA/db] RA:Scan(patient_info, cols=[") {
		t.Errorf("optimized IR does not show the pushed filter and the narrowed scan:\n%s", out)
	}
}

// TestTopKQueryShowsBoundedSort: ORDER BY directly under LIMIT runs as a
// bounded sort, and the report has to say so where the sort is printed.
func TestTopKQueryShowsBoundedSort(t *testing.T) {
	out := explainScript(t, `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay', DATA=(SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) WITH (score FLOAT) AS p ORDER BY p.score DESC, d.id LIMIT 100;`)
	if !strings.Contains(out, "Limit(100)\n  Sort(score DESC, id; top 100)\n") {
		t.Errorf("logical plan does not show the bounded sort:\n%s", out)
	}
	if !strings.Contains(out, "[RA/db] RA:Limit(100)\n  [RA/db] RA:Sort(score DESC, id; top 100)\n") {
		t.Errorf("optimized IR does not show the bounded sort:\n%s", out)
	}
	if !strings.Contains(out, "--   Limit(100)\n--     Sort(score DESC, id; top 100)\n") {
		t.Errorf("regenerated SQL does not show the bounded sort:\n%s", out)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunningExampleShowsSelectionPushdown: the running example filters on
// d.pregnant, a data column, so the report must name the rule that moved
// that conjunct below PREDICT and show it on the scan it reached.
func TestRunningExampleShowsSelectionPushdown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rows", "500"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	out := stdout.String()
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
	q := `SELECT d.id, p.score FROM PREDICT(MODEL='duration_of_stay', DATA=(SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) WITH (score FLOAT) AS p ORDER BY p.score DESC, d.id LIMIT 100`
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rows", "500", "-query", q}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	out := stdout.String()
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

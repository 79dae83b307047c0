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
	if !strings.Contains(out, "--       Filter((pregnant = 1))\n--         Scan(patient_info") {
		t.Errorf("regenerated SQL does not show the filter on the patient_info scan:\n%s", out)
	}
}

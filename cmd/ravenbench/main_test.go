package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownIDs: an id that is not in the table (misspelt,
// or retired) must not select nothing and exit 0 — a stale invocation in
// a script would pass silently. It is a usage error that names the valid
// ids, raised before any experiment runs.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	for _, only := range []string{"Fig2A", "ParallelBreakers", "Fig2a,ServeConcurrency", ","} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-only", only}, &stdout, &stderr); code != 2 {
			t.Errorf("-only %s: exit status %d, want 2", only, code)
		}
		if stdout.Len() != 0 || strings.Contains(stderr.String(), "running") {
			t.Errorf("-only %s ran an experiment:\n%s%s", only, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), experimentIDs()) {
			t.Errorf("-only %s: error does not list the valid ids: %s", only, stderr.String())
		}
	}
}

// TestOnlyHelpListsEveryExperiment pins the help text to the table.
func TestOnlyHelpListsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit status %d, want 0", code)
	}
	for _, e := range experiments {
		if !strings.Contains(stderr.String(), e.id) {
			t.Errorf("help text omits experiment %s:\n%s", e.id, stderr.String())
		}
	}
}

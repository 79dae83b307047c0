package sql

import (
	"slices"
	"testing"
)

func TestClassifyScript(t *testing.T) {
	const (
		side  = ScriptSideEffectsOnly
		read  = ScriptReadOnly
		mixed = ScriptMixed
	)
	cases := []struct {
		script string
		want   ScriptClass
	}{
		{"", side},
		{" \n\t ", side},
		{";;", side},
		{"SELECT 1", read},
		{"select a from t", read},
		{"SeLeCt a FROM t;", read},
		{"  \n\tSELECT a FROM t", read},
		{"SELECT\n1", read},
		{"WITH c AS (SELECT 1 AS a) SELECT a FROM c", read},
		{"DECLARE @x INT = 1; SELECT @x", read},
		{"declare @x int = 1;\nselect @x", read},
		{"DECLARE @x INT = 1", side},
		{"SELECT 1;; ;SELECT 2", read},
		{"CREATE TABLE t (a INT); INSERT INTO t VALUES (1)", side},
		{"CREATE TABLE selector (a INT)", side},
		{"INSERT INTO t VALUES ('SELECT 1')", side},
		{"INSERT INTO t VALUES ('a; SELECT 1')", side},
		{"INSERT INTO t VALUES ('it''s; SELECT 1')", side},
		{"INSERT INTO t VALUES (1) -- ; SELECT 1", side},
		{"INSERT INTO t VALUES (1); SELECT a FROM t", mixed},
		{"INSERT\nINTO t VALUES (1); SELECT a FROM t", mixed},
		{"CREATE\tTABLE t (a INT); SELECT 1", mixed},
		{"create table t (a int);select 1", mixed},
		{"-- load\nINSERT INTO t VALUES (1); SELECT a FROM t", mixed},
		{"SELECT 1; DROP TABLE t", mixed},
		{"DELETE FROM t; SELECT 1", mixed},
		{"(SELECT 1)", side},
		{"SELECT 'x; INSERT INTO t VALUES (1)' AS s", read},
		{"SELECT 1 -- ; DROP TABLE t", read},
		{"SELECT1", side},
		{"SELECT 'unterminated; DROP TABLE t", read},
	}
	for _, c := range cases {
		if got := ClassifyScript(c.script); got != c.want {
			t.Errorf("ClassifyScript(%q) = %d, want %d", c.script, got, c.want)
		}
	}
	script := "INSERT INTO t VALUES (1, 'x'); -- c\nSELECT a FROM t WHERE s = 'y;z'"
	if n := testing.AllocsPerRun(100, func() { ClassifyScript(script) }); n != 0 {
		t.Errorf("ClassifyScript allocates %.0f times per call, want 0", n)
	}
}

// TestSplitStatements: the splitter cuts where ClassifyScript sees a
// boundary, so a `;` inside a literal or a comment splits nothing.
func TestSplitStatements(t *testing.T) {
	cases := []struct {
		script string
		want   []string
	}{
		{"", nil},
		{" ;\n; -- only a comment\n", nil},
		{"SELECT 1", []string{"SELECT 1"}},
		{"CREATE TABLE t (a INT); SELECT a FROM t;", []string{"CREATE TABLE t (a INT)", " SELECT a FROM t"}},
		{"SELECT a FROM t WHERE 'a;b' = 'a;b';", []string{"SELECT a FROM t WHERE 'a;b' = 'a;b'"}},
		{"SELECT 1 -- x; y\n; SELECT 2", []string{"SELECT 1 -- x; y\n", " SELECT 2"}},
		{"INSERT INTO t VALUES ('it''s; here')", []string{"INSERT INTO t VALUES ('it''s; here')"}},
	}
	for _, c := range cases {
		if got := SplitStatements(c.script); !slices.Equal(got, c.want) {
			t.Errorf("SplitStatements(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTablePrintAndMarkdown(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", PaperShape: "shape"}
	tb.Add("a", "1K", 10*time.Millisecond, "note1")
	tb.Add("b", "1K", 5*time.Millisecond, "")
	tb.Add("a", "10K", 100*time.Millisecond, "")
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	for _, want := range []string{"X: demo", "paper: shape", "1K", "10K", "note1"} {
		if !strings.Contains(out, want) {
			t.Errorf("print missing %q:\n%s", want, out)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| 1K |") || !strings.Contains(md, "10.00 ms") {
		t.Errorf("markdown:\n%s", md)
	}
	if sp := tb.Speedup("a", "b", "1K"); sp != 2 {
		t.Errorf("Speedup = %v", sp)
	}
	if sp := tb.Speedup("a", "b", "nope"); sp != 0 {
		t.Errorf("missing param speedup = %v", sp)
	}
}

func TestTimeHelper(t *testing.T) {
	calls := 0
	d, err := Time(2, 3, func() error { calls++; return nil })
	if err != nil || calls != 5 || d < 0 {
		t.Errorf("Time: %v %v %d", d, err, calls)
	}
	if _, err := Time(0, 1, func() error { return errTest }); err == nil {
		t.Error("error should propagate")
	}
	calls = 0
	if d, err := Fastest(1, 3, func() error { calls++; return nil }); err != nil || calls != 4 || d < 0 {
		t.Errorf("Fastest: %v %v %d", d, err, calls)
	}
	if _, err := Fastest(0, 3, func() error { return errTest }); err == nil {
		t.Error("Fastest: error should propagate")
	}
}

var errTest = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestFmtRows(t *testing.T) {
	cases := map[int]string{100: "100", 1000: "1K", 300000: "300K", 1000000: "1M", 2500: "2500"}
	for n, want := range cases {
		if got := FmtRows(n); got != want {
			t.Errorf("FmtRows(%d) = %q, want %q", n, got, want)
		}
	}
}

// Smoke-run every experiment at quick scale: shapes must hold directionally
// and nothing may error.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig()

	t.Run("Fig2a", func(t *testing.T) {
		tb, err := Fig2a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) < 4 {
			t.Fatalf("rows = %d", len(tb.Rows))
		}
		// optimized must beat baseline for the sparser model
		var sped bool
		for _, r := range tb.Rows {
			if r.Series == "projection pushdown" && strings.Contains(r.Note, "speedup") {
				sped = true
			}
		}
		if !sped {
			t.Error("no speedup recorded")
		}
	})

	t.Run("Fig2b", func(t *testing.T) {
		tb, err := Fig2b(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, clustered := 0.0, 0.0
		for _, r := range tb.Rows {
			if r.Param == "k=1" {
				base = r.Millis
			}
			if r.Param == "k=4" {
				clustered = r.Millis
			}
		}
		if base == 0 || clustered == 0 {
			t.Fatalf("missing rows: %+v", tb.Rows)
		}
		if clustered > base {
			t.Errorf("clustering slowed inference down: %v -> %v ms", base, clustered)
		}
	})

	t.Run("Fig2c", func(t *testing.T) {
		tb, err := Fig2c(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// inlined must beat external sklearn-sim at the largest size
		params := map[string]bool{}
		for _, r := range tb.Rows {
			params[r.Param] = true
		}
		last := ""
		for _, r := range tb.Rows {
			last = r.Param
		}
		if sp := tb.Speedup("sklearn-sim from DB", "inlined CASE", last); sp < 2 {
			t.Errorf("inlining speedup at %s = %.2fx, want >= 2x", last, sp)
		}
	})

	t.Run("Fig2d", func(t *testing.T) {
		tb, err := Fig2d(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) < 6 {
			t.Fatalf("rows = %d", len(tb.Rows))
		}
	})

	t.Run("Fig3", func(t *testing.T) {
		tb, err := Fig3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Raven Ext must carry the external startup constant.
		for _, r := range tb.Rows {
			if r.Series == "Raven Ext" && r.Millis < 400 {
				t.Errorf("Raven Ext lost its startup constant: %.1fms", r.Millis)
			}
		}
	})

	t.Run("PredicatePruning", func(t *testing.T) {
		tb, err := PredicatePruning(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sp := tb.Speedup("original", "pruned", "LR one-hot (dest=42)"); sp < 1.5 {
			t.Errorf("LR pruning speedup = %.2fx, want >= 1.5x", sp)
		}
	})

	t.Run("BatchVsTuple", func(t *testing.T) {
		tb, err := BatchVsTuple(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b4096 float64
		for _, r := range tb.Rows {
			if r.Param == "batch=1" {
				b1 = r.Millis
			}
			if r.Param == "batch=4096" {
				b4096 = r.Millis
			}
		}
		if raceEnabled {
			t.Skip("race instrumentation skews the per-batch overhead ratio")
		}
		if b1 < 4*b4096 {
			t.Errorf("batching gain too small: batch=1 %.1fms vs batch=4096 %.1fms", b1, b4096)
		}
	})

	t.Run("StaticAnalysis", func(t *testing.T) {
		tb, err := StaticAnalysis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !raceEnabled && tb.Rows[0].Millis > 10 {
			t.Errorf("static analysis took %.2fms, paper claims <10ms", tb.Rows[0].Millis)
		}
	})

	t.Run("RunningExample", func(t *testing.T) {
		tb, err := RunningExample(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sp := tb.Speedup("no optimization (external)", "Raven optimized", "Fig1 query"); sp < 2 {
			t.Errorf("running example speedup = %.2fx, want >= 2x", sp)
		}
	})
}

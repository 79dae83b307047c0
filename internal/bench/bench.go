// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§4 and §5). Each experiment builds its
// workload, trains the models the paper trains, runs baseline and
// optimized variants over warm runs, and reports series shaped like the
// paper's plots. cmd/ravenbench prints them; bench_test.go exposes each as
// a testing.B benchmark.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Row is one measured point of an experiment.
type Row struct {
	Series string // e.g. "RF (sklearn-sim)" or "Raven"
	Param  string // x-axis value, e.g. "100K rows" or "k=8"
	Millis float64
	Note   string
}

// Table is one figure/table reproduction.
type Table struct {
	ID    string // e.g. "Fig2a"
	Title string
	Rows  []Row
	// PaperShape describes what the paper reports, for side-by-side
	// reading in EXPERIMENTS.md.
	PaperShape string
}

// Add appends a measurement.
func (t *Table) Add(series, param string, d time.Duration, note string) {
	t.Rows = append(t.Rows, Row{Series: series, Param: param, Millis: float64(d.Microseconds()) / 1000, Note: note})
}

// AddMillis appends a measurement already in milliseconds (used for
// simulated-time series).
func (t *Table) AddMillis(series, param string, ms float64, note string) {
	t.Rows = append(t.Rows, Row{Series: series, Param: param, Millis: ms, Note: note})
}

// Speedup returns rowA/rowB times for matching params (series a vs b).
func (t *Table) Speedup(a, b, param string) float64 {
	var am, bm float64
	for _, r := range t.Rows {
		if r.Param != param {
			continue
		}
		if r.Series == a {
			am = r.Millis
		}
		if r.Series == b {
			bm = r.Millis
		}
	}
	if bm == 0 {
		return 0
	}
	return am / bm
}

// Print renders the table with params as rows and series as columns,
// mirroring the paper's figures.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperShape != "" {
		fmt.Fprintf(w, "paper: %s\n", t.PaperShape)
	}
	// collect ordered params and series
	var params, series []string
	seenP, seenS := map[string]bool{}, map[string]bool{}
	for _, r := range t.Rows {
		if !seenP[r.Param] {
			seenP[r.Param] = true
			params = append(params, r.Param)
		}
		if !seenS[r.Series] {
			seenS[r.Series] = true
			series = append(series, r.Series)
		}
	}
	cell := make(map[string]map[string]Row)
	for _, r := range t.Rows {
		if cell[r.Param] == nil {
			cell[r.Param] = map[string]Row{}
		}
		cell[r.Param][r.Series] = r
	}
	w1 := 12
	for _, p := range params {
		if len(p) > w1 {
			w1 = len(p)
		}
	}
	wc := 18
	for _, s := range series {
		if n := len(s) + 2; n > wc {
			wc = n
		}
	}
	fmt.Fprintf(w, "%-*s", w1+2, "")
	for _, s := range series {
		fmt.Fprintf(w, "%*s", wc, s)
	}
	fmt.Fprintln(w)
	for _, p := range params {
		fmt.Fprintf(w, "%-*s", w1+2, p)
		for _, s := range series {
			if r, ok := cell[p][s]; ok {
				fmt.Fprintf(w, "%*.2fms", wc-2, r.Millis)
			} else {
				fmt.Fprintf(w, "%*s", wc, "-")
			}
		}
		fmt.Fprintln(w)
	}
	// notes, deduplicated
	var notes []string
	seenN := map[string]bool{}
	for _, r := range t.Rows {
		if r.Note != "" && !seenN[r.Note] {
			seenN[r.Note] = true
			notes = append(notes, r.Note)
		}
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavoured markdown table (used to
// regenerate EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.PaperShape != "" {
		fmt.Fprintf(&sb, "*Paper:* %s\n\n", t.PaperShape)
	}
	var params, series []string
	seenP, seenS := map[string]bool{}, map[string]bool{}
	for _, r := range t.Rows {
		if !seenP[r.Param] {
			seenP[r.Param] = true
			params = append(params, r.Param)
		}
		if !seenS[r.Series] {
			seenS[r.Series] = true
			series = append(series, r.Series)
		}
	}
	cell := make(map[string]map[string]Row)
	for _, r := range t.Rows {
		if cell[r.Param] == nil {
			cell[r.Param] = map[string]Row{}
		}
		cell[r.Param][r.Series] = r
	}
	sb.WriteString("| |")
	for _, s := range series {
		sb.WriteString(" " + s + " |")
	}
	sb.WriteString("\n|---|")
	for range series {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, p := range params {
		sb.WriteString("| " + p + " |")
		for _, s := range series {
			if r, ok := cell[p][s]; ok {
				fmt.Fprintf(&sb, " %.2f ms |", r.Millis)
			} else {
				sb.WriteString(" - |")
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\n")
	return sb.String()
}

// Time runs fn warm+measured times and returns the mean of the measured
// runs (the paper reports averages over multiple warm runs).
func Time(warm, runs int, fn func() error) (time.Duration, error) {
	for i := 0; i < warm; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	if runs == 0 {
		return 0, nil
	}
	return total / time.Duration(runs), nil
}

// FmtRows formats a row count like the paper's x axes (1K, 100K, 1M).
func FmtRows(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

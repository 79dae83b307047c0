package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span or -1 for the operation's
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Shape  string `json:"shape,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced pass replays operations sequentially.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// medianUS is the median duration in microseconds of all spans named name.
func (t *tracer) medianUS(name string) float64 {
	var vals []float64
	for _, s := range t.spans {
		if s.Name == name {
			vals = append(vals, float64(s.End-s.Start)/1e3)
		}
	}
	return median(vals)
}

// childCoverage returns, over all root spans, the median share of the
// root's duration covered by its direct children.
func (t *tracer) childCoverage() float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var shares []float64
	for i, s := range t.spans {
		if s.Parent < 0 && s.End > s.Start {
			shares = append(shares, float64(child[i])/float64(s.End-s.Start))
		}
	}
	return median(shares)
}

// selfTimes sums, per span name, duration minus the part covered by
// direct children, in microseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e3
	}
	return out
}

type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Ops        int                `json:"ops"`
	SelfTimeUS map[string]float64 `json:"self_time_us_total"`
	Spans      []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ops := map[int]bool{}
	for _, s := range t.spans {
		ops[s.Op] = true
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Ops: len(ops), SelfTimeUS: t.selfTimes(), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

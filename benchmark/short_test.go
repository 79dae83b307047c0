package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// shortConfig is the smoke configuration: a tenth of the data, a
// two-second window, one set-up, traced.
func shortConfig(t *testing.T) *config {
	t.Helper()
	p, err := newPaths()
	if err != nil {
		t.Fatal(err)
	}
	build, err := p.buildChildren()
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		seed: 1, window: 2 * time.Second, warm: 300 * time.Millisecond, traced: 2 * time.Second, trace: true,
		scale: 10, setups: 1, nproc: runtime.NumCPU(), paths: p, buildS: build.Seconds(),
	}
}

// TestShortRun runs every workload end to end at smoke size: child
// spawn, load over the wire, both front ends, SIGKILL and recovery, the
// traced pass. It asserts that no operation failed and that every named
// metric is present and finite; it asserts nothing about speed.
func TestShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers and measures for seconds")
	}
	cfg := shortConfig(t)
	for _, name := range workloadNames {
		res, err := runWorkload(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.ErrorRate != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			v, ok := res.E2E[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present: %v)", name, m.name, v, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := res.Layer[m.name]
			if !ok || v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
				t.Errorf("%s: per-layer metric %s missing or not finite", name, m.name)
			}
		}
		if res.ChildCoverage < 0.85 || res.ChildCoverage > 1.0001 {
			t.Errorf("%s: child spans cover %.2f of the root span, want within 15%%", name, res.ChildCoverage)
		}
		var tf traceFile
		b, err := os.ReadFile(filepath.Join(cfg.paths.out, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &tf); err != nil || tf.Ops == 0 || len(tf.Spans) == 0 {
			t.Errorf("%s: trace file has %d ops, %d spans (%v)", name, tf.Ops, len(tf.Spans), err)
		}
		var line struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: contract line: correct=%v attempted=%d metrics=%d", name, line.Correct, line.Attempted, len(line.Metrics))
		}
	}
}

// TestOracleIsLive corrupts one reference answer and expects the run to
// count failed operations: the answer check is not decorative.
func TestOracleIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("measures for seconds")
	}
	cfg := shortConfig(t)
	cfg.trace, cfg.traced, cfg.window = false, 0, time.Second
	r, err := setupBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.(*batchRig).want[shJoinAgg].sum[1] *= 1.001
	res, err := measure(cfg, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.ErrorRate == 0 || res.E2E["success_ratio"] >= 1 {
		t.Errorf("corrupted oracle went unnoticed: failed=%d error_rate=%v", res.Failed, res.ErrorRate)
	}
	if res.Failed >= res.Attempted {
		t.Errorf("one corrupted shape failed %d of %d operations", res.Failed, res.Attempted)
	}
}

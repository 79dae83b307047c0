package main

import "testing"

func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a := scheduleFor(w, 1, 1).hash()
		if b := scheduleFor(w, 1, 1).hash(); a != b {
			t.Errorf("%s: same seed gave schedules %s and %s", w, a, b)
		}
		if c := scheduleFor(w, 2, 1).hash(); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule %s", w, a)
		}
	}
}

func TestServeWorkloadsShareTheSchedule(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := scheduleFor(wlHTTP, seed, 1).hash(), scheduleFor(wlPG, seed, 1).hash(); a != b {
			t.Errorf("seed %d: serve_http runs %s, serve_pgwire runs %s", seed, a, b)
		}
	}
}

// shares returns the percentage of each shape in ops.
func shares(ops []op, shapes int) []float64 {
	count := make([]float64, shapes)
	for _, o := range ops {
		count[o.shape]++
	}
	for i := range count {
		count[i] *= 100 / float64(len(ops))
	}
	return count
}

func TestShapeWeights(t *testing.T) {
	near := func(name string, got []float64, want []float64) {
		t.Helper()
		for i := range want {
			if d := got[i] - want[i]; d < -1 || d > 1 {
				t.Errorf("%s: shape %d is %.2f%% of the schedule, want %.0f%% +-1", name, i, got[i], want[i])
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		near(wlBatch, shares(batchSchedule(seed)[0], len(batchShapes)), []float64{20, 20, 20, 20, 20})
		for _, conn := range serveSchedule(seed, 20_000, 2) {
			near(wlHTTP, shares(conn, len(serveShapes)), []float64{80, 4, 8, 8})
		}
		s := ingestSchedule(seed, 300_000)
		near(wlIngest+" writer", shares(s[0], len(ingestShapes)), []float64{100, 0, 0})
		near(wlIngest+" reader", shares(s[1], len(ingestShapes)), []float64{0, 50, 50})
	}
}

func TestServeScheduleNeverRepeatsAColdKey(t *testing.T) {
	s := serveSchedule(1, 20_000, 2)
	hot := map[int64]bool{}
	cold := map[int64]int{}
	lits := map[int64]bool{}
	for _, conn := range s {
		// One pass over the cold id space is 19,744 cold ops; the first
		// 100,000 ops of both connections together stay inside it.
		for _, o := range conn[:50_000] {
			switch o.shape {
			case shHot:
				hot[o.a] = true
			case shCold:
				cold[o.a]++
			case shAdhoc:
				if lits[o.a] {
					t.Fatalf("ad-hoc literal %d repeats", o.a)
				}
				lits[o.a] = true
			}
		}
	}
	if len(hot) > hotKeys {
		t.Errorf("%d distinct hot keys, want at most %d", len(hot), hotKeys)
	}
	for id, n := range cold {
		if n > 1 || hot[id] {
			t.Fatalf("cold id %d: used %d times, in hot set: %v", id, n, hot[id])
		}
	}
}

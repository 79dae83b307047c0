package main

import (
	"reflect"
	"testing"
	"time"
)

func TestChooseSlices(t *testing.T) {
	quiet, loud := 0.0002, 0.3
	cases := []struct {
		name  string
		steal []float64
		want  []int
	}{
		{"too few yet", []float64{quiet, quiet, quiet, quiet}, nil},
		{"quiet host closes at the nominal window", []float64{quiet, quiet, quiet, quiet, quiet}, []int{0, 1, 2, 3, 4}},
		{"a disturbed sub-window is waited out", []float64{quiet, loud, quiet, quiet, quiet}, nil},
		{"and replaced by the next quiet one", []float64{quiet, loud, quiet, quiet, quiet, quiet}, []int{0, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		if got := chooseSlices(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: chose %v, want %v", c.name, got, c.want)
		}
	}
	// A host that never settles: after maxSlices the least disturbed are used.
	steal := make([]float64, maxSlices)
	for i := range steal {
		steal[i] = loud + float64(i)/100
	}
	steal[3], steal[9] = quiet, 0.02
	if got, want := chooseSlices(steal), []int{0, 1, 2, 3, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("unsettled host: chose %v, want %v", got, want)
	}
	if got := chooseSlices(steal[:maxSlices-1]); got != nil {
		t.Errorf("unsettled host: closed after %d sub-windows with %v", maxSlices-1, got)
	}
}

func TestSummarizeUsesOnlyChosenSlices(t *testing.T) {
	const sliceLen = time.Second
	var all []sample
	add := func(slice int, lat time.Duration, n int) {
		for i := 0; i < n; i++ {
			all = append(all, sample{ok: true, end: time.Duration(slice)*sliceLen + time.Duration(i+1)*time.Millisecond, latency: lat})
		}
	}
	for k := 0; k < 6; k++ {
		add(k, time.Millisecond, 100)
	}
	add(1, 50*time.Millisecond, 400) // the disturbed sub-window
	all = append(all, sample{ok: false, end: 2 * sliceLen, latency: time.Millisecond})
	all = append(all, sample{ok: true, end: 6*sliceLen + 1, latency: time.Millisecond}) // after the close
	ws := summarize(all, sliceLen, []int{0, 2, 3, 4, 5}, 6)
	if ws.p50 != 1 || ws.p95 != 1 || ws.opsPerSec != 100 {
		t.Errorf("p50=%v p95=%v ops/s=%v leaked the disturbed sub-window", ws.p50, ws.p95, ws.opsPerSec)
	}
	if ws.samples != 1001 || ws.failed != 1 || ws.shapeOps[0] != 1000 {
		t.Errorf("samples=%d failed=%d ok=%d, want every sub-window run counted", ws.samples, ws.failed, ws.shapeOps[0])
	}
}

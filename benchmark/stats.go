package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation of a measured window.
type sample struct {
	shape   uint8
	ok      bool
	end     time.Duration // completion time since the window opened
	latency time.Duration
}

// percentile returns the p-quantile (0..1) of sorted values by the
// nearest-rank rule, so the reported number is always a measured sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDurations(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}

// ratio is a/b with 0/0 = 0, for hit ratios over windows that saw no
// lookups at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// slices is the number of equal sub-windows a measured window is cut
// into. Every end-to-end timing is the median over the sub-windows of
// that sub-window's own statistic, so a burst of host noise confined to
// a minority of sub-windows cannot move the reported number.
const slices = 5

// windowStats is what one measured window yields before it is joined
// with process accounting. Counts cover every sub-window that was run;
// latency and throughput statistics cover the sub-windows in use.
type windowStats struct {
	samples                       int
	failed                        int
	beyondP95                     int     // samples above the p95 of the sub-windows in use
	p50, p95                      float64 // ms, median over the sub-windows in use
	opsPerSec                     float64 // correct completed ops per second, median likewise
	p50Shape                      uint8   // shape of the median sample of the sub-windows in use
	p95Shape                      uint8
	perSlice                      []int             // correct completed ops per sub-window run
	sliceP50, sliceP95, sliceRate []float64         // of the sub-windows in use
	shapeP50                      map[uint8]float64 // ms, over the sub-windows in use
	shapeOps                      map[uint8]int     // correct completed ops, every sub-window run
}

// summarize computes the window's statistics from the samples of total
// sub-windows of length sliceLen, of which used are the ones to take
// latency and throughput from.
func summarize(all []sample, sliceLen time.Duration, used []int, total int) windowStats {
	ws := windowStats{perSlice: make([]int, total), shapeP50: map[uint8]float64{}, shapeOps: map[uint8]int{}}
	inUse := make([]bool, total)
	for _, k := range used {
		inUse[k] = true
	}
	lat := make([][]float64, total)
	byShape := map[uint8][]float64{}
	var kept []sample // correct samples of the sub-windows in use
	for _, s := range all {
		k := int(s.end / sliceLen)
		if k >= total {
			continue // finished after the window was closed
		}
		ws.samples++
		if !s.ok {
			ws.failed++
			continue
		}
		ws.perSlice[k]++
		ws.shapeOps[s.shape]++
		if inUse[k] {
			lat[k] = append(lat[k], ms(s.latency))
			byShape[s.shape] = append(byShape[s.shape], ms(s.latency))
			kept = append(kept, s)
		}
	}
	var p50s, p95s, rates []float64
	for _, k := range used {
		sort.Float64s(lat[k])
		p50s = append(p50s, percentile(lat[k], 0.50))
		p95s = append(p95s, percentile(lat[k], 0.95))
		rates = append(rates, float64(len(lat[k]))/sliceLen.Seconds())
	}
	ws.p50, ws.p95, ws.opsPerSec = median(p50s), median(p95s), median(rates)
	ws.sliceP50, ws.sliceP95, ws.sliceRate = p50s, p95s, rates
	for sh, v := range byShape {
		sort.Float64s(v)
		ws.shapeP50[sh] = percentile(v, 0.5)
	}

	// Which shape the pooled percentiles land in, and how many samples
	// lie beyond p95: the checks that neither percentile sits on a class
	// boundary or on too few samples.
	sort.Slice(kept, func(i, j int) bool { return kept[i].latency < kept[j].latency })
	if n := len(kept); n > 0 {
		i50 := int(math.Ceil(0.50*float64(n))) - 1
		i95 := int(math.Ceil(0.95*float64(n))) - 1
		ws.p50Shape, ws.p95Shape = kept[i50].shape, kept[i95].shape
		ws.beyondP95 = n - 1 - i95
	}
	return ws
}

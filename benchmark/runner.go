package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is one load-generating connection or goroutine. It walks ops in
// order, wrapping around. With pace zero it is a closed loop: the next
// operation starts when the previous one has been answered and checked.
// With a pace it fires at a fixed rate and times each operation from
// when it was due, so a stall charges the operations queued behind it.
type client struct {
	ops  []op
	pace time.Duration
	run  func(o op) error // executes the op and checks its answer

	samples []sample
	late    []time.Duration // paced clients: how late each op fired
}

// errLimit caps how many op failures are printed; all are counted.
const errLimit = 5

// maxSlices bounds how far a run is extended to replace sub-windows the
// host disturbed: at most three times the nominal window.
const maxSlices = 3 * slices

// stealLimit is the share of the guest's CPU time in one sub-window that
// the hypervisor may take away before the sub-window counts as
// disturbed. On a quiet host it is a few hundredths of a percent; in the
// episodes that slow every workload severalfold it is tens of percent.
// Steal is the one signal of interference that does not depend on the
// program under test, so using it to choose sub-windows cannot hide a
// regression.
const stealLimit = 0.01

// hostSteal returns the CPU seconds the hypervisor has taken from this
// guest so far, from the first line of /proc/stat; 0 if unreadable.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / clockTick
}

// drive runs every client through a warm-up and then a measured window
// of sub-windows, calling boundary(k) as the k-th sub-window boundary
// passes (0 opens the window). The window nominally has slices
// sub-windows; each one during which the hypervisor took more than
// stealLimit of the guest's CPU is replaced by appending another, up to
// maxSlices in all. It returns the sub-windows to compute statistics
// from — the first slices undisturbed ones, topped up with the least
// disturbed if the host never settled — and how many were run. Only
// operations that start and finish inside the window are samples. It
// returns when every client goroutine has ended.
func drive(clients []*client, nproc int, warm, sliceLen time.Duration, boundary func(k int)) (used []int, total int) {
	if len(clients) > nproc {
		// Closed-loop sizing rule: never more client connections than
		// cores, or the generator measures its own queueing.
		panic(fmt.Sprintf("benchmark: %d load-generating clients on %d cores", len(clients), nproc))
	}
	start := time.Now()
	open := start.Add(warm)
	var shut atomic.Int64 // UnixNano; moved earlier once enough sub-windows are in
	shut.Store(open.Add(maxSlices * sliceLen).UnixNano())
	var printed atomic.Int32
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				due := time.Now()
				if c.pace > 0 {
					due = start.Add(time.Duration(i) * c.pace)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				began := time.Now()
				if began.UnixNano() >= shut.Load() {
					return
				}
				o := c.ops[i%len(c.ops)]
				err := c.run(o)
				end := time.Now()
				if err != nil && printed.Add(1) <= errLimit {
					fmt.Fprintf(os.Stderr, "benchmark: op %d (shape %d) failed: %v\n", i, o.shape, err)
				}
				if due.Before(open) || end.UnixNano() > shut.Load() {
					continue
				}
				c.samples = append(c.samples, sample{shape: o.shape, ok: err == nil, end: end.Sub(open), latency: end.Sub(due)})
				if c.pace > 0 {
					c.late = append(c.late, began.Sub(due))
				}
			}
		}(c)
	}
	var steal []float64 // per sub-window, as a share of the guest's CPU time
	var before float64
	for k := 0; ; k++ {
		at := open.Add(time.Duration(k) * sliceLen)
		time.Sleep(time.Until(at))
		boundary(k)
		now := hostSteal()
		if k > 0 {
			steal = append(steal, (now-before)/(sliceLen.Seconds()*float64(runtime.NumCPU())))
		}
		before = now
		if used = chooseSlices(steal); used != nil {
			shut.Store(at.UnixNano())
			break
		}
	}
	wg.Wait()
	return used, len(steal)
}

// chooseSlices decides, from the steal share of each sub-window run so
// far, whether the window can close, and if so which sub-windows to use:
// the first slices undisturbed ones, or, once maxSlices have been run,
// those topped up with the least disturbed. It returns nil while the
// window has to go on.
func chooseSlices(steal []float64) []int {
	order := make([]int, len(steal))
	clean := 0
	for i, s := range steal {
		order[i] = i
		if s <= stealLimit {
			clean++
		}
	}
	if clean < slices && len(steal) < maxSlices {
		return nil
	}
	// Undisturbed sub-windows tie and keep their order in time; disturbed
	// ones follow, least disturbed first.
	sort.SliceStable(order, func(i, j int) bool {
		return max(steal[order[i]], stealLimit) < max(steal[order[j]], stealLimit)
	})
	used := order[:slices]
	sort.Ints(used)
	return used
}

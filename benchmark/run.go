package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings. Everything random derives from seed.
type config struct {
	seed   int64
	window time.Duration // measured window
	warm   time.Duration // untimed warm-up before it
	traced time.Duration // budget of the traced pass; 0 = no traced pass
	trace  bool
	scale  int // divides data sizes: 1 for real runs, 10 for -short
	setups int // set-ups per run; setup_s is their median
	nproc  int
	paths  *paths
	buildS float64
}

// rig is one workload's process under test, loaded and ready.
type rig interface {
	name() string
	shapes() []string
	schedule() schedule
	// clients returns the load generators, at most nproc of them.
	clients() []*client
	// pid is the process whose CPU and memory are the workload's cost.
	pid() int
	// stats snapshots the engine and server counters as the JSON tree
	// GET /stats serves.
	stats() (map[string]any, error)
	close()
}

func setupFor(name string) (func(*config) (rig, error), error) {
	switch name {
	case wlBatch:
		return setupBatch, nil
	case wlHTTP:
		return func(c *config) (rig, error) { return setupServe(c, wlHTTP) }, nil
	case wlPG:
		return func(c *config) (rig, error) { return setupServe(c, wlPG) }, nil
	case wlIngest:
		return setupIngest, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`
	// Disturbed counts the sub-windows replaced because the hypervisor
	// took CPU time from the guest while they ran.
	Disturbed    int     `json:"disturbed_subwindows"`
	ScheduleHash string  `json:"schedule_hash"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	ErrorRate    float64 `json:"error_rate"`
	Samples      int     `json:"samples"`
	BeyondP95    int     `json:"samples_beyond_p95"`
	P50Shape     string  `json:"p50_shape"`
	P95Shape     string  `json:"p95_shape"`
	// SubWindows holds, for each sub-window in use, the statistics the
	// end-to-end medians were taken over.
	SubWindows map[string][]float64 `json:"sub_windows"`
	E2E        map[string]float64   `json:"end_to_end"`
	// Layer is nil for untraced runs. A nil value is a counter the
	// program under test no longer exposes.
	Layer map[string]*float64 `json:"per_layer,omitempty"`
	// ChildCoverage is the median share of a traced op's root span that
	// its child spans cover.
	ChildCoverage float64 `json:"trace_child_coverage,omitempty"`
}

// window is what the measured window observed besides the samples.
type window struct {
	stats   windowStats
	before  map[string]any // counters as the window opened
	after   map[string]any
	used    []int     // sub-windows the latency and CPU statistics come from
	total   int       // sub-windows run
	cpu     []float64 // process under test, CPU seconds at each boundary
	selfCPU []float64 // benchmark process, likewise
	io      []float64 // process under test, storage write bytes, likewise
	alloc   []uint64  // benchmark process, TotalAlloc, likewise
	late    []time.Duration
}

func runWorkload(cfg *config, name string) (*result, error) {
	setup, err := setupFor(name)
	if err != nil {
		return nil, err
	}
	// Set up several times and report the median, so one slow fork or
	// page-cache miss does not decide setup_s. The last one is used.
	var r rig
	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if r, err = setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer r.close()
	setupS := median(setupTimes)
	if p, ok := r.(interface{ prime() error }); ok {
		// Priming the caches is set-up too, but it is done once, on the
		// instance that is measured.
		start := time.Now()
		if err := p.prime(); err != nil {
			return nil, fmt.Errorf("%s: priming: %w", name, err)
		}
		setupS += time.Since(start).Seconds()
	}
	return measure(cfg, r, setupS)
}

// sampleRSS reads pid's resident set ten times a second until stop is
// closed and returns the samples in MiB. The median of these is rss_mb:
// the high-water mark of a collected heap is decided by when the
// collector happened to run (and, for a child, by its set-up), and
// differed by a factor of two between identical runs.
func sampleRSS(pid int, stop <-chan struct{}) []float64 {
	var samples []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return samples
		case <-tick.C:
			if kb, err := procKB(pid, "VmRSS"); err == nil {
				samples = append(samples, kb/1024)
			}
		}
	}
}

// measure drives a set-up rig through warm-up and the measured window,
// then the traced pass if the run is traced, and assembles the result.
func measure(cfg *config, r rig, setupS float64) (*result, error) {
	name := r.name()
	clients := r.clients()
	w := &window{}
	pid, self := r.pid(), os.Getpid()
	var snapErr error
	note := func(err error) {
		if err != nil && snapErr == nil {
			snapErr = err
		}
	}
	sliceLen := cfg.window / slices
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64, 1)
	w.used, w.total = drive(clients, cfg.nproc, cfg.warm, sliceLen, func(k int) {
		if k == 0 {
			go func() { rssDone <- sampleRSS(pid, stopRSS) }()
		}
		cpu, err := procCPU(pid)
		note(err)
		selfCPU, err := procCPU(self)
		note(err)
		io, _ := procWriteBytes(pid) // absent on kernels without task I/O accounting
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		w.cpu, w.selfCPU, w.io, w.alloc = append(w.cpu, cpu), append(w.selfCPU, selfCPU), append(w.io, io), append(w.alloc, m.TotalAlloc)
		tree, err := r.stats()
		note(err)
		if k == 0 {
			w.before = tree
		}
		w.after = tree
	})
	close(stopRSS)
	rss := median(<-rssDone)
	if snapErr != nil {
		return nil, fmt.Errorf("%s: accounting: %w", name, snapErr)
	}
	var all []sample
	for _, c := range clients {
		all = append(all, c.samples...)
		w.late = append(w.late, c.late...)
	}
	w.stats = summarize(all, sliceLen, w.used, w.total)
	if w.stats.samples == 0 {
		return nil, fmt.Errorf("%s: no operation completed inside the %v window", name, cfg.window)
	}

	shapes := r.shapes()
	res := &result{
		Workload:     name,
		Seed:         cfg.seed,
		WindowS:      cfg.window.Seconds(),
		Disturbed:    w.total - slices,
		ScheduleHash: r.schedule().hash(),
		Attempted:    w.stats.samples,
		Failed:       w.stats.failed,
		Samples:      w.stats.samples,
		BeyondP95:    w.stats.beyondP95,
		P50Shape:     shapes[w.stats.p50Shape],
		P95Shape:     shapes[w.stats.p95Shape],
	}
	hwm, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	var perKop []float64
	for _, k := range w.used {
		if n := w.stats.perSlice[k]; n > 0 {
			perKop = append(perKop, (w.cpu[k+1]-w.cpu[k])/float64(n)*1000)
		}
	}

	var layer map[string]float64
	var missing map[string]bool
	if cfg.trace {
		layer, missing = windowLayerMetrics(cfg, r, w)
		layer["proc.vm_hwm_mb"] = hwm
		cov, failed, attempted, err := tracedPass(cfg, r, w, layer)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		res.ChildCoverage = cov
		res.Failed += failed
		res.Attempted += attempted
	}
	// A workload may end with a check of its own (ingest_durable's crash
	// check). It runs on every run, traced or not, and after the traced
	// pass because it may kill the process under test.
	if f, ok := r.(interface {
		finish(*result, *window, map[string]float64) error
	}); ok {
		if err := f.finish(res, w, layer); err != nil {
			return nil, err
		}
	}
	res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	res.SubWindows = map[string][]float64{
		"latency_p50_ms": w.stats.sliceP50, "latency_p95_ms": w.stats.sliceP95,
		"throughput_ops_s": w.stats.sliceRate, "cpu_s_per_kop": perKop,
	}
	res.E2E = map[string]float64{
		"setup_s":          setupS + cfg.warm.Seconds(),
		"latency_p50_ms":   w.stats.p50,
		"latency_p95_ms":   w.stats.p95,
		"throughput_ops_s": w.stats.opsPerSec,
		"cpu_s_per_kop":    median(perKop),
		"rss_mb":           rss,
		"success_ratio":    1 - res.ErrorRate,
	}
	if cfg.trace {
		res.Layer = map[string]*float64{}
		for _, m := range perLayer {
			v := layer[m.name] // not applicable to this workload reads 0
			res.Layer[m.name] = &v
		}
		for name := range missing {
			res.Layer[name] = nil
		}
	}
	return res, nil
}

// counters reads /stats counters for one per-layer metric at a time.
// A counter whose enclosing section is absent belongs to a subsystem
// this workload runs without, and reads 0; a counter absent from a
// section that is there was renamed or dropped by the program under
// test, and the metric being computed is recorded as missing.
type counters struct {
	w       *window
	metric  string
	missing map[string]bool
}

func (c *counters) read(tree map[string]any, path []string) float64 {
	v, ok := lookup(tree, path...)
	if !ok {
		if _, section := lookupAny(tree, path[:len(path)-1]...); section {
			c.missing[c.metric] = true
		}
	}
	return v
}

// delta is the counter's growth over the measured window.
func (c *counters) delta(path ...string) float64 {
	return c.read(c.w.after, path) - c.read(c.w.before, path)
}

// gauge is the counter's value as the window closed.
func (c *counters) gauge(path ...string) float64 { return c.read(c.w.after, path) }

// windowLayerMetrics derives the per-layer metrics that come from the
// measured window itself: counter deltas, per-shape medians, and the
// load generator's own cost. The second result names the metrics whose
// counters have gone missing.
func windowLayerMetrics(cfg *config, r rig, w *window) (map[string]float64, map[string]bool) {
	m := map[string]float64{}
	c := &counters{w: w, missing: map[string]bool{}}
	ops := float64(w.stats.samples - w.stats.failed)
	hitRatio := func(section ...string) float64 {
		hits := c.delta(append(section, "hits")...)
		return ratio(hits, hits+c.delta(append(section, "misses")...))
	}
	for _, def := range []struct {
		name string
		f    func() float64
	}{
		{"engine.compiles_per_kop", func() float64 { return ratio(c.delta("engine", "compiles"), ops) * 1000 }},
		{"plancache.hit_ratio", func() float64 { return hitRatio("engine", "plan_cache") }},
		{"plancache.evictions", func() float64 { return c.delta("engine", "plan_cache", "evictions") }},
		{"ort.session_cache_hit_ratio", func() float64 { return hitRatio("engine", "session_cache") }},
		{"rescache.hit_ratio", func() float64 { return hitRatio("engine", "result_cache") }},
		{"rescache.evictions", func() float64 { return c.delta("engine", "result_cache", "evictions") }},
		{"rescache.bytes", func() float64 { return c.gauge("engine", "result_cache", "bytes") }},
		{"sched.queued_ratio", func() float64 {
			return ratio(c.delta("engine", "scheduler", "queued"), c.delta("engine", "scheduler", "admitted"))
		}},
		{"sched.mean_wait_us", func() float64 {
			return ratio(c.delta("engine", "scheduler", "total_wait_ns"), c.delta("engine", "scheduler", "admitted")) / 1e3
		}},
		{"sched.rejected", func() float64 { return c.delta("engine", "scheduler", "rejected") }},
		{"storage.wal_records", func() float64 { return c.delta("engine", "storage", "wal_records") }},
		{"storage.segments", func() float64 { return c.gauge("engine", "storage", "segments") }},
		{"storage.checkpoints", func() float64 { return c.delta("engine", "storage", "checkpoints") }},
	} {
		c.metric = def.name
		m[def.name] = def.f()
	}

	for sh, name := range r.shapes() {
		m["shape."+name+".p50_ms"] = w.stats.shapeP50[uint8(sh)]
	}

	m["gen.build_s"] = cfg.buildS
	if len(w.late) > 0 {
		late := make([]float64, len(w.late))
		for i, l := range w.late {
			late[i] = us(l)
		}
		sort.Float64s(late)
		m["gen.late_p95_us"] = percentile(late, 0.95)
	}
	if r.pid() != os.Getpid() {
		self := w.selfCPU[w.total] - w.selfCPU[0]
		m["gen.cpu_share"] = ratio(self, self+w.cpu[w.total]-w.cpu[0])
	}
	return m, c.missing
}

// Command benchmark is the repository's one benchmark: four closed-loop
// workloads, seven end-to-end metrics each, and a per-layer trace taken
// from outside the program under test. See README.md.
//
// The contract form, which BENCHMARK.json names, runs one workload:
//
//	go run -C benchmark raven/benchmark --workload serve_http --seed 1 --seconds 20 --trace 0
//
// and prints as its last line one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Without
// --workload it runs all four, untraced then traced, prints every metric
// by name and unit, and writes a result file under benchmark/out/;
// -repeat 2 does that twice and fails if the two sets disagree by more
// than the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run one workload (batch_predict, serve_http, serve_pgwire, ingest_durable) in the contract form; empty runs all four")
	seed := flag.Int64("seed", 1, "the only source of randomness: data, models and op schedules derive from it")
	seconds := flag.Float64("seconds", 20, "measured seconds per run; a traced run spends half in the measured window and up to half in the traced pass")
	trace := flag.Int("trace", 0, "contract form: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	repeat := flag.Int("repeat", 1, "all-workloads form: run the full set this many times and compare")
	short := flag.Bool("short", false, "smoke mode: one tenth of the data, one set-up, short warm-up")
	resultFile := flag.String("result-file", "", "contract form: also write the full result as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	p, err := newPaths()
	if err != nil {
		fatal(err)
	}
	build, err := p.buildChildren()
	if err != nil {
		fatal(err)
	}
	base := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warm:   3 * time.Second,
		scale:  1,
		setups: 3,
		nproc:  runtime.NumCPU(),
		paths:  p,
		buildS: build.Seconds(),
	}
	if *short {
		base.scale, base.setups, base.warm = 10, 1, 500*time.Millisecond
	}

	if *workload != "" {
		res, err := runOne(base, *workload, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if *resultFile != "" {
			b, _ := json.Marshal(res)
			if err := os.WriteFile(*resultFile, b, 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Println(contractLine(res))
		return
	}

	bounds, err := loadBounds(p.root)
	if err != nil {
		fatal(err)
	}
	var sets [][]*result
	for i := 0; i < *repeat; i++ {
		set, err := runAll(base)
		if err != nil {
			fatal(err)
		}
		sets = append(sets, set)
	}
	agree := true
	if len(sets) > 1 {
		agree = compareSets(sets[0], sets[1], bounds)
	}
	file, err := writeResults(base, sets)
	if err != nil {
		fatal(err)
	}
	failed := 0
	for _, set := range sets {
		for _, r := range set {
			failed += r.Failed
		}
	}
	summary, _ := json.Marshal(map[string]any{"correct": failed == 0, "repeat_agrees": agree, "results": file, "claim": nil})
	fmt.Println(string(summary))
	if failed > 0 || !agree {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload once. A traced run splits its seconds: half
// for the measured window that the counter deltas and per-shape medians
// come from, half as the budget of the traced pass.
func runOne(cfg config, name string, trace bool) (*result, error) {
	if trace {
		cfg.trace = true
		cfg.setups = 1
		cfg.window /= 2
		cfg.traced = cfg.window
	}
	return runWorkload(&cfg, name)
}

// runIsolated runs one workload in the contract form in a process of
// its own — this program again — so that an in-process workload's CPU
// and peak memory are its own and not the sum of the runs before it.
func runIsolated(cfg config, name string, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	file := filepath.Join(cfg.paths.tmp, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(file)
	args := []string{
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.window.Seconds()),
		"-trace", map[bool]string{false: "0", true: "1"}[trace], "-result-file", file,
	}
	if cfg.scale != 1 {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %v): %w", name, trace, err)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(b, res)
}

// runAll runs every workload untraced, then traced, and merges the two
// into one result per workload: end-to-end numbers always come from the
// untraced run.
func runAll(cfg config) ([]*result, error) {
	var set []*result
	for _, name := range workloadNames {
		res, err := runIsolated(cfg, name, false)
		if err != nil {
			return nil, err
		}
		traced, err := runIsolated(cfg, name, true)
		if err != nil {
			return nil, err
		}
		res.Layer, res.ChildCoverage = traced.Layer, traced.ChildCoverage
		res.Failed += traced.Failed
		res.Attempted += traced.Attempted
		printResult(res)
		set = append(set, res)
	}
	return set, nil
}

// printResult prints every metric of a result by name, with its unit.
func printResult(r *result) {
	fmt.Printf("== %s  seed=%d  window=%.1fs  schedule=%s\n", r.Workload, r.Seed, r.WindowS, r.ScheduleHash)
	fmt.Printf("  samples=%d (beyond p95: %d)  attempted=%d failed=%d error_rate=%g  p50 in %s, p95 in %s\n",
		r.Samples, r.BeyondP95, r.Attempted, r.Failed, r.ErrorRate, r.P50Shape, r.P95Shape)
	if r.Disturbed > 0 {
		fmt.Printf("  %d sub-windows replaced: the hypervisor took CPU time from the guest while they ran\n", r.Disturbed)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, r.E2E[m.name], m.unit)
	}
	if r.Layer == nil {
		return
	}
	fmt.Printf("  -- per layer (traced run; child spans cover %.0f%% of the root span)\n", r.ChildCoverage*100)
	for _, m := range perLayer {
		if v := r.Layer[m.name]; v == nil {
			fmt.Printf("  %-36s %14s %s\n", m.name, "null", m.unit)
		} else if *v != 0 {
			fmt.Printf("  %-36s %14.4f %s\n", m.name, *v, m.unit)
		}
	}
}

// contractLine renders the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. A missing counter has no number to report and reads 0
// here; the result printed above it says null.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Layer == nil {
		for _, m := range endToEnd {
			metrics[m.name] = value{r.E2E[m.name], m.unit}
		}
	} else {
		for _, m := range perLayer {
			v := 0.0
			if p := r.Layer[m.name]; p != nil && !math.IsNaN(*p) && !math.IsInf(*p, 0) {
				v = *p
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return string(b)
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(root string) ([]bound, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, how much worse the second is than the first as a share of the
// first, and the bound; it reports whether every difference is inside
// its bound in both directions.
func compareSets(a, b []*result, bounds []bound) bool {
	ok := true
	fmt.Println("== repeatability: two full sets, same commit, same seed")
	for i := range a {
		for _, bd := range bounds {
			x, y := a[i].E2E[bd.Name], b[i].E2E[bd.Name]
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := "ok"
			if diff > bd.Bound {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("  %-15s %-18s %12.4f %12.4f  diff %6.2f%%  bound %5.1f%%  %s\n",
				a[i].Workload, bd.Name, x, y, diff*100, bd.Bound*100, verdict)
		}
	}
	return ok
}

// host records where the numbers were taken.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func hostRecord(root string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Kernel: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// writeResults writes the run's result file and returns its path
// relative to the checkout.
func writeResults(cfg config, sets [][]*result) (string, error) {
	doc := map[string]any{
		"host":      hostRecord(cfg.paths.root),
		"seed":      cfg.seed,
		"window_s":  cfg.window.Seconds(),
		"warmup_s":  cfg.warm.Seconds(),
		"data_size": fmt.Sprintf("1/%d", cfg.scale),
		"sets":      sets,
		"claim":     nil,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	names, _ := filepath.Glob(filepath.Join(cfg.paths.out, "result-*.json"))
	sort.Strings(names)
	path := filepath.Join(cfg.paths.out, fmt.Sprintf("result-%03d-seed%d.json", len(names)+1, cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	rel, _ := filepath.Rel(cfg.paths.root, path)
	return rel, nil
}

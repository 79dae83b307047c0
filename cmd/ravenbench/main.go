// Command ravenbench regenerates the tables and figures of the paper's
// evaluation and prints them in paper-figure form. With -markdown it
// emits the EXPERIMENTS.md body instead. Serving, durability and
// parallel-scaling measurements are not here: benchmark/ (named by
// BENCHMARK.json) is the repo's one instrument for those.
//
// Usage:
//
//	ravenbench [-quick] [-markdown] [-only Fig2a,Fig3] [-runs N]
//
// An id passed to -only that is not in the experiment table is a usage
// error (exit status 2), not an empty successful run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"raven/internal/bench"
)

type experiment struct {
	id string
	fn func(bench.Config) (*bench.Table, error)
}

// experiments is the one table of what ravenbench can run, in paper
// order; the -only help text and its validation both derive from it.
var experiments = []experiment{
	{"Fig2a", bench.Fig2a},
	{"Fig2b", bench.Fig2b},
	{"Fig2c", bench.Fig2c},
	{"Fig2d", bench.Fig2d},
	{"Fig3", bench.Fig3},
	{"PredPruning", bench.PredicatePruning},
	{"BatchVsTuple", bench.BatchVsTuple},
	{"StaticAnalysis", bench.StaticAnalysis},
	{"RunningExample", bench.RunningExample},
	{"PreparedPredict", bench.PreparedPredict},
}

func experimentIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made
// explicit so the flag handling is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ravenbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced sizes (seconds instead of minutes)")
	markdown := fs.Bool("markdown", false, "emit markdown tables (for EXPERIMENTS.md)")
	timeout := fs.Duration("timeout", 0, "skip experiments not yet started once the deadline passes (0 = no limit); an in-flight experiment runs to completion")
	only := fs.String("only", "", "comma-separated experiment ids ("+experimentIDs()+")")
	runs := fs.Int("runs", 0, "measured runs per point (default 3, or 1 with -quick)")
	parallelism := fs.Int("parallelism", 0, "degree of parallelism for experiment engines (0 = engine default, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.id == id }) {
				fmt.Fprintf(stderr, "ravenbench: unknown experiment id %q in -only; valid ids: %s\n", id, experimentIDs())
				return 2
			}
			want[id] = true
		}
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Parallelism = *parallelism

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	status := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(stderr, "skipping %s and the rest: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintf(stderr, "running %s...\n", e.id)
		tb, err := e.fn(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.id, err)
			status = 1
			continue
		}
		if *markdown {
			fmt.Fprint(stdout, tb.Markdown())
		} else {
			tb.Print(stdout)
		}
	}
	return status
}

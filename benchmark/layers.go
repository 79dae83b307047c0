package main

// This file holds every call the benchmark makes into raven/internal
// packages other than data, train and ml. It walks, from outside, the
// steps DB.buildPlan and DB.lower walk, and probes single layers through
// their public functions. Nothing here reaches below a package's
// exported surface, and nothing under internal/exec is named: operators
// are used only through the Open/Next/Close methods of whatever
// codegen.Compile returns.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"raven"
	"raven/internal/codegen"
	"raven/internal/ir"
	"raven/internal/ort"
	"raven/internal/plan"
	"raven/internal/relopt"
	"raven/internal/rescache"
	"raven/internal/sched"
	"raven/internal/segment"
	"raven/internal/sql"
	"raven/internal/tensor"
	"raven/internal/wal"
	"raven/internal/xopt"
)

// tracedQuery compiles and runs q on db step by step, one span per
// layer under a root span for the whole operation, and folds the result
// into fp. q carries its parameter values as literals. forestRuntime
// switches NN translation off the way the shape's query options do. It
// returns the optimized graph for callers that want to look inside it.
func tracedQuery(tr *tracer, opID int, shape string, db *raven.DB, q string, forestRuntime bool, dop int, fp *fingerprint) (*ir.Graph, error) {
	root := tr.begin("op", opID, -1)
	tr.spans[root].Shape = shape
	defer tr.end(root)

	s := tr.begin("sql.parse", opID, root)
	stmts, err := sql.ParseScript(q)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sel, ok := stmts[0].(*sql.SelectStmt)
	if !ok || len(stmts) != 1 {
		return nil, fmt.Errorf("traced query must be a single SELECT")
	}

	s = tr.begin("plan.bind", opID, root)
	logical, err := plan.NewBinder(db.Catalog()).BindSelect(sel)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("ir.build", opID, root)
	graph, err := ir.FromPlan(logical, db.LoadModel)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("xopt.optimize", opID, root)
	xo := xopt.DefaultOptions(&relopt.Optimizer{Catalog: db.Catalog(), AssumeRI: true})
	xo.NNTranslation = !forestRuntime
	res, err := xopt.Optimize(graph, xo)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("codegen.compile", opID, root)
	op, err := codegen.Compile(res.Graph, &codegen.Config{
		Runtime:     db.Runtime(),
		Ctx:         context.Background(),
		Mode:        raven.ModeInProcess,
		Parallelism: dop,
		CacheKey:    "bench#" + shape,
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("exec.open", opID, root)
	err = op.Open()
	tr.end(s)
	if err != nil {
		op.Close()
		return nil, err
	}

	s = tr.begin("exec.drain", opID, root)
	for {
		b, nerr := op.Next()
		if nerr != nil || b == nil {
			err = nerr
			break
		}
		for i, n := 0, b.Len(); i < n; i++ {
			for c, v := range b.Vecs {
				fp.add(c, v.AsFloat(i))
			}
			fp.endRow()
		}
	}
	tr.end(s)

	s = tr.begin("exec.close", opID, root)
	cerr := op.Close()
	tr.end(s)
	if err == nil {
		err = cerr
	}
	return res.Graph, err
}

// tensorGraphOf returns the tensor graph NN translation put into an
// optimized plan and the columns that feed it, or nil if the plan has
// none.
func tensorGraphOf(g *ir.Graph) (*ort.Graph, []string) {
	n := g.Find(func(n ir.Node) bool { _, ok := n.(*ir.LANode); return ok })
	if n == nil {
		return nil, nil
	}
	la := n.(*ir.LANode)
	return la.G, la.InputCols
}

// probeSession times building an inference session from g and running
// it standalone on the rows x cols feature matrix feats, reps times.
func probeSession(g *ort.Graph, feats []float64, rows, cols, reps int) (build time.Duration, run []time.Duration, err error) {
	start := time.Now()
	sess, err := ort.NewSession(g)
	build = time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	x, err := tensor.FromSlice(feats, rows, cols)
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < reps; i++ {
		start = time.Now()
		if _, _, err := sess.Run(map[string]*tensor.Tensor{"X": x}); err != nil {
			return 0, nil, err
		}
		run = append(run, time.Since(start))
	}
	return build, run, nil
}

// probeSched times an uncontended acquire+release pair through the
// admission scheduler's public API, in nanoseconds per pair.
func probeSched(nproc int) (float64, error) {
	s := sched.New(sched.Options{MaxConcurrent: 2 * nproc, MaxSlots: 4 * nproc, QueueDepth: 64})
	const n = 20000
	ctx := context.Background()
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			release, err := s.Acquire(ctx, 1)
			if err != nil {
				return 0, err
			}
			release()
		}
		rounds = append(rounds, float64(time.Since(start))/n)
	}
	return median(rounds), nil
}

// probeRescache times a hit on a result cache filled like the served
// one: a thousand 80-byte entries in an 80 KiB budget.
func probeRescache() float64 {
	c := rescache.New[int](resultCacheBytes, 0)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("point-%06d", i)
		c.Put(keys[i], i, 80)
	}
	const n = 20000
	var rounds []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			c.Get(keys[i%len(keys)], nil)
		}
		rounds = append(rounds, float64(time.Since(start))/n)
	}
	return median(rounds)
}

// probeWAL times appending a 4 KiB record under fsync=always, the
// policy ingest_durable fixes.
func probeWAL(dir string) (time.Duration, error) {
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	log, err := wal.Open(path, wal.Options{Policy: wal.FsyncAlways})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 4096)
	var times []time.Duration
	for i := 0; i < 40; i++ {
		start := time.Now()
		if err := log.Append(1, payload); err != nil {
			log.Close()
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	return medianDurations(times), log.Close()
}

// probeSegment writes the result of q (a slice of the events table) as
// a sealed segment file and reads it back with its checksum verified,
// returning MB/s each way.
func probeSegment(db *raven.DB, q, dir string) (writeMBs, readMBs float64, err error) {
	res, err := db.Query(q)
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, "probe.seg")
	defer os.Remove(path)
	var wr, rd []float64
	for i := 0; i < 5; i++ {
		os.Remove(path)
		start := time.Now()
		if err := segment.Write(path, res.Batch); err != nil {
			return 0, 0, err
		}
		wt := time.Since(start)
		start = time.Now()
		r, err := segment.Open(path)
		if err != nil {
			return 0, 0, err
		}
		err = r.Verify()
		rt := time.Since(start)
		mb := float64(r.Bytes()) / 1e6
		r.Close()
		if err != nil {
			return 0, 0, err
		}
		wr = append(wr, mb/wt.Seconds())
		rd = append(rd, mb/rt.Seconds())
	}
	return median(wr), median(rd), nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"raven"
)

// batchRig is batch_predict's process under test: the public raven
// package, in-process, one prepared statement per shape.
type batchRig struct {
	cfg   *config
	db    *raven.DB
	sched schedule
	stmts []*raven.Stmt
	want  []*fingerprint
	rows  int // hospital rows; flights_features has half as many
}

// batchRows is the size of each hospital table; flights_features has
// half as many rows by 64 features. Both stay above the engine's
// 50,000-row parallel threshold, so every shape runs the morsel path,
// and the five-shape rotation takes about a third of a second, which
// puts some 300 operations in a 20-second window.
const batchRows = 120_000

type batchShape struct {
	sql     string
	ordered bool
	tol     float64
	// forestRuntime keeps the forest on the model runtime: translated to
	// a tensor graph, one 16-tree forest query takes seconds, and the
	// shape exists to load the interpreter and the parallel aggregate.
	forestRuntime bool
	inputRows     func(hospital int) int // rows scanned, for per-row metrics
}

var batchShapeDefs = []batchShape{
	shFig1: {
		sql:       `SELECT d.id, p.score FROM PREDICT(MODEL='los_tree', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p WHERE d.pregnant = 1 AND p.score > 0.5`,
		tol:       tolExact,
		inputRows: func(h int) int { return 3 * h },
	},
	shForest: {
		sql:           `SELECT d.gender, COUNT(*) AS n, AVG(p.score) AS a FROM PREDICT(MODEL='los_forest', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p GROUP BY d.gender`,
		tol:           tolExact,
		forestRuntime: true,
		inputRows:     func(h int) int { return 3 * h },
	},
	shLRNN: {
		sql:       `SELECT COUNT(*) AS n, AVG(p.prob) AS a FROM PREDICT(MODEL='flight_delay', DATA=flights_features AS d) WITH (prob FLOAT) AS p`,
		tol:       tolNN,
		inputRows: func(h int) int { return h / 2 },
	},
	shJoinAgg: {
		sql:       `SELECT pi.gender, COUNT(*) AS n, AVG(bt.glucose) AS g FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id WHERE pi.age > 40 GROUP BY pi.gender`,
		tol:       tolExact,
		inputRows: func(h int) int { return 2 * h },
	},
	shTopK: {
		sql:           `SELECT d.id, p.score FROM PREDICT(MODEL='los_forest', DATA=` + hospitalJoin + `) WITH (score FLOAT) AS p ORDER BY p.score DESC, d.id LIMIT 100`,
		ordered:       true,
		tol:           tolExact,
		forestRuntime: true,
		inputRows:     func(h int) int { return 3 * h },
	},
}

func (s batchShape) options() raven.QueryOptions {
	o := raven.DefaultQueryOptions()
	o.DisableNNTranslation = s.forestRuntime
	return o
}

// openBatchDB builds the batch_predict database: hospital tables at
// rows each, flights_features at half that by 64 features, and the
// models, all derived from seed.
func openBatchDB(cfg *config, rows int, probeModels bool) (*raven.DB, error) {
	db, err := raven.Open(raven.WithParallelism(cfg.nproc))
	if err != nil {
		return nil, err
	}
	hm, err := genHospital(db, rows, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	fm, err := genFlights(db, rows/2, cfg.seed, probeModels)
	if err != nil {
		return nil, err
	}
	return db, storeModels(db, append(hm, fm...))
}

func setupBatch(cfg *config) (rig, error) {
	r := &batchRig{cfg: cfg, rows: batchRows / cfg.scale, sched: scheduleFor(wlBatch, cfg.seed, cfg.scale)}
	var err error
	if r.db, err = openBatchDB(cfg, r.rows, cfg.trace); err != nil {
		return nil, err
	}
	for _, s := range batchShapeDefs {
		st, err := r.db.PrepareWithOptions(s.sql, s.options())
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", s.sql, err)
		}
		r.stmts = append(r.stmts, st)
		fp, err := queryFingerprint(r.db, s.sql, oracleOptions(), s.ordered)
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", s.sql, err)
		}
		if fp.rows == 0 {
			return nil, fmt.Errorf("oracle %q: empty result proves nothing", s.sql)
		}
		r.want = append(r.want, fp)
	}
	return r, nil
}

func (r *batchRig) name() string       { return wlBatch }
func (r *batchRig) shapes() []string   { return batchShapes }
func (r *batchRig) schedule() schedule { return r.sched }
func (r *batchRig) pid() int           { return os.Getpid() }
func (r *batchRig) close()             { r.db.Close() }

func (r *batchRig) clients() []*client {
	return []*client{{ops: r.sched[0], run: r.runOp}}
}

func (r *batchRig) runOp(o op) error {
	rows, err := r.stmts[o.shape].QueryContext(context.Background())
	if err != nil {
		return err
	}
	got := fingerprint{ordered: batchShapeDefs[o.shape].ordered}
	if err := foldRows(rows, &got); err != nil {
		return err
	}
	if !r.want[o.shape].matches(&got, batchShapeDefs[o.shape].tol) {
		return fmt.Errorf("%s: wrong answer: got %v, want %v", batchShapes[o.shape], &got, r.want[o.shape])
	}
	return nil
}

// stats renders DB.Stats() in the tree shape GET /stats has, so the
// counter paths are the same for every workload.
func (r *batchRig) stats() (map[string]any, error) {
	return statsTree(r.db)
}

func statsTree(db *raven.DB) (map[string]any, error) {
	b, err := json.Marshal(map[string]any{"engine": db.Stats()})
	if err != nil {
		return nil, err
	}
	var tree map[string]any
	return tree, json.Unmarshal(b, &tree)
}

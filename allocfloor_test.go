package raven

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/train"
	"raven/internal/types"
)

// allocsPerRow reports the steady-state heap allocations one fn()
// execution costs per input row. fn runs once to warm every cache and
// pool, then — after a GC settles the heap — twice measured; the smaller
// Mallocs delta divided by rows is returned, so a stray background
// allocation cannot inflate the figure. Meaningful for serial (DOP=1)
// runs, where the allocation count is deterministic.
func allocsPerRow(t *testing.T, rows int, fn func() error) float64 {
	t.Helper()
	run := func() {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	// The GC just emptied every sync.Pool; one more warm run refills them
	// so the measured runs see the steady state.
	run()
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&mid)
	run()
	runtime.ReadMemStats(&after)
	return float64(min(mid.Mallocs-before.Mallocs, after.Mallocs-mid.Mallocs)) / float64(rows)
}

// genBreakerTables builds the synthetic fact/dimension pair the breaker
// floor runs over: breaker_events (large, with a low-cardinality segment
// column and a many-to-one join key) and breaker_dim (small).
// Deterministic per seed.
func genBreakerTables(cat *storage.Catalog, rows, dimRows, segs int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ev := storage.NewTable("breaker_events", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "seg", Type: types.String},
		types.Column{Name: "v", Type: types.Float},
		types.Column{Name: "w", Type: types.Float},
	))
	segNames := make([]string, segs)
	for i := range segNames {
		segNames[i] = fmt.Sprintf("s%02d", i)
	}
	for i := 0; i < rows; i++ {
		if err := ev.AppendRow(
			int64(i),
			int64(rng.Intn(dimRows)),
			segNames[rng.Intn(segs)],
			rng.Float64(),
			rng.NormFloat64(),
		); err != nil {
			return err
		}
	}
	dim := storage.NewTable("breaker_dim", types.NewSchema(
		types.Column{Name: "k", Type: types.Int},
		types.Column{Name: "label", Type: types.String},
	))
	for i := 0; i < dimRows; i++ {
		if err := dim.AppendRow(int64(i), fmt.Sprintf("d%04d", i)); err != nil {
			return err
		}
	}
	if err := cat.AddTable(ev); err != nil {
		return err
	}
	if err := cat.AddTable(dim); err != nil {
		return err
	}
	cat.SetUniqueKey("breaker_dim", "k")
	return nil
}

// TestAllocationFloors holds the data plane to its allocation budget:
// the typed kernels and vector pooling must keep steady-state heap
// allocations per input row at DOP 1 at least 5x below what the boxed
// (pre-typed-kernel) data plane cost on the same workloads. Each case's
// floor is on the mean over its queries. Each query runs as a prepared
// statement: the budget is the data plane's, and a repeated statement
// compiles once only through Prepare. The morsel geometry is fixed by
// the test, not by the engine default: each scan reads the whole table
// as one morsel, so the figure counts per-row work, not per-batch
// headers.
func TestAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name     string
		rows     int
		baseline float64 // allocs/row on the boxed data plane
		load     func(db *DB, rows int) error
		opts     QueryOptions
		queries  []string
	}{
		{
			name: "scan+PREDICT", rows: 100000, baseline: 0.01399,
			load: func(db *DB, rows int) error {
				fl, err := data.GenFlightsWide(db.Catalog(), rows, 30, 10, 4000, 17)
				if err != nil {
					return err
				}
				rf := train.FitForest(fl.TrainX, fl.TrainY, train.ForestOptions{
					NumTrees: 8,
					Seed:     5,
					Tree:     train.TreeOptions{MaxDepth: 6, MinLeaf: 10},
				})
				return db.StoreModel("delay_rf", &ml.Pipeline{Final: rf, InputColumns: fl.FeatureCols})
			},
			opts: QueryOptions{Mode: ModeInProcess, Parallelism: 1},
			queries: []string{
				`SELECT p.prob FROM PREDICT(MODEL='delay_rf', DATA=flights_features AS d) WITH (prob FLOAT) AS p`,
			},
		},
		{
			name: "GROUP BY/JOIN/ORDER BY", rows: 150000, baseline: 0.3556,
			load: func(db *DB, rows int) error { return genBreakerTables(db.Catalog(), rows, 4096, 32, 23) },
			// ParallelThresholdRows 1 puts the parallel breaker operators
			// on the plan; DOP 1 runs them with a single worker.
			opts: QueryOptions{Mode: ModeInProcess, Parallelism: 1, ParallelThresholdRows: 1},
			queries: []string{
				`SELECT seg, COUNT(*) AS n, SUM(v) AS sv, AVG(w) AS aw, MIN(v) AS mn, MAX(w) AS mx FROM breaker_events GROUP BY seg`,
				`SELECT e.v, d.label FROM breaker_events AS e JOIN breaker_dim AS d ON e.k = d.k WHERE e.v > 0.25`,
				`SELECT id, v FROM breaker_events WHERE w > 0.2 ORDER BY v DESC`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := MustOpen()
			if err := tc.load(db, tc.rows); err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.MorselSize = tc.rows
			var total float64
			for _, q := range tc.queries {
				st, err := db.PrepareWithOptions(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				apr := allocsPerRow(t, tc.rows, func() error {
					rows, err := st.Query()
					if err == nil {
						_, err = rows.Collect()
					}
					return err
				})
				t.Logf("%.5f allocs/row: %s", apr, q)
				total += apr
			}
			budget := tc.baseline / 5
			if mean := total / float64(len(tc.queries)); mean > budget {
				t.Errorf("%.5f mean allocs/row at DOP=1 exceeds the %.5f budget (pre-typed-kernel baseline %.5f)",
					mean, budget, tc.baseline)
			}
		})
	}
}

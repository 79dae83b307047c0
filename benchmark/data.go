package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/train"
)

// hospitalJoin is the paper's three-way join feeding PREDICT (Fig 1).
const hospitalJoin = `(SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d`

var hospitalTables = []string{"patient_info", "blood_tests", "prenatal_tests"}

// model is a fitted pipeline with the name it is stored under.
type model struct {
	name string
	pipe *ml.Pipeline
}

// modelSeed fixes the training samples. A stored model is part of the
// statement being run, like its SQL text: fitting it on seeded data made
// the amount of work per operation (tree shapes, how many rows pass
// "score > 0.5", how sparse the regression is) vary from seed to seed by
// more than the regression bounds. Tables, keys and schedules still
// derive from --seed; the generators draw every seed's rows from the
// same distribution, so the fixed models fit them equally.
const modelSeed = 42

// genHospital fills db with the hospital tables at n rows drawn from
// seed, and returns the decision tree (inlinable) and, if asked, the
// 16-tree depth-8 forest (not inlinable).
func genHospital(db *raven.DB, n int, seed int64, withForest bool) ([]model, error) {
	if _, err := data.GenHospital(db.Catalog(), n, 0, seed); err != nil {
		return nil, err
	}
	h, err := data.GenHospital(raven.MustOpen().Catalog(), 1, 4000, modelSeed)
	if err != nil {
		return nil, err
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	models := []model{{"los_tree", &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}}}
	if withForest {
		forest := train.FitForest(h.TrainX, h.TrainY, train.ForestOptions{
			NumTrees: 16, Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 5}, Seed: modelSeed,
		})
		models = append(models, model{"los_forest", &ml.Pipeline{Final: forest, InputColumns: h.FeatureCols}})
	}
	return models, nil
}

// genFlights fills db with flights_features (n rows, 64 features) drawn
// from seed and returns the L1-sparse logistic regression the cross
// optimizer translates to a tensor graph, plus, if asked, a tree and a
// forest over the same features for the single-operator PREDICT probes.
func genFlights(db *raven.DB, n int, seed int64, withProbeModels bool) ([]model, error) {
	if _, err := data.GenFlightsWide(db.Catalog(), n, 64, 20, 0, seed); err != nil {
		return nil, err
	}
	fl, err := data.GenFlightsWide(raven.MustOpen().Catalog(), 1, 64, 20, 4000, modelSeed)
	if err != nil {
		return nil, err
	}
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.02, Epochs: 60, Seed: modelSeed})
	models := []model{{"flight_delay", &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}}}
	if withProbeModels {
		tree := train.FitTree(fl.TrainX, fl.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
		forest := train.FitForest(fl.TrainX, fl.TrainY, train.ForestOptions{
			NumTrees: 16, Tree: train.TreeOptions{MaxDepth: 8, MinLeaf: 5}, Seed: modelSeed,
		})
		models = append(models,
			model{"fl_tree", &ml.Pipeline{Final: tree, InputColumns: fl.FeatureCols}},
			model{"fl_forest", &ml.Pipeline{Final: forest, InputColumns: fl.FeatureCols}})
	}
	return models, nil
}

func storeModels(db *raven.DB, models []model) error {
	for _, m := range models {
		if err := db.StoreModel(m.name, m.pipe); err != nil {
			return err
		}
	}
	return nil
}

// mix is splitmix64: a stateless hash, so row i's values do not depend
// on how many rows were generated before it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cell is the value of column col of generated row i: two decimals in
// [0, 100), so its SQL literal is short and parses back to exactly this
// float64. INSERT takes no negative literals, hence the range.
func cell(seed int64, table uint64, i, col int) float64 {
	h := mix(mix(uint64(seed)^table<<56) + uint64(i)*8 + uint64(col))
	return float64(h%10000) / 100
}

const (
	tableRequests = 1
	tableEvents   = 2
)

// requestRows is the size of the tiny table the ad-hoc shape scans.
const requestRows = 64

// requestAmounts are the values of requests.amount in id order. Row 0
// is pinned to zero so that every positive literal the ad-hoc shape
// compares against matches at least one row: an aggregate over no rows
// returns no row at all.
func requestAmounts(seed int64) []float64 {
	out := make([]float64, requestRows)
	for i := 1; i < len(out); i++ {
		out[i] = cell(seed, tableRequests, i, 0)
	}
	return out
}

func requestsScript(seed int64) []string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO requests VALUES ")
	for i, a := range requestAmounts(seed) {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%s)", i, strconv.FormatFloat(a, 'f', -1, 64))
	}
	return []string{"CREATE TABLE requests (id INT PRIMARY KEY, amount FLOAT)", sb.String()}
}

// eventCols is the number of feature columns of events (v0..v3).
const eventCols = 4

const eventsDDL = "CREATE TABLE events (id INT PRIMARY KEY, ts INT, v0 FLOAT, v1 FLOAT, v2 FLOAT, v3 FLOAT)"

// eventBytes is the row data of one events row as the user counts it:
// six 8-byte values.
const eventBytes = 8 * (2 + eventCols)

// eventsInsert renders INSERT INTO events for rows lo <= id < hi; ts
// equals id, so both grow monotonically with the write stream.
func eventsInsert(seed int64, lo, hi int) string {
	b := make([]byte, 0, 48*(hi-lo)+32)
	b = append(b, "INSERT INTO events VALUES "...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(i), 10)
		for c := 0; c < eventCols; c++ {
			b = append(b, ',')
			b = strconv.AppendFloat(b, cell(seed, tableEvents, i, c), 'f', -1, 64)
		}
		b = append(b, ')')
	}
	return string(b)
}

// eventFeatures returns the feature matrix of events rows [0, n).
func eventFeatures(seed int64, n int) ml.Matrix {
	m := ml.Matrix{Data: make([]float64, n*eventCols), Rows: n, Cols: eventCols}
	for i := 0; i < n; i++ {
		for c := 0; c < eventCols; c++ {
			m.Data[i*eventCols+c] = cell(seed, tableEvents, i, c)
		}
	}
	return m
}

// eventModel fits the tree score_fresh invokes, on a fixed sample drawn
// from the same generator with a known ground-truth rule.
func eventModel() model {
	const n = 4000
	x := ml.Matrix{Data: make([]float64, n*eventCols), Rows: n, Cols: eventCols}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Data[i*eventCols : (i+1)*eventCols]
		for c := range row {
			row[c] = cell(modelSeed, tableEvents, i, c)
		}
		if row[0] > 60 && row[1] < 50 || row[2]+row[3] > 150 {
			y[i] = 1
		}
	}
	tree := train.FitTree(x, y, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	return model{"ev_model", &ml.Pipeline{Final: tree, InputColumns: []string{"v0", "v1", "v2", "v3"}}}
}

// dumpTable renders table name of the twin as a CREATE TABLE plus
// multi-row INSERT scripts of chunk rows each, which is how the process
// under test is loaded: through its wire, with generated inputs only.
func dumpTable(db *raven.DB, name string, chunk int) ([]string, error) {
	rows, err := db.QueryContext(context.Background(), "SELECT * FROM "+name)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	sch := rows.Schema()
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", name)
	for i, c := range sch.Columns {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", c.Name, c.Type)
		if c.Name == "id" {
			ddl.WriteString(" PRIMARY KEY")
		}
	}
	ddl.WriteByte(')')
	scripts := []string{ddl.String()}

	vals := make([]any, sch.Len())
	ptrs := make([]any, sch.Len())
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var b []byte
	n := 0
	flush := func() {
		if n > 0 {
			scripts = append(scripts, string(b))
		}
		b, n = b[:0], 0
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		if n == 0 {
			b = append(b, "INSERT INTO "+name+" VALUES "...)
		} else {
			b = append(b, ',')
		}
		b = append(b, '(')
		for i, v := range vals {
			if i > 0 {
				b = append(b, ',')
			}
			switch x := v.(type) {
			case int64:
				b = strconv.AppendInt(b, x, 10)
			case float64:
				if x < 0 {
					return nil, fmt.Errorf("table %s has a negative value; INSERT takes no negative literals", name)
				}
				b = strconv.AppendFloat(b, x, 'g', -1, 64)
			default:
				return nil, fmt.Errorf("table %s: unsupported column value %T", name, v)
			}
		}
		b = append(b, ')')
		if n++; n == chunk {
			flush()
		}
	}
	flush()
	return scripts, rows.Err()
}

// queryFingerprint runs q on db with opts and folds the result.
func queryFingerprint(db *raven.DB, q string, opts raven.QueryOptions, ordered bool) (*fingerprint, error) {
	rows, err := db.QueryContextWithOptions(context.Background(), q, opts)
	if err != nil {
		return nil, err
	}
	fp := &fingerprint{ordered: ordered}
	return fp, foldRows(rows, fp)
}

// scanFloats drains rows, calling row with each row's values, and
// closes them. Every column the benchmark selects is INT or FLOAT,
// which Scan widens to float64. row's argument is reused between calls.
func scanFloats(rows *raven.Rows, row func(vals []float64) error) error {
	defer rows.Close()
	vals := make([]float64, len(rows.Columns()))
	ptrs := make([]any, len(vals))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return err
		}
		if err := row(vals); err != nil {
			return err
		}
	}
	return rows.Err()
}

// foldRows drains rows into fp and closes them.
func foldRows(rows *raven.Rows, fp *fingerprint) error {
	return scanFloats(rows, func(vals []float64) error {
		for c, v := range vals {
			fp.add(c, v)
		}
		fp.endRow()
		return nil
	})
}

// oracleOptions is how every reference answer is computed: no cross
// optimization, one worker, nothing cached.
func oracleOptions() raven.QueryOptions {
	return raven.QueryOptions{CrossOptimize: false, Mode: raven.ModeInProcess, Parallelism: 1, DisablePlanCache: true, NoResultCache: true}
}

// columnOf runs q under the oracle options and returns column col of a
// result with one row per id, indexed by column 0 (the id).
func columnOf(db *raven.DB, q string, n, col int) ([]float64, error) {
	rows, err := db.QueryContextWithOptions(context.Background(), q, oracleOptions())
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	seen := 0
	err = scanFloats(rows, func(vals []float64) error {
		id := int(vals[0])
		if id < 0 || id >= n {
			return fmt.Errorf("oracle: id %d outside [0,%d)", id, n)
		}
		out[id] = vals[col]
		seen++
		return nil
	})
	if err == nil && seen != n {
		err = fmt.Errorf("oracle: %d rows, want %d", seen, n)
	}
	return out, err
}

package raven

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/train"
	"raven/internal/types"
)

const topKRule = "topk-score-bound"

// topKRows builds n rows (id, x, y, z). spread draws each feature from a
// seeded stream and plants NaN, +Inf and -Inf in some rows; ties draws
// from four values per feature, so many rows share the k-th score; equal
// gives every row the same features.
func topKRows(kind string, n int, seed uint64) *types.Batch {
	b := types.NewBatch(types.NewSchema(types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "x", Type: types.Float}, types.Column{Name: "y", Type: types.Float}, types.Column{Name: "z", Type: types.Float}))
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed>>11) / (1 << 53)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		f := [3]float64{}
		for j := range f {
			switch kind {
			case "spread":
				f[j] = next()*8 - 4
				if i%97 == j {
					f[j] = specials[(i/97)%3]
				}
			case "ties":
				f[j] = float64(int(next()*4)) - 1.5
			}
		}
		if err := b.AppendRow(int64(i), f[0], f[1], f[2]); err != nil {
			panic(err)
		}
	}
	return b
}

// topKDB holds the tables and forests of the top-k matrix: forests of 3
// and 10 trees (1/3 and 1/10 are inexact in binary), the 10-tree one again
// behind a scaler and behind a shift by 8 (for features SQL can write as
// unsigned literals), a one-tree forest and one with an infinite leaf.
func topKDB(t testing.TB, n int) *DB {
	t.Helper()
	db := MustOpen()
	for _, kind := range []string{"spread", "ties", "equal"} {
		rows := topKRows(kind, n, 7)
		tb := storage.NewTable("tk_"+kind, rows.Schema)
		if err := tb.AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Catalog().AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	train1 := topKRows("spread", 2000, 11)
	x := ml.Matrix{Data: make([]float64, 0, 3*2000), Rows: 2000, Cols: 3}
	y := make([]float64, 2000)
	for i := range y {
		for j := 1; j <= 3; j++ {
			v := train1.Vecs[j].Floats[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x.Data = append(x.Data, v)
		}
		y[i] = math.Sin(x.At(i, 0)) + 0.3*x.At(i, 1)*x.At(i, 2)
	}
	forest := func(trees, depth int) *ml.RandomForest {
		return train.FitForest(x, y, train.ForestOptions{NumTrees: trees, Tree: train.TreeOptions{MaxDepth: depth, MinLeaf: 5}, Seed: 3})
	}
	inf := forest(4, 4)
	for i, f := range inf.Trees[2].Feature {
		if f < 0 {
			inf.Trees[2].Value[i] = math.Inf(1)
			break
		}
	}
	cols := []string{"x", "y", "z"}
	for name, pipe := range map[string]*ml.Pipeline{
		"f3":     {Final: forest(3, 4), InputColumns: cols},
		"f10":    {Final: forest(10, 5), InputColumns: cols},
		"f10sc":  {Steps: []ml.Transformer{&ml.StandardScaler{Mean: []float64{0.5, -1, 0}, Scale: []float64{2, 0.5, 3}}}, Final: forest(10, 5), InputColumns: cols},
		"f10off": {Steps: []ml.Transformer{&ml.StandardScaler{Mean: []float64{8, 8, 8}, Scale: []float64{1, 1, 1}}}, Final: forest(10, 5), InputColumns: cols},
		"f1":     {Final: forest(1, 5), InputColumns: cols},
		"finf":   {Final: inf, InputColumns: cols},
	} {
		if err := db.StoreModel(name, pipe); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// topKOrders are the ORDER BY clauses of the matrix: the benchmark's, one
// whose tie-break favours the later of two rows tied on the score (so a
// tie at θ dropped would show), and the sort's stable order alone.
var topKOrders = []string{"p.s DESC, d.id", "p.s DESC, d.id DESC", "p.s ASC", "p.s ASC, d.id DESC"}

func topKQuery(model, table, order string, k int) string {
	return fmt.Sprintf(`SELECT d.id, p.s FROM PREDICT(MODEL='%s', DATA=%s AS d) WITH (s FLOAT) AS p ORDER BY %s LIMIT %d`, model, table, order, k)
}

func hasRule(rules []string, rule string) bool {
	return strings.Contains(","+strings.Join(rules, ",")+",", ","+rule+",")
}

// TestTopKScoreBoundExact: a forest under ORDER BY score LIMIT k returns
// exactly what the same query returns with the bound off (DisablePruning),
// row for row and bit for bit, at DOP {1, 2, 8} over several morsels, for
// k ∈ {0, 1, 100, n, n+1}, both directions and three tie-breaks.
func TestTopKScoreBoundExact(t *testing.T) {
	const n = 3000
	db := topKDB(t, n)
	cases := []struct{ model, table string }{
		{"f3", "tk_spread"}, {"f10", "tk_spread"}, {"f10sc", "tk_spread"}, {"f10", "tk_ties"}, {"f3", "tk_equal"},
	}
	for _, c := range cases {
		for _, order := range topKOrders {
			for _, k := range []int{0, 1, 100, n, n + 1} {
				q := topKQuery(c.model, c.table, order, k)
				ref := DefaultQueryOptions()
				ref.DisableNNTranslation, ref.DisablePruning, ref.Parallelism = true, true, 1
				want := collectParams(t, db, q, ref, nil)
				if hasRule(want.AppliedRules, topKRule) {
					t.Fatalf("%s: reference ran with the bound", q)
				}
				if want.Batch.Len() != min(k, n) {
					t.Fatalf("%s: reference has %d rows", q, want.Batch.Len())
				}
				for _, dop := range []int{1, 2, 8} {
					opts := DefaultQueryOptions()
					opts.DisableNNTranslation, opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = true, dop, 1, 500
					got := collectParams(t, db, q, opts, nil)
					if hasRule(got.AppliedRules, topKRule) != (k > 0) {
						t.Fatalf("%s dop %d: rules %v", q, dop, got.AppliedRules)
					}
					batchesIdentical(t, fmt.Sprintf("%s dop %d", q, dop), want.Batch, got.Batch)
				}
			}
		}
	}
}

// TestTopKBoundLivesOneExecution: θ belongs to one execution, not to the
// kernel, the predictor or the prepared plan. A prepared statement runs
// over the low-scoring rows, then over rows inserted to outscore that
// run's θ, then over a range holding none of the high rows: a θ carried
// over from the second run would exclude every row of the third.
func TestTopKBoundLivesOneExecution(t *testing.T) {
	db := topKDB(t, 3000)
	pipe, err := db.LoadModel("f10off")
	if err != nil {
		t.Fatal(err)
	}
	all := topKRows("spread", 3000, 7)
	feats := ml.Matrix{Rows: all.Len(), Cols: 3}
	for i := 0; i < all.Len(); i++ {
		for _, v := range all.Vecs[1:] {
			v.Floats[i] += 8
			feats.Data = append(feats.Data, v.Floats[i])
		}
	}
	scores, err := pipe.Predict(feats)
	if err != nil {
		t.Fatal(err)
	}
	median := slices.Sorted(slices.Values(scores))[len(scores)/2]
	var lo, hi []int // rows below and above the median score
	for i, s := range scores {
		if s < median {
			lo = append(lo, i)
		} else if s > median {
			hi = append(hi, i)
		}
	}
	var ddl strings.Builder
	ddl.WriteString("CREATE TABLE tk_live (id INT, x FLOAT, y FLOAT, z FLOAT); INSERT INTO tk_live VALUES ")
	// row appends row i of all as a VALUES tuple under id; SQL has no
	// literal for the planted NaN and infinities, so their rows stay out.
	row := func(sb *strings.Builder, id, i int) {
		vals := []string{strconv.Itoa(id)}
		for _, v := range all.Vecs[1:] {
			if f := v.Floats[i]; math.IsNaN(f) || math.IsInf(f, 0) {
				return
			}
			vals = append(vals, strconv.FormatFloat(v.Floats[i], 'g', -1, 64))
		}
		if !strings.HasSuffix(sb.String(), " ") {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
	for _, i := range lo {
		row(&ddl, i, i)
	}
	if err := db.Exec(ddl.String()); err != nil {
		t.Fatal(err)
	}
	opts := DefaultQueryOptions()
	opts.DisableNNTranslation, opts.NoResultCache, opts.Parallelism, opts.ParallelThresholdRows, opts.MorselSize = true, true, 2, 1, 256
	const q = `SELECT d.id, p.s FROM PREDICT(MODEL='f10off', DATA=tk_live AS d) WITH (s FLOAT) AS p WHERE d.id < @hi ORDER BY p.s DESC, d.id LIMIT 5`
	st, err := db.PrepareWithOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := opts
	ref.DisablePruning, ref.Parallelism = true, 1
	run := func(label, hiID string) *Result {
		t.Helper()
		res, err := collect(st.Query(P("hi", hiID)))
		if err != nil {
			t.Fatal(err)
		}
		if !hasRule(res.AppliedRules, topKRule) {
			t.Fatalf("%s: rules %v", label, res.AppliedRules)
		}
		batchesIdentical(t, label, collectParams(t, db, q, ref, []Param{P("hi", hiID)}).Batch, res.Batch)
		return res
	}
	run("low rows", "100000")
	var ins strings.Builder
	ins.WriteString("INSERT INTO tk_live VALUES ")
	for _, i := range hi {
		row(&ins, 10000+i, i)
	}
	if err := db.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}
	if res := run("after insert", "100000"); res.Batch.Vecs[0].Ints[0] < 10000 {
		t.Fatalf("after insert: top row %d is not an inserted one", res.Batch.Vecs[0].Ints[0])
	}
	if res := run("low range", "10000"); res.Batch.Len() != 5 {
		t.Fatalf("low range: %d rows", res.Batch.Len())
	}
}

// TestTopKScoreBoundRefusals: each query leaves its plan exactly as it is
// with the rule off, and returns the same rows.
func TestTopKScoreBoundRefusals(t *testing.T) {
	db := topKDB(t, 1000)
	over := func(model, with string) string {
		return `FROM PREDICT(MODEL='` + model + `', DATA=tk_spread AS d) WITH (` + with + `) AS p `
	}
	for name, q := range map[string]string{
		"INT output":        `SELECT d.id, p.s ` + over("f10", "s INT") + `ORDER BY p.s DESC LIMIT 5`,
		"computed key":      `SELECT d.id, p.s * 2 AS s2 ` + over("f10", "s FLOAT") + `ORDER BY s2 DESC LIMIT 5`,
		"score second key":  `SELECT d.id, d.x, p.s ` + over("f10", "s FLOAT") + `ORDER BY d.x, p.s DESC LIMIT 5`,
		"filter on score":   `SELECT d.id, p.s ` + over("f10", "s FLOAT") + `WHERE p.s > 0.1 ORDER BY p.s DESC LIMIT 5`,
		"single tree":       `SELECT d.id, p.s ` + over("f1", "s FLOAT") + `ORDER BY p.s DESC LIMIT 5`,
		"non-finite leaf":   `SELECT d.id, p.s ` + over("finf", "s FLOAT") + `ORDER BY p.s DESC LIMIT 5`,
		"no limit":          `SELECT d.id, p.s ` + over("f10", "s FLOAT") + `ORDER BY p.s DESC`,
		"limit over a join": `SELECT d.id, p.s ` + over("f10", "s FLOAT") + `JOIN tk_ties AS e ON d.id = e.id ORDER BY p.s DESC LIMIT 5`,
	} {
		opts := DefaultQueryOptions()
		opts.DisableNNTranslation = true
		off := opts
		off.DisablePruning = true
		plan, err := db.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref, _ := db.Explain(q, off); plan != ref || strings.Contains(plan, topKRule) {
			t.Errorf("%s: plan changed:\n%s", name, plan)
		}
		batchesIdentical(t, name, collectParams(t, db, q, off, nil).Batch, collectParams(t, db, q, opts, nil).Batch)
	}
}

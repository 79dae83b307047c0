package bench

import (
	"fmt"
	"math/rand"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/ml"
	"raven/internal/nnconv"
	"raven/internal/ort"
	"raven/internal/pyanal"
	"raven/internal/rt"
	"raven/internal/tensor"
	"raven/internal/train"
	"raven/internal/xopt"
)

// Config scales the experiments. Quick shrinks sizes for unit-test and CI
// runs; Full approximates the paper's largest points that fit in memory.
type Config struct {
	Quick bool
	// Warm and Runs control timing (paper: averages over warm runs).
	Warm, Runs int
	// Parallelism configures the engines the experiments build (0 keeps
	// the engine default). Experiments that pin DOP explicitly (e.g.
	// Fig2a's serial baselines) override per query and are unaffected.
	Parallelism int
}

// open builds an engine honoring the configured DOP.
func (c Config) open() *raven.DB {
	return raven.MustOpen(raven.WithParallelism(c.Parallelism))
}

// DefaultConfig mirrors the paper's methodology at laptop scale.
func DefaultConfig() Config { return Config{Warm: 1, Runs: 3} }

// QuickConfig is used by unit-size benchmark invocations.
func QuickConfig() Config { return Config{Quick: true, Warm: 1, Runs: 1} }

func (c Config) sizes(full []int) []int {
	if !c.Quick {
		return full
	}
	// quick: first two sizes only
	if len(full) > 2 {
		return full[:2]
	}
	return full
}

// hospitalForestPipeline trains the RF pipeline used by Fig 2(d)/Fig 3.
func hospitalForestPipeline(h *data.Hospital, trees, depth int) *ml.Pipeline {
	sc := ml.FitScaler(h.TrainX)
	scaled, _ := sc.Transform(h.TrainX)
	rf := train.FitForest(scaled, h.TrainY, train.ForestOptions{
		NumTrees: trees,
		Seed:     9,
		Tree:     train.TreeOptions{MaxDepth: depth, MinLeaf: 10},
	})
	return &ml.Pipeline{Steps: []ml.Transformer{sc}, Final: rf, InputColumns: h.FeatureCols}
}

// predictQuery builds the standard hospital inference query.
const hospitalPredictQuery = `SELECT p.score FROM PREDICT(MODEL='%s',
  DATA=(SELECT * FROM patient_info AS pi
        JOIN blood_tests AS bt ON pi.id = bt.id
        JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
  WITH (score FLOAT) AS p`

// Fig2a reproduces model-projection pushdown on L1-sparse logistic
// regression (paper: ~1.7× at 41.75% sparsity, ~5.3× at 80.96%).
func Fig2a(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "Fig2a",
		Title:      "model-projection pushdown (flight delay, L1 logistic regression)",
		PaperShape: "~1.7x speedup at 41.75% sparsity, ~5.3x at 80.96%; gain driven by #features dropped",
	}
	rows := 1000000
	d := 200
	if cfg.Quick {
		rows, d = 50000, 100
	}
	db := cfg.open()
	fl, err := data.GenFlightsWide(db.Catalog(), rows, d, d/3, 4000, 21)
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name string
		l1   float64
	}{
		{"lr_low_sparsity", 0.002},
		{"lr_high_sparsity", 0.012},
	} {
		lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: m.l1, Epochs: 60, Seed: 2})
		pipe := &ml.Pipeline{Final: lr, InputColumns: fl.FeatureCols}
		if err := db.StoreModel(m.name, pipe); err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`SELECT p.prob FROM PREDICT(MODEL='%s', DATA=flights_features AS d) WITH (prob FLOAT) AS p`, m.name)
		label := fmt.Sprintf("%s (%.1f%% sparse)", m.name, lr.Sparsity()*100)

		base, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := db.QueryWithOptions(q, raven.QueryOptions{CrossOptimize: false, Mode: raven.ModeInProcess, Parallelism: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		opt, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := db.QueryWithOptions(q, raven.QueryOptions{
				CrossOptimize: true, DisableNNTranslation: true, DisableInlining: true,
				Mode: raven.ModeInProcess, Parallelism: 1,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("baseline", label, base, "")
		t.Add("projection pushdown", label, opt, fmt.Sprintf("speedup %.2fx", float64(base)/float64(opt)))
	}
	return t, nil
}

// Fig2b reproduces model clustering (paper: up to 54% less inference time
// on flight delay, gain grows then saturates with cluster count; hospital
// does not benefit because its categorical features are already binary).
// The pipeline is one-hot encode + logistic regression; per-cluster
// specialization folds cluster-constant categorical columns into the bias
// so they are neither encoded nor multiplied.
func Fig2b(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "Fig2b",
		Title:      "model clustering (flight delay one-hot+LR pipeline; hospital control)",
		PaperShape: "up to 54% reduction; more clusters -> bigger gain with diminishing returns; hospital: no benefit",
	}
	rows := 700000
	if cfg.Quick {
		rows = 60000
	}
	const (
		numerics = 3
		catCount = 5
		groups   = 32
	)
	d := numerics + catCount
	rng := rand.New(rand.NewSource(77))
	raw := make([]float64, rows*d)
	for i := 0; i < rows; i++ {
		g := rng.Intn(groups)
		row := raw[i*d : (i+1)*d]
		for j := 0; j < numerics; j++ {
			row[j] = rng.NormFloat64()
		}
		// hierarchical categorical encodings: cat j = g >> j, so coarser
		// clusterings pin the coarse columns and finer clusterings pin
		// progressively more (the paper's growing-then-saturating curve)
		for j := 0; j < catCount; j++ {
			row[numerics+j] = float64(g >> j)
		}
	}
	rawM := ml.Matrix{Data: raw, Rows: rows, Cols: d}
	catCols := make([]int, catCount)
	for j := range catCols {
		catCols[j] = numerics + j
	}
	sampleN := 20000
	if sampleN > rows {
		sampleN = rows
	}
	sample := ml.Matrix{Data: raw[:sampleN*d], Rows: sampleN, Cols: d}
	enc := ml.FitOneHot(sample, catCols)
	encSample, err := enc.Transform(sample)
	if err != nil {
		return nil, err
	}
	ys := make([]float64, sampleN)
	for i := range ys {
		if sample.At(i, 0) > 0 {
			ys[i] = 1
		}
	}
	lr := train.FitLogReg(encSample, ys, train.LogRegOptions{Epochs: 10, Seed: 3})

	// baseline: encode + predict, chunked the way a pipeline executes
	const chunk = 8192
	base, err := Time(cfg.Warm, cfg.Runs, func() error {
		for lo := 0; lo < rows; lo += chunk {
			hi := lo + chunk
			if hi > rows {
				hi = rows
			}
			part := ml.Matrix{Data: raw[lo*d : hi*d], Rows: hi - lo, Cols: d}
			encPart, err := enc.Transform(part)
			if err != nil {
				return err
			}
			if _, err := lr.Predict(encPart); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Add("original pipeline", "k=1", base, "")
	for _, k := range cfg.sizes([]int{2, 4, 8, 16, 32}) {
		compileStart := time.Now()
		cm, err := xopt.BuildClusteredEncodedModel(enc, lr, sample, k, 1e-9, 5)
		if err != nil {
			return nil, err
		}
		compile := time.Since(compileStart)
		dur, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := cm.Predict(rawM)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("clustered", fmt.Sprintf("k=%d", k), dur,
			fmt.Sprintf("k=%d: avg active terms %.1f (of %d raw cols), offline clustering %v",
				k, cm.AvgActiveTerms(), d, compile.Round(time.Millisecond)))
	}
	// hospital control: categorical features are already binary, so the
	// encoder drops (almost) nothing and clustering does not pay.
	hcat := cfg.open().Catalog()
	h, err := data.GenHospital(hcat, 1000, min(rows, 200000), 7)
	if err != nil {
		return nil, err
	}
	hlr := train.FitLogReg(h.TrainX, h.TrainY, train.LogRegOptions{Epochs: 10, Seed: 3})
	hbase, err := Time(cfg.Warm, cfg.Runs, func() error { _, err := hlr.Predict(h.TrainX); return err })
	if err != nil {
		return nil, err
	}
	hcm, err := raven.BuildClusteredModel(hlr, h.TrainX, 8, 1e-9, 5)
	if err != nil {
		return nil, err
	}
	hdur, err := Time(cfg.Warm, cfg.Runs, func() error { _, err := hcm.Predict(h.TrainX); return err })
	if err != nil {
		return nil, err
	}
	t.Add("original pipeline", "hospital k=1", hbase, "")
	t.Add("clustered", "hospital k=8", hdur,
		fmt.Sprintf("hospital: avg kept %.1f/%d features (binary features, few dropped -> no benefit)", hcm.AvgKeptFeatures(), h.TrainX.Cols))
	return t, nil
}

// Fig2c reproduces model inlining (paper: ~17× at 300K rows for tree→SQL
// CASE vs scikit-learn reading from the DB; predicate pruning adds ~29%
// for 24.5× total).
func Fig2c(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "Fig2c",
		Title:      "model inlining (hospital stay, decision tree as SQL CASE)",
		PaperShape: "~17x at 300K rows vs sklearn-from-DB; +29% with predicate pruning => 24.5x total",
	}
	sizes := cfg.sizes([]int{1000, 10000, 100000, 300000})
	maxRows := sizes[len(sizes)-1]
	db := cfg.open()
	h, err := data.GenHospital(db.Catalog(), maxRows, 4000, 42)
	if err != nil {
		return nil, err
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	pipe := &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}
	if err := db.StoreModel("los_tree", pipe); err != nil {
		return nil, err
	}
	db.Runtime().ExternalStartup = rt.DefaultExternalStartup
	for _, n := range sizes {
		lim := FmtRows(n)
		q := fmt.Sprintf(`SELECT p.score FROM PREDICT(MODEL='los_tree',
			DATA=(SELECT * FROM patient_info AS pi
			      JOIN blood_tests AS bt ON pi.id = bt.id
			      JOIN prenatal_tests AS pt ON bt.id = pt.id
			      WHERE pi.id < %d) AS d)
			WITH (score FLOAT) AS p WHERE d.pregnant = 1`, n)
		// Baseline: the classical framework outside the DB — external
		// runtime startup + data transfer + per-row tree traversal.
		base, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := db.QueryWithOptions(q, raven.QueryOptions{CrossOptimize: false, Mode: raven.ModeOutOfProcess, Parallelism: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		inlined, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := db.QueryWithOptions(q, raven.QueryOptions{
				CrossOptimize: true, DisablePruning: true, DisableNNTranslation: true,
				Mode: raven.ModeInProcess, Parallelism: 1,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		pruned, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := db.QueryWithOptions(q, raven.QueryOptions{
				CrossOptimize: true, DisableNNTranslation: true,
				Mode: raven.ModeInProcess, Parallelism: 1,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("sklearn-sim from DB", lim, base, "")
		t.Add("inlined CASE", lim, inlined, "")
		t.Add("inlined + pruning", lim, pruned, "")
	}
	return t, nil
}

// Fig2d reproduces NN translation (paper: RF-NN CPU ≈2× sklearn at 1K,
// GPU +10% over CPU at 1K, GPU up to 15× sklearn at 1M; CPU gap closes at
// scale).
func Fig2d(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "Fig2d",
		Title:      "NN translation (hospital stay, random forest; GPU series simulated)",
		PaperShape: "RF-NN CPU ~2x sklearn at 1K; GPU wins more with scale (up to 15x at 1M); CPU gap closes at scale",
	}
	sizes := cfg.sizes([]int{1000, 10000, 100000, 1000000})
	cat := cfg.open().Catalog()
	h, err := data.GenHospital(cat, 1000, 4000, 42)
	if err != nil {
		return nil, err
	}
	pipe := hospitalForestPipeline(h, 10, 6)
	g, err := nnconv.TranslatePipeline(pipe)
	if err != nil {
		return nil, err
	}
	cpuSess, err := ort.NewSessionWithOptions(g, ort.SessionOptions{Optimize: true, Provider: ort.CPUProvider{}})
	if err != nil {
		return nil, err
	}
	gpuSess, err := ort.NewSessionWithOptions(g, ort.SessionOptions{Optimize: true, Provider: ort.DefaultGPU()})
	if err != nil {
		return nil, err
	}
	maxRows := sizes[len(sizes)-1]
	xAll := replicateMatrix(h.TrainX, maxRows)
	for _, n := range sizes {
		lim := FmtRows(n)
		x := ml.Matrix{Data: xAll.Data[:n*xAll.Cols], Rows: n, Cols: xAll.Cols}
		skl, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, err := pipe.Predict(x)
			return err
		})
		if err != nil {
			return nil, err
		}
		xt, err := tensor.FromSlice(x.Data, n, x.Cols)
		if err != nil {
			return nil, err
		}
		cpu, err := Time(cfg.Warm, cfg.Runs, func() error {
			_, _, err := cpuSess.Run(map[string]*tensor.Tensor{"X": xt})
			return err
		})
		if err != nil {
			return nil, err
		}
		// GPU: results computed on host; report the device-model charged
		// time (ort.GPUProvider: a priced model, not a measurement).
		var charged time.Duration
		_, st, err := gpuSess.Run(map[string]*tensor.Tensor{"X": xt})
		if err != nil {
			return nil, err
		}
		charged = st.Charged
		t.Add("RF (sklearn-sim)", lim, skl, "")
		t.Add("RF-NN (CPU)", lim, cpu, "")
		t.AddMillis("RF-NN (GPU, simulated)", lim, float64(charged.Microseconds())/1000, "GPU series uses the calibrated device cost model")
	}
	return t, nil
}

// replicateMatrix tiles src rows until n rows.
func replicateMatrix(src ml.Matrix, n int) ml.Matrix {
	out := make([]float64, n*src.Cols)
	for i := 0; i < n; i++ {
		copy(out[i*src.Cols:(i+1)*src.Cols], src.Row(i%src.Rows))
	}
	return ml.Matrix{Data: out, Rows: n, Cols: src.Cols}
}

// Fig3 reproduces the inference-mode comparison: standalone ORT vs Raven
// (in-process, session cache, parallel scan+PREDICT) vs Raven Ext
// (out-of-process, ~0.5s startup), for RF and MLP pipelines.
func Fig3(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "Fig3",
		Title: "inference modes (ORT standalone vs Raven in-process vs Raven Ext)",
		PaperShape: "Raven faster on small data (session cache: 3ms vs 20ms at 100 rows); <=15% overhead mid-range; " +
			"~5x faster at 1M+ via parallel scan+PREDICT; Raven Ext +~0.5s constant",
	}
	sizes := cfg.sizes([]int{100, 10000, 100000, 1000000})
	maxRows := sizes[len(sizes)-1]
	db := cfg.open()
	h, err := data.GenHospital(db.Catalog(), maxRows, 4000, 42)
	if err != nil {
		return nil, err
	}
	models := []struct {
		name string
		pipe *ml.Pipeline
	}{
		{"rf", hospitalForestPipeline(h, 10, 6)},
	}
	if !cfg.Quick {
		sc := ml.FitScaler(h.TrainX)
		scaled, _ := sc.Transform(h.TrainX)
		mlp := train.FitMLP(scaled, h.TrainY, train.MLPOptions{Hidden: []int{32, 16}, Epochs: 3, Seed: 4, Classifier: true})
		models = append(models, struct {
			name string
			pipe *ml.Pipeline
		}{"mlp", &ml.Pipeline{Steps: []ml.Transformer{sc}, Final: mlp, InputColumns: h.FeatureCols}})
	}
	for _, m := range models {
		if err := db.StoreModel(m.name, m.pipe); err != nil {
			return nil, err
		}
		g, err := nnconv.TranslatePipeline(m.pipe)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			lim := FmtRows(n) + " " + m.name
			q := fmt.Sprintf(`SELECT p.score FROM PREDICT(MODEL='%s',
				DATA=(SELECT * FROM patient_info AS pi
				      JOIN blood_tests AS bt ON pi.id = bt.id
				      JOIN prenatal_tests AS pt ON bt.id = pt.id
				      WHERE pi.id < %d) AS d)
				WITH (score FLOAT) AS p`, m.name, n)

			// Standalone ORT: reload (re-build) the session every query,
			// single inference call, no DB parallelism.
			ortTime, err := Time(cfg.Warm, cfg.Runs, func() error {
				sess, err := ort.NewSessionWithOptions(g.Clone(), ort.SessionOptions{Optimize: true, Provider: ort.CPUProvider{Parallelism: 1}})
				if err != nil {
					return err
				}
				x, err := extractMatrix(db, n, h.FeatureCols)
				if err != nil {
					return err
				}
				_, _, err = sess.Run(map[string]*tensor.Tensor{"X": x})
				return err
			})
			if err != nil {
				return nil, err
			}
			raven8, err := Time(cfg.Warm, cfg.Runs, func() error {
				_, err := db.QueryWithOptions(q, raven.QueryOptions{
					CrossOptimize: false, Mode: raven.ModeInProcessNN, Parallelism: 8,
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			ravenSeq, err := Time(cfg.Warm, cfg.Runs, func() error {
				_, err := db.QueryWithOptions(q, raven.QueryOptions{
					CrossOptimize: false, Mode: raven.ModeInProcessNN, Parallelism: 1,
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			ext, err := Time(cfg.Warm, min(cfg.Runs, 1), func() error {
				db.Runtime().ExternalStartup = rt.DefaultExternalStartup
				_, err := db.QueryWithOptions(q, raven.QueryOptions{
					CrossOptimize: false, Mode: raven.ModeOutOfProcess, Parallelism: 1,
					DisableSessionCache: true,
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add("ORT", lim, ortTime, "")
			t.Add("Raven", lim, raven8, "")
			t.Add("Raven (forced sequential)", lim, ravenSeq, "")
			t.Add("Raven Ext", lim, ext, "")
		}
	}
	return t, nil
}

// extractMatrix reads the joined hospital features for the first n ids —
// the "read the data" step of standalone scoring.
func extractMatrix(db *raven.DB, n int, cols []string) (*tensor.Tensor, error) {
	q := fmt.Sprintf(`SELECT * FROM patient_info AS pi
		JOIN blood_tests AS bt ON pi.id = bt.id
		JOIN prenatal_tests AS pt ON bt.id = pt.id
		WHERE pi.id < %d`, n)
	res, err := db.QueryWithOptions(q, raven.QueryOptions{CrossOptimize: false})
	if err != nil {
		return nil, err
	}
	flat, rows, err := res.Batch.FloatMatrix(cols)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(flat, rows, len(cols))
}

// PredicatePruning reproduces §4.1's inline numbers: ~29% faster tree
// prediction under pregnant=1, and ~2.1× logistic regression with a
// destination-airport equality pinning its one-hot block (selectivity-
// independent: the gain comes from the dropped features).
func PredicatePruning(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "PredPruning",
		Title:      "predicate-based model pruning (model-only scoring time)",
		PaperShape: "tree: ~29% faster under pregnant=1; LR+one-hot: ~2.1x with destination filter, selectivity-independent",
	}
	// Tree: deep tree over hospital-like features where pregnant splits
	// appear throughout.
	cat := cfg.open().Catalog()
	h, err := data.GenHospital(cat, 1000, 8000, 17)
	if err != nil {
		return nil, err
	}
	n := 200000
	if cfg.Quick {
		n = 20000
	}
	x := replicateMatrix(h.TrainX, n)
	// force rows to pregnant=1 so both models traverse valid paths
	for i := 0; i < n; i++ {
		x.Data[i*x.Cols] = 1
		x.Data[i*x.Cols+2] = 1
	}
	// A tree shaped like the paper's: pregnant at the root, a deep
	// not-pregnant subtree, a shallower pregnant subtree. Pruning on
	// pregnant=1 removes the root test and the deep branch, cutting the
	// average path length for the scored rows.
	tree := prunableTree(10, 4)
	pruned := tree.Prune(ml.Constraints{0: ml.Point(1), 2: ml.Point(1)})
	base, err := Time(cfg.Warm, cfg.Runs, func() error { _, err := tree.Predict(x); return err })
	if err != nil {
		return nil, err
	}
	fast, err := Time(cfg.Warm, cfg.Runs, func() error { _, err := pruned.Predict(x); return err })
	if err != nil {
		return nil, err
	}
	t.Add("original", "tree (pregnant=1)", base,
		fmt.Sprintf("tree nodes %d -> %d", tree.NumNodes(), pruned.NumNodes()))
	t.Add("pruned", "tree (pregnant=1)", fast,
		fmt.Sprintf("tree time reduced %.0f%%", 100*(1-float64(fast)/float64(base))))

	// LR over one-hot destination (100 airports): equality pins 100
	// indicators, PinFeatures folds them into the bias.
	nDest := 100
	enc := &ml.OneHotEncoder{Cols: []int{1}, Categories: [][]float64{seqFloats(nDest)}, InputDim: 2}
	w := make([]float64, 1+nDest)
	for i := range w {
		w[i] = 0.01 * float64(i%7)
	}
	lr := &ml.LogisticRegression{W: w, B: 0}
	raw := make([]float64, n*2)
	for i := 0; i < n; i++ {
		raw[i*2] = float64(i % 3000)
		raw[i*2+1] = 42 // matches the filter dest=42 (selectivity-independent per paper)
	}
	rawM := ml.Matrix{Data: raw, Rows: n, Cols: 2}
	full, err := enc.Transform(rawM)
	if err != nil {
		return nil, err
	}
	lrBase, err := Time(cfg.Warm, cfg.Runs, func() error { _, err := lr.Predict(full); return err })
	if err != nil {
		return nil, err
	}
	pins := map[int]float64{}
	idx42, err := enc.OutputIndexOfCategory(2, 1, 42)
	if err != nil {
		return nil, err
	}
	lo, hi, _ := enc.IndicatorRange(2, 1)
	for j := lo; j < hi; j++ {
		if j == idx42 {
			pins[j] = 1
		} else {
			pins[j] = 0
		}
	}
	pinned, kept := lr.PinFeatures(pins)
	sel := &ml.ColumnSelect{Indices: kept}
	lrFast, err := Time(cfg.Warm, cfg.Runs, func() error {
		nx, err := sel.Transform(full)
		if err != nil {
			return err
		}
		_, err = pinned.Predict(nx)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Add("original", "LR one-hot (dest=42)", lrBase, "")
	t.Add("pruned", "LR one-hot (dest=42)", lrFast,
		fmt.Sprintf("LR features %d -> %d, speedup %.2fx", len(w), len(pinned.W), float64(lrBase)/float64(lrFast)))
	return t, nil
}

// prunableTree builds pregnant(0) at the root with a depth-`deep`
// subtree on the left (pregnant=0) and a depth-`shallow` bp/age subtree on
// the right.
func prunableTree(deep, shallow int) *ml.DecisionTree {
	t := &ml.DecisionTree{NFeat: 9}
	add := func(f int, thr, v float64) int {
		t.Feature = append(t.Feature, f)
		t.Threshold = append(t.Threshold, thr)
		t.Left = append(t.Left, -1)
		t.Right = append(t.Right, -1)
		t.Value = append(t.Value, v)
		return len(t.Feature) - 1
	}
	var build func(depth, feat int) int
	build = func(depth, feat int) int {
		if depth == 0 {
			return add(-1, 0, float64(feat%3))
		}
		f := 1 + (feat % 8)
		self := add(f, float64(30+feat*7%90), 0)
		l := build(depth-1, feat*2+1)
		r := build(depth-1, feat*2+2)
		t.Left[self], t.Right[self] = l, r
		return self
	}
	root := add(0, 0.5, 0)
	l := build(deep, 1)
	r := build(shallow, 2)
	t.Left[root], t.Right[root] = l, r
	// node 0 is already the root by construction
	return t
}

func seqFloats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// BatchVsTuple reproduces §5 observation (v): batch inference beats
// per-tuple inference by about an order of magnitude.
func BatchVsTuple(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "BatchVsTuple",
		Title:      "batch inference vs one prediction per tuple",
		PaperShape: "batching gains about an order of magnitude",
	}
	cat := cfg.open().Catalog()
	h, err := data.GenHospital(cat, 1000, 4000, 42)
	if err != nil {
		return nil, err
	}
	pipe := hospitalForestPipeline(h, 5, 5)
	g, err := nnconv.TranslatePipeline(pipe)
	if err != nil {
		return nil, err
	}
	sess, err := ort.NewSession(g)
	if err != nil {
		return nil, err
	}
	n := 20000
	if cfg.Quick {
		n = 2000
	}
	x := replicateMatrix(h.TrainX, n)
	for _, batch := range []int{1, 64, 1024, 4096} {
		dur, err := Time(cfg.Warm, 1, func() error {
			for lo := 0; lo < n; lo += batch {
				hi := lo + batch
				if hi > n {
					hi = n
				}
				xt, err := tensor.FromSlice(x.Data[lo*x.Cols:hi*x.Cols], hi-lo, x.Cols)
				if err != nil {
					return err
				}
				if _, _, err := sess.Run(map[string]*tensor.Tensor{"X": xt}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Add("RF-NN", fmt.Sprintf("batch=%d", batch), dur, "")
	}
	return t, nil
}

// StaticAnalysis reproduces §3.2's claim that analysis takes <10ms.
func StaticAnalysis(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "StaticAnalysis",
		Title:      "static analysis latency (running-example pipeline script)",
		PaperShape: "less than 10 msec in most practical cases",
	}
	script := `
import pandas as pd
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier

data = pd.read_sql("SELECT * FROM patients", conn)
features = data[["pregnant", "age", "gender", "bp"]]
model_pipeline = Pipeline([
    ("union", FeatureUnion([("scaler", StandardScaler())])),
    ("clf", DecisionTreeClassifier(max_depth=6)),
])
`
	dur, err := Time(5, 100, func() error {
		_, err := pyanal.Analyze(script)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Add("analyze", "running example", dur, "")
	return t, nil
}

// RunningExample times the full Fig 1 query with and without the cross
// optimizer (paper §2: up to 24x end-to-end from cross-optimizations).
func RunningExample(cfg Config) (*Table, error) {
	t := &Table{
		ID:         "RunningExample",
		Title:      "Fig 1 inference query end-to-end (all optimizations vs none)",
		PaperShape: "cross-optimizations yield up to 24x (vs framework outside the DB)",
	}
	rows := 300000
	if cfg.Quick {
		rows = 30000
	}
	db := cfg.open()
	h, err := data.GenHospital(db.Catalog(), rows, 4000, 42)
	if err != nil {
		return nil, err
	}
	tree := train.FitTree(h.TrainX, h.TrainY, train.TreeOptions{MaxDepth: 6, MinLeaf: 10})
	pipe := &ml.Pipeline{Final: tree, InputColumns: h.FeatureCols}
	if err := db.StoreModel("duration_of_stay", pipe); err != nil {
		return nil, err
	}
	q := `DECLARE @model = 'duration_of_stay';
WITH data AS (
  SELECT * FROM patient_info AS pi
  JOIN blood_tests AS bt ON pi.id = bt.id
  JOIN prenatal_tests AS pt ON bt.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay FLOAT) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 0.5`
	base, err := Time(cfg.Warm, cfg.Runs, func() error {
		_, err := db.QueryWithOptions(q, raven.QueryOptions{CrossOptimize: false, Mode: raven.ModeOutOfProcess, Parallelism: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := db.Query(q)
	if err != nil {
		return nil, err
	}
	opt, err := Time(cfg.Warm, cfg.Runs, func() error {
		_, err := db.Query(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Add("no optimization (external)", "Fig1 query", base, "")
	t.Add("Raven optimized", "Fig1 query", opt,
		fmt.Sprintf("rules: %v; speedup %.1fx", res.AppliedRules, float64(base)/float64(opt)))
	return t, nil
}

// Package data generates the two evaluation workloads of the paper,
// seeded and deterministic: the hospital length-of-stay dataset (three
// joinable tables mirroring Fig 1's patient_info / blood_tests /
// prenatal_tests) and the flight-delay dataset (a wide one-hot-encoded
// feature table plus a narrow categorical table). Labels come from known
// ground-truth rules so trained models have realistic, exploitable
// structure (sparsity, prunable branches).
package data

import (
	"fmt"
	"math"
	"math/rand"

	"raven/internal/ml"
	"raven/internal/storage"
	"raven/internal/types"
)

// Hospital bundles the generated hospital tables and a held-out training
// sample (featurized the same way the inference query joins the tables).
type Hospital struct {
	// FeatureCols is the model input order over the joined row.
	FeatureCols []string
	TrainX      ml.Matrix
	TrainY      []float64
}

// HospitalFeatureCols is the canonical feature order of the workload.
var HospitalFeatureCols = []string{
	"pregnant", "age", "gender", "weight",
	"bp", "glucose", "hematocrit",
	"fetal_hr", "amnio",
}

// GenHospital creates patient_info, blood_tests and prenatal_tests with n
// rows each (id-joined 1:1, referential integrity by construction),
// registers them in the catalog with unique keys, and returns a training
// sample of trainN independent rows.
func GenHospital(cat *storage.Catalog, n, trainN int, seed int64) (*Hospital, error) {
	rng := rand.New(rand.NewSource(seed))

	pi := storage.NewTable("patient_info", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "age", Type: types.Float},
		types.Column{Name: "pregnant", Type: types.Int},
		types.Column{Name: "gender", Type: types.Int},
		types.Column{Name: "weight", Type: types.Float},
	))
	bt := storage.NewTable("blood_tests", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "bp", Type: types.Float},
		types.Column{Name: "glucose", Type: types.Float},
		types.Column{Name: "hematocrit", Type: types.Float},
	))
	pt := storage.NewTable("prenatal_tests", types.NewSchema(
		types.Column{Name: "id", Type: types.Int},
		types.Column{Name: "fetal_hr", Type: types.Float},
		types.Column{Name: "amnio", Type: types.Float},
	))

	genRow := func(rng *rand.Rand) []float64 {
		// feature order: HospitalFeatureCols
		gender := float64(rng.Intn(2)) // 1 = female
		pregnant := 0.0
		if gender == 1 && rng.Float64() < 0.3 {
			pregnant = 1
		}
		age := 18 + rng.Float64()*62
		weight := 45 + rng.Float64()*75
		bp := 90 + rng.Float64()*80
		glucose := 60 + rng.Float64()*140
		hematocrit := 30 + rng.Float64()*25
		fetalHR := 0.0
		amnio := 0.0
		if pregnant == 1 {
			fetalHR = 110 + rng.Float64()*60
			amnio = 5 + rng.Float64()*20
		}
		return []float64{pregnant, age, gender, weight, bp, glucose, hematocrit, fetalHR, amnio}
	}

	// losLabel is the ground truth the paper's running example sketches:
	// long stays driven by blood pressure, pregnancy and age.
	losLabel := func(f []float64, rng *rand.Rand) float64 {
		pregnant, age, bp := f[0], f[1], f[4]
		glucose := f[5]
		long := 0.0
		switch {
		case pregnant == 1 && bp > 140:
			long = 0.9
		case pregnant == 1 && bp > 120:
			long = 0.55
		case age > 65 && glucose > 150:
			long = 0.7
		case age > 35 && bp > 150:
			long = 0.5
		default:
			long = 0.08
		}
		if rng.Float64() < long {
			return 1
		}
		return 0
	}

	buf := make([]any, 0, 8)
	for i := 0; i < n; i++ {
		f := genRow(rng)
		buf = buf[:0]
		buf = append(buf, int64(i), f[1], int64(f[0]), int64(f[2]), f[3])
		if err := pi.AppendRow(buf...); err != nil {
			return nil, err
		}
		if err := bt.AppendRow(int64(i), f[4], f[5], f[6]); err != nil {
			return nil, err
		}
		if err := pt.AppendRow(int64(i), f[7], f[8]); err != nil {
			return nil, err
		}
	}
	for _, t := range []*storage.Table{pi, bt, pt} {
		if err := cat.AddTable(t); err != nil {
			return nil, err
		}
		cat.SetUniqueKey(t.Name, "id")
	}

	trainRng := rand.New(rand.NewSource(seed + 1))
	d := len(HospitalFeatureCols)
	tx := make([]float64, trainN*d)
	ty := make([]float64, trainN)
	for i := 0; i < trainN; i++ {
		f := genRow(trainRng)
		copy(tx[i*d:(i+1)*d], f)
		ty[i] = losLabel(f, trainRng)
	}
	return &Hospital{
		FeatureCols: HospitalFeatureCols,
		TrainX:      ml.Matrix{Data: tx, Rows: trainN, Cols: d},
		TrainY:      ty,
	}, nil
}

// Flights bundles the generated flight-delay tables and training sample.
type Flights struct {
	// FeatureCols names the wide table's pre-encoded feature columns
	// (f0..f{d-1}), the model input order.
	FeatureCols []string
	TrainX      ml.Matrix
	TrainY      []float64
	// SignalFeatures are the ground-truth informative feature ordinals.
	SignalFeatures []int
}

// GenFlightsWide creates flights_features: a wide table of d pre-encoded
// features per flight (the shape after categorical encoding of
// origin/destination/carrier — this is what L1-regularized models are
// trained on in §4.1), plus a training sample. Only nSignal features carry
// signal, so L1 training recovers genuinely sparse models.
func GenFlightsWide(cat *storage.Catalog, n, d, nSignal, trainN int, seed int64) (*Flights, error) {
	if nSignal > d {
		return nil, fmt.Errorf("data: nSignal %d > d %d", nSignal, d)
	}
	rng := rand.New(rand.NewSource(seed))
	cols := make([]types.Column, 0, d+1)
	cols = append(cols, types.Column{Name: "id", Type: types.Int})
	featureCols := make([]string, d)
	for j := 0; j < d; j++ {
		featureCols[j] = fmt.Sprintf("f%d", j)
		cols = append(cols, types.Column{Name: featureCols[j], Type: types.Float})
	}
	tb := storage.NewTable("flights_features", types.NewSchema(cols...))

	// ground-truth sparse weights on the first nSignal features (shuffled
	// positions for realism)
	pos := rng.Perm(d)[:nSignal]
	w := make([]float64, d)
	for _, p := range pos {
		w[p] = rng.NormFloat64() * 2
	}

	genRow := func(rng *rand.Rand, out []float64) {
		for j := range out {
			// Binary-ish features (one-hot encodings) mixed with a few
			// continuous ones.
			if j%5 == 0 {
				out[j] = rng.NormFloat64()
			} else if rng.Float64() < 0.15 {
				out[j] = 1
			} else {
				out[j] = 0
			}
		}
	}
	label := func(f []float64, rng *rand.Rand) float64 {
		z := -0.2
		for _, p := range pos {
			z += w[p] * f[p]
		}
		// logistic noise
		if 1/(1+exp(-z)) > rng.Float64() {
			return 1
		}
		return 0
	}

	row := make([]float64, d)
	vals := make([]any, d+1)
	for i := 0; i < n; i++ {
		genRow(rng, row)
		vals[0] = int64(i)
		for j, x := range row {
			vals[j+1] = x
		}
		if err := tb.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	if err := cat.AddTable(tb); err != nil {
		return nil, err
	}
	cat.SetUniqueKey(tb.Name, "id")

	trainRng := rand.New(rand.NewSource(seed + 1))
	tx := make([]float64, trainN*d)
	ty := make([]float64, trainN)
	for i := 0; i < trainN; i++ {
		genRow(trainRng, tx[i*d:(i+1)*d])
		ty[i] = label(tx[i*d:(i+1)*d], trainRng)
	}
	return &Flights{
		FeatureCols:    featureCols,
		TrainX:         ml.Matrix{Data: tx, Rows: trainN, Cols: d},
		TrainY:         ty,
		SignalFeatures: pos,
	}, nil
}

func exp(x float64) float64 { return math.Exp(x) }

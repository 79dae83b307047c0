// Clustering: the model-clustering optimization (paper §4.1 / Fig 2b) on a
// one-hot + logistic-regression flight-delay pipeline. K-means clusters the
// data offline; per cluster, constant categorical columns fold into the
// specialized model's bias, so scoring skips their encoding entirely.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"raven/internal/bench"
	"raven/internal/ml"
	"raven/internal/train"
)

func main() {
	const (
		rows     = 400000
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
		for j := 0; j < catCount; j++ {
			row[numerics+j] = float64(g >> j)
		}
	}
	rawM := ml.Matrix{Data: raw, Rows: rows, Cols: d}

	catCols := make([]int, catCount)
	for j := range catCols {
		catCols[j] = numerics + j
	}
	sample := ml.Matrix{Data: raw[:20000*d], Rows: 20000, Cols: d}
	enc := ml.FitOneHot(sample, catCols)
	encSample, err := enc.Transform(sample)
	if err != nil {
		log.Fatal(err)
	}
	y := make([]float64, sample.Rows)
	for i := range y {
		if sample.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	lr := train.FitLogReg(encSample, y, train.LogRegOptions{Epochs: 10, Seed: 3})
	fmt.Printf("pipeline: one-hot(%d categorical cols) + LR over %d features\n\n", catCount, len(lr.W))

	// baseline: encode + predict in chunks
	start := time.Now()
	const chunk = 8192
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		part := ml.Matrix{Data: raw[lo*d : hi*d], Rows: hi - lo, Cols: d}
		ep, err := enc.Transform(part)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := lr.Predict(ep); err != nil {
			log.Fatal(err)
		}
	}
	base := time.Since(start)
	fmt.Printf("original pipeline: %v\n", base.Round(time.Millisecond))

	for _, k := range []int{2, 4, 8, 16, 32} {
		buildStart := time.Now()
		cm, err := bench.BuildClusteredEncodedModel(enc, lr, sample, k, 1e-9, 5)
		if err != nil {
			log.Fatal(err)
		}
		build := time.Since(buildStart)
		start := time.Now()
		if _, err := cm.Predict(rawM); err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		fmt.Printf("k=%2d clusters: %v (%.0f%% of baseline; avg %.1f active terms; offline build %v)\n",
			k, dur.Round(time.Millisecond), 100*float64(dur)/float64(base), cm.AvgActiveTerms(), build.Round(time.Millisecond))
	}
}

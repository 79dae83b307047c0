package data

import (
	"testing"

	"raven/internal/storage"
	"raven/internal/train"
)

func TestGenHospitalShape(t *testing.T) {
	cat := storage.NewCatalog()
	h, err := GenHospital(cat, 1000, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"patient_info", "blood_tests", "prenatal_tests"} {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.NumRows() != 1000 {
			t.Errorf("%s rows = %d", name, tb.NumRows())
		}
		if !cat.IsUniqueKey(name, "id") {
			t.Errorf("%s missing unique key", name)
		}
	}
	if h.TrainX.Rows != 500 || h.TrainX.Cols != len(HospitalFeatureCols) {
		t.Errorf("train shape = %dx%d", h.TrainX.Rows, h.TrainX.Cols)
	}
	// invariants: pregnant implies female, fetal_hr nonzero iff pregnant
	pi, _ := cat.Table("patient_info")
	pt, _ := cat.Table("prenatal_tests")
	pib, _ := pi.ScanRange(0, pi.NumRows(), nil)
	ptb, _ := pt.ScanRange(0, pt.NumRows(), nil)
	for i := 0; i < pib.Len(); i++ {
		preg := pib.Col("pregnant").Ints[i]
		gender := pib.Col("gender").Ints[i]
		hr := ptb.Col("fetal_hr").Floats[i]
		if preg == 1 && gender != 1 {
			t.Fatal("pregnant male generated")
		}
		if (preg == 1) != (hr > 0) {
			t.Fatal("fetal_hr inconsistent with pregnancy")
		}
	}
	// labels have both classes
	ones := 0
	for _, y := range h.TrainY {
		if y == 1 {
			ones++
		}
	}
	if ones == 0 || ones == len(h.TrainY) {
		t.Errorf("degenerate labels: %d/%d", ones, len(h.TrainY))
	}
}

func TestGenHospitalDeterministic(t *testing.T) {
	c1, c2 := storage.NewCatalog(), storage.NewCatalog()
	h1, err := GenHospital(c1, 100, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := GenHospital(c2, 100, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.TrainX.Data {
		if h1.TrainX.Data[i] != h2.TrainX.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	t1, _ := c1.Table("patient_info")
	t2, _ := c2.Table("patient_info")
	b1, _ := t1.ScanRange(0, t1.NumRows(), nil)
	b2, _ := t2.ScanRange(0, t2.NumRows(), nil)
	for i := 0; i < b1.Len(); i++ {
		if b1.Col("age").Floats[i] != b2.Col("age").Floats[i] {
			t.Fatal("same seed produced different tables")
		}
	}
}

func TestGenFlightsWideSparsitySignal(t *testing.T) {
	cat := storage.NewCatalog()
	fl, err := GenFlightsWide(cat, 2000, 50, 6, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Table("flights_features")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2000 || tb.Schema().Len() != 51 {
		t.Errorf("table shape = %d rows %d cols", tb.NumRows(), tb.Schema().Len())
	}
	if len(fl.SignalFeatures) != 6 {
		t.Errorf("signal features = %v", fl.SignalFeatures)
	}
	// L1 training must recover sparsity: most non-signal weights zero.
	lr := train.FitLogReg(fl.TrainX, fl.TrainY, train.LogRegOptions{L1: 0.03, Epochs: 80, Seed: 1})
	if lr.Sparsity() < 0.4 {
		t.Errorf("trained sparsity = %v, want >= 0.4", lr.Sparsity())
	}
	scores, err := lr.Predict(fl.TrainX)
	if err != nil {
		t.Fatal(err)
	}
	if auc := train.AUC(scores, fl.TrainY); auc < 0.75 {
		t.Errorf("AUC = %v, want >= 0.75", auc)
	}
}

func TestGenFlightsWideValidation(t *testing.T) {
	cat := storage.NewCatalog()
	if _, err := GenFlightsWide(cat, 10, 5, 9, 10, 1); err == nil {
		t.Error("nSignal > d should fail")
	}
}

package ort

import (
	"testing"
	"time"

	"raven/internal/tensor"
)

// linearGraph builds y = sigmoid(x·W + b) with W,b initializers.
func linearGraph() *Graph {
	g := NewGraph("logreg")
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	w, _ := tensor.FromSlice([]float64{0.5, -0.25, 1.0, 0.0, 0.0, 2.0}, 3, 2)
	b, _ := tensor.FromSlice([]float64{0.1, -0.1}, 1, 2)
	g.AddInitializer("W", w)
	g.AddInitializer("b", b)
	g.Add("MatMul", []string{"x", "W"}, []string{"xw"}, nil)
	g.Add("Add", []string{"xw", "b"}, []string{"z"}, nil)
	g.Add("Sigmoid", []string{"z"}, []string{"y"}, nil)
	return g
}

func feed1x3(vals ...float64) map[string]*tensor.Tensor {
	x, _ := tensor.FromSlice(vals, 1, 3)
	return map[string]*tensor.Tensor{"x": x}
}

func TestSessionRun(t *testing.T) {
	s, err := NewSession(linearGraph())
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := s.Run(feed1x3(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	y := out["y"]
	if y == nil || y.Shape[1] != 2 {
		t.Fatalf("y = %v", y)
	}
	// z = [1*0.5+2*1+3*0+0.1, 1*-0.25+2*0+3*2-0.1] = [2.6, 5.65]
	if d := y.Data[0] - 1/(1+expNeg(2.6)); d > 1e-9 || d < -1e-9 {
		t.Errorf("y[0] = %v", y.Data[0])
	}
	if stats.NodesExecuted == 0 || stats.Wall <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func expNeg(x float64) float64 {
	// tiny helper to avoid importing math just for the expected value
	e := 1.0
	term := 1.0
	for i := 1; i < 30; i++ {
		term *= -x / float64(i)
		e += term
	}
	return e
}

func TestSessionMissingFeed(t *testing.T) {
	s, _ := NewSession(linearGraph())
	if _, _, err := s.Run(map[string]*tensor.Tensor{}); err == nil {
		t.Error("missing feed should fail")
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	g := NewGraph("bad")
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	g.Add("Relu", []string{"nope"}, []string{"y"}, nil)
	if err := g.Validate(); err == nil {
		t.Error("undefined input should fail validation")
	}

	g2 := NewGraph("bad2")
	g2.Inputs = []string{"x"}
	g2.Outputs = []string{"missing"}
	g2.Add("Relu", []string{"x"}, []string{"y"}, nil)
	if err := g2.Validate(); err == nil {
		t.Error("missing output should fail validation")
	}

	g3 := NewGraph("bad3")
	g3.Inputs = []string{"x"}
	g3.Outputs = []string{"y"}
	g3.Add("Relu", []string{"x"}, []string{"y"}, nil)
	g3.Add("Relu", []string{"x"}, []string{"y"}, nil)
	if err := g3.Validate(); err == nil {
		t.Error("double definition should fail validation")
	}
}

func TestUnknownOpRejectedAtCompile(t *testing.T) {
	g := NewGraph("g")
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	g.Add("Conv3DTranspose", []string{"x"}, []string{"y"}, nil)
	if _, err := NewSession(g); err == nil {
		t.Error("unknown op should fail at session build")
	}
}

func TestGemmFusion(t *testing.T) {
	g := linearGraph()
	opt, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	// MatMul+Add must fuse into Gemm: 2 nodes (Gemm, Sigmoid).
	if opt.NumNodes() != 2 {
		t.Fatalf("optimized graph has %d nodes:\n%s", opt.NumNodes(), opt)
	}
	if opt.Nodes[0].Op != "Gemm" {
		t.Errorf("first op = %s, want Gemm", opt.Nodes[0].Op)
	}
	// Same results.
	s1, _ := NewSessionWithOptions(g, SessionOptions{Optimize: false, Provider: CPUProvider{}})
	s2, _ := NewSessionWithOptions(g, SessionOptions{Optimize: true, Provider: CPUProvider{}})
	o1, _, err1 := s1.Run(feed1x3(1, 2, 3))
	o2, _, err2 := s2.Run(feed1x3(1, 2, 3))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range o1["y"].Data {
		if d := o1["y"].Data[i] - o2["y"].Data[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("fusion changed result at %d: %v vs %v", i, o1["y"].Data[i], o2["y"].Data[i])
		}
	}
}

func TestConstantFolding(t *testing.T) {
	g := NewGraph("fold")
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	a := tensor.Scalar(2)
	b := tensor.Scalar(3)
	g.AddInitializer("a", a)
	g.AddInitializer("b", b)
	g.Add("Mul", []string{"a", "b"}, []string{"ab"}, nil) // foldable: 6
	g.Add("Mul", []string{"x", "ab"}, []string{"y"}, nil)
	opt, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumNodes() != 1 {
		t.Fatalf("folded graph has %d nodes:\n%s", opt.NumNodes(), opt)
	}
	if ab := opt.Initializers["ab"]; ab == nil || ab.Data[0] != 6 {
		t.Errorf("folded initializer = %v", opt.Initializers["ab"])
	}
}

func TestIdentityAndDeadElimination(t *testing.T) {
	g := NewGraph("dce")
	g.Inputs = []string{"x"}
	g.Outputs = []string{"y"}
	g.Add("Identity", []string{"x"}, []string{"x2"}, nil)
	g.Add("Relu", []string{"x2"}, []string{"y"}, nil)
	g.Add("Sigmoid", []string{"x2"}, []string{"dead"}, nil) // unused
	g.AddInitializer("unusedW", tensor.Scalar(1))
	opt, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumNodes() != 1 || opt.Nodes[0].Op != "Relu" {
		t.Fatalf("optimized:\n%s", opt)
	}
	if _, ok := opt.Initializers["unusedW"]; ok {
		t.Error("unused initializer survived DCE")
	}
}

func TestPinInputConstantPropagation(t *testing.T) {
	// y = x * flag; pinning flag to 1 should reduce to pass-through Mul
	// with a constant, pinning removes the input.
	g := NewGraph("pin")
	g.Inputs = []string{"x", "flag"}
	g.Outputs = []string{"y"}
	g.Add("Mul", []string{"x", "flag"}, []string{"y"}, nil)
	pinned, err := PinInput(g, "flag", tensor.Scalar(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Inputs) != 1 || pinned.Inputs[0] != "x" {
		t.Errorf("pinned inputs = %v", pinned.Inputs)
	}
	s, err := NewSession(pinned)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := tensor.FromSlice([]float64{1, 2}, 1, 2)
	out, _, err := s.Run(map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	if out["y"].Data[1] != 2 {
		t.Errorf("y = %v", out["y"].Data)
	}
	if _, err := PinInput(g, "nonexistent", tensor.Scalar(0)); err == nil {
		t.Error("pin of unknown input should fail")
	}
}

func TestSessionCache(t *testing.T) {
	c := NewSessionCache()
	builds := 0
	build := func() (*Session, error) {
		builds++
		return NewSession(linearGraph())
	}
	s1, err := c.Get("model-hash-1", build)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get("model-hash-1", build)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || builds != 1 {
		t.Errorf("cache did not reuse session (builds=%d)", builds)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d hits %d misses", st.Hits, st.Misses)
	}
	c.Invalidate("model-hash-1")
	if _, err := c.Get("model-hash-1", build); err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Error("invalidate did not force rebuild")
	}
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("entries = %d", n)
	}
}

func TestGPUProviderCharging(t *testing.T) {
	gpu := DefaultGPU()
	s, err := NewSessionWithOptions(linearGraph(), SessionOptions{Optimize: true, Provider: gpu})
	if err != nil {
		t.Fatal(err)
	}
	// Small batch: charged time should be dominated by fixed overheads.
	small := tensor.New(1, 3)
	_, st1, err := s.Run(map[string]*tensor.Tensor{"x": small})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Charged < gpu.TransferSetup {
		t.Errorf("charged %v < transfer setup %v", st1.Charged, gpu.TransferSetup)
	}
	// Large batch: charged must grow far less than linearly with rows
	// (throughput regime) but still exceed the small-batch charge.
	big := tensor.New(100000, 3)
	_, st2, err := s.Run(map[string]*tensor.Tensor{"x": big})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Charged <= st1.Charged {
		t.Errorf("charged did not grow with batch: %v vs %v", st1.Charged, st2.Charged)
	}
	if st2.Charged > st1.Charged*100000 {
		t.Errorf("gpu model has no throughput benefit: %v vs %v", st1.Charged, st2.Charged)
	}
}

func TestCPUProviderThreads(t *testing.T) {
	if (CPUProvider{Parallelism: 3}).Threads() != 3 {
		t.Error("explicit parallelism")
	}
	if (CPUProvider{}).Threads() < 1 {
		t.Error("default parallelism")
	}
	if got := (CPUProvider{}).NodeTime("MatMul", 1, 1, 42*time.Nanosecond); got != 42*time.Nanosecond {
		t.Error("cpu NodeTime should be wall time")
	}
}

func TestAttrsAccessors(t *testing.T) {
	a := Attrs{"f": 1.5, "i": 3, "fi": 2.0, "is": []int{1, 2}, "s": "x"}
	if a.Float("f", 0) != 1.5 || a.Float("i", 0) != 3 || a.Float("zz", 9) != 9 {
		t.Error("Float accessor")
	}
	if a.Int("i", 0) != 3 || a.Int("fi", 0) != 2 || a.Int("zz", 7) != 7 {
		t.Error("Int accessor")
	}
	if got := a.Ints("is"); len(got) != 2 {
		t.Error("Ints accessor")
	}
	if a.Ints("zz") != nil {
		t.Error("Ints of missing key")
	}
}

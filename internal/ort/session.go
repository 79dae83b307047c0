package ort

import (
	"fmt"
	"runtime"
	"time"

	"raven/internal/tensor"
)

// Provider is an execution backend. CPU executes kernels directly; the GPU
// provider executes them on the CPU for correctness but *prices* them with
// an analytic device model (launch latency, compute throughput, memory
// bandwidth), reproducing the shape of hardware-accelerated scoring without
// hardware: RunStats.Wall is measured, RunStats.Charged is modelled.
type Provider interface {
	Name() string
	// Threads is the intra-op parallelism granted to kernels.
	Threads() int
	// NodeTime converts one executed node into the provider's charged
	// duration. wall is the measured CPU execution time.
	NodeTime(op string, flops, bytes int64, wall time.Duration) time.Duration
}

// CPUProvider executes on the host with the given parallelism.
// Parallelism 0 means GOMAXPROCS; 1 forces sequential execution (used by
// the Fig 3 "forced sequential" ablation).
type CPUProvider struct{ Parallelism int }

// Name implements Provider.
func (c CPUProvider) Name() string { return "cpu" }

// Threads implements Provider.
func (c CPUProvider) Threads() int {
	if c.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// NodeTime implements Provider: charged time is measured time.
func (c CPUProvider) NodeTime(_ string, _, _ int64, wall time.Duration) time.Duration {
	return wall
}

// GPUProvider is the simulated accelerator. Defaults approximate an Nvidia
// K80 running f64 GEMM: ~1.4 TFLOP/s peak (we assume 50% efficiency),
// ~480 GB/s HBM, and ~5 µs kernel launch plus a fixed per-run transfer setup.
type GPUProvider struct {
	LaunchOverhead time.Duration // per kernel
	FLOPSPerSec    float64
	BytesPerSec    float64
	// TransferSetup is charged once per session run (PCIe staging).
	TransferSetup time.Duration
	// HostThreads is the CPU parallelism used to actually compute results.
	HostThreads int
}

// DefaultGPU returns the calibrated K80-like simulator used by benches.
func DefaultGPU() GPUProvider {
	return GPUProvider{
		LaunchOverhead: 5 * time.Microsecond,
		FLOPSPerSec:    0.7e12,
		BytesPerSec:    480e9,
		TransferSetup:  1500 * time.Microsecond,
		HostThreads:    0,
	}
}

// Name implements Provider.
func (g GPUProvider) Name() string { return "gpu-sim" }

// Threads implements Provider.
func (g GPUProvider) Threads() int {
	if g.HostThreads == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return g.HostThreads
}

// NodeTime implements Provider: a roofline model, launch + max(compute, memory).
func (g GPUProvider) NodeTime(_ string, flops, bytes int64, _ time.Duration) time.Duration {
	compute := time.Duration(float64(flops) / g.FLOPSPerSec * float64(time.Second))
	memory := time.Duration(float64(bytes) / g.BytesPerSec * float64(time.Second))
	t := compute
	if memory > t {
		t = memory
	}
	return g.LaunchOverhead + t
}

// RunStats reports per-run costs. Wall is host time actually spent;
// Charged is the provider-priced time (equal to Wall on CPU, modeled on the
// simulated GPU). NodesExecuted counts kernel launches.
type RunStats struct {
	Wall          time.Duration
	Charged       time.Duration
	NodesExecuted int
}

// Session is a compiled, validated graph ready for repeated Run calls —
// the unit that SQL Server caches per model in the paper (§5, obs. ii).
type Session struct {
	graph    *Graph
	provider Provider
	// order is the execution order (graph is stored topologically sorted).
	order []*Node
	// refcount[name] = number of consumers, used to free intermediates.
	refcount map[string]int
}

// SessionOptions configures compilation.
type SessionOptions struct {
	// Optimize runs the graph optimizer (constant folding, DCE, fusion)
	// before compiling. On by default via NewSession.
	Optimize bool
	Provider Provider
}

// NewSession compiles a graph with default options: graph optimizer on,
// CPU provider with full parallelism.
func NewSession(g *Graph) (*Session, error) {
	return NewSessionWithOptions(g, SessionOptions{Optimize: true, Provider: CPUProvider{}})
}

// NewSessionWithOptions compiles a graph with explicit options.
func NewSessionWithOptions(g *Graph, opts SessionOptions) (*Session, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.Optimize {
		var err error
		g, err = Optimize(g)
		if err != nil {
			return nil, err
		}
	}
	if opts.Provider == nil {
		opts.Provider = CPUProvider{}
	}
	for _, n := range g.Nodes {
		if !HasKernel(n.Op) {
			return nil, fmt.Errorf("ort: no kernel for op %q", n.Op)
		}
	}
	refs := make(map[string]int)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			refs[in]++
		}
	}
	for _, out := range g.Outputs {
		refs[out]++
	}
	return &Session{graph: g, provider: opts.Provider, order: g.Nodes, refcount: refs}, nil
}

// Graph returns the (optimized) graph backing the session.
func (s *Session) Graph() *Graph { return s.graph }

// Run executes the graph on the given feeds and returns the output tensors
// keyed by name, plus run statistics.
func (s *Session) Run(feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, RunStats, error) {
	var stats RunStats
	start := time.Now()
	env := make(map[string]*tensor.Tensor, len(s.graph.Initializers)+len(feeds)+len(s.order))
	for k, v := range s.graph.Initializers {
		env[k] = v
	}
	for _, in := range s.graph.Inputs {
		t, ok := feeds[in]
		if !ok {
			return nil, stats, fmt.Errorf("ort: missing feed for input %q", in)
		}
		env[in] = t
	}
	live := make(map[string]int, len(s.refcount))
	for k, v := range s.refcount {
		live[k] = v
	}
	threads := s.provider.Threads()
	var charged time.Duration
	stats.Charged = 0
	if gp, ok := s.provider.(GPUProvider); ok {
		charged += gp.TransferSetup
	}
	for _, n := range s.order {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, name := range n.Inputs {
			t, ok := env[name]
			if !ok {
				return nil, stats, fmt.Errorf("ort: node %s: input %q not materialized", n.Name, name)
			}
			ins[i] = t
		}
		k := kernels[n.Op]
		nodeStart := time.Now()
		outs, err := k(ins, n.Attrs, threads)
		if err != nil {
			return nil, stats, fmt.Errorf("ort: node %s (%s): %w", n.Name, n.Op, err)
		}
		nodeWall := time.Since(nodeStart)
		if len(outs) != len(n.Outputs) {
			return nil, stats, fmt.Errorf("ort: node %s produced %d outputs, declared %d", n.Name, len(outs), len(n.Outputs))
		}
		charged += s.provider.NodeTime(n.Op, opFLOPs(n.Op, ins), opBytes(ins, outs), nodeWall)
		stats.NodesExecuted++
		for i, name := range n.Outputs {
			env[name] = outs[i]
		}
		// Release intermediates that have no remaining consumers so large
		// batch runs do not hold every layer alive.
		for _, name := range n.Inputs {
			if _, isInit := s.graph.Initializers[name]; isInit {
				continue
			}
			live[name]--
			if live[name] == 0 {
				delete(env, name)
			}
		}
	}
	out := make(map[string]*tensor.Tensor, len(s.graph.Outputs))
	for _, name := range s.graph.Outputs {
		t, ok := env[name]
		if !ok {
			return nil, stats, fmt.Errorf("ort: output %q not produced", name)
		}
		out[name] = t
	}
	stats.Wall = time.Since(start)
	stats.Charged = charged
	return out, stats, nil
}

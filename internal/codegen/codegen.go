// Package codegen is Raven's Runtime Code Generator (paper §2, §5): it
// lowers the optimized unified IR into an executable physical operator
// tree, binding each ML stage to an execution mode (in-process pipeline,
// in-process tensor session, out-of-process, container), and can render
// the regenerated SQL for inspection.
package codegen

import (
	"context"
	"fmt"
	"strings"

	"raven/internal/exec"
	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
	"raven/internal/ort"
	"raven/internal/plan"
	"raven/internal/rt"
	"raven/internal/types"
)

// Config controls lowering.
type Config struct {
	Runtime *rt.Runtime
	// Ctx cancels execution of the compiled operator tree: pipelines,
	// pipeline breakers and predictors all observe it. Nil means not
	// cancellable.
	Ctx context.Context
	// Mode selects how MLD chains execute. LA nodes always run on the
	// tensor runtime.
	Mode rt.Mode
	// Parallelism is the pipeline worker count (1 = inline, no goroutines).
	Parallelism int
	// ParallelThresholdRows gates parallel scans.
	ParallelThresholdRows int
	// MorselSize is the rows-per-morsel of table scans (0 = default).
	MorselSize int
	// Tuner, when set, adapts morsel sizes (engine option
	// WithAdaptiveMorsels). Explicit sizes win.
	Tuner *exec.Tuner
	// CacheKey identifies the model for session caching; empty disables
	// caching (the standalone-runtime behaviour).
	CacheKey string
}

func (c *Config) runtime() *rt.Runtime {
	if c.Runtime == nil {
		c.Runtime = rt.NewRuntime()
	}
	return c.Runtime
}

// Compile lowers the IR graph into a physical operator.
func Compile(g *ir.Graph, cfg *Config) (exec.Operator, error) {
	ex, err := compileNode(g.Root, cfg)
	if err != nil {
		return nil, err
	}
	// The root may still carry a stage-free re-entry exchange; nothing can
	// push onto it now.
	return exec.UnwrapIdleExchange(ex), nil
}

func env(cfg *Config) *exec.Env {
	return &exec.Env{
		Ctx:                   cfg.Ctx,
		Parallelism:           cfg.Parallelism,
		ParallelThresholdRows: cfg.ParallelThresholdRows,
		MorselSize:            cfg.MorselSize,
		Tuner:                 cfg.Tuner,
	}
}

// compileNode lowers one IR node (and its inputs) to its morsel pipeline:
// relational fragments, ML scoring stages and split branches all extend or
// start an exec.Exchange, so one pipeline threads through DB and ML stages
// alike.
func compileNode(n ir.Node, cfg *Config) (*exec.Exchange, error) {
	switch x := n.(type) {
	case *ir.RelNode:
		var input *exec.Exchange
		if x.In != nil {
			var err error
			if input, err = compileNode(x.In, cfg); err != nil {
				return nil, err
			}
		}
		return exec.CompilePipeline(x.Plan, env(cfg), input)

	case *ir.TransformNode:
		// Transforms compile together with their consuming model; reaching
		// one directly means a malformed chain.
		return nil, fmt.Errorf("codegen: dangling transform node (no model above it)")

	case *ir.ModelNode:
		steps, below := collectTransforms(x.In)
		if below == nil {
			return nil, fmt.Errorf("codegen: model node has no relational input")
		}
		input, err := compileNode(below, cfg)
		if err != nil {
			return nil, err
		}
		pipe := &ml.Pipeline{Steps: steps, Final: x.M, InputColumns: x.InputCols}
		pred, err := buildPredictor(cfg, pipe, x.OutputCol.Type)
		if err != nil {
			return nil, err
		}
		return pushPredict(cfg, input, pred, x.OutputCol)

	case *ir.LANode:
		steps, below := collectTransforms(x.In)
		if len(steps) > 0 {
			return nil, fmt.Errorf("codegen: transforms below an LA node should have been fused")
		}
		if below == nil {
			return nil, fmt.Errorf("codegen: LA node has no relational input")
		}
		input, err := compileNode(below, cfg)
		if err != nil {
			return nil, err
		}
		r := cfg.runtime()
		var sess *ort.Session
		if x.UseGPU {
			gpuRT := &rt.Runtime{Cache: r.Cache, Provider: ort.DefaultGPU(), GraphOptimize: r.GraphOptimize}
			key := cfg.CacheKey
			if key != "" {
				key += "/gpu"
			}
			sess, err = gpuRT.BuildSession(key, x.G)
		} else {
			sess, err = r.BuildSession(cfg.CacheKey, x.G)
		}
		if err != nil {
			return nil, err
		}
		pred := &rt.SessionPredictor{Session: sess, InputCols: x.InputCols, OutType: x.OutputCol.Type}
		return pushPredict(cfg, input, pred, x.OutputCol)

	case *ir.UDFNode:
		// A UDF is an ordered operator over its input's stream, like LIMIT:
		// the opaque batch function carries no concurrency-safety contract,
		// so it never becomes a stage. Whatever sits above re-enters a
		// pipeline over its output.
		input, err := compileNode(x.In, cfg)
		if err != nil {
			return nil, err
		}
		return env(cfg).Pipeline(&udfOp{child: exec.UnwrapIdleExchange(input), fn: x.Fn, schema: x.Out}), nil

	case *ir.SplitNode:
		return compileSplit(x, cfg)

	default:
		return nil, fmt.Errorf("codegen: cannot compile IR node %T", n)
	}
}

// pushPredict lowers an ML scoring stage: the score becomes one more stage
// in its input's pipeline, so scan, filter and inference all run on the
// worker that claimed the morsel. Pipeline breakers (join, aggregate,
// sort) do not seal the plan: exec re-enters a fresh pipeline above each
// one, so a PREDICT over a join or GROUP BY result pushes here too.
func pushPredict(cfg *Config, input *exec.Exchange, pred exec.Predictor, outCol types.Column) (*exec.Exchange, error) {
	if cfg.Ctx != nil {
		pred = &rt.ContextPredictor{Ctx: cfg.Ctx, Inner: pred}
	}
	if err := input.Push(&exec.PredictStage{Predictor: pred, OutputCols: []types.Column{outCol}}); err != nil {
		return nil, err
	}
	return input, nil
}

// collectTransforms walks down consecutive TransformNodes, returning the
// steps in execution order and the node below them.
func collectTransforms(n ir.Node) ([]ml.Transformer, ir.Node) {
	var rev []ml.Transformer
	for {
		t, ok := n.(*ir.TransformNode)
		if !ok {
			break
		}
		rev = append(rev, t.T)
		n = t.In
	}
	// rev is model-adjacent first; reverse into execution order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, n
}

// buildPredictor maps the configured mode to a predictor implementation.
func buildPredictor(cfg *Config, pipe *ml.Pipeline, outType types.DataType) (exec.Predictor, error) {
	r := cfg.runtime()
	switch cfg.Mode {
	case rt.ModeInProcess:
		return rt.NewPipelinePredictor(pipe, outType), nil
	case rt.ModeInProcessNN:
		return r.NNPredictor(cfg.CacheKey, pipe, outType)
	case rt.ModeOutOfProcess:
		inner := rt.NewPipelinePredictor(pipe, outType)
		return &rt.OutOfProcessPredictor{Inner: inner, Startup: r.ExternalStartup, Ctx: cfg.Ctx}, nil
	case rt.ModeContainer:
		pred, _, err := rt.NewContainerPredictor(pipe, outType)
		return pred, err
	default:
		return nil, fmt.Errorf("codegen: unknown mode %v", cfg.Mode)
	}
}

// compileSplit lowers model/query splitting: the source plan is compiled
// once per branch with a complementary filter, each branch scores with its
// own sub-model, and the two branch pipelines run back to back (all of the
// left branch's rows, then the right's).
func compileSplit(s *ir.SplitNode, cfg *Config) (*exec.Exchange, error) {
	src, ok := s.In.(*ir.RelNode)
	if !ok {
		return nil, fmt.Errorf("codegen: split requires a relational source, got %T", s.In)
	}
	build := func(m ir.Node, cond expr.Expr) (*exec.Exchange, error) {
		model, ok := m.(*ir.ModelNode)
		if !ok {
			return nil, fmt.Errorf("codegen: split branch must be a model node, got %T", m)
		}
		ex, err := exec.CompilePipeline(src.Plan, env(cfg), nil)
		if err != nil {
			return nil, err
		}
		if err := ex.Push(&exec.FilterStage{Pred: cond}); err != nil {
			return nil, err
		}
		pipe := &ml.Pipeline{Final: model.M, InputColumns: model.InputCols}
		pred, err := buildPredictor(cfg, pipe, model.OutputCol.Type)
		if err != nil {
			return nil, err
		}
		return pushPredict(cfg, ex, pred, model.OutputCol)
	}
	col := &expr.Column{Name: s.CondCol}
	left, err := build(s.Left, expr.NewBinary(expr.OpLe, col, expr.FloatLit(s.Threshold)))
	if err != nil {
		return nil, err
	}
	right, err := build(s.Right, expr.NewBinary(expr.OpGt, col, expr.FloatLit(s.Threshold)))
	if err != nil {
		return nil, err
	}
	return env(cfg).Pipeline(&exec.Concat{Parts: []exec.Operator{left, right}}), nil
}

// udfOp applies an opaque batch function.
type udfOp struct {
	child  exec.Operator
	fn     func(*types.Batch) (*types.Batch, error)
	schema *types.Schema
}

func (u *udfOp) Schema() *types.Schema { return u.schema }
func (u *udfOp) Open() error           { return u.child.Open() }
func (u *udfOp) Close() error          { return u.child.Close() }
func (u *udfOp) Next() (*types.Batch, error) {
	b, err := u.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	return u.fn(b)
}

// GenerateSQL renders a best-effort SQL text for the optimized IR — the
// "new SQL query reflecting the optimizations" the Runtime Code Generator
// emits (§2). It is for inspection, not re-parsing fidelity.
func GenerateSQL(g *ir.Graph) string {
	var sb strings.Builder
	sb.WriteString("-- regenerated by Raven runtime code generator\n")
	for i, n := range g.Chain() {
		switch x := n.(type) {
		case *ir.RelNode:
			fmt.Fprintf(&sb, "-- stage %d (DB):\n%s", i, indentPlan(x.Plan))
		case *ir.TransformNode:
			fmt.Fprintf(&sb, "-- stage %d (ML): featurizer %s\n", i, x.T.Kind())
		case *ir.ModelNode:
			fmt.Fprintf(&sb, "-- stage %d (ML): PREDICT %s(%s) AS %s\n", i, x.M.Kind(), strings.Join(x.InputCols, ", "), x.OutputCol.Name)
		case *ir.LANode:
			fmt.Fprintf(&sb, "-- stage %d (ML): tensor graph (%d ops) over (%s) AS %s\n", i, x.G.NumNodes(), strings.Join(x.InputCols, ", "), x.OutputCol.Name)
		case *ir.SplitNode:
			fmt.Fprintf(&sb, "-- stage %d: UNION of %s <= %v and %s > %v branches\n", i, x.CondCol, x.Threshold, x.CondCol, x.Threshold)
		case *ir.UDFNode:
			fmt.Fprintf(&sb, "-- stage %d (ML): UDF %s\n", i, x.Name)
		}
	}
	return sb.String()
}

func indentPlan(p plan.Node) string {
	lines := strings.Split(strings.TrimRight(plan.Explain(p), "\n"), "\n")
	for i := range lines {
		lines[i] = "--   " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Package codegen is Raven's Runtime Code Generator (paper §2, §5): it
// lowers the optimized unified IR into an executable physical operator
// tree, binding each ML stage to an execution mode (in-process pipeline,
// in-process tensor session, out-of-process, container), and can render
// the regenerated SQL for inspection.
package codegen

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"raven/internal/exec"
	"raven/internal/expr"
	"raven/internal/ir"
	"raven/internal/ml"
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

// Compile lowers the IR tree into a physical operator: exec compiles the
// relational operators and hands every ML operator to this package's
// hook, so one pipeline threads through DB and ML stages alike.
func Compile(g *ir.Graph, cfg *Config) (exec.Operator, error) {
	c := &compiler{cfg: cfg, keys: make(map[string]int)}
	c.env = &exec.Env{
		Ctx:                   cfg.Ctx,
		Parallelism:           cfg.Parallelism,
		ParallelThresholdRows: cfg.ParallelThresholdRows,
		MorselSize:            cfg.MorselSize,
		Lower:                 c.lower,
	}
	return exec.Compile(g.Root, c.env)
}

type compiler struct {
	cfg *Config
	env *exec.Env
	// keys counts the session keys handed out so far, by base key.
	keys map[string]int
}

// sessionKey returns the session-cache key for a model operator's next
// tensor session: Config.CacheKey when the caller set one, else the
// operator's own, and never the same key twice in one plan — two models
// must not answer from each other's session. Empty means uncached.
func (c *compiler) sessionKey(op *ir.Scorer) string {
	key := op.SessionKey
	if c.cfg.CacheKey != "" {
		key = c.cfg.CacheKey
	}
	if key == "" {
		return ""
	}
	n := c.keys[key]
	c.keys[key]++
	if n > 0 {
		key += "~" + strconv.Itoa(n)
	}
	return key
}

// lower compiles one ML operator onto the pipeline of its child.
func (c *compiler) lower(n plan.Node, below func(plan.Node) (*exec.Exchange, error)) (*exec.Exchange, error) {
	switch x := n.(type) {
	case *ir.ModelNode:
		pipe := &ml.Pipeline{Steps: x.Steps, Final: x.M, InputColumns: x.InputCols}
		return c.score(&x.Scorer, below, nil, func() (exec.Predictor, error) { return c.predictor(&x.Scorer, pipe) })

	case *ir.LANode:
		return c.score(&x.Scorer, below, nil, func() (exec.Predictor, error) {
			sess, err := c.cfg.runtime().BuildSession(c.sessionKey(&x.Scorer), x.G)
			if err != nil {
				return nil, err
			}
			return &rt.SessionPredictor{Session: sess, InputCols: x.InputCols, OutType: x.OutputCol.Type}, nil
		})

	case *ir.SplitNode:
		// The input is compiled once per branch with a complementary
		// filter, each branch scores with its own sub-model, and the two
		// branch pipelines run back to back (all of the left branch's
		// rows, then the right's).
		col := &expr.Column{Name: x.CondCol}
		var parts []exec.Operator
		for _, b := range []struct {
			cond expr.Expr
			m    ml.Model
		}{
			{expr.NewBinary(expr.OpLe, col, expr.FloatLit(x.Threshold)), x.Left},
			{expr.NewBinary(expr.OpGt, col, expr.FloatLit(x.Threshold)), x.Right},
		} {
			pipe := &ml.Pipeline{Final: b.m, InputColumns: x.InputCols}
			ex, err := c.score(&x.Scorer, below, &exec.FilterStage{Pred: b.cond}, func() (exec.Predictor, error) { return c.predictor(&x.Scorer, pipe) })
			if err != nil {
				return nil, err
			}
			parts = append(parts, ex)
		}
		return c.env.Pipeline(&exec.Concat{Parts: parts}), nil

	case *ir.UDFNode:
		// A UDF is an ordered operator over its input's stream, like LIMIT:
		// the opaque batch function carries no concurrency-safety contract,
		// so it never becomes a stage. Whatever sits above re-enters a
		// pipeline over its output.
		input, err := below(x.Child)
		if err != nil {
			return nil, err
		}
		return c.env.Pipeline(&udfOp{child: exec.UnwrapIdleExchange(input), fn: x.Fn, schema: x.Out}), nil

	default:
		return nil, fmt.Errorf("codegen: cannot compile IR node %T", n)
	}
}

// score lowers an ML scoring stage: compile the operator's input, build
// its predictor, and push the score as one more stage of the input's
// pipeline (after guard, when the operator scores only some rows), so
// scan, filter and inference all run on the worker that claimed the
// morsel. Pipeline breakers (join, aggregate, sort) do not seal the plan:
// exec re-enters a fresh pipeline above each one, so a PREDICT over a join
// or GROUP BY result pushes here too.
func (c *compiler) score(op *ir.Scorer, below func(plan.Node) (*exec.Exchange, error), guard exec.Stage, build func() (exec.Predictor, error)) (*exec.Exchange, error) {
	if op.Child == nil {
		return nil, fmt.Errorf("codegen: model operator %q has no input", op.Model)
	}
	input, err := below(op.Child)
	if err != nil {
		return nil, err
	}
	if guard != nil {
		if err := input.Push(guard); err != nil {
			return nil, err
		}
	}
	pred, err := build()
	if err != nil {
		return nil, err
	}
	if c.cfg.Ctx != nil {
		pred = &rt.ContextPredictor{Ctx: c.cfg.Ctx, Inner: pred}
	}
	return input, input.Push(&exec.PredictStage{Predictor: pred, OutputCols: []types.Column{op.OutputCol}})
}

// predictor maps the configured mode to a predictor for pipe.
func (c *compiler) predictor(op *ir.Scorer, pipe *ml.Pipeline) (exec.Predictor, error) {
	cfg, outType := c.cfg, op.OutputCol.Type
	r := cfg.runtime()
	switch cfg.Mode {
	case rt.ModeInProcess:
		return rt.NewPipelinePredictor(pipe, outType), nil
	case rt.ModeInProcessNN:
		return r.NNPredictor(c.sessionKey(op), pipe, outType)
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
// emits (§2): the one tree that runs, relational operators as the plan
// prints them and ML operators as the calls they stand for. It is for
// inspection, not re-parsing fidelity.
func GenerateSQL(g *ir.Graph) string {
	return "-- regenerated by Raven runtime code generator\n" + plan.Render(g.Root, "--   ", func(n plan.Node) []string {
		predict := func(m ml.Model, op *ir.Scorer) string {
			return fmt.Sprintf("PREDICT %s(%s) AS %s", m.Kind(), strings.Join(op.InputCols, ", "), op.OutputCol.Name)
		}
		switch x := n.(type) {
		case *ir.ModelNode:
			lines := []string{predict(x.M, &x.Scorer)}
			for _, st := range x.Steps {
				lines = append(lines, "featurizer "+st.Kind())
			}
			return lines
		case *ir.LANode:
			return []string{fmt.Sprintf("tensor graph (%d ops) over (%s) AS %s", x.G.NumNodes(), strings.Join(x.InputCols, ", "), x.OutputCol.Name)}
		case *ir.SplitNode:
			return []string{
				fmt.Sprintf("UNION of %s <= %v and %s > %v branches", x.CondCol, x.Threshold, x.CondCol, x.Threshold),
				predict(x.Left, &x.Scorer), predict(x.Right, &x.Scorer),
			}
		case *ir.UDFNode:
			return []string{"UDF " + x.Name}
		default:
			return []string{n.String()}
		}
	})
}

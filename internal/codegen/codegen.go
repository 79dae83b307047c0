// Package codegen is Raven's Runtime Code Generator (paper §2, §5): it
// lowers the optimized unified IR into an executable physical operator
// tree, and can render the regenerated SQL for inspection. Each ML
// operator runs the way the cross optimizer left it: a model operator on
// the pipeline kernel (under a top-k score bound when the plan carries
// one), a linear-algebra operator on its tensor session.
package codegen

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"raven/internal/exec"
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
	// Mode has no effect.
	//
	// Deprecated: the plan decides how each model runs.
	Mode rt.Mode
	// Parallelism is the pipeline worker count (1 = inline, no goroutines).
	Parallelism int
	// ParallelThresholdRows gates parallel scans.
	ParallelThresholdRows int
	// MorselSize is the rows-per-morsel of table scans (0 = default).
	MorselSize int
	// Params binds @parameters as stages are built (exec.Env.Params).
	Params map[string]string
	// CacheKey, when set, keys every tensor session of the plan in place
	// of its operator's own key.
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
		Params:                cfg.Params,
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
		return c.score(&x.Scorer, below, func() (exec.Predictor, error) {
			p := rt.NewPipelinePredictor(&ml.Pipeline{Steps: x.Steps, Final: x.M, InputColumns: x.InputCols}, x.OutputCol.Type)
			if x.TopK == nil {
				return p, nil
			}
			// A score bound gets a θ of its own: the bound lives as long as
			// this execution's operator tree, never in the plan a prepared
			// statement keeps.
			return &rt.TopKPredictor{PipelinePredictor: p, Bound: ml.NewTopK(x.TopK.K, x.TopK.Desc)}, nil
		})

	case *ir.LANode:
		return c.score(&x.Scorer, below, func() (exec.Predictor, error) {
			sess, err := c.cfg.runtime().BuildSession(c.sessionKey(&x.Scorer), x.G)
			if err != nil {
				return nil, err
			}
			return &rt.SessionPredictor{Session: sess, InputCols: x.InputCols, OutType: x.OutputCol.Type}, nil
		})

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
// pipeline, so scan, filter and inference all run on the worker that
// claimed the morsel. Pipeline breakers (join, aggregate, sort) do not
// seal the plan: exec re-enters a fresh pipeline above each one, so a
// PREDICT over a join or GROUP BY result pushes here too.
func (c *compiler) score(op *ir.Scorer, below func(plan.Node) (*exec.Exchange, error), build func() (exec.Predictor, error)) (*exec.Exchange, error) {
	if op.Child == nil {
		return nil, fmt.Errorf("codegen: model operator %q has no input", op.Model)
	}
	input, err := below(op.Child)
	if err != nil {
		return nil, err
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
		switch x := n.(type) {
		case *ir.ModelNode:
			line := fmt.Sprintf("PREDICT %s(%s) AS %s", x.M.Kind(), strings.Join(x.InputCols, ", "), x.OutputCol.Name)
			if x.TopK != nil {
				line += "; " + x.TopK.String()
			}
			lines := []string{line}
			for _, st := range x.Steps {
				lines = append(lines, "featurizer "+st.Kind())
			}
			return lines
		case *ir.LANode:
			return []string{fmt.Sprintf("tensor graph (%d ops) over (%s) AS %s", x.G.NumNodes(), strings.Join(x.InputCols, ", "), x.OutputCol.Name)}
		case *ir.UDFNode:
			return []string{"UDF " + x.Name}
		default:
			return []string{n.String()}
		}
	})
}

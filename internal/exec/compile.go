package exec

import (
	"context"
	"fmt"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/types"
)

// Env carries what compilation needs beyond the plan: how to lower the
// operators this package does not define and the degree of parallelism.
type Env struct {
	// Ctx cancels execution of the compiled plan: every pipeline polls it
	// once per morsel and pipeline breakers between phases. Nil means not
	// cancellable.
	Ctx context.Context
	// Lower compiles a node the compiler does not know — the ML operators
	// of the unified IR; the runtime code generator supplies it. below
	// compiles a child of the node, this hook included, to its
	// still-pushable pipeline, so one pipeline threads through relational
	// and ML stages alike.
	Lower func(n plan.Node, below func(plan.Node) (*Exchange, error)) (*Exchange, error)
	// Parallelism is the pipeline worker count. 1 runs every pipeline
	// inline on the caller's goroutine (the Fig 3 ablation); 0 defaults
	// to 1.
	Parallelism int
	// ParallelThresholdRows gates parallel scans: a scan of fewer rows
	// runs as a one-worker pipeline, since the fan-out costs more than it
	// saves. Default 50k rows.
	ParallelThresholdRows int
	// MorselSize is the rows-per-morsel of table scans; 0 means
	// DefaultMorselSize at DOP > 1 and types.DefaultBatchSize at DOP 1.
	MorselSize int
}

func (e *Env) parallelism() int {
	if e.Parallelism <= 1 {
		return 1
	}
	return e.Parallelism
}

func (e *Env) threshold() int {
	if e.ParallelThresholdRows <= 0 {
		return 50000
	}
	return e.ParallelThresholdRows
}

// morselSize sizes the morsels of a dop-wide scan. One worker has no
// claim to amortize, so it takes batch-size morsels — the least a LIMIT
// above can stop after.
func (e *Env) morselSize(dop int) int {
	switch {
	case e.MorselSize > 0:
		return e.MorselSize
	case dop == 1:
		return types.DefaultBatchSize
	default:
		return DefaultMorselSize
	}
}

// Pipeline opens a fresh morsel pipeline over op's batch stream. This is
// how execution re-enters a pipeline above a breaker or an ordered
// operator: whatever sits above it (filter, project, PREDICT, the next
// join's probe) pushes onto the new exchange and, at DOP > 1, runs
// morsel-parallel again.
func (e *Env) Pipeline(op Operator) *Exchange {
	ex := NewExchange(&StreamMorselSource{Op: op}, e.parallelism())
	ex.Ctx = e.Ctx
	return ex
}

// Compile lowers a logical plan into a physical operator tree. Every node
// compiles to exactly one morsel pipeline: per-row operators (filter,
// project, predict, join probe) push a stage onto their child's pipeline,
// and breakers and ordered operators consume one pipeline and start the
// next. A large table scan's pipeline is DOP-wide — workers claim
// fixed-size row morsels from a shared cursor, run the whole chain on
// each, and results merge back in scan order, reproducing SQL Server's
// automatic parallel scan+PREDICT (paper §5, observation iii) with
// deterministic output — and a small one's runs inline.
func Compile(n plan.Node, env *Env) (Operator, error) {
	if env == nil {
		env = &Env{}
	}
	ex, err := (&compiler{env: env}).compile(n)
	if err != nil {
		return nil, err
	}
	// The root may still carry a stage-free re-entry exchange; nothing can
	// push onto it now.
	return UnwrapIdleExchange(ex), nil
}

// UnwrapIdleExchange strips a stage-free exchange wrapped around an
// operator's output once nothing can push onto it anymore (the plan root,
// or an ordered consumer like LIMIT). The wrap only exists so stages
// above the operator can re-enter a pipeline; when none arrived, its own
// batch stream is already in final order and a DOP-wide exchange would
// add worker goroutines and a reorder buffer for zero work — and under
// LIMIT it would also prefetch rows the query will never return.
func UnwrapIdleExchange(op Operator) Operator {
	ex, ok := op.(*Exchange)
	if !ok || ex.opened || len(ex.Stages) > 0 {
		return op
	}
	if sms, ok := ex.Source.(*StreamMorselSource); ok {
		return sms.Op
	}
	return op
}

type compiler struct {
	env *Env
}

// push compiles child and appends st to its pipeline.
func (c *compiler) push(child plan.Node, st Stage) (*Exchange, error) {
	ex, err := c.compile(child)
	if err != nil {
		return nil, err
	}
	if err := ex.Push(st); err != nil {
		return nil, err
	}
	return ex, nil
}

// breakerSource compiles a breaker's input and hands its pipeline — source
// plus pushed stages — to the breaker's own workers, so the work below a
// breaker runs on whichever of them claimed the morsel.
func (c *compiler) breakerSource(child plan.Node) (MorselSource, error) {
	ex, err := c.compile(child)
	if err != nil {
		return nil, err
	}
	return &stagedSource{src: ex.Source, stages: ex.Stages, schema: ex.Schema()}, nil
}

func (c *compiler) compile(n plan.Node) (*Exchange, error) {
	env := c.env
	switch x := n.(type) {
	case *plan.Scan:
		dop, rows := env.parallelism(), x.Table.NumRows()
		if rows < env.threshold() {
			dop = 1
		}
		src, err := NewTableMorselSource(x.Table, x.Cols, env.morselSize(dop))
		if err != nil {
			return nil, err
		}
		ex := NewExchange(src, dop)
		ex.Ctx = env.Ctx
		return ex, nil

	case *plan.Filter:
		ex, err := c.push(x.Child, &FilterStage{Pred: x.Pred})
		if _, ok := x.Child.(*plan.Scan); ok && err == nil {
			// The filter still runs on every row read; its ranges only let
			// the scan leave out rows that cannot pass it.
			ex.Source.(*TableMorselSource).Ranges = expr.DeriveRanges(x.Pred)
		}
		return ex, err

	case *plan.Project:
		return c.push(x.Child, &ProjectStage{Exprs: x.Exprs, Names: x.Names})

	case *plan.Join:
		build, err := c.breakerSource(x.Right)
		if err != nil {
			return nil, err
		}
		// The probe is one more stage in the left input's pipeline: every
		// worker probes the morsels it claims.
		stage := NewHashProbeStage(x.LeftCol, build.Schema(), x.RightCol)
		probe, err := c.push(x.Left, stage)
		if err != nil {
			return nil, err
		}
		j, err := NewParallelHashJoin(build, env.parallelism(), probe, stage, x.RightCol, env.Ctx)
		if err != nil {
			return nil, err
		}
		return env.Pipeline(j), nil

	case *plan.Aggregate:
		if !x.Parallelizable() {
			return nil, fmt.Errorf("exec: aggregate has a non-mergeable function; two-phase aggregation is the only execution path")
		}
		src, err := c.breakerSource(x.Child)
		if err != nil {
			return nil, err
		}
		a, err := NewParallelHashAggregate(src, env.parallelism(), x.GroupBy, x.Aggs, env.Ctx)
		if err != nil {
			return nil, err
		}
		return env.Pipeline(a), nil

	case *plan.Sort:
		src, err := c.breakerSource(x.Child)
		if err != nil {
			return nil, err
		}
		s, err := NewRunSort(src, env.parallelism(), x.Keys, env.Ctx)
		if err != nil {
			return nil, err
		}
		return env.Pipeline(s), nil

	case *plan.Limit:
		child, err := c.compile(x.Child)
		if err != nil {
			return nil, err
		}
		op := UnwrapIdleExchange(child)
		if rs, ok := op.(*RunSort); ok && x.TopK() != nil {
			rs.Limit = x.N
		}
		return env.Pipeline(&LimitOp{Child: op, N: x.N}), nil

	case *plan.Distinct:
		child, err := c.compile(x.Child)
		if err != nil {
			return nil, err
		}
		return env.Pipeline(&DistinctOp{Child: UnwrapIdleExchange(child)}), nil

	default:
		if env.Lower == nil {
			return nil, fmt.Errorf("exec: cannot compile plan node %T", n)
		}
		return env.Lower(n, c.compile)
	}
}

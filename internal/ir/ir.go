// Package ir defines the ML operators of Raven's unified intermediate
// representation (paper §3): one plan tree mixing relational-algebra (RA)
// operators — package plan's — with classical-ML operators and their
// featurizers (MLD), linear-algebra graphs (LA) and opaque UDFs. FromPlan
// replaces each bound PREDICT, wherever it sits, with the stored
// pipeline's model operator; NN translation rewrites a model operator
// into an LA node, inlining into a relational projection. Every operator
// here implements plan.Node and declares plan.Extension, which is all the
// relational rules need to move filters and prune columns around it. The
// cross optimizer (package xopt) rewrites this tree.
package ir

import (
	"fmt"

	"raven/internal/ml"
	"raven/internal/ort"
	"raven/internal/plan"
	"raven/internal/types"
)

// Category classifies operators per the paper's taxonomy (§3.1). It also
// decides the engine that runs one (§4.3): RA on the database engine,
// everything else on the ML runtime.
type Category uint8

// Operator categories.
const (
	RA Category = iota
	LA
	MLD
	UDF
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case RA:
		return "RA"
	case LA:
		return "LA"
	case MLD:
		return "MLD"
	default:
		return "UDF"
	}
}

// Engine names the runtime that executes operators of the category.
func (c Category) Engine() string {
	if c == RA {
		return "db"
	}
	return "ml"
}

// Node is one operator of the unified IR.
type Node = plan.Node

// categoryOf classifies a node: the operators of this package say what
// they are, anything else is relational.
func categoryOf(n Node) Category {
	if c, ok := n.(interface{ Cat() Category }); ok {
		return c.Cat()
	}
	return RA
}

// Scorer is what the model operators share: each reads InputCols of its
// child's rows and appends OutputCol, row by row.
type Scorer struct {
	Child Node
	// Model is the stored model's name.
	Model     string
	InputCols []string
	OutputCol types.Column
	// SessionKey keys this operator's tensor session in the session cache;
	// empty builds an uncached session.
	SessionKey string
}

// Op returns the shared part of a model operator.
func (s *Scorer) Op() *Scorer { return s }

// Schema implements plan.Node.
func (s *Scorer) Schema() *types.Schema {
	return s.Child.Schema().Concat(types.NewSchema(s.OutputCol))
}

// Children implements plan.Node.
func (s *Scorer) Children() []Node { return []Node{s.Child} }

// SetChild implements plan.Node.
func (s *Scorer) SetChild(_ int, n Node) { s.Child = n }

// Reads implements plan.Extension.
func (s *Scorer) Reads() []string { return s.InputCols }

// Adds implements plan.Extension.
func (s *Scorer) Adds() []string { return []string{s.OutputCol.Name} }

// RowWise implements plan.Extension.
func (s *Scorer) RowWise() bool { return true }

// ModelNode is a stored pipeline: featurizer Steps, then the predictor M
// (MLD category).
type ModelNode struct {
	Scorer
	// Steps featurize InputCols in order; M scores the last step's output.
	Steps []ml.Transformer
	M     ml.Model
	// TopK, when set, says the score feeds only the first key of a bounded
	// sort (xopt's topk-score-bound): a row that cannot reach that sort's
	// first TopK.K may go unscored and unemitted.
	TopK *ScoreBound
}

// ScoreBound is what a bounded sort asks of a model operator's score: the
// K best, largest first when Desc.
type ScoreBound struct {
	K    int
	Desc bool
}

func (b *ScoreBound) String() string {
	if b.Desc {
		return fmt.Sprintf("top %d DESC", b.K)
	}
	return fmt.Sprintf("top %d ASC", b.K)
}

// Cat is the operator category.
func (n *ModelNode) Cat() Category { return MLD }

// Clone implements plan.Extension.
func (n *ModelNode) Clone() Node { c := *n; return &c }

func (n *ModelNode) String() string {
	if n.TopK != nil {
		return fmt.Sprintf("model:%s -> %s; %s", n.M.Kind(), n.OutputCol.Name, n.TopK)
	}
	return fmt.Sprintf("model:%s -> %s", n.M.Kind(), n.OutputCol.Name)
}

// LANode holds a compiled tensor graph (the result of NN translation).
// Input "X" of the graph is fed from InputCols; output "Y" lands in
// OutputCol.
type LANode struct {
	Scorer
	G *ort.Graph
}

// Cat is the operator category.
func (n *LANode) Cat() Category { return LA }

// Clone implements plan.Extension.
func (n *LANode) Clone() Node { c := *n; return &c }

func (n *LANode) String() string {
	return fmt.Sprintf("graph(%d nodes) -> %s", n.G.NumNodes(), n.OutputCol.Name)
}

// UDFNode wraps opaque code the static analyzer could not translate
// (paper §3.1). Fn maps an input batch to an output batch of schema Out.
type UDFNode struct {
	Child Node
	Name  string
	Fn    func(*types.Batch) (*types.Batch, error)
	Out   *types.Schema
}

// Cat is the operator category.
func (n *UDFNode) Cat() Category { return UDF }

// Schema implements plan.Node.
func (n *UDFNode) Schema() *types.Schema { return n.Out }

// Children implements plan.Node.
func (n *UDFNode) Children() []Node { return []Node{n.Child} }

// SetChild implements plan.Node.
func (n *UDFNode) SetChild(_ int, c Node) { n.Child = c }

// Reads implements plan.Extension; an opaque operator may read anything.
func (n *UDFNode) Reads() []string { return nil }

// Adds implements plan.Extension.
func (n *UDFNode) Adds() []string { return nil }

// RowWise implements plan.Extension: a UDF is opaque.
func (n *UDFNode) RowWise() bool { return false }

// Clone implements plan.Extension.
func (n *UDFNode) Clone() Node { c := *n; return &c }

func (n *UDFNode) String() string { return n.Name }

// Graph is a unified-IR plan: one tree of relational and ML operators.
type Graph struct {
	Root Node
}

// Explain renders the tree with categories and engine assignments, the
// unified-IR view the paper's Fig 1 shows. A model's featurizer steps
// print below it in the order they run, then its input.
func (g *Graph) Explain() string {
	return plan.Render(g.Root, "", func(n Node) []string {
		c := categoryOf(n)
		tag := fmt.Sprintf("[%s/%s] %s:", c, c.Engine(), c)
		lines := []string{tag + n.String()}
		if x, ok := n.(*ModelNode); ok {
			for _, st := range x.Steps {
				lines = append(lines, tag+"transform:"+st.Kind())
			}
		}
		return lines
	})
}

// Find returns the first node, parents before children, satisfying pred,
// or nil.
func (g *Graph) Find(pred func(Node) bool) Node {
	var found Node
	plan.Walk(g.Root, func(n Node) {
		if found == nil && pred(n) {
			found = n
		}
	})
	return found
}

// ModelOps returns the shared part of every model operator of the tree.
func (g *Graph) ModelOps() []*Scorer {
	var out []*Scorer
	plan.Walk(g.Root, func(n Node) {
		if s, ok := n.(interface{ Op() *Scorer }); ok {
			out = append(out, s.Op())
		}
	})
	return out
}

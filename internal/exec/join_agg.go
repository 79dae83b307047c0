package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"raven/internal/expr"
	"raven/internal/plan"
	"raven/internal/types"
)

// joinOutputSchema computes the join output (left ++ right minus the
// right key column, matching plan.Join) and the kept right-column
// ordinals — shared by HashProbeStage and the serial reference join the
// tests keep (reference_test.go).
func joinOutputSchema(left, right *types.Schema, rightCol string) (schema *types.Schema, rightSel []int, rightIdx int, err error) {
	rightIdx = right.IndexOf(rightCol)
	if rightIdx < 0 {
		return nil, nil, -1, fmt.Errorf("exec: join key %q not in right schema", rightCol)
	}
	var cols []types.Column
	cols = append(cols, left.Columns...)
	for i, c := range right.Columns {
		if i == rightIdx {
			continue
		}
		cols = append(cols, c)
		rightSel = append(rightSel, i)
	}
	return types.NewSchema(cols...), rightSel, rightIdx, nil
}

// aggOutputSchema computes the output schema of a grouped aggregation over
// child schema cs, mirroring plan.NewAggregate — shared by
// ParallelHashAggregate and the serial reference aggregate the tests keep
// (reference_test.go).
func aggOutputSchema(cs *types.Schema, groupBy []string, aggs []plan.AggSpec) (*types.Schema, error) {
	var cols []types.Column
	for _, g := range groupBy {
		i := cs.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: GROUP BY column %q not found", g)
		}
		cols = append(cols, cs.Columns[i])
	}
	for _, a := range aggs {
		t := types.Float
		if a.Func == plan.AggCount {
			t = types.Int
		} else if a.Arg != nil && (a.Func == plan.AggMin || a.Func == plan.AggMax) {
			at, err := a.Arg.Type(cs)
			if err != nil {
				return nil, err
			}
			t = at
		}
		cols = append(cols, types.Column{Name: a.Name, Type: t})
	}
	return types.NewSchema(cols...), nil
}

// appendGroupKey renders row i's grouping columns as the hash key into
// dst (reset first), returning the grown buffer — callers keep one
// scratch buffer per batch, so a row whose key is already tabled pays no
// allocation. Each value is length-prefixed so string values containing
// a delimiter cannot make two distinct key tuples collide (e.g.
// ("x|","y") vs ("x","|y")), and values render through typed strconv
// paths instead of reflection. DISTINCT keys whole rows with it, and
// aggregation keys every GROUP BY but one INT or VARCHAR column with it;
// aggTable's INT and VARCHAR keys split rows exactly as this rendering
// does.
func appendGroupKey(dst []byte, b *types.Batch, keyIdx []int, i int) []byte {
	dst = dst[:0]
	for _, ki := range keyIdx {
		v := b.Vecs[ki]
		if v.IsNull(i) {
			// Distinct marker: every rendered value starts with a digit
			// (its length prefix), so NULL can never collide with a
			// literal string like "<nil>".
			dst = append(dst, 'n')
			continue
		}
		var s string
		switch v.Type {
		case types.Int:
			s = strconv.FormatInt(v.IntAt(i), 10)
		case types.Float:
			// shortest round-trip form, same rendering fmt %v uses
			s = strconv.FormatFloat(v.FloatAt(i), 'g', -1, 64)
		case types.Bool:
			s = strconv.FormatBool(v.BoolAt(i))
		case types.String:
			s = v.StringAt(i)
		default:
			s = fmt.Sprintf("%v", v.Value(i))
		}
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, ':')
		dst = append(dst, s...)
	}
	return dst
}

// evalAggArgs evaluates the aggregate arguments over b into argVals
// (reused across batches). Broadcast results are materialized because the
// typed fold loops index the data slices directly.
func evalAggArgs(argVals []*types.Vector, aggs []plan.AggSpec, b *types.Batch) error {
	for ai, a := range aggs {
		if a.Arg == nil {
			continue
		}
		v, err := a.Arg.Eval(b)
		if err != nil {
			return err
		}
		if v.Const {
			d := v.Densify()
			expr.PutEvalResult(a.Arg, v)
			v = d
		}
		argVals[ai] = v
	}
	return nil
}

// putAggArgs returns the evaluated argument vectors to the pool once a
// batch has been folded.
func putAggArgs(argVals []*types.Vector, aggs []plan.AggSpec) {
	for ai, a := range aggs {
		if a.Arg != nil && argVals[ai] != nil {
			expr.PutEvalResult(a.Arg, argVals[ai])
			argVals[ai] = nil
		}
	}
}

// aggKind is the accumulator an aggregate folds into, fixed by its
// function and its argument's static type.
type aggKind uint8

const (
	aggRows aggKind = iota // COUNT: the group's row count is the answer
	aggSum                 // SUM, AVG: an exact float sum
	aggMinF                // MIN/MAX over FLOAT or BOOL: a float64
	aggMinI                // MIN/MAX over INT: an int64, exact past 2^53
	aggMinS                // MIN/MAX over VARCHAR: a string
)

// aggKindsOf derives each aggregate's kind against the input schema.
// Argument types were already validated by aggOutputSchema.
func aggKindsOf(aggs []plan.AggSpec, in *types.Schema) []aggKind {
	kinds := make([]aggKind, len(aggs))
	for a, spec := range aggs {
		switch spec.Func {
		case plan.AggSum, plan.AggAvg:
			kinds[a] = aggSum
		case plan.AggMin, plan.AggMax:
			kinds[a] = aggMinF
			if spec.Arg != nil {
				switch t, _ := spec.Arg.Type(in); t {
				case types.Int:
					kinds[a] = aggMinI
				case types.String:
					kinds[a] = aggMinS
				}
			}
		}
	}
	return kinds
}

// groupPos is where a group was first seen: morsel seq, then row.
type groupPos struct{ seq, row int }

func (p groupPos) compare(o groupPos) int {
	return cmp.Or(cmp.Compare(p.seq, o.seq), cmp.Compare(p.row, o.row))
}

// aggTable is one worker's partial aggregate, laid out by column: group
// ids are handed out in the order the worker first sees its groups, and
// every per-group slice is indexed by them.
type aggTable struct {
	// byKey finds a group by its key: a map[K]int keyed by a one-column
	// INT or VARCHAR key's value, or else by the key's appendGroupKey
	// rendering. nullKey is 1 + the group of a NULL INT or VARCHAR key,
	// or 0.
	byKey   any
	nullKey int
	first   []groupPos
	keys    *types.Batch // row g: group g's key values, from its first row
	rows    []int64      // rows folded into each group
	accs    []aggAcc     // one per aggregate

	// Scratch, reused from morsel to morsel; ids is pooled (getSel).
	ids     *[]int
	args    []*types.Vector
	widened []float64
	render  []byte
}

// aggAcc is one aggregate's state for every group; only the slice its
// aggKind names is used.
type aggAcc struct {
	sum []exactFloatSum
	f   []float64
	i   []int64
	s   []string
}

// groupIDs returns the group of each of the first n rows of b's key
// columns keyIdx, opening (first seen at seq) the groups it meets for the
// first time. With no key every row is group 0; one INT or VARCHAR key is
// looked up by its value, NULL apart from every value; any other key is
// looked up by its appendGroupKey rendering.
func (t *aggTable) groupIDs(b *types.Batch, keyIdx []int, n, seq int) []int {
	ids := slices.Grow((*t.ids)[:0], n)[:n]
	*t.ids = ids
	if len(keyIdx) == 0 {
		if len(t.first) == 0 {
			t.open(b, keyIdx, seq, 0)
		}
		clear(ids)
		return ids
	}
	if v, rows := b.Vecs[keyIdx[0]], n; len(keyIdx) == 1 && (v.Type == types.Int || v.Type == types.String) {
		if v.Const {
			rows = 1 // every row's key is row 0's
		}
		if v.Type == types.Int {
			byValue(t, v.Ints[:rows], v, b, keyIdx, seq)
		} else {
			byValue(t, v.Strings[:rows], v, b, keyIdx, seq)
		}
		for i := rows; i < n; i++ {
			ids[i] = ids[0]
		}
		return ids
	}
	m, _ := t.byKey.(map[string]int)
	if m == nil {
		m = make(map[string]int)
		t.byKey = m
	}
	for i := range ids {
		t.render = appendGroupKey(t.render, b, keyIdx, i)
		g, ok := m[string(t.render)]
		if !ok {
			g = t.open(b, keyIdx, seq, i)
			m[string(t.render)] = g
		}
		ids[i] = g
	}
	return ids
}

// byValue sets ids[i] to the group of keys[i], the key of row i of v.
func byValue[K comparable](t *aggTable, keys []K, v *types.Vector, b *types.Batch, keyIdx []int, seq int) {
	m, _ := t.byKey.(map[K]int)
	if m == nil {
		m = make(map[K]int)
		t.byKey = m
	}
	ids, nulls := *t.ids, v.HasNulls()
	for i, k := range keys {
		if nulls && v.IsNull(i) {
			if t.nullKey == 0 {
				t.nullKey = t.open(b, keyIdx, seq, i) + 1
			}
			ids[i] = t.nullKey - 1
			continue
		}
		g, ok := m[k]
		if !ok {
			g = t.open(b, keyIdx, seq, i)
			m[k] = g
		}
		ids[i] = g
	}
}

// open starts a group at row i of b (first seen at seq) and returns its
// id. grow gives it accumulator slots.
func (t *aggTable) open(b *types.Batch, keyIdx []int, seq, i int) int {
	for k, ki := range keyIdx {
		t.keys.Vecs[k].AppendFrom(b.Vecs[ki], i)
	}
	t.first = append(t.first, groupPos{seq, i})
	return len(t.first) - 1
}

// grow gives the row count and every accumulator a slot for each group
// opened since the last call: MIN starts at +Inf or MaxInt64, MAX at
// −Inf or MinInt64, and a VARCHAR extreme is seeded by the fold.
func (t *aggTable) grow(aggs []plan.AggSpec, kinds []aggKind) {
	n := len(t.first)
	t.rows = pad(t.rows, n, 0)
	for a, k := range kinds {
		acc, f, i := &t.accs[a], math.Inf(1), int64(math.MaxInt64)
		if aggs[a].Func == plan.AggMax {
			f, i = math.Inf(-1), math.MinInt64
		}
		switch k {
		case aggSum:
			acc.sum = pad(acc.sum, n, exactFloatSum{})
		case aggMinF:
			acc.f = pad(acc.f, n, f)
		case aggMinI:
			acc.i = pad(acc.i, n, i)
		case aggMinS:
			acc.s = pad(acc.s, n, "")
		}
	}
}

// pad appends x to s until it is n long, doubling its capacity when it
// runs out (append grows large slices by a quarter, so one slot at a time
// would copy every slot about five times).
func pad[T any](s []T, n int, x T) []T {
	if n > cap(s) {
		s = slices.Grow(s, max(n, 2*cap(s))-len(s))
	}
	for len(s) < n {
		s = append(s, x)
	}
	return s
}

// fold adds a morsel's rows to their groups ids, one typed loop per
// aggregate; groups from n0 on were opened by this morsel. Every row
// counts and folds its argument slot, NULL or not (ROADMAP item 13), and
// a SUM over VARCHAR only counts.
func (t *aggTable) fold(aggs []plan.AggSpec, kinds []aggKind, ids []int, n0 int) {
	if len(t.rows) == 1 {
		t.rows[0] += int64(len(ids))
	} else {
		for _, g := range ids {
			t.rows[g]++
		}
	}
	for a, k := range kinds {
		v, acc, lower := t.args[a], &t.accs[a], aggs[a].Func == plan.AggMin
		switch {
		case k == aggSum && v.Type != types.String:
			xs := t.floats(v, len(ids))
			for i, g := range ids {
				acc.sum[g].Add(xs[i])
			}
		case k == aggMinF:
			extreme(acc.f, t.floats(v, len(ids)), ids, lower)
		case k == aggMinI:
			extreme(acc.i, v.Ints, ids, lower)
		case k == aggMinS:
			seed(acc.s, v.Strings, ids, n0)
			extreme(acc.s, v.Strings, ids, lower)
		}
	}
}

// mergeFrom folds o's groups into t, as a morsel whose rows are o's
// groups: its keys are o.keys (columns keyCols) and its values o's
// accumulators.
func (t *aggTable) mergeFrom(o *aggTable, aggs []plan.AggSpec, kinds []aggKind, keyCols []int) {
	n0 := len(t.first)
	ids := t.groupIDs(o.keys, keyCols, len(o.first), 0)
	t.grow(aggs, kinds)
	for g, d := range ids {
		t.rows[d] += o.rows[g]
		if d >= n0 || o.first[g].compare(t.first[d]) < 0 {
			// o saw the group first. Rows of one group have bit-identical
			// keys except FLOAT NaNs, whose payloads may differ: the group
			// keeps the first-seen row's.
			t.first[d] = o.first[g]
			for k, v := range o.keys.Vecs {
				if v.Type == types.Float && !v.IsNull(g) {
					t.keys.Vecs[k].Floats[d] = v.Floats[g]
				}
			}
		}
	}
	for a, k := range kinds {
		acc, oa, lower := &t.accs[a], &o.accs[a], aggs[a].Func == plan.AggMin
		switch k {
		case aggSum:
			for g, d := range ids {
				acc.sum[d].Merge(&oa.sum[g])
			}
		case aggMinF:
			extreme(acc.f, oa.f, ids, lower)
		case aggMinI:
			extreme(acc.i, oa.i, ids, lower)
		case aggMinS:
			seed(acc.s, oa.s, ids, n0)
			extreme(acc.s, oa.s, ids, lower)
		}
	}
}

// floats returns v's first n rows as float64: a FLOAT column itself, an
// INT or BOOL one widened into scratch.
func (t *aggTable) floats(v *types.Vector, n int) []float64 {
	if v.Type == types.Float {
		return v.Floats[:n]
	}
	t.widened = slices.Grow(t.widened[:0], n)[:n]
	v.WidenInto(t.widened, 1)
	return t.widened
}

// extreme lowers (or raises) each group's extreme m[ids[i]] to xs[i]. A
// NaN never replaces an extreme.
func extreme[T cmp.Ordered](m, xs []T, ids []int, lower bool) {
	xs = xs[:len(ids)]
	if lower {
		for i, g := range ids {
			if xs[i] < m[g] {
				m[g] = xs[i]
			}
		}
		return
	}
	for i, g := range ids {
		if xs[i] > m[g] {
			m[g] = xs[i]
		}
	}
}

// seed starts each group opened since n0 at one of its own values, so a
// VARCHAR extreme needs no sentinel.
func seed(m, xs []string, ids []int, n0 int) {
	for i, g := range ids {
		if g >= n0 {
			m[g] = xs[i]
		}
	}
}

// emit renders groups sel, in that order, as one output batch.
func (t *aggTable) emit(sel []int, schema *types.Schema, aggs []plan.AggSpec, kinds []aggKind) *types.Batch {
	nk := len(t.keys.Vecs)
	out := &types.Batch{Schema: schema, Vecs: make([]*types.Vector, schema.Len())}
	for k, v := range t.keys.Vecs {
		out.Vecs[k] = v.Gather(sel)
	}
	for a, spec := range aggs {
		acc, col := &t.accs[a], types.NewVector(schema.Columns[nk+a].Type, len(sel))
		for j, g := range sel {
			switch {
			case spec.Func == plan.AggCount:
				col.Ints[j] = t.rows[g]
			case spec.Func == plan.AggSum:
				col.Floats[j] = acc.sum[g].Round()
			case spec.Func == plan.AggAvg:
				col.Floats[j] = acc.sum[g].Round() / float64(t.rows[g])
			case kinds[a] == aggMinI:
				col.Ints[j] = acc.i[g]
			case kinds[a] == aggMinS:
				col.Strings[j] = acc.s[g]
			case col.Type == types.Bool:
				col.Bools[j] = acc.f[g] != 0
			default:
				col.Floats[j] = acc.f[g]
			}
		}
		out.Vecs[nk+a] = col
	}
	return out
}

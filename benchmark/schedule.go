package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
)

// Workload and shape names are fixed: later issues cite them.
const (
	wlBatch  = "batch_predict"
	wlHTTP   = "serve_http"
	wlPG     = "serve_pgwire"
	wlIngest = "ingest_durable"
)

var workloadNames = []string{wlBatch, wlHTTP, wlPG, wlIngest}

// Shapes of batch_predict, in oracle order; the run rotates through a
// seeded permutation of them.
const (
	shFig1 = iota
	shForest
	shLRNN
	shJoinAgg
	shTopK
)

var batchShapes = []string{"fig1_pruned", "forest_groupby", "lr_nn_scan", "join_agg", "topk_sort"}

// Shapes of the two serve workloads.
const (
	shHot = iota
	shAdhoc
	shCold
	shRowset
)

var serveShapes = []string{"hot_point", "adhoc_tiny", "cold_point", "rowset_2k"}

// serveWeights are percentages, in shape order. A hot_point that
// follows a scan runs while the served engine's collector is still
// marking what the scan allocated, and takes several times longer than
// one that follows another cache hit; with 16% scans that slow group is
// the top fifth of the hot_point class. At 80% the median operation sits
// at that class's 62nd percentile, clear of it, and p95 inside
// rowset_2k. (At 65/5/15/15 the median sat on the boundary between the
// two groups and differed by 10% between identical runs.)
var serveWeights = [4]int{80, 4, 8, 8}

// Shapes of ingest_durable.
const (
	shInsert = iota
	shWindow
	shFresh
)

var ingestShapes = []string{"insert_32", "recent_window_agg", "score_fresh"}

// op is one scheduled operation: a shape and up to two integers whose
// meaning the shape defines (a key, an id range, a literal, an offset
// behind the write frontier).
type op struct {
	shape uint8
	a, b  int64
}

// schedule is one op sequence per client connection. A client walks its
// sequence in order and wraps around; sequences are long enough that a
// wrap only happens on a system several times faster than today's.
type schedule [][]op

// hash identifies the schedule: equal hashes mean the same operations
// in the same order on the same connections.
func (s schedule) hash() string {
	h := sha256.New()
	var buf [17]byte
	for c, ops := range s {
		binary.LittleEndian.PutUint64(buf[:8], uint64(c))
		h.Write(buf[:8])
		for _, o := range ops {
			buf[0] = o.shape
			binary.LittleEndian.PutUint64(buf[1:9], uint64(o.a))
			binary.LittleEndian.PutUint64(buf[9:17], uint64(o.b))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Table sizes the schedules depend on, before -short divides them.
const (
	serveRows     = 20_000  // each hospital table of the serve workloads
	ingestPreload = 300_000 // events rows loaded before ingest_durable's window
)

// scheduleFor builds the named workload's schedule. The two serve
// workloads take the same branch: one schedule, two front ends.
func scheduleFor(name string, seed int64, scale int) schedule {
	switch name {
	case wlBatch:
		return batchSchedule(seed)
	case wlHTTP, wlPG:
		return serveSchedule(seed, serveRows/scale, serveConns)
	default:
		return ingestSchedule(seed, ingestPreload/scale)
	}
}

// batchSchedule is a fixed rotation over the five analytic shapes in a
// seeded order: equal weight by construction.
func batchSchedule(seed int64) schedule {
	perm := rand.New(rand.NewSource(seed)).Perm(len(batchShapes))
	ops := make([]op, 1000)
	for i := range ops {
		ops[i] = op{shape: uint8(perm[i%len(perm)])}
	}
	return schedule{ops}
}

// serveConns is the number of client connections of a serve workload.
// One closed-loop connection already keeps a two-core host busy: the
// served engine uses about 1.5 cores for it (query, collector, network
// poller). A second connection raised throughput by a tenth and made the
// median latency — a cache hit waiting for a core behind the other
// connection's scan — differ by 17 to 35% between identical runs, which
// no regression bound can hold.
const serveConns = 1

const (
	hotKeys      = 256
	rowsetRows   = 2000
	serveOpsConn = 1 << 16 // ops per connection before the schedule wraps
)

// serveSchedule draws the mixed serving traffic for conns connections
// over hospital tables of n rows. hot_point keys come from a 256-id hot
// set; cold_point ids are a permutation of the remaining ids, split
// between connections so none repeats before the whole id space is
// used up; adhoc_tiny literals never repeat at all; rowset_2k ranges
// are too large for the result cache to keep.
func serveSchedule(seed int64, n, conns int) schedule {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(n)
	hot, cold := ids[:hotKeys], ids[hotKeys:]
	rows := rowsetRows
	if rows > n/2 {
		rows = n / 2
	}
	s := make(schedule, conns)
	for c := range s {
		ops := make([]op, serveOpsConn)
		nCold := 0
		for i := range ops {
			r := rng.Intn(100)
			switch {
			case r < serveWeights[shHot]:
				ops[i] = op{shape: shHot, a: int64(hot[rng.Intn(hotKeys)])}
			case r < serveWeights[shHot]+serveWeights[shAdhoc]:
				// 7919 is coprime to 1e8, so k -> lit is injective.
				k := int64(i*conns + c)
				ops[i] = op{shape: shAdhoc, a: (k*7919 + seed) % 100_000_000}
			case r < serveWeights[shHot]+serveWeights[shAdhoc]+serveWeights[shCold]:
				ops[i] = op{shape: shCold, a: int64(cold[(nCold*conns+c)%len(cold)])}
				nCold++
			default:
				lo := int64(rng.Intn(n - rows + 1))
				ops[i] = op{shape: shRowset, a: lo, b: lo + int64(rows)}
			}
		}
		s[c] = ops
	}
	return s
}

const (
	insertRows   = 32
	ingestOps    = 1 << 13 // the writer needs 100 a second for at most 63 s
	freshRows    = 1024
	windowShare  = 20 // recent_window_agg covers 1/20 of the preloaded rows
	windowSpread = 3  // and ends up to 1/3 of the preload behind the frontier
)

// ingestSchedule has two connections: 0 is the paced writer, whose op k
// inserts the k-th block of 32 rows, and 1 is the reader, alternating a
// range aggregate that ends a seeded distance behind the write frontier
// with a PREDICT over the newest rows. Reader ops carry offsets, not
// absolute ids: the frontier is wherever the writer's acknowledgements
// have got to when the op is issued.
func ingestSchedule(seed int64, preload int) schedule {
	rng := rand.New(rand.NewSource(seed))
	w := make([]op, ingestOps)
	for k := range w {
		w[k] = op{shape: shInsert, a: int64(k)}
	}
	r := make([]op, ingestOps)
	for k := range r {
		if k%2 == 0 {
			r[k] = op{shape: shWindow, a: int64(rng.Intn(preload/windowSpread + 1)), b: int64(preload / windowShare)}
		} else {
			r[k] = op{shape: shFresh, b: freshRows}
		}
	}
	return schedule{w, r}
}

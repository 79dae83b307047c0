package exec

import (
	"math"
	"sync/atomic"
	"time"

	"raven/internal/types"
)

// Tuning targets. Morsels aim for a fixed service time: long enough to
// amortize claim/merge overhead, short enough that the reorder window and
// load imbalance stay small.
const (
	// targetMorselNanos is the per-morsel service time the tuner steers
	// toward (4ms, the classic morsel-driven scheduling quantum).
	targetMorselNanos = 4e6
	// minMorselsPerWorker keeps enough morsels in flight per worker for
	// load balancing even when service times would allow huge morsels.
	minMorselsPerWorker = 4
	// maxMorselSize bounds how much a single morsel may buffer.
	maxMorselSize = 64 * types.DefaultBatchSize
	// ewmaAlpha weights new per-morsel observations.
	ewmaAlpha = 0.2
)

// Tuner adapts the data plane's morsel size at lowering time, from table
// cardinality and the observed per-morsel service times of earlier
// queries. One Tuner serves a whole engine; all methods are safe for
// concurrent use.
type Tuner struct {
	// nanosPerRowBits is an EWMA of observed per-row service time,
	// stored as float64 bits (0 = no samples yet).
	nanosPerRowBits atomic.Uint64
	samples         atomic.Int64
}

// NewTuner returns an empty tuner (no observations yet).
func NewTuner() *Tuner { return &Tuner{} }

// ObserveMorsel folds one morsel execution (rows processed in d) into the
// service-time estimate. Exchange workers call this per morsel.
func (t *Tuner) ObserveMorsel(rows int, d time.Duration) {
	if t == nil || rows <= 0 || d <= 0 {
		return
	}
	sample := float64(d.Nanoseconds()) / float64(rows)
	for {
		old := t.nanosPerRowBits.Load()
		cur := math.Float64frombits(old)
		next := sample
		if cur > 0 {
			next = cur + ewmaAlpha*(sample-cur)
		}
		if t.nanosPerRowBits.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	t.samples.Add(1)
}

// nanosPerRow returns the current per-row service-time estimate, or 0
// before any observation.
func (t *Tuner) nanosPerRow() float64 {
	if t == nil {
		return 0
	}
	return math.Float64frombits(t.nanosPerRowBits.Load())
}

// MorselSize recommends rows-per-morsel for a scan of tableRows rows at
// the given DOP: the row count whose estimated service time hits the
// target quantum, capped so every worker still sees several morsels, and
// clamped to [DefaultBatchSize, maxMorselSize]. Before any observation it
// starts from DefaultMorselSize (bounded the same way). One worker has
// nothing to balance and no reorder window to bound, so at DOP 1 the
// table scans as a single morsel (fewest per-batch vector headers), up to
// the same clamp.
func (t *Tuner) MorselSize(tableRows, dop int) int {
	size := tableRows
	if dop > 1 {
		size = DefaultMorselSize
		if npr := t.nanosPerRow(); npr > 0 {
			size = int(targetMorselNanos / npr)
		}
		if bal := tableRows / (dop * minMorselsPerWorker); bal < size {
			size = bal
		}
	}
	if size < types.DefaultBatchSize {
		size = types.DefaultBatchSize
	}
	if size > maxMorselSize {
		size = maxMorselSize
	}
	return size
}

// TunerStats is a snapshot of the tuner's state for stats endpoints.
type TunerStats struct {
	// Samples counts morsel observations folded in since Open.
	Samples int64 `json:"samples"`
	// NanosPerRow is the current EWMA per-row service-time estimate.
	NanosPerRow float64 `json:"nanos_per_row"`
	// MorselSize is the current recommendation for a large scan at the
	// given engine DOP (what the next big parallel query would use).
	MorselSize int `json:"morsel_size"`
}

// Stats snapshots the tuner. dop is the engine's default parallelism,
// used to report the morsel size a representative large scan would get.
func (t *Tuner) Stats(dop int) TunerStats {
	if t == nil {
		return TunerStats{}
	}
	st := TunerStats{
		Samples:     t.samples.Load(),
		NanosPerRow: t.nanosPerRow(),
		MorselSize:  t.MorselSize(1<<30, dop),
	}
	return st
}

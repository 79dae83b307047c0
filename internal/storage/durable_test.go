package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raven/internal/expr"
	"raven/internal/types"
	"raven/internal/wal"
)

// durableOpts keeps tests fast: no per-append fsync (file writes are
// still visible to replay after Abort — only power loss would drop
// them), tiny segments so sealing paths run constantly.
func durableOpts(segRows int) DurableOptions {
	return DurableOptions{Fsync: wal.FsyncOff, SegmentRows: segRows}
}

func openDurable(t *testing.T, dir string, segRows int) (*Catalog, *Durable) {
	t.Helper()
	c, d, err := OpenDurable(dir, durableOpts(segRows))
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func loadRows(t *testing.T, c *Catalog, name string, n, from int) {
	t.Helper()
	tb, err := c.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		if err := tb.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
}

func tableInts(t *testing.T, c *Catalog, name string) []int64 {
	t.Helper()
	tb, err := c.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.ScanRange(0, tb.NumRows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, b.Len())
	for i := range out {
		if b.Vecs[0].IsNull(i) {
			t.Fatalf("unexpected NULL at row %d", i)
		}
		out[i] = b.Vecs[0].IntAt(i)
	}
	return out
}

func checkSequential(t *testing.T, got []int64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("recovered %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d, want %d", i, v, i)
		}
	}
}

// TestDurableCrashRecovery is the core guarantee: everything committed
// before an unclean shutdown — tables, rows, unique keys, stored models
// — is back after reopen, byte for byte.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 1000, 0) // many seals at 64 rows/segment
	if err := c.SetUniqueKey("t", "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.Models.PutModel("m", "gob-pipeline", []byte("model-bytes"), map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	want := tableInts(t, c, "t")
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, 64)
	defer d2.Close(false)
	checkSequential(t, tableInts(t, c2, "t"), 1000)
	for i, v := range tableInts(t, c2, "t") {
		if v != want[i] {
			t.Fatalf("row %d changed across recovery", i)
		}
	}
	if !c2.IsUniqueKey("t", "id") {
		t.Error("unique key lost")
	}
	m, err := c2.Models.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes) != "model-bytes" || m.Version != 1 || m.Meta["k"] != "v" {
		t.Errorf("model mangled: %+v", m)
	}
	st := d2.Stats()
	if st.Segments == 0 || st.SealedRows == 0 {
		t.Errorf("no sealed segments after 1000 rows at 64/segment: %+v", st)
	}
}

// TestDurableCheckpointAndRestart: a clean checkpointed close must
// restart from the manifest alone (empty WAL) with identical contents.
func TestDurableCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 500, 0)
	if err := c.Models.PutModel("m", "gob-pipeline", []byte("mm"), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(true); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint folded everything into segments + manifest;
	// the live WAL must be empty and old WALs deleted.
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal", "*.log"))
	if len(walFiles) != 1 {
		t.Fatalf("want exactly one (fresh) wal file, got %v", walFiles)
	}
	if fi, err := os.Stat(walFiles[0]); err != nil || fi.Size() != 0 {
		t.Fatalf("live wal not empty after checkpoint: %v %v", fi, err)
	}

	c2, d2 := openDurable(t, dir, 64)
	defer d2.Close(false)
	checkSequential(t, tableInts(t, c2, "t"), 500)
	if st := d2.Stats(); st.WalRecords != 0 {
		t.Errorf("replayed %d records from a checkpointed dir", st.WalRecords)
	}
	if _, err := c2.Models.Latest("m"); err != nil {
		t.Error("model lost across checkpointed restart")
	}
	// All 500 rows sealed at checkpoint: the tail was folded in.
	tb, _ := c2.Table("t")
	if _, rows := tb.Segments(); rows != 500 {
		t.Errorf("sealed rows = %d, want 500", rows)
	}
}

// TestDurableTornTail: a torn final record (partial write at crash) is
// dropped; every record before it survives; the log is usable again.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 1<<16)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 10, 0)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	walFiles, _ := filepath.Glob(filepath.Join(dir, "wal", "*.log"))
	if len(walFiles) != 1 {
		t.Fatalf("wal files: %v", walFiles)
	}
	fi, err := os.Stat(walFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last append in half.
	if err := os.Truncate(walFiles[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, 1<<16)
	checkSequential(t, tableInts(t, c2, "t"), 9)
	// The log accepts appends again after truncation.
	loadRows(t, c2, "t", 1, 9)
	if err := d2.Close(false); err != nil {
		t.Fatal(err)
	}
	c3, d3 := openDurable(t, dir, 1<<16)
	defer d3.Close(false)
	checkSequential(t, tableInts(t, c3, "t"), 10)
}

// TestDurableCorruptSegmentQuarantined: a segment that fails its CRC is
// renamed aside and recovery reports which file and why.
func TestDurableCorruptSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 200, 0)
	if err := d.Close(true); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	// Smash the footer of the first segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenDurable(dir, durableOpts(64))
	if err == nil {
		t.Fatal("recovery accepted a corrupt segment")
	}
	if !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
		t.Fatalf("error does not name the quarantined file: %v", err)
	}
	if _, serr := os.Stat(segs[0] + ".quarantined"); serr != nil {
		t.Error("corrupt segment was not renamed aside")
	}
}

// TestDurableRecoveryIdempotent: recovering twice must equal recovering
// once — replay must not duplicate rows or re-log records.
func TestDurableRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 300, 0)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, 64)
	first := tableInts(t, c2, "t")
	rec2 := d2.Stats().WalRecords
	if err := d2.Abort(); err != nil { // again: no clean close
		t.Fatal(err)
	}
	c3, d3 := openDurable(t, dir, 64)
	defer d3.Close(false)
	second := tableInts(t, c3, "t")
	if d3.Stats().WalRecords != rec2 {
		t.Errorf("second recovery replayed %d records, first %d", d3.Stats().WalRecords, rec2)
	}
	checkSequential(t, first, 300)
	checkSequential(t, second, 300)
}

// TestDurableDDLRecovery: drops and re-creates replay in order.
func TestDurableDDLRecovery(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("a", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "a", 100, 0)
	if err := c.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(NewTable("a", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "a", 5, 0)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}

	c2, d2 := openDurable(t, dir, 64)
	defer d2.Close(false)
	checkSequential(t, tableInts(t, c2, "a"), 5)
}

// TestDurableCompaction: a checkpoint folds runs of undersized segments
// into full ones without changing contents.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	tb, _ := c.Table("t")
	// Checkpoints seal whatever small tail exists, so checkpointing after
	// every 20-row batch produces a stream of undersized segments that
	// later checkpoints must fold together.
	n := 0
	for i := 0; i < 6; i++ {
		b := types.NewBatch(intFloatSchema())
		for j := 0; j < 20; j++ {
			_ = b.AppendRow(int64(n), float64(n))
			n++
		}
		if err := tb.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	after, rows := tb.Segments()
	if after >= 6 {
		t.Errorf("compaction never folded: %d segments for 6 checkpointed batches", after)
	}
	if rows != n {
		t.Errorf("sealed rows = %d, want %d", rows, n)
	}
	checkSequential(t, tableInts(t, c, "t"), n)
	if err := d.Close(false); err != nil {
		t.Fatal(err)
	}
	// And the compacted layout recovers.
	c2, d2 := openDurable(t, dir, 64)
	defer d2.Close(false)
	checkSequential(t, tableInts(t, c2, "t"), n)
}

// TestDurableScanRangeAcrossSegments: ranges spanning sealed segments
// and the live tail materialize correctly (the zero-copy fast path only
// covers the tail).
func TestDurableScanRangeAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	defer d.Close(false)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 200, 0) // 3 segments of 64 + tail of 8
	tb, _ := c.Table("t")
	for _, rng := range [][2]int{{0, 200}, {60, 70}, {63, 65}, {100, 130}, {190, 200}, {192, 200}} {
		b, err := tb.ScanRange(rng[0], rng[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != rng[1]-rng[0] {
			t.Fatalf("range %v: len %d", rng, b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if b.Vecs[0].IntAt(i) != int64(rng[0]+i) {
				t.Fatalf("range %v row %d = %d", rng, i, b.Vecs[0].IntAt(i))
			}
		}
	}
	// A projected range decodes only the listed column, across segments
	// and into the tail.
	b, err := tb.ScanRange(60, 196, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema.Len() != 1 || b.Schema.Columns[0].Name != "x" || b.Len() != 136 || b.Vecs[0].Floats[135] != 97.5 {
		t.Fatalf("projected range = %v, %d rows", b.Schema, b.Len())
	}
	// Column stats stream across segments too.
	st, err := tb.Stats("id")
	if err != nil {
		t.Fatal(err)
	}
	if st.Min != 0 || st.Max != 199 || st.NumRows != 200 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDurableSpans: a scan reads the unsealed tail and only the sealed
// segments whose footer bounds can meet its ranges, and the backend
// counts both kinds once per call.
func TestDurableSpans(t *testing.T) {
	c, d := openDurable(t, t.TempDir(), 64)
	defer d.Close(false)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 200, 0) // ids 0-63, 64-127, 128-191 sealed; 192-199 the tail
	tb, _ := c.Table("t")
	id := func(lo, hi float64) map[string]expr.Range { return map[string]expr.Range{"id": {Lo: lo, Hi: hi}} }
	for _, tc := range []struct {
		lo, hi          int
		ranges          map[string]expr.Range
		want            []Span
		scanned, pruned uint64
	}{
		{0, math.MaxInt, nil, nil, 3, 0},
		{0, math.MaxInt, id(0, 127), []Span{{0, 64}, {64, 128}, {192, 200}}, 2, 1},
		{0, math.MaxInt, id(70, 100), []Span{{64, 128}, {192, 200}}, 1, 2},
		{0, math.MaxInt, id(500, 600), []Span{{192, 200}}, 0, 3},
		{0, math.MaxInt, map[string]expr.Range{"x": {Lo: 96, Hi: 1000}}, []Span{{192, 200}}, 0, 3},
		{0, math.MaxInt, id(100, 10), []Span{{192, 200}}, 0, 3}, // empty range
		{100, 150, id(0, 10), []Span{}, 0, 2},
		{100, 150, id(140, 150), []Span{{128, 150}}, 1, 1},
		{0, math.MaxInt, map[string]expr.Range{"nope": {Lo: 1, Hi: 0}}, nil, 3, 0},
	} {
		before := d.Stats()
		got, end := tb.Spans(tc.lo, tc.hi, tc.ranges)
		after := d.Stats()
		if end != min(tc.hi, 200) || (got == nil) != (tc.want == nil) || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Spans(%d, %d, %v) = %v, %d; want %v", tc.lo, tc.hi, tc.ranges, got, end, tc.want)
		}
		if s, p := after.SegmentsScanned-before.SegmentsScanned, after.SegmentsPruned-before.SegmentsPruned; s != tc.scanned || p != tc.pruned {
			t.Errorf("Spans(%d, %d, %v) counted %d read, %d pruned; want %d, %d", tc.lo, tc.hi, tc.ranges, s, p, tc.scanned, tc.pruned)
		}
	}
}

// TestDurableInterruptedCheckpointSweep: segment files from a seal whose
// SEAL record never hit the log are swept at recovery, not resurrected.
func TestDurableInterruptedCheckpointSweep(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 1<<16)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 10, 0)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	// A stray segment file nothing references (crash between segment
	// write and SEAL log / manifest).
	stray := filepath.Join(dir, "seg", "t-99999999.seg")
	if err := os.WriteFile(stray, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, 1<<16)
	defer d2.Close(false)
	checkSequential(t, tableInts(t, c2, "t"), 10)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("orphan segment not swept")
	}
	// And its sequence number is never reused.
	if d2.segSeq.Load() < 99999999 {
		t.Errorf("segSeq = %d did not advance past orphan", d2.segSeq.Load())
	}
}

// TestDurableConcurrentAppends exercises group commit + sealing from
// many goroutines (run under -race).
func TestDurableConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 50)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	tb, _ := c.Table("t")
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				if err := tb.AppendRow(int64(w*100+i), float64(i)); err != nil {
					done <- err
					return
				}
				if i%10 == 0 {
					if _, err := tb.ScanRange(0, tb.NumRows(), nil); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumRows() != 400 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if err := d.Close(false); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, 50)
	defer d2.Close(false)
	got := tableInts(t, c2, "t")
	if len(got) != 400 {
		t.Fatalf("recovered %d rows", len(got))
	}
	// Every value exactly once (order across goroutines is arbitrary but
	// the log's order is the table's order).
	seen := make(map[int64]bool, 400)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 400 {
		t.Fatalf("distinct recovered values = %d", len(seen))
	}
}

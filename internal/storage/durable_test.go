package storage

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
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

func putModel(t *testing.T, c *Catalog, name, data string) {
	t.Helper()
	if _, err := c.Models.Put(name, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func countFiles(t *testing.T, dir, pattern string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
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
	putModel(t, c, "m", "model-bytes")
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
	if string(m.Bytes) != "model-bytes" || m.Name != "m" {
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
	putModel(t, c, "m", "mm")
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
// once — replay must not duplicate rows or re-log records, and the first
// recovery's sweep must spare every file the second reads again: the
// segments of a table the MANIFEST lists and the WAL drops, the segment
// a replayed SEAL names for a table dropped later, and the blob of a
// model re-stored since the checkpoint. The next checkpoint sweeps them.
func TestDurableRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, d := openDurable(t, dir, 64)
	for _, name := range []string{"t", "u"} {
		if err := c.AddTable(NewTable(name, intFloatSchema())); err != nil {
			t.Fatal(err)
		}
	}
	loadRows(t, c, "u", 300, 0)
	putModel(t, c, "m", "v1")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(NewTable("w", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "w", 100, 0) // one logged SEAL
	for _, name := range []string{"u", "w"} {
		if err := c.DropTable(name); err != nil {
			t.Fatal(err)
		}
	}
	putModel(t, c, "m", "v2")
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
	if c3.HasTable("u") || c3.HasTable("w") {
		t.Error("dropped table came back")
	}
	if m, err := c3.Models.Latest("m"); err != nil || string(m.Bytes) != "v2" {
		t.Fatalf("model m = %v, %v; want v2", m, err)
	}

	putModel(t, c3, "m", "v3")
	if err := d3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := countFiles(t, dir, "seg/[uw]-*.seg"); n != 0 {
		t.Errorf("%d segments of dropped tables survived a checkpoint", n)
	}
	m, _ := c3.Models.Latest("m")
	if n := countFiles(t, dir, "models/*"); n != 1 || countFiles(t, dir, "models/"+m.Hash+".bin") != 1 {
		t.Errorf("%d model files after a checkpoint, want only the current blob", n)
	}
}

// TestDurableRecoversVersionedModelLayout: a directory written while the
// model store kept every version — a MANIFEST listing two versions of m
// with version, format, created_at and meta, and a WAL put of a third in
// the {"puts":[…]} shape with format and meta — recovers to the third
// version. Both listed blobs are still hash-checked, survive recovery,
// and go at the first checkpoint.
func TestDurableRecoversVersionedModelLayout(t *testing.T) {
	hash := func(data string) string {
		h := sha256.Sum256([]byte(data))
		return hex.EncodeToString(h[:])
	}
	writeDir := func() string {
		dir := t.TempDir()
		for _, sub := range []string{"wal", "models"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		var models []string
		for v, data := range []string{"v1", "v2"} {
			if err := os.WriteFile(filepath.Join(dir, "models", hash(data)+".bin"), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			models = append(models, fmt.Sprintf(`{"name":"m","version":%d,"format":"gob-pipeline","hash":%q,"file":%q,"created_at":"2026-01-02T03:04:05Z","meta":{"k":"v"}}`,
				v+1, hash(data), hash(data)+".bin"))
		}
		man := fmt.Sprintf(`{"wal_seq":1,"seg_seq":0,"models":[%s]}`, strings.Join(models, ","))
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(filepath.Join(dir, "wal", "wal-00000001.log"), wal.Options{Policy: wal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		rec := fmt.Sprintf(`{"puts":[{"name":"m","format":"gob-pipeline","bytes":%q,"hash":%q,"meta":{"k":"v"}}]}`,
			base64.StdEncoding.EncodeToString([]byte("v3")), hash("v3"))
		if err := log.Append(5, []byte(rec)); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := writeDir()
	c, d := openDurable(t, dir, 64)
	m, err := c.Models.Latest("m")
	if err != nil || string(m.Bytes) != "v3" || m.Hash != hash("v3") {
		t.Fatalf("recovered m = %+v, %v; want v3", m, err)
	}
	for _, data := range []string{"v1", "v2"} {
		if countFiles(t, dir, "models/"+hash(data)+".bin") != 1 {
			t.Errorf("recovery swept the blob of %s, which the MANIFEST lists", data)
		}
	}
	if err := d.Close(true); err != nil {
		t.Fatal(err)
	}
	if n := countFiles(t, dir, "models/*"); n != 1 || countFiles(t, dir, "models/"+hash("v3")+".bin") != 1 {
		t.Errorf("%d model files after a checkpoint, want only v3's blob", n)
	}
	c2, d2 := openDurable(t, dir, 64)
	defer d2.Close(false)
	if m, err := c2.Models.Latest("m"); err != nil || string(m.Bytes) != "v3" {
		t.Fatalf("m after checkpointed restart = %v, %v; want v3", m, err)
	}

	dir = writeDir()
	if err := os.WriteFile(filepath.Join(dir, "models", hash("v1")+".bin"), []byte("v1!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDurable(dir, durableOpts(64)); err == nil || !strings.Contains(err.Error(), "fails its content hash") {
		t.Fatalf("corrupt superseded blob: err = %v", err)
	}
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

// TestDurableSpans: a scan reads only the sealed segments whose footer
// bounds can meet its ranges, and the backend counts both kinds once per
// call. The tail is read whole unless a ranged INT column is sorted in it:
// here id is, so the tail is cut to the ids in range (x is FLOAT and never
// cuts it). Once an out-of-order id lands in the tail it is read whole
// again, until a seal starts a fresh one.
func TestDurableSpans(t *testing.T) {
	c, d := openDurable(t, t.TempDir(), 64)
	defer d.Close(false)
	if err := c.AddTable(NewTable("t", intFloatSchema())); err != nil {
		t.Fatal(err)
	}
	loadRows(t, c, "t", 200, 0) // ids 0-63, 64-127, 128-191 sealed; 192-199 the tail
	tb, _ := c.Table("t")
	id := func(lo, hi float64) map[string]expr.Range { return map[string]expr.Range{"id": {Lo: lo, Hi: hi}} }
	check := func(cases []spansCase) {
		t.Helper()
		for _, tc := range cases {
			before := d.Stats()
			got := tb.Spans(tc.ranges)
			after := d.Stats()
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("Spans(%v) = %v; want %v", tc.ranges, got, tc.want)
			}
			if s, p := after.SegmentsScanned-before.SegmentsScanned, after.SegmentsPruned-before.SegmentsPruned; s != tc.scanned || p != tc.pruned {
				t.Errorf("Spans(%v) counted %d read, %d pruned; want %d, %d", tc.ranges, s, p, tc.scanned, tc.pruned)
			}
		}
	}
	check([]spansCase{
		{nil, []Span{{0, 64}, {64, 128}, {128, 192}, {192, 200}}, 3, 0},
		{id(0, 127), []Span{{0, 64}, {64, 128}}, 2, 1},
		{id(70, 100), []Span{{64, 128}}, 1, 2},
		{id(150, 193), []Span{{128, 192}, {192, 194}}, 1, 2},
		{id(194.5, 197), []Span{{195, 198}}, 0, 3},
		{id(500, 600), nil, 0, 3},
		{map[string]expr.Range{"x": {Lo: 96, Hi: 1000}}, []Span{{192, 200}}, 0, 3},
		{id(100, 10), nil, 0, 3}, // empty range
		{map[string]expr.Range{"nope": {Lo: 1, Hi: 0}}, []Span{{0, 64}, {64, 128}, {128, 192}, {192, 200}}, 3, 0},
	})
	loadRows(t, c, "t", 1, 0) // id 0 after 199: the tail is no longer sorted
	check([]spansCase{{id(195, 197), []Span{{192, 201}}, 0, 3}})
	loadRows(t, c, "t", 63, 300) // the seal takes the unsorted tail
	loadRows(t, c, "t", 5, 400)
	check([]spansCase{{id(401, 402), []Span{{265, 267}}, 0, 4}})
}

type spansCase struct {
	ranges          map[string]expr.Range
	want            []Span
	scanned, pruned uint64
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

package storage

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"raven/internal/types"
	"raven/internal/wal"
)

func idSchema() *types.Schema { return types.NewSchema(types.Column{Name: "id", Type: types.Int}) }

// TestDroppedTableTakesNoWrite: a *Table handle taken before DROP TABLE
// refuses every append with the error an unknown table gets, in memory
// and durable, and the durable directory then reopens without the
// table. A scan that took its spans before the drop still reads them,
// even after a checkpoint swept the dropped table's segment files.
func TestDroppedTableTakesNoWrite(t *testing.T) {
	dir := t.TempDir()
	durable, d := openDurable(t, dir, 4)
	for _, c := range []*Catalog{NewCatalog(), durable} {
		if err := c.AddTable(NewTable("t", idSchema())); err != nil {
			t.Fatal(err)
		}
		h, err := c.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		for i := range 10 {
			if err := h.AppendRow(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		spans := h.Spans(nil)
		if err := c.DropTable("t"); err != nil {
			t.Fatal(err)
		}
		want := errNoTable("t").Error()
		if err := h.AppendRow(int64(1)); err == nil || err.Error() != want {
			t.Fatalf("AppendRow after drop: %v, want %q", err, want)
		}
		b := types.NewBatch(idSchema())
		if err := b.AppendRow(int64(2)); err != nil {
			t.Fatal(err)
		}
		if err := h.AppendBatch(b); err == nil || err.Error() != want {
			t.Fatalf("AppendBatch after drop: %v, want %q", err, want)
		}
		if c == durable {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		rows := 0
		for _, s := range spans {
			b, err := h.ScanRange(s.Lo, s.Hi, nil)
			if err != nil {
				t.Fatalf("scan begun before the drop: %v", err)
			}
			rows += b.Len()
		}
		if rows != 10 {
			t.Fatalf("scan begun before the drop read %d rows, want 10", rows)
		}
	}
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	c2, d2 := openDurable(t, dir, 4)
	defer d2.Close(false)
	if c2.HasTable("t") {
		t.Fatal("dropped table came back")
	}
}

// TestRecoverySkipsOrphanRecords: a log holding an append and a seal for
// a table that is no longer live at that point of the log (what an append
// through a handle held across a DROP left before appends checked the
// drop) opens without them, and OrphanRecords counts them.
func TestRecoverySkipsOrphanRecords(t *testing.T) {
	dir := t.TempDir()
	// Lay the data directory out, then append to its log by hand.
	_, d := openDurable(t, dir, 64)
	if err := d.Abort(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(filepath.Join(dir, "wal", "wal-00000001.log"), wal.Options{Policy: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	logJSON := func(typ byte, rec any) {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	logRow := func(table string, id int64) {
		b := types.NewBatch(idSchema())
		if err := b.AppendRow(id); err != nil {
			t.Fatal(err)
		}
		payload, err := encodeAppend(table, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recAppend, payload); err != nil {
			t.Fatal(err)
		}
	}
	logJSON(recCreateTable, createTableRec{Name: "t", Cols: schemaCols(idSchema())})
	logRow("t", 1)
	logJSON(recDropTable, dropTableRec{Name: "t"})
	logRow("t", 2)
	logJSON(recSeal, sealRec{Table: "t", File: "t-00000001.seg", Rows: 2})
	logJSON(recCreateTable, createTableRec{Name: "u", Cols: schemaCols(idSchema())})
	logRow("u", 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	c2, d2, err := OpenDurable(dir, durableOpts(64))
	if err != nil {
		t.Fatalf("open a log with orphan records: %v", err)
	}
	defer d2.Close(false)
	if got := d2.Stats().OrphanRecords; got != 2 {
		t.Errorf("OrphanRecords = %d, want 2", got)
	}
	if c2.HasTable("t") {
		t.Error("dropped table came back")
	}
	if got := tableInts(t, c2, "u"); len(got) != 1 || got[0] != 3 {
		t.Errorf("u = %v, want [3]", got)
	}
}

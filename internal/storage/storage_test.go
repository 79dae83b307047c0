package storage

import (
	"fmt"
	"sync"
	"testing"

	"raven/internal/types"
)

func intFloatSchema() *types.Schema {
	return types.NewSchema(types.Column{Name: "id", Type: types.Int}, types.Column{Name: "x", Type: types.Float})
}

func TestTableAppendScan(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	for i := 0; i < 10; i++ {
		if err := tb.AppendRow(int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if tb.NumRows() != 10 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	b, err := tb.ScanRange(3, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Vecs[0].Ints[0] != 3 {
		t.Fatalf("ScanRange = %v", b.Vecs[0].Ints)
	}
	// Out-of-range clamps.
	if got, _ := tb.ScanRange(8, 100, nil); got.Len() != 2 {
		t.Errorf("clamped scan len = %d, want 2", got.Len())
	}
	if got, _ := tb.ScanRange(100, 200, nil); got.Len() != 0 {
		t.Errorf("empty scan len = %d, want 0", got.Len())
	}
}

func TestTableAppendBatch(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	b := types.NewBatch(intFloatSchema())
	_ = b.AppendRow(int64(1), 1.0)
	_ = b.AppendRow(int64(2), 2.0)
	if err := tb.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	wrong := types.NewBatch(types.NewSchema(types.Column{Name: "only", Type: types.Int}))
	if err := tb.AppendBatch(wrong); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestTableArityError(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	if err := tb.AppendRow(int64(1)); err == nil {
		t.Error("short row should fail")
	}
}

func TestTableConcurrentAppendScan(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tb.AppendRow(int64(i), float64(i))
				_, _ = tb.ScanRange(0, tb.NumRows(), nil)
			}
		}()
	}
	wg.Wait()
	if tb.NumRows() != 800 {
		t.Fatalf("NumRows = %d, want 800", tb.NumRows())
	}
}

func TestTableStats(t *testing.T) {
	tb := NewTable("t", types.NewSchema(
		types.Column{Name: "cat", Type: types.Int},
		types.Column{Name: "name", Type: types.String},
	))
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow(int64(i%3), fmt.Sprintf("s%d", i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if lo, hi, ok := tb.MinMax("cat"); !ok || lo != 0 || hi != 2 {
		t.Errorf("MinMax(cat) = %v, %v, %v", lo, hi, ok)
	}
	if _, _, ok := tb.MinMax("name"); ok {
		t.Error("a VARCHAR column has no min/max")
	}
	if _, _, ok := tb.MinMax("missing"); ok {
		t.Error("a missing column has no min/max")
	}
}

func TestCatalogTables(t *testing.T) {
	c := NewCatalog()
	tb := NewTable("Patients", intFloatSchema())
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(NewTable("patients", intFloatSchema())); err == nil {
		t.Error("duplicate (case-insensitive) table name should fail")
	}
	got, err := c.Table("PATIENTS")
	if err != nil || got != tb {
		t.Fatalf("lookup failed: %v", err)
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "Patients" {
		t.Errorf("TableNames = %v", names)
	}
	if err := c.DropTable("patients"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("patients"); err == nil {
		t.Error("dropped table should not resolve")
	}
	if err := c.DropTable("patients"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCatalogUniqueKeys(t *testing.T) {
	c := NewCatalog()
	c.SetUniqueKey("patient_info", "id")
	if !c.IsUniqueKey("Patient_Info", "ID") {
		t.Error("unique key lookup should be case-insensitive")
	}
	if c.IsUniqueKey("patient_info", "age") {
		t.Error("age is not a unique key")
	}
}

func TestModelStorePut(t *testing.T) {
	s := NewModelStore()
	if old, err := s.Put("m", []byte("v1")); err != nil || old != nil {
		t.Fatalf("first put replaced %v, %v", old, err)
	}
	old, err := s.Put("M", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if old == nil || string(old.Bytes) != "v1" {
		t.Fatalf("second put replaced %+v, want v1", old)
	}
	latest, err := s.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if string(latest.Bytes) != "v2" || latest.Name != "M" {
		t.Errorf("latest = %s %q", latest.Name, latest.Bytes)
	}
	if old.Hash == latest.Hash {
		t.Error("different contents must hash differently")
	}
	if _, err := s.Latest("nope"); err == nil {
		t.Error("missing model should fail")
	}
}

// TestModelStoreConcurrent: concurrent puts to one name form one chain.
// Every put's bytes come back as exactly one put's replaced pipeline,
// except the final pipeline's, which none returns — no additions, no
// gaps. Run under -race, in memory and through the durable backend.
func TestModelStoreConcurrent(t *testing.T) {
	c, d := openDurable(t, t.TempDir(), 64)
	defer d.Close(false)
	const writers, puts = 8, 50
	for _, s := range []*ModelStore{NewModelStore(), c.Models} {
		replaced := make(chan []byte, writers*puts)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < puts; i++ {
					old, err := s.Put("m", []byte{byte(w), byte(i)})
					if err != nil {
						t.Error(err)
						return
					}
					if old != nil {
						replaced <- old.Bytes
					}
					_, _ = s.Latest("m")
				}
			}(w)
		}
		wg.Wait()
		close(replaced)
		seen := make(map[[2]byte]int)
		for b := range replaced {
			if len(b) != 2 || b[0] >= writers || b[1] >= puts {
				t.Fatalf("replaced %v was never put", b)
			}
			seen[[2]byte(b)]++
		}
		latest, err := s.Latest("m")
		if err != nil {
			t.Fatal(err)
		}
		if n := seen[[2]byte(latest.Bytes)]; n != 0 {
			t.Errorf("final pipeline %v reported replaced %d times", latest.Bytes, n)
		}
		if len(seen) != writers*puts-1 {
			t.Errorf("%d distinct pipelines replaced, want %d", len(seen), writers*puts-1)
		}
		for b, n := range seen {
			if n != 1 {
				t.Errorf("pipeline %v reported replaced %d times", b, n)
			}
		}
	}
}

func TestTableDataVersion(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	if v := tb.DataVersion(); v != 0 {
		t.Fatalf("fresh table DataVersion = %d, want 0", v)
	}
	if err := tb.AppendRow(int64(1), 1.0); err != nil {
		t.Fatal(err)
	}
	v1 := tb.DataVersion()
	if v1 == 0 {
		t.Fatal("AppendRow did not bump DataVersion")
	}
	b := types.NewBatch(intFloatSchema())
	_ = b.AppendRow(int64(2), 2.0)
	if err := tb.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if v2 := tb.DataVersion(); v2 <= v1 {
		t.Fatalf("AppendBatch did not bump DataVersion: %d -> %d", v1, v2)
	}
	// A failed append may bump (spurious invalidation is fine) but the
	// version must never move backwards and reads must stay consistent.
	before := tb.DataVersion()
	if err := tb.AppendRow(int64(3)); err == nil {
		t.Fatal("short row should fail")
	}
	if tb.DataVersion() < before {
		t.Fatal("DataVersion went backwards")
	}
}

func TestTableDataVersionConcurrent(t *testing.T) {
	tb := NewTable("t", intFloatSchema())
	var wg sync.WaitGroup
	const writers, perWriter = 4, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := tb.AppendRow(int64(w*perWriter+i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tb.DataVersion(); got != writers*perWriter {
		t.Fatalf("DataVersion = %d, want %d", got, writers*perWriter)
	}
}

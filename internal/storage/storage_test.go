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
	st, err := tb.Stats("cat")
	if err != nil {
		t.Fatal(err)
	}
	if st.Min != 0 || st.Max != 2 || st.DistinctCount != 3 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Distinct) != 3 {
		t.Errorf("Distinct = %v", st.Distinct)
	}
	ss, err := tb.Stats("name")
	if err != nil {
		t.Fatal(err)
	}
	if ss.DistinctCount != 2 || len(ss.DistinctStrings) != 2 {
		t.Errorf("string stats = %+v", ss)
	}
	if _, err := tb.Stats("missing"); err == nil {
		t.Error("stats of missing column should fail")
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

func TestModelStoreVersioning(t *testing.T) {
	s := NewModelStore()
	if err := s.PutModel("m", "gob", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.PutModel("m", "gob", []byte("v2"), map[string]string{"note": "retrained"}); err != nil {
		t.Fatal(err)
	}
	latest, err := s.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 2 || string(latest.Bytes) != "v2" {
		t.Errorf("latest = v%d %q", latest.Version, latest.Bytes)
	}
	v1, err := s.Version("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(v1.Bytes) != "v1" {
		t.Errorf("v1 = %q", v1.Bytes)
	}
	if v1.Hash == latest.Hash {
		t.Error("different contents must hash differently")
	}
	if _, err := s.Version("m", 3); err == nil {
		t.Error("missing version should fail")
	}
	if _, err := s.Latest("nope"); err == nil {
		t.Error("missing model should fail")
	}
}

func TestModelStoreTransactionAtomicity(t *testing.T) {
	s := NewModelStore()
	tx := s.Begin()
	tx.Put("a", "gob", []byte("A"), nil)
	tx.Put("b", "gob", []byte("B"), nil)
	// Not yet visible before commit.
	if _, err := s.Latest("a"); err == nil {
		t.Error("uncommitted put should not be visible")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest("a"); err != nil {
		t.Error("committed put should be visible")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}

	// A transaction with a bad delete aborts entirely: the staged put of
	// "c" must not appear.
	tx2 := s.Begin()
	tx2.Put("c", "gob", []byte("C"), nil)
	tx2.Delete("does-not-exist")
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit with bad delete should fail")
	}
	if _, err := s.Latest("c"); err == nil {
		t.Error("aborted transaction leaked a put")
	}
}

func TestModelStoreRollbackAndAudit(t *testing.T) {
	s := NewModelStore()
	tx := s.Begin()
	tx.Put("m", "gob", []byte("x"), nil)
	tx.Rollback()
	if _, err := s.Latest("m"); err == nil {
		t.Error("rolled-back put visible")
	}
	_ = s.PutModel("m", "gob", []byte("x"), nil)
	audit := s.Audit()
	var puts, rollbacks int
	for _, e := range audit {
		switch e.Op {
		case "put":
			puts++
		case "rollback":
			rollbacks++
		}
	}
	if puts != 1 || rollbacks != 1 {
		t.Errorf("audit = %+v", audit)
	}
}

func TestModelStoreDelete(t *testing.T) {
	s := NewModelStore()
	_ = s.PutModel("m", "gob", []byte("x"), nil)
	tx := s.Begin()
	tx.Delete("m")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest("m"); err == nil {
		t.Error("deleted model still visible")
	}
	if n := s.Names(); len(n) != 0 {
		t.Errorf("Names = %v", n)
	}
}

func TestModelStoreConcurrent(t *testing.T) {
	s := NewModelStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = s.PutModel("m", "gob", []byte{byte(w), byte(i)}, nil)
				_, _ = s.Latest("m")
			}
		}(w)
	}
	wg.Wait()
	latest, err := s.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != 400 {
		t.Errorf("final version = %d, want 400", latest.Version)
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

package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"raven"
	"raven/internal/ml"
)

// TestLameDuckDrainPhase pins the two-phase drain contract the cluster
// router depends on: after BeginDrain, /healthz advertises draining
// (503) while the query paths still accept and answer — the window in
// which a probing router re-routes with zero queries refused.
func TestLameDuckDrainPhase(t *testing.T) {
	db := hospitalDB(t, 200, 2, raven.WithMaxConcurrentQueries(2))
	c, srv, _ := startServer(t, db, Options{})

	srv.BeginDrain()

	h, err := c.Health(context.Background())
	if status(err) != http.StatusServiceUnavailable || h == nil || h.Status != "draining" {
		t.Fatalf("healthz in lame-duck = %+v, %v; want 503 draining", h, err)
	}
	// Queries still run: that is the whole point of the phase.
	res, err := c.Query(QueryRequest{SQL: "SELECT COUNT(*) AS n FROM patient_info"})
	if err != nil {
		t.Fatalf("query during lame-duck refused: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("lame-duck query returned %d rows", len(res.Rows))
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
}

// TestShutdownHonorsDrainGrace: Shutdown spends the grace window in
// lame-duck (healthz 503, queries accepted) before cutting admission.
func TestShutdownHonorsDrainGrace(t *testing.T) {
	db := hospitalDB(t, 200, 2, raven.WithMaxConcurrentQueries(2))
	c, srv, _ := startServer(t, db, Options{DrainGrace: 400 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Inside the grace window: advertised draining, still serving.
	deadline := time.Now().Add(300 * time.Millisecond)
	sawLameDuck := false
	for time.Now().Before(deadline) {
		h, _ := c.Health(context.Background())
		if h != nil && h.Status == "draining" {
			if _, qerr := c.Query(QueryRequest{SQL: "SELECT COUNT(*) AS n FROM patient_info"}); qerr == nil {
				sawLameDuck = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawLameDuck {
		t.Fatal("never observed the lame-duck window (healthz draining + queries accepted)")
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Fully drained now: queries refused.
	if _, err := c.Query(QueryRequest{SQL: "SELECT COUNT(*) AS n FROM patient_info"}); err == nil {
		t.Fatal("query accepted after full drain")
	}
}

// TestStoreModelOverWire: POST /model round-trips a serialized pipeline
// and the stored model serves PREDICT queries; garbage blobs are 400.
func TestStoreModelOverWire(t *testing.T) {
	db := hospitalDB(t, 200, 2, raven.WithMaxConcurrentQueries(2))
	c, _, _ := startServer(t, db, Options{})
	ctx := context.Background()

	// Re-store the existing model under a new name, over the wire.
	p, err := db.LoadModel("duration_of_stay")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := c.CatalogVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreModel(ctx, ModelRequest{Name: "dup_model", Data: blob}); err != nil {
		t.Fatalf("store model: %v", err)
	}
	v1, err := c.CatalogVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Fatalf("catalog version did not bump across model store: %d -> %d", v0, v1)
	}
	q := `SELECT d.id, p.score FROM PREDICT(MODEL='dup_model',
		DATA=(SELECT * FROM patient_info AS pi
		      JOIN blood_tests AS bt ON pi.id = bt.id
		      JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)
		WITH (score FLOAT) AS p WHERE d.age > 40`
	if _, err := c.Query(QueryRequest{SQL: q}); err != nil {
		t.Fatalf("predict with wire-stored model: %v", err)
	}

	// A garbage blob must be rejected before it reaches the catalog.
	err = c.StoreModel(ctx, ModelRequest{Name: "bad", Data: []byte("not a pipeline")})
	if status(err) != http.StatusBadRequest {
		t.Fatalf("garbage model blob: %v, want 400", err)
	}
}

// TestRetryPolicy pins the shared backoff helper's contract.
func TestRetryPolicy(t *testing.T) {
	p := retryPolicy{attempts: 4, base: time.Millisecond, max: 4 * time.Millisecond}

	// Backoff windows double and cap; jitter stays inside the window.
	for n, wantMax := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond} {
		for i := 0; i < 50; i++ {
			if d := p.backoff(n); d <= 0 || d > wantMax {
				t.Fatalf("backoff(%d) = %v, want in (0, %v]", n, d, wantMax)
			}
		}
	}

	// Retries transient failures up to attempts.
	calls := 0
	err := p.do(context.Background(), func() error {
		calls++
		return &HTTPError{Status: http.StatusServiceUnavailable, Msg: "draining"}
	})
	if calls != 4 || status(err) != http.StatusServiceUnavailable {
		t.Fatalf("transient: %d calls, err %v; want 4 calls, 503", calls, err)
	}

	// Terminal errors stop immediately.
	calls = 0
	err = p.do(context.Background(), func() error {
		calls++
		return &HTTPError{Status: http.StatusBadRequest, Msg: "bad sql"}
	})
	if calls != 1 || status(err) != http.StatusBadRequest {
		t.Fatalf("terminal: %d calls, err %v; want 1 call, 400", calls, err)
	}

	// Success after a retry returns nil.
	calls = 0
	err = p.do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("connection refused")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("recover: %d calls, err %v", calls, err)
	}

	// Context expiry interrupts the backoff sleep instead of waiting it
	// out (the sleep here would otherwise be an hour).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	slow := retryPolicy{attempts: 3, base: time.Hour, max: time.Hour}
	start := time.Now()
	err = slow.do(ctx, func() error { return errors.New("transport") })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired backoff: %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff slept past the context deadline")
	}

	// Classifier: retryable vs terminal.
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&HTTPError{Status: 503}, true},
		{&HTTPError{Status: 429}, true},
		{&HTTPError{Status: 400}, false},
		{&HTTPError{Status: 404}, false},
		{errors.New("dial tcp: connection refused"), true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Fatalf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

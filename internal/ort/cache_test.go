package ort

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"raven/internal/tensor"
)

// buildGraphSession compiles a tiny identity graph, giving the cache a
// real session to hold.
func buildTestSession(t *testing.T) func() (*Session, error) {
	t.Helper()
	return func() (*Session, error) {
		g := NewGraph("tiny")
		g.Inputs = []string{"X"}
		g.Outputs = []string{"Y"}
		g.Nodes = append(g.Nodes, &Node{Op: "Identity", Name: "id", Inputs: []string{"X"}, Outputs: []string{"Y"}})
		return NewSession(g)
	}
}

func TestSessionCacheSingleflight(t *testing.T) {
	c := NewSessionCache()
	var builds atomic.Int64
	build := buildTestSession(t)
	counted := func() (*Session, error) {
		builds.Add(1)
		return build()
	}
	const goroutines = 32
	var wg sync.WaitGroup
	sessions := make([]*Session, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Get("k", counted)
			if err != nil {
				t.Error(err)
				return
			}
			sessions[i] = s
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if sessions[i] != sessions[0] {
			t.Fatal("concurrent gets returned different sessions")
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != goroutines-1 {
		t.Errorf("stats = (%d hits, %d misses), want (%d, 1)", st.Hits, st.Misses, goroutines-1)
	}
}

func TestSessionCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewSessionCache()
	build := buildTestSession(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			if _, err := c.Get(key, build); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := c.Stats().Entries; n != 4 {
		t.Errorf("entries = %d, want 4", n)
	}
}

func TestSessionCachePanickingBuildUnblocksWaitersAndRetries(t *testing.T) {
	c := NewSessionCache()
	started := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		_, _ = c.Get("k", func() (*Session, error) {
			close(started)
			panic("malformed graph")
		})
	}()
	<-started
	go func() {
		_, err := c.Get("k", func() (*Session, error) { return buildTestSession(t)() })
		waiterDone <- err
	}()
	// The waiter must not hang: the panicked leader's flight is cancelled
	// on the way out, so the waiter wakes and builds for itself.
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter behind a panicked build: %v", err)
	}
	// And a later Get must be able to build successfully.
	if s, err := c.Get("k", buildTestSession(t)); err != nil || s == nil {
		t.Fatalf("retry after panicked build: %v", err)
	}
}

func TestSessionCacheFailedBuildRetries(t *testing.T) {
	c := NewSessionCache()
	boom := errors.New("boom")
	if _, err := c.Get("k", func() (*Session, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed build must not stay cached")
	}
	s, err := c.Get("k", buildTestSession(t))
	if err != nil || s == nil {
		t.Fatalf("retry after failed build: %v", err)
	}
}

// TestSessionCacheDistinctKeysDoNotSerialize holds one key's build open
// and requires another key's Get to finish meanwhile: builds run outside
// the cache lock, under their own key's flight only.
func TestSessionCacheDistinctKeysDoNotSerialize(t *testing.T) {
	c := NewSessionCache()
	started, unblock := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Get("slow", func() (*Session, error) {
			close(started)
			<-unblock
			return buildTestSession(t)()
		})
		done <- err
	}()
	<-started
	if _, err := c.Get("fast", buildTestSession(t)); err != nil {
		t.Fatal(err)
	}
	close(unblock)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSessionCacheByteBounded is the bound the unbounded map lacked:
// sessions are charged their initializer bytes, and past the budget the
// least recently used one goes. The graphs share one weight tensor, so
// the test allocates one of them, not nine.
func TestSessionCacheByteBounded(t *testing.T) {
	c := NewSessionCache()
	w := tensor.New(sessionCacheBytes / 8 / 8) // an eighth of the budget
	build := func() (*Session, error) {
		g := NewGraph("weighted")
		g.Inputs = []string{"X"}
		g.Outputs = []string{"Y"}
		g.Initializers["W"] = w
		g.Nodes = append(g.Nodes, &Node{Op: "Identity", Name: "id", Inputs: []string{"X"}, Outputs: []string{"Y"}})
		return NewSessionWithOptions(g, SessionOptions{})
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Get(fmt.Sprintf("hash#%d", i), build); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > sessionCacheBytes || st.Entries >= 8 || st.Evictions == 0 {
		t.Fatalf("cache not bounded by its byte budget: %+v", st)
	}
	c.Invalidate("hash")
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Invalidate(model hash) left specialized sessions behind: %+v", st)
	}
}
